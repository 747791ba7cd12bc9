"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); any failure is a hard test failure except the conjecture checks, which
are reported as observations and only fail if the machinery itself errors.
"""

import random
from fractions import Fraction

from realgw.exact_arith import RationalFunction
from realgw.gw_convert import bundled_tables, e_from_gw
from realgw.hodge import hodge_integral, i1, i2, lambda_product_integral
from realgw.localization import (
    class_total,
    enumerate_pairs,
    gw_real,
    pair_contribution,
    pair_contributions,
)
from realgw.psi_kappa import witten_psi
from realgw.series_ids import check_conjecture, verify_identity

from test_localization import (
    _is_loop_class,
    _multiset,
    all_halves,
    contribution_with_halves,
    degree3_expected,
    degree4_cycle_expected,
)


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_degree1_column():
    assert gw_real(0, 1) == 1
    assert gw_real(2, 1) == Fraction(1, 24)
    assert gw_real(4, 1) == Fraction(1, 1920)
    _passed("degree 1 column (1, 1/24, 1/1920) via full localization")


def test_criterion_2_degree3_column_and_diagrams():
    assert gw_real(0, 3) == -1
    assert gw_real(2, 3) == Fraction(-5, 24)
    assert gw_real(4, 3) == Fraction(-23, 1152)
    for g in (0, 2, 4):
        got = _multiset(v for _, v in pair_contributions(g, 3))
        assert got == _multiset(degree3_expected(g)), g
    _passed("degree 3 column (-1, -5/24, -23/1152) with per-diagram symbolic match")


def test_criterion_3_degree4_column_and_loop_cancellation():
    assert gw_real(1, 4) == -1
    assert gw_real(3, 4) == Fraction(-1, 3)
    assert gw_real(5, 4) == Fraction(-19, 360)
    for g in (1, 3, 5):
        loops = [
            v for p, v in pair_contributions(g, 4) if _is_loop_class(p)
        ]
        assert len(loops) == 8 * ((g - 1) // 2 + 1)
        total = RationalFunction.const(0)
        for v in loops:
            total = total + v
        assert total.is_zero(), g
        cycles = [
            v for p, v in pair_contributions(g, 4) if not _is_loop_class(p)
        ]
        assert _multiset(cycles) == _multiset(degree4_cycle_expected(g)), g
    _passed("degree 4 column (-1, -1/3, -19/360); 8 loop classes cancel exactly")


def test_criterion_4_table_conversions():
    gw1, e1 = bundled_tables(1)
    computed1 = e_from_gw(gw1)
    assert computed1.entries == e1.entries
    assert computed1.entries[(3, 6)] == 11
    assert computed1.entries[(4, 8)] == 980100
    gw2, e2 = bundled_tables(2)
    computed2 = e_from_gw(gw2)
    assert computed2.entries == e2.entries
    assert computed2.entries[(2, 7)] == -10
    assert computed2.entries[(5, 8)] == -40
    _passed("bundled GW tables reproduce both enumerative tables exactly")


def test_criterion_5_identity_suite_order_6():
    for name in ("F1", "F12", "F2", "F1sq", "hat_eq_tilde", "alpha_exp"):
        report = verify_identity(name, 6)
        assert report.passed, (name, report.residual)
        assert report.residual == [], name
    _passed("identity suite to t^6: F1, F12, F2, F1sq, hat=tilde, alpha exponential")


def test_criterion_6_hodge_psi_property_suite():
    assert witten_psi(0, (0, 0, 0)) == 1
    rng = random.Random(2025)
    checked = 0
    while checked < 200:
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if 2 * g - 2 + n <= 0:
            continue
        exps = [0] * n
        for _ in range(3 * g - 3 + n):
            exps[rng.randrange(n)] += 1
        exps = tuple(exps)
        string_lhs = witten_psi(g, exps + (0,))
        string_rhs = sum(
            witten_psi(g, exps[:j] + (a - 1,) + exps[j + 1 :])
            for j, a in enumerate(exps)
            if a > 0
        )
        assert string_lhs == string_rhs
        dilaton_lhs = witten_psi(g, exps + (1,))
        assert dilaton_lhs == (2 * g - 2 + n) * witten_psi(g, exps)
        checked += 1
    # top lambda squared kills every integral
    for g in (1, 2, 3):
        dim = 3 * g - 3 + 1
        rest = dim - 2 * g
        if rest >= 0:
            assert hodge_integral(g, (rest,), (g, g)) == 0
    # Mumford product relation at integral level, g <= 2
    for g in (1, 2):
        u = Fraction(3, 2)
        for p in range(3 * g - 2 + 1):
            exps = (p,)
            lhs = Fraction(0)
            for r1 in range(g + 1):
                for r2 in range(g + 1):
                    lam = tuple(r for r in (r1, r2) if r)
                    lhs += (
                        (-1) ** (r1 + r2)
                        * u ** (g - r1)
                        * (-u) ** (g - r2)
                        * hodge_integral(g, exps, lam)
                    )
            rhs = (-1) ** g * u ** (2 * g) * hodge_integral(g, exps, ())
            assert lhs == rhs, (g, p)
    # marked-point reduction of the one- and two-partition integrals
    rng = random.Random(77)
    for g in (0, 1, 2):
        for k in range(1, 5):
            if 2 * g + k < 3:
                continue
            us = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3))
            lhs = lambda_product_integral(g, us, [us[0]] + [None] * (k - 1)) / us[0]
            rhs = us[0] ** -(k - 1) * i1(g, *us)
            assert (RationalFunction.coerce(lhs) - rhs).is_zero(), (g, k, 1)
            if k >= 2 and not (g == 0 and k == 2):
                lhs2 = lambda_product_integral(g, us, [us[0], us[1]] + [None] * (k - 2))
                pref = (us[0] + us[1]) ** 2 * us[2] / (us[0] * us[1])
                rhs2 = (1 / us[0] + 1 / us[1]) ** (k - 2) * i2(g, *us) / pref
                assert (RationalFunction.coerce(lhs2) - rhs2).is_zero(), (g, k, 2)
    _passed(
        "psi/Hodge property suite: base point, 200 string+dilaton checks, "
        "top-lambda-squared vanishing, Euler-class product rule, point reductions"
    )


def test_criterion_7_parity_and_independence():
    for g, d in ((1, 1), (0, 2), (1, 3), (0, 4), (2, 4)):
        assert gw_real(g, d) == 0
        assert class_total(g, d).is_zero()
    for g, d in ((0, 1), (2, 1), (4, 1), (0, 3), (2, 3), (4, 3), (1, 4), (3, 4), (5, 4)):
        total = RationalFunction.const(0)
        for _, v in pair_contributions(g, d):
            total = total + v
        assert total.eval_at(Fraction(2, 5)) == total.eval_at(Fraction(7, 3)) == gw_real(g, d)
        for pair in enumerate_pairs(g, d):
            reference = pair_contribution(pair)
            assert contribution_with_halves(pair, pair.default_halves()) == reference
            for halves in all_halves(pair):
                assert (contribution_with_halves(pair, halves) - reference).is_zero()
    _passed(
        "parity zeros at (1,1),(0,2),(1,3),(0,4),(2,4); weight-point and "
        "half-choice independence across every degree <= 4 class"
    )


def test_criterion_8_conjecture_reports_non_blocking():
    observations = []
    for name in ("F1_dep", "F2_prod"):
        report = check_conjecture(name, 6)
        observations.append(f"{name}: {'consistent' if report.passed else 'DEVIATES'}")
    # Reported as observations in line with the source conjectures; a failed
    # conjecture check is surfaced but does not gate acceptance.
    _passed("conjecture observations to t^6 -> " + "; ".join(observations))
