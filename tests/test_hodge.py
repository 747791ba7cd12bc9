"""Tests for the Hodge-integral engine.

The boundary conventions of the Chern-character expansion are pinned by three
independent anchors: the classical one-pointed genus-1 value, Mumford's
product relation Lambda(u)Lambda(-u) = (-1)^g u^(2g) at integral level, and
the marked-point reduction lemma for the one- and two-partition integrals.
"""

import itertools
import random
from fractions import Fraction

import pytest

from realgw.exact_arith import RationalFunction, series_log, series_pow, series_sinc
from realgw.hodge import (
    HodgeQuery,
    alpha_coeff,
    bernoulli,
    grr_expand,
    hodge_integral,
    i1,
    i2,
    lambda_product_integral,
    lambda_to_ch,
)


def test_bernoulli_values():
    assert [bernoulli(k) for k in (0, 1, 2, 4, 6, 8)] == [
        1,
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(-1, 30),
        Fraction(1, 42),
        Fraction(-1, 30),
    ]


# -- lambda -> Chern characters ----------------------------------------------


def test_lambda1_is_ch1():
    assert lambda_to_ch((1,)).terms == {(1,): Fraction(1)}


def test_lambda2_via_newton_with_ch2_zero():
    assert lambda_to_ch((2,)).terms == {(1, 1): Fraction(1, 2)}


def test_lambda_empty_is_one():
    assert lambda_to_ch(()).terms == {(): Fraction(1)}


def test_lambda3_terms():
    # e_3 = ch1^3/6 + 2 ch3 once the even Chern characters vanish.
    assert lambda_to_ch((3,)).terms == {
        (1, 1, 1): Fraction(1, 6),
        (3,): Fraction(2),
    }


# -- GRR expansion structure ---------------------------------------------------


def _terms_by_kind(terms):
    out = {}
    for coeff, term in terms:
        out.setdefault(term.kind, []).append((coeff, term))
    return out


def test_grr_l1_genus1_one_point():
    by_kind = _terms_by_kind(grr_expand(1, (1, 1)))
    (ck, tk), = by_kind["kappa"]
    assert ck == Fraction(1, 12) and tk.index == 1
    (cp, tp), = by_kind["psi"]
    assert cp == Fraction(-1, 12) and tp.index == 1
    (ci, ti), = by_kind["boundary_irr"]
    assert ci == Fraction(1, 24) and ti.node_exponents == (0, 0)
    assert "boundary_sep" not in by_kind  # no stable separating type


def test_grr_l1_genus0_four_points():
    by_kind = _terms_by_kind(grr_expand(1, (0, 4)))
    assert len(by_kind["psi"]) == 4
    assert "boundary_irr" not in by_kind
    # stable separating types: ordered (h=0, A) with 2 <= |A| <= 2
    subsets = {t.marking_subset for _, t in by_kind["boundary_sep"]}
    assert all(len(s) == 2 for s in subsets)
    assert len(subsets) == 6


def test_grr_l2_prefactor_and_node_sum():
    terms = grr_expand(2, (2, 1))
    pref = bernoulli(4) / 24
    assert pref == Fraction(-1, 720)
    irr = [(c, t) for c, t in terms if t.kind == "boundary_irr"]
    assert {t.node_exponents for _, t in irr} == {(0, 2), (1, 1), (2, 0)}
    signs = {t.node_exponents: c for c, t in irr}
    assert signs[(0, 2)] == pref / 2
    assert signs[(1, 1)] == -pref / 2
    assert signs[(2, 0)] == pref / 2


# -- basic Hodge integrals -----------------------------------------------------


def test_lambda1_on_one_pointed_torus():
    assert hodge_integral(HodgeQuery(1, (0,), (1,))) == Fraction(1, 24)
    # unpointed query lands on the minimal stable (1-pointed) space
    assert hodge_integral(HodgeQuery(1, (), (1,))) == Fraction(1, 24)


def test_lambda_top_square_vanishes():
    assert hodge_integral(HodgeQuery(1, (1, 1), (1, 1))) == 0
    assert hodge_integral(HodgeQuery(2, (0,), (2, 2))) == 0
    assert hodge_integral(HodgeQuery(2, (1, 1), (1, 2, 2))) == 0
    assert hodge_integral(HodgeQuery(3, (1,), (3, 3))) == 0
    assert hodge_integral(HodgeQuery(3, (0, 0), (1, 3, 3))) == 0


def test_pure_psi_delegates():
    assert hodge_integral(HodgeQuery(0, (1, 0, 0, 0), ())) == 1


def test_lambda_index_above_rank_vanishes():
    assert hodge_integral(HodgeQuery(1, (0,), (2,))) == 0


def test_classical_genus2_lambda_values():
    assert hodge_integral(HodgeQuery(2, (), (1, 1, 1))) == Fraction(1, 2880)
    assert hodge_integral(HodgeQuery(2, (), (1, 2))) == Fraction(1, 5760)


def test_genus0_chern_characters_vanish():
    # The Hodge bundle has rank 0 at genus 0, so its Chern characters kill
    # every integrand; this lands on a nontrivial genus-0 boundary relation.
    from realgw.hodge import _ch_integral

    assert _ch_integral(0, (1, 0, 0, 0), (), (1,)) == 0
    assert _ch_integral(0, (0,) * 6, (), (3,)) == 0
    assert _ch_integral(0, (0, 0, 0, 0, 0), (1,), (1,)) == 0


# -- Mumford's product relation at integral level ------------------------------


def _lambda_polynomial_coeffs(g, u):
    """Coefficients of Lambda(u) = sum_r (-1)^r lambda_r u^(g-r)."""
    return [(r, (-1) ** r * u ** (g - r)) for r in range(g + 1)]


def _product_integral(g, psi_exps, us):
    """Test-side expansion of integral of prod_j Lambda(u_j) * psi monomial."""
    total = Fraction(0)
    for combo in itertools.product(*[_lambda_polynomial_coeffs(g, u) for u in us]):
        lam = tuple(r for r, _ in combo if r > 0)
        weight = Fraction(1)
        for _, w in combo:
            weight *= w
        value = hodge_integral(HodgeQuery(g, psi_exps, lam))
        total += weight * value
    return total


def test_mumford_product_relation():
    # Lambda(u)Lambda(-u) = (-1)^g u^(2g) holds as a cohomology identity, so
    # it must hold against every psi monomial T and against R in {1, Lambda(w)}.
    rng = random.Random(31)
    for g in (1, 2):
        for _ in range(3):
            u = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for n in (1, 2):
                dim = 3 * g - 3 + n
                scale = (-1) ** g * u ** (2 * g)
                for p in range(dim + 1):
                    exps = (p,) + (0,) * (n - 1)
                    lhs = _product_integral(g, exps, (u, -u))
                    rhs = scale * hodge_integral(HodgeQuery(g, exps, ()))
                    assert lhs == rhs, (g, n, p, "R=1")
                    lhs3 = _product_integral(g, exps, (u, -u, w))
                    rhs3 = scale * _product_integral(g, exps, (w,))
                    assert lhs3 == rhs3, (g, n, p, "R=Lambda")


# -- marked-point reduction lemma ----------------------------------------------


def test_reduction_lemma_one_denominator():
    rng = random.Random(37)
    for g in (0, 1, 2):
        for k in range(1, 5):
            if 2 * g + k < 3:
                continue
            us = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3)
            )
            flags = [us[0]] + [None] * (k - 1)
            lhs = lambda_product_integral(g, us, flags) / us[0]
            rhs = Fraction(1, 1) * us[0] ** -(k - 1) * i1(g, *us)
            assert (RationalFunction.coerce(lhs) - rhs).is_zero(), (g, k)


def test_reduction_lemma_two_denominators():
    rng = random.Random(41)
    for g in (0, 1, 2):
        for k in range(2, 5):
            if 2 * g + k < 3:
                continue
            us = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3)
            )
            if us[0] + us[1] == 0:
                continue
            if g == 0 and k == 2:
                continue  # the unstable base case is the definition itself
            flags = [us[0], us[1]] + [None] * (k - 2)
            lhs = lambda_product_integral(g, us, flags)
            pref = (us[0] + us[1]) ** 2 * us[2] / (us[0] * us[1])
            rhs = (
                (Fraction(1) / us[0] + Fraction(1) / us[1]) ** (k - 2)
                * i2(g, *us)
                / pref
            )
            assert (RationalFunction.coerce(lhs) - rhs).is_zero(), (g, k)


def test_lambda_product_integral_accepts_psi_powers():
    # With no denominators the psi budget must be carried by the explicit
    # exponents; cross-check against the test-side lambda expansion.
    u = (Fraction(2), Fraction(5, 3), Fraction(-1, 2))
    for g, n in ((1, 1), (1, 2), (2, 1)):
        dim = 3 * g - 3 + n
        for p in range(dim + 1):
            exps = [p] + [0] * (n - 1)
            got = lambda_product_integral(g, u, [None] * n, exps)
            want = _product_integral(g, tuple(exps), u)
            assert (RationalFunction.coerce(got) - want).is_zero(), (g, n, p)


def test_lambda_product_integral_validates_exponents():
    with pytest.raises(ValueError):
        lambda_product_integral(1, (1, 2, 3), [None], [0, 0])
    with pytest.raises(ValueError):
        lambda_product_integral(1, (1, 2, 3), [None, None], [1, -1])
    with pytest.raises(ValueError):
        lambda_product_integral(0, (1, 2, 3), [None, None])


def test_lambda_product_integral_rejects_zero_weight():
    z = RationalFunction.z()
    with pytest.raises(ZeroDivisionError):
        lambda_product_integral(1, (1, 2, 3), [1 - z, 0])
    with pytest.raises(ZeroDivisionError):
        lambda_product_integral(2, (1, 2, 3), [None, z - z])


def _term_by_term_lambda_product(genus, lambda_args, points, psi_exponents=None):
    """Reference: the direct sum of one normalized rational function per
    (lambda tuple, composition) term."""
    n = len(points)
    base = list(psi_exponents) if psi_exponents is not None else [0] * n
    us = [RationalFunction.coerce(u) for u in lambda_args]
    flagged = [
        (i, RationalFunction.coerce(w))
        for i, w in enumerate(points)
        if w is not None
    ]
    dim = 3 * genus - 3 + n
    total = RationalFunction.const(0)
    for rs in itertools.product(range(genus + 1), repeat=len(us)):
        remaining = dim - sum(rs) - sum(base)
        if remaining < 0:
            continue
        weight_u = RationalFunction.const((-1) ** sum(rs))
        for u, r in zip(us, rs):
            weight_u = weight_u * u ** (genus - r)
        lam = tuple(r for r in rs if r > 0)
        for comp in itertools.product(range(remaining + 1), repeat=len(flagged)):
            if sum(comp) != remaining:
                continue
            exps = list(base)
            for (i, _), s in zip(flagged, comp):
                exps[i] += s
            weight = weight_u * hodge_integral(HodgeQuery(genus, exps, lam))
            for (_, w), s in zip(flagged, comp):
                weight = weight * w ** (-(s + 1))
            total = total + weight
    return total


def test_lambda_product_integral_matches_term_by_term_sum():
    # Vertex-factor shaped inputs: Lambda arguments alpha_label - alpha_j and
    # edge weights -(alpha_other - alpha_label)/degree with the torus weights
    # (1, -1, z, -z).  The last triple and weight add a zero entry and
    # non-polynomial values, so the denominator tables are exercised too.
    z = RationalFunction.z()
    alpha = {1: RationalFunction.const(1), 2: RationalFunction.const(-1), 3: z, 4: -z}
    lambda_args = [
        tuple(alpha[1] - alpha[j] for j in (2, 3, 4)),
        tuple(alpha[3] - alpha[j] for j in (1, 2, 4)),
        (RationalFunction.const(0), (1 - z) / (2 + z), Fraction(2, 3)),
    ]
    weights = [
        -(alpha[2] - alpha[1]),
        -(alpha[4] - alpha[1]) / 3,
        -(alpha[1] - alpha[3]) / (1 + 2 * z),
    ]
    checked = 0
    for g in (1, 2, 3):
        for k in range(4):
            for extra in range(2):
                n = k + extra
                # The reference sum takes over 10 s from genus 3 with three
                # denominators on.
                if 2 * g - 2 + n <= 0 or 3 * g - 3 + n > 6 or g + k > 5:
                    continue
                points = weights[:k] + [None] * extra
                psis = [None, [0] * (n - 1) + [1]] if n else [None]
                for psi in psis:
                    us = lambda_args[checked % len(lambda_args)]
                    got = lambda_product_integral(g, us, points, psi)
                    want = _term_by_term_lambda_product(g, us, points, psi)
                    assert got == want, (g, k, extra, psi, us)
                    checked += 1
    assert checked == 28


# -- symmetries and homogeneity ------------------------------------------------


def _symbolic_args():
    z = RationalFunction.z()
    one = RationalFunction.const(1)
    return one + z, 2 * one - z, z


def test_one_partition_swap_symmetry():
    u1, u2, u3 = _symbolic_args()
    for g in (0, 1, 2):
        assert (i1(g, u1, u2, u3) - i1(g, u1, u3, u2)).is_zero()


def test_two_partition_swap_symmetry():
    u1, u2, u3 = _symbolic_args()
    for g in (0, 1, 2):
        assert (i2(g, u1, u2, u3) - i2(g, u2, u1, u3)).is_zero()


def test_negation_symmetry():
    u1, u2, u3 = _symbolic_args()
    for g in (0, 1, 2):
        assert (i1(g, -u1, -u2, -u3) - i1(g, u1, u2, u3)).is_zero()
        assert (i2(g, -u1, -u2, -u3) - i2(g, u1, u2, u3)).is_zero()


def test_scaling_invariance():
    u1, u2, u3 = _symbolic_args()
    for g in (0, 1, 2):
        for c in (Fraction(2), Fraction(-3, 5)):
            assert (i1(g, u1 * c, u2 * c, u3 * c) - i1(g, u1, u2, u3)).is_zero()
            assert (i2(g, u1 * c, u2 * c, u3 * c) - i2(g, u1, u2, u3)).is_zero()


def test_zero_argument_rejected():
    with pytest.raises(ZeroDivisionError):
        i1(1, 0, 1, 2)
    with pytest.raises(ZeroDivisionError):
        i2(1, 1, 2, 0)


# -- alpha coefficients ---------------------------------------------------------


def test_alpha_coefficients_match_log_of_sine_kernel():
    # Independent series oracle: alpha_g' is the t^(2g') coefficient of
    # -log(sin(t/2)/(t/2)).
    logged = series_log(series_pow(series_sinc("sin", 8), -1))
    for gp in (1, 2, 3):
        assert alpha_coeff(gp) == logged[2 * gp], gp


def test_alpha1_value():
    assert alpha_coeff(1) == Fraction(1, 24)


def test_values_survive_cache_reset():
    from realgw.hodge import clear_caches

    before = hodge_integral(HodgeQuery(2, (), (1, 1, 1)))
    clear_caches()
    assert hodge_integral(HodgeQuery(2, (), (1, 1, 1))) == before
