"""Tests for the Hodge-integral engine.

The boundary conventions of the Chern-character expansion are pinned by three
independent anchors: the classical one-pointed genus-1 value, Mumford's
product relation Lambda(u)Lambda(-u) = (-1)^g u^(2g) at integral level, and
the marked-point reduction lemma for the one- and two-partition integrals.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from realgw import hodge, psi_kappa
from realgw.cli import main
from realgw.exact_arith import (
    Polynomial,
    RationalFunction,
    series_pow,
    series_sinc,
)
from realgw.hodge import (
    _compositions,
    alpha_coeff,
    _ch_integral,
    bernoulli,
    hodge_integral,
    i1,
    i2,
    lambda_product_integral,
    lambda_to_ch,
)

from hodge_reference import ch_with_kappa, clear_caches
from series_reference import series_log


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
    assert lambda_to_ch((1,)) == {(1,): Fraction(1)}


def test_lambda2_via_newton_with_ch2_zero():
    assert lambda_to_ch((2,)) == {(1, 1): Fraction(1, 2)}


def test_lambda_empty_is_one():
    assert lambda_to_ch(()) == {(): Fraction(1)}


def test_lambda3_terms():
    # e_3 = ch1^3/6 + 2 ch3 once the even Chern characters vanish.
    assert lambda_to_ch((3,)) == {
        (1, 1, 1): Fraction(1, 6),
        (3,): Fraction(2),
    }


# -- GRR expansion, per labeled point subset (reference) ------------------------


@dataclass(frozen=True)
class ChernTerm:
    """One summand of the GRR expansion of ch_(2l-1) of the Hodge bundle.

    kind is one of ``kappa``, ``psi``, ``boundary_irr``, ``boundary_sep``.
    Kappa terms carry ``index``; psi terms carry ``point`` and ``index`` (the
    power); boundary terms carry the node exponent pair ``node_exponents``
    with a + b = 2l - 2, and separating terms also carry ``h`` and the
    ``marking_subset`` of point positions going to the genus-h side.
    """

    kind: str
    index: int = 0
    point: int | None = None
    h: int | None = None
    marking_subset: tuple[int, ...] | None = None
    node_exponents: tuple[int, int] | None = None


@lru_cache(maxsize=None)
def grr_expand(l, context):
    """GRR expansion of ch_(2l-1)(E) on the genus-g space with n points, as
    (coefficient, term) pairs:

        ch_(2l-1) = B_(2l)/(2l)! * [ kappa_(2l-1) - sum_i psi_i^(2l-1)
                    + 1/2 * sum_boundary push(sum_(a+b=2l-2) (-psi')^a psi''^b) ]

    Separating types are ordered pairs (h, marking subset), each divisor
    appearing twice, which the global 1/2 compensates.
    """
    g, n = context
    pref = bernoulli(2 * l) / math.factorial(2 * l)
    m = 2 * l - 1
    terms = [(pref, ChernTerm("kappa", index=m))]
    for i in range(n):
        terms.append((-pref, ChernTerm("psi", index=m, point=i)))
    half = pref / 2
    for a in range(2 * l - 1):
        b = 2 * l - 2 - a
        sign = Fraction((-1) ** a)
        if g >= 1:
            terms.append(
                (half * sign, ChernTerm("boundary_irr", node_exponents=(a, b)))
            )
        for h in range(g + 1):
            for size in range(n + 1):
                if 2 * h - 2 + size + 1 <= 0:
                    continue
                if 2 * (g - h) - 2 + (n - size) + 1 <= 0:
                    continue
                for subset in itertools.combinations(range(n), size):
                    term = ChernTerm(
                        "boundary_sep",
                        h=h,
                        marking_subset=subset,
                        node_exponents=(a, b),
                    )
                    terms.append((half * sign, term))
    return tuple(terms)


def _reference_ch_integral(genus, psi, kappa, ch, memo):
    """The term-by-term walk over ``grr_expand``: every labeled point subset
    of a separating term adds its coefficient to the group of its exponent
    multiset, and every kappa x ch split of a group is evaluated, with no
    dimension pruning."""
    n = len(psi)
    if 2 * genus - 2 + n <= 0:
        return Fraction(0)
    if sum(psi) + sum(kappa) + sum(ch) != 3 * genus - 3 + n:
        return Fraction(0)
    if not ch:
        return ch_with_kappa(genus, psi, kappa, ())
    key = (genus, psi, kappa, ch)
    if key in memo:
        return memo[key]
    rest_ch = ch[:-1]
    total = Fraction(0)
    sep_groups = {}
    for coeff, term in grr_expand((ch[-1] + 1) // 2, (genus, n)):
        if term.kind == "kappa":
            total += coeff * _reference_ch_integral(
                genus, psi, tuple(sorted(kappa + (term.index,))), rest_ch, memo
            )
        elif term.kind == "psi":
            exps = list(psi)
            exps[term.point] += term.index
            total += coeff * _reference_ch_integral(
                genus, tuple(sorted(exps)), kappa, rest_ch, memo
            )
        elif term.kind == "boundary_irr":
            a, b = term.node_exponents
            total += coeff * _reference_ch_integral(
                genus - 1, tuple(sorted(psi + (a, b))), kappa, rest_ch, memo
            )
        else:
            a, b = term.node_exponents
            left = tuple(sorted(psi[i] for i in term.marking_subset))
            key_g = (term.h, left, a, b)
            sep_groups[key_g] = sep_groups.get(key_g, Fraction(0)) + coeff
    for (h, left, a, b), coeff in sep_groups.items():
        right = list(psi)
        for v in left:
            right.remove(v)
        psi1 = tuple(sorted(left + (a,)))
        psi2 = tuple(sorted(right + [b]))
        for k1, k2, wk in psi_kappa._subsets_of_multiset(kappa):
            for c1, c2, wc in psi_kappa._subsets_of_multiset(rest_ch):
                v1 = _reference_ch_integral(h, psi1, k1, c1, memo)
                if v1 == 0:
                    continue
                v2 = _reference_ch_integral(genus - h, psi2, k2, c2, memo)
                total += coeff * wk * wc * v1 * v2
    memo[key] = total
    return total


def _reference_hodge_integral(genus, psi, lambda_indices, memo):
    psi = tuple(sorted(psi))
    while 2 * genus - 2 + len(psi) <= 0:
        psi = psi + (0,)
    if any(r > genus for r in lambda_indices):
        return Fraction(0)
    return sum(
        coeff * _reference_ch_integral(genus, psi, (), ch_key, memo)
        for ch_key, coeff in lambda_to_ch(lambda_indices).items()
    )


def _psi_tuples(n, total):
    """Sorted n-tuples of nonnegative integers with the given sum."""
    return [
        c
        for c in itertools.combinations_with_replacement(range(total + 1), n)
        if sum(c) == total
    ]


def test_ch_integral_matches_per_subset_reference():
    # Every psi-lambda integral with genus <= 4, 1-3 points and 0-2 lambda
    # indices, evaluated by the grouped recursion and by the reference.
    hodge_cases = []
    for g in range(5):
        lams = [()] + [
            lam
            for k in (1, 2)
            for lam in itertools.combinations_with_replacement(range(1, g + 1), k)
        ]
        for n in (1, 2, 3):
            dim = 3 * g - 3 + max(n, 3 - 2 * g)
            for lam in lams:
                if sum(lam) <= dim:
                    for psi in _psi_tuples(n, dim - sum(lam)):
                        hodge_cases.append((g, psi, lam))
    # Direct keys with several ch factors, which no lambda monomial reaches
    # at the top level: with kappa classes, pushed into marked points by
    # ch_with_kappa while the reference restricts them to boundary pieces,
    # and without, with psi^0 and psi^1 points that the string and dilaton
    # steps remove first.
    ch_cases = []
    for g in (2, 3):
        for kappa in ((), (1,), (2,), (1, 1), (1, 3)):
            for ch in ((1, 1), (1, 3), (1, 1, 1), (3, 3), (1, 5)):
                for n in (0, 1, 2) if kappa else (1, 2, 3):
                    rest = 3 * g - 3 + n - sum(kappa) - sum(ch)
                    if 2 * g - 2 + n > 0 and rest >= 0:
                        for psi in _psi_tuples(n, rest):
                            if kappa or psi[0] <= 1:
                                ch_cases.append((g, psi, kappa, ch))
    # Three lambda indices through genus 3, such as (1, g, g), where the
    # lambda_g^2 = 0 shortcut of hodge_integral applies.
    three_cases = []
    for g in (1, 2, 3):
        for n in (1, 2, 3):
            dim = 3 * g - 3 + max(n, 3 - 2 * g)
            for lam in itertools.combinations_with_replacement(range(1, g + 1), 3):
                if sum(lam) <= dim:
                    for psi in _psi_tuples(n, dim - sum(lam)):
                        three_cases.append((g, psi, lam))
    memo = {}
    want_hodge = [_reference_hodge_integral(*case, memo) for case in hodge_cases]
    want_ch = [_reference_ch_integral(*case, memo) for case in ch_cases]
    want_three = [_reference_hodge_integral(*case, memo) for case in three_cases]
    clear_caches()
    got_hodge = [hodge_integral(*case) for case in hodge_cases]
    got_ch = [ch_with_kappa(*case) for case in ch_cases]
    got_three = [hodge_integral(*case) for case in three_cases]
    assert got_hodge == want_hodge
    assert got_ch == want_ch
    assert got_three == want_three
    assert (len(hodge_cases), len(ch_cases)) == (405, 115)
    assert sum(v != 0 for v in want_hodge + want_ch) == 494
    assert (len(three_cases), sum(v != 0 for v in want_three)) == (71, 52)
    assert sum(lam.count(g) >= 2 for g, _, lam in three_cases) == 11


def test_string_reduction_matches_per_subset_reference():
    # hodge_integral removes psi^1 points by the dilaton equation and psi^0
    # points by the iterated string equation; the reference expands every
    # query by GRR instead.
    cases = []
    # Several psi^0 points next to positive exponents.
    for g in (1, 2, 3):
        for zeros in (2, 3, 4):
            dim = 3 * g - 3 + zeros + 1
            for lam in ((), (1,), (g,), (1, g)):
                if sum(lam) <= dim:
                    cases.append((g, (0,) * zeros + (dim - sum(lam),), lam))
    cases += [(2, (0, 0, 1, 3), (1,)), (3, (0, 0, 2, 4), (1, 2))]
    # Stability edges: (1, (0,)) and (0, (0, 0, 0)) cannot lose a point,
    # while (1, (0, 0)), (1, (0, 2)) and (0, (0, 0, 0, 1)) reduce to them.
    cases += [
        (1, (0,), (1,)),
        (1, (0, 0), (1,)),
        (1, (0, 2), ()),
        (1, (0, 1), (1,)),
        (0, (0, 0, 0), ()),
        (0, (0, 0, 0), (0,)),
        (0, (0, 0, 0, 1), ()),
        (0, (0, 0, 1, 1, 0), ()),
    ]
    # Two or more psi^1 points, alone and next to psi^0 points: the dilaton
    # step removes them in one call, down to the unpointed space at genus
    # >= 2 and to the stability edge below.
    cases += [
        (1, (1, 1, 1), ()),
        (1, (0, 1, 1), (1,)),
        (1, (0, 1, 1, 1), (1,)),
        (0, (0, 0, 0, 1, 1, 1), ()),
        (2, (1, 1), (1, 2)),
        (2, (1, 1, 4), ()),
        (2, (1, 1, 1, 1, 3), (1,)),
        (2, (0, 1, 1, 2), (1, 2)),
        (2, (0, 0, 1, 1, 4), (2,)),
        (3, (1, 1, 3, 3), (2,)),
        (3, (0, 1, 1, 5), (3,)),
    ]
    # The degree-1 vertex shape: psi exponents (0, s) with the nonzero
    # entries of three lambda indices, through genus 3.
    for g in (1, 2, 3):
        for rs in itertools.product(range(g + 1), repeat=3):
            lam = tuple(sorted(r for r in rs if r > 0))
            s = 3 * g - 1 - sum(lam)
            if s >= 0 and (g, (0, s), lam) not in cases:
                cases.append((g, (0, s), lam))
    memo = {}
    want = [_reference_hodge_integral(*case, memo) for case in cases]
    clear_caches()
    got = [hodge_integral(*case) for case in cases]
    assert got == want
    assert (len(cases), sum(v != 0 for v in want)) == (86, 72)


def test_dimension_mismatch_returns_zero_before_expansion(monkeypatch):
    # The dimension check comes before lambda_to_ch: at genus 300 the
    # expansion would not finish.
    def refuse(_):
        raise AssertionError("lambda_to_ch called on a dimension mismatch")

    monkeypatch.setattr(hodge, "lambda_to_ch", refuse)
    assert hodge_integral(300, (), (300,)) == 0
    assert hodge_integral(60, (), (60,)) == 0
    assert hodge_integral(2, (0, 1), (1,)) == 0


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
    assert hodge_integral(1, (0,), (1,)) == Fraction(1, 24)
    # unpointed query lands on the minimal stable (1-pointed) space
    assert hodge_integral(1, (), (1,)) == Fraction(1, 24)


def test_lambda_top_square_vanishes():
    # hodge_integral returns these zeros by Mumford's relation without
    # expanding them; the reference recursion has no such shortcut.
    cases = [
        (1, (1, 1), (1, 1)),
        (2, (0,), (2, 2)),
        (2, (1, 1), (1, 2, 2)),
        (3, (1,), (3, 3)),
        (3, (0, 0), (1, 3, 3)),
    ]
    memo = {}
    for case in cases:
        assert hodge_integral(*case) == 0, case
        assert _reference_hodge_integral(*case, memo) == 0, case


def test_genus0_lambda0_square_is_one():
    # lambda_0 = 1, so lambda_g^2 = 0 must not be applied at genus 0.
    assert hodge_integral(0, (0, 0, 0), (0, 0)) == 1


def test_pure_psi_delegates():
    assert hodge_integral(0, (1, 0, 0, 0), ()) == 1


def test_lambda_index_above_rank_vanishes(capsys):
    # Each query meets the dimension, so only the rank rule gives the 0.
    assert hodge_integral(1, (0, 0), (2,)) == 0
    assert hodge_integral(2, (), (3,)) == 0
    assert main(["hodge", "--g", "1", "--n", "2", "--lambda", "2"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_hodge_symmetry_under_shuffling():
    # Both argument lists are read as multisets: the order of the psi
    # exponents and of the lambda indices must not matter.
    rng = random.Random(37)
    cases = [
        (2, (), (1, 2)),
        (2, (0, 1, 2), (1, 2)),
        (3, (2, 0, 1), (3, 1, 2)),
        (1, (1, 0, 1), (1,)),
    ]
    for g, psi, lam in cases:
        want = hodge_integral(g, sorted(psi), sorted(lam))
        assert want != 0, (g, psi, lam)
        for _ in range(4):
            shuffled_psi, shuffled_lam = list(psi), list(lam)
            rng.shuffle(shuffled_psi)
            rng.shuffle(shuffled_lam)
            assert hodge_integral(g, shuffled_psi, shuffled_lam) == want, (g, psi, lam)


@pytest.mark.parametrize(
    "query",
    [
        (1, (-1, 3), ()),
        (2, (0, -2), (1,)),
        (1, (1,), (-1,)),
        (3, (), (2, -5)),
        (-1, (), ()),
    ],
)
def test_negative_exponent_or_index_rejected(query):
    with pytest.raises(ValueError, match="nonnegative"):
        hodge_integral(*query)


_ONE = RationalFunction.const(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_coeff(0),
        lambda: hodge.I1(-1, _ONE, _ONE, _ONE),
        lambda: hodge.I2(-1, _ONE, _ONE, _ONE),
        lambda: lambda_to_ch((-1,)),
    ],
    ids=["alpha_coeff", "I1", "I2", "lambda_to_ch"],
)
def test_out_of_range_arguments_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_classical_genus2_lambda_values():
    assert hodge_integral(2, (), (1, 1, 1)) == Fraction(1, 2880)
    assert hodge_integral(2, (), (1, 2)) == Fraction(1, 5760)


# -- closed-form oracles at higher genus -----------------------------------------

# |B_2k| for k = 0..10, written out so that the oracles below share nothing
# with hodge.bernoulli.
_ABS_BERNOULLI = (
    Fraction(1), Fraction(1, 6), Fraction(1, 30), Fraction(1, 42), Fraction(1, 30),
    Fraction(5, 66), Fraction(691, 2730), Fraction(7, 6), Fraction(3617, 510),
    Fraction(43867, 798), Fraction(174611, 330),
)


def _lambda_g_oracle(g, psi):
    """int_{M_{g,n}} prod psi_i^(a_i) lambda_g = C(2g-3+n; a_1..a_n) b_g, with
    sum b_g t^(2g) = (t/2)/sin(t/2), that is
    b_g = (2^(2g-1) - 1) |B_2g| / (2^(2g-1) (2g)!)
    (Getzler-Pandharipande 1998; Faber-Pandharipande 2003)."""
    multinomial = math.factorial(sum(psi))
    for a in psi:
        multinomial //= math.factorial(a)
    b_g = Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1) * math.factorial(2 * g))
    return multinomial * b_g * _ABS_BERNOULLI[g]


def _faber_oracle(g):
    """int_{M_g} lambda_(g-2) lambda_(g-1) lambda_g
    = |B_(2g-2)| |B_2g| / (2 (2g-2)! (2g-2) (2g)) (Faber 1999)."""
    den = 2 * math.factorial(2 * g - 2) * (2 * g - 2) * (2 * g)
    return _ABS_BERNOULLI[g - 1] * _ABS_BERNOULLI[g] / den


def _check_closed_forms(g):
    for n in (1, 2, 3):
        # Sorted exponent tuples suffice: the integrand is symmetric.
        for psi in itertools.combinations_with_replacement(range(2 * g - 2 + n), n):
            if sum(psi) == 2 * g - 3 + n:
                assert hodge_integral(g, psi, (g,)) == _lambda_g_oracle(g, psi), psi
    faber = _faber_oracle(g)
    assert hodge_integral(g, (), (g - 2, g - 1, g)) == faber
    # Mumford's lambda_(g-1)^2 = 2 lambda_(g-2) lambda_g, reached through a
    # different lambda_to_ch expansion.
    assert hodge_integral(g, (), (g - 1, g - 1, g - 1)) == 2 * faber


@pytest.mark.parametrize(
    "g", list(range(2, 9)) + [pytest.param(g, marks=pytest.mark.slow) for g in (9, 10)]
)
def test_closed_form_hodge_integrals(g):
    _check_closed_forms(g)


def test_genus0_chern_characters_vanish():
    # The Hodge bundle has rank 0 at genus 0, so its Chern characters kill
    # every integrand.  _ch_integral returns 0 at once, also with a kappa
    # class pushed into a point; the reference lands on a nontrivial genus-0
    # boundary relation.
    cases = [
        (0, (1, 0, 0, 0), (), (1,)),
        (0, (0,) * 6, (), (3,)),
        (0, (0, 0, 0, 0, 0), (1,), (1,)),
    ]
    memo = {}
    for case in cases:
        assert ch_with_kappa(*case) == 0, case
        assert _reference_ch_integral(*case, memo) == 0, case


def test_genus1_higher_chern_characters_vanish():
    # At genus 1, E is pulled back from the 1-pointed space, so lambda_1^2 = 0
    # and ch_m = lambda_1^m / m! vanishes for m >= 2, while ch_1 = lambda_1
    # does not.
    cases = [
        (1, (0, 0, 0), (), (3,)),
        (1, (0, 0, 0, 1), (), (3,)),
        (1, (0, 0, 0, 0), (1,), (3,)),
        (1, (0, 0, 0, 0), (), (1, 3)),
        (1, (0,) * 5, (), (5,)),
        (1, (0,) * 6, (1,), (5,)),
    ]
    memo = {}
    for case in cases:
        assert ch_with_kappa(*case) == 0, case
        assert _reference_ch_integral(*case, memo) == 0, case
    assert Fraction(*_ch_integral(1, (0,), (1,))) == Fraction(1, 24)


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
        value = hodge_integral(g, psi_exps, lam)
        total += weight * value
    return total


def test_mumford_product_relation():
    # Lambda(u)Lambda(-u) = (-1)^g u^(2g) holds as a cohomology identity, so
    # it must hold against every psi monomial T and against R in {1, Lambda(w)}.
    rng = random.Random(31)
    memo = {}
    for g in (1, 2):
        # The lambda_g^2 terms of both products vanish by the shortcut in
        # hodge_integral; check them against the reference recursion.
        for n in (1, 2):
            for p in range(3 * g - 2 + n):
                exps = (p,) + (0,) * (n - 1)
                for lam in [(g, g)] + [(r, g, g) for r in range(1, g + 1)]:
                    assert _reference_hodge_integral(g, exps, lam, memo) == 0
        for _ in range(3):
            u = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            w = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for n in (1, 2):
                dim = 3 * g - 3 + n
                scale = (-1) ** g * u ** (2 * g)
                for p in range(dim + 1):
                    exps = (p,) + (0,) * (n - 1)
                    lhs = _product_integral(g, exps, (u, -u))
                    rhs = scale * hodge_integral(g, exps, ())
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


def test_lambda_product_integral_validates_exponents():
    with pytest.raises(ValueError):
        lambda_product_integral(0, (1, 2, 3), [None, None])


def test_lambda_product_integral_rejects_negative_genus():
    # Genus -1 with five points is "stable" by 2g - 2 + n > 0 and used to
    # give 0.
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        lambda_product_integral(-1, (1, 2, 3), [None] * 5)


def test_lambda_product_integral_rejects_zero_weight():
    z = RationalFunction.z()
    with pytest.raises(ZeroDivisionError):
        lambda_product_integral(1, (1, 2, 3), [1 - z, 0])
    with pytest.raises(ZeroDivisionError):
        lambda_product_integral(2, (1, 2, 3), [None, z - z])


def _term_by_term_lambda_product(genus, lambda_args, points):
    """Reference: the direct sum of one normalized rational function per
    (lambda tuple, composition) term."""
    n = len(points)
    us = [RationalFunction.coerce(u) for u in lambda_args]
    flagged = [
        (i, RationalFunction.coerce(w))
        for i, w in enumerate(points)
        if w is not None
    ]
    dim = 3 * genus - 3 + n
    total = RationalFunction.const(0)
    for rs in itertools.product(range(genus + 1), repeat=len(us)):
        remaining = dim - sum(rs)
        if remaining < 0:
            continue
        weight_u = RationalFunction.const((-1) ** sum(rs))
        for u, r in zip(us, rs):
            weight_u = weight_u * u ** (genus - r)
        lam = tuple(r for r in rs if r > 0)
        for comp in itertools.product(range(remaining + 1), repeat=len(flagged)):
            if sum(comp) != remaining:
                continue
            exps = [0] * n
            for (i, _), s in zip(flagged, comp):
                exps[i] = s
            weight = weight_u * hodge_integral(genus, exps, lam)
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
                us = lambda_args[checked % len(lambda_args)]
                got = lambda_product_integral(g, us, points)
                want = _term_by_term_lambda_product(g, us, points)
                assert got == want, (g, k, extra, us)
                checked += 1
    assert checked == 15


def _fraction_lambda_product(genus, lambda_args, point_denominators):
    """Reference: the common-denominator assembly over Fraction-coefficient
    polynomials, one weight product per (lambda tuple, composition) term."""
    n = len(point_denominators)
    us = [RationalFunction.coerce(u) for u in lambda_args]
    flagged = [
        (i, RationalFunction.coerce(w))
        for i, w in enumerate(point_denominators)
        if w is not None
    ]
    top = 3 * genus - 3 + n

    def powers(p, k):
        out = [Polynomial.const(1)]
        for _ in range(k):
            out.append(out[-1] * p)
        return out

    u_tables = []
    den = Polynomial.const(1)
    for u in us:
        num_pows, den_pows = powers(u.num, genus), powers(u.den, genus)
        u_tables.append([num_pows[genus - r] * den_pows[r] for r in range(genus + 1)])
        den = den * den_pows[genus]
    w_tables = []
    for _, w in flagged:
        num_pows, den_pows = powers(w.num, top + 1), powers(w.den, top + 1)
        w_tables.append([den_pows[s + 1] * num_pows[top - s] for s in range(top + 1)])
        den = den * num_pows[top + 1]
    acc = Polynomial()
    for rs in itertools.product(range(genus + 1), repeat=len(us)):
        remaining = top - sum(rs)
        if remaining < 0:
            continue
        lam = tuple(r for r in rs if r > 0)
        inner = Polynomial()
        for comp in _compositions(remaining, len(flagged)):
            exps = [0] * n
            for (i, _), s in zip(flagged, comp):
                exps[i] = s
            value = hodge_integral(genus, exps, lam)
            if value == 0:
                continue
            term = Polynomial.const(value)
            for table, s in zip(w_tables, comp):
                term = term * table[s]
            inner = inner + term
        if inner.is_zero():
            continue
        if sum(rs) % 2:
            inner = -inner
        for table, r in zip(u_tables, rs):
            inner = inner * table[r]
        acc = acc + inner
    return RationalFunction(acc, den)


def test_lambda_product_integral_matches_fraction_assembly():
    # Grid past the reach of the term-by-term reference: genus 3-4 with
    # three denominators, I2-shaped inputs through genus 4, rational
    # arguments with non-integer, non-monic coefficients, a zero argument,
    # and Lambda(0)^2 = lambda_g^2 = 0, whose whole sum vanishes.  The
    # integral writes each argument as a scalar times a base, so the grid
    # also holds arguments that share a base up to a scalar: weights u/2 and
    # u/3 at two of three flagged points, the constant 2 = alpha_1 - alpha_2
    # of label 1 (no base) as a weight, weights equal to u1 and u2 as in I2,
    # and a non-polynomial base met at two scales.
    z = RationalFunction.z()
    alpha = {1: RationalFunction.const(1), 2: RationalFunction.const(-1), 3: z, 4: -z}
    vertex = tuple(alpha[1] - alpha[j] for j in (2, 3, 4))
    vertex3 = tuple(alpha[3] - alpha[j] for j in (1, 2, 4))
    odd = ((3 * z + 2) / (4 * (5 * z - 7)), Fraction(-5, 6), (z - 3) / 7)
    cases = []
    for g in (3, 4):
        weights = [
            -(alpha[2] - alpha[1]),
            -(alpha[4] - alpha[1]) / 3,
            -(alpha[1] - alpha[3]) / (1 + 2 * z),
        ]
        cases.append((g, vertex, weights))
    for g in (1, 2, 3, 4):
        cases.append((g, vertex, [vertex[0], vertex[1]]))
        cases.append((g, odd, [odd[0], odd[1]]))
    cases.append((2, odd, [odd[2], None, (2 * z + 1) / 9]))
    cases.append((3, (0, z + 1, Fraction(3, 2)), [z + 1, Fraction(3, 2)]))
    cases.append((3, (0, 0, z + 1), [z + 1, Fraction(3, 2)]))
    cases.append((3, vertex, [vertex[1] / 2, vertex[1] / 3, vertex[2]]))
    cases.append((2, vertex3, [vertex3[0] / 2, -vertex3[0] / 3, vertex3[2] / 5]))
    cases.append((2, vertex, [vertex[0], vertex[2] / 2, None]))
    cases.append((3, vertex, [Fraction(2), None]))
    for g in (1, 2, 3):
        cases.append((g, (vertex[1], vertex[2], vertex[0]), [vertex[1], vertex[2]]))
    cases.append((2, odd, [odd[0], odd[0] * Fraction(-3, 2), None]))
    zeros = 0
    for g, us, points in cases:
        got = lambda_product_integral(g, us, points)
        want = _fraction_lambda_product(g, us, points)
        assert got == want, (g, us, points)
        assert (got.num, got.den) == (want.num, want.den)
        zeros += got.is_zero()
    assert len(cases) == 21
    assert zeros == 1


def test_lambda_product_integral_rows_shared_across_calls():
    # lambda_product_integral looks the Hodge values up once per shape
    # (genus, Lambda factors, points, flagged points) and sums each lambda
    # multiset once.  Every shape below is met again with other arguments,
    # another order of the Lambda arguments or the flag on another point,
    # so most calls run on rows an earlier call built.
    z = RationalFunction.z()
    poly = (1 + z, 2 - z, z)
    odd = ((3 * z + 2) / (4 * (5 * z - 7)), Fraction(-5, 6), (z - 3) / 7)
    cases = []
    for g in (1, 2, 3):
        cases.append((g, poly, [poly[0], poly[1]]))
        cases.append((g, odd, [odd[0], odd[1]]))
        cases += [(g, perm, [odd[0], odd[1]]) for perm in itertools.permutations(odd)]
        cases.append((g, poly, [None, odd[2]]))
        cases.append((g, poly, [odd[2], None]))
        cases.append((g, poly[:2], [odd[0]]))
        cases.append((g, odd[1:], [poly[2]]))
        cases.append((g, poly + (odd[0],), [poly[1], None]))
        cases.append((g, (odd[2],) + odd, [None, odd[1]]))
    clear_caches()
    for g, us, points in cases:
        got = lambda_product_integral(g, us, points)
        want = _fraction_lambda_product(g, us, points)
        assert got == want, (g, us, points)
        assert (got.num, got.den) == (want.num, want.den)
        if g == 1:
            assert got == _term_by_term_lambda_product(g, us, points)
    shapes = {(g, len(us), len(p), sum(w is not None for w in p)) for g, us, p in cases}
    assert hodge._lambda_rows.cache_info().misses == len(shapes) == 12
    assert len(cases) == 42


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
    # I2 itself, called for both orders of (u1, u2), so each order is
    # computed and cached: the normal forms agree.  i2 then shares one cache
    # entry between the two orders.
    z = RationalFunction.z()
    one = RationalFunction.const(1)
    linear = _symbolic_args()
    rational = (one / (one + z), (z * z + 1) / (z - 2), 3 * one / z)
    for u1, u2, u3 in (linear, rational):
        for g in range(4):
            assert hodge.I2(g, u1, u2, u3) == hodge.I2(g, u2, u1, u3)
    u1, u2, u3 = z + 5, 7 * one - z, z
    misses = hodge.I2.cache_info().misses
    assert i2(2, u1, u2, u3) == i2(2, u2, u1, u3)
    assert hodge.I2.cache_info().misses == misses + 1


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
    before = hodge_integral(2, (), (1, 1, 1))
    clear_caches()
    # Every layer's memo is dropped, so the value below is recomputed from
    # the seeds of the psi recursion up.
    assert not (psi_kappa._psi_memo or psi_kappa._kappa_memo)
    assert hodge_integral(2, (), (1, 1, 1)) == before
    alpha = alpha_coeff(2)
    lambda_product_integral(1, (1, 2, 3), [4])
    clear_caches()
    # The Lambda-product rows and the alpha coefficients are built from
    # hodge_integral values, so they are dropped too.
    assert hodge._lambda_rows.cache_info().currsize == 0
    assert alpha_coeff.cache_info().currsize == 0
    assert alpha_coeff(2) == alpha
    assert alpha_coeff.cache_info().misses == 1
