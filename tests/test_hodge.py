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

from realgw.exact_arith import (
    Polynomial,
    RationalFunction,
    series_log,
    series_pow,
    series_sinc,
)
from realgw.hodge import (
    HodgeQuery,
    _compositions,
    alpha_coeff,
    _ch_integral,
    bernoulli,
    clear_caches,
    hodge_integral,
    i1,
    i2,
    lambda_product_integral,
    lambda_to_ch,
)
from realgw.psi_kappa import _kappa_value, _subsets_of_multiset


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
        return _kappa_value(genus, psi, kappa)
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
        for k1, k2, wk in _subsets_of_multiset(kappa):
            for c1, c2, wc in _subsets_of_multiset(rest_ch):
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
    # Direct keys with kappa classes and several ch factors, which no lambda
    # monomial reaches at the top level.
    ch_cases = []
    for g in (2, 3):
        for kappa in ((1,), (2,), (1, 1), (1, 3)):
            for ch in ((1, 1), (1, 3), (1, 1, 1), (3, 3), (1, 5)):
                for n in (0, 1, 2):
                    rest = 3 * g - 3 + n - sum(kappa) - sum(ch)
                    if 2 * g - 2 + n > 0 and rest >= 0:
                        for psi in _psi_tuples(n, rest):
                            ch_cases.append((g, psi, kappa, ch))
    memo = {}
    want_hodge = [_reference_hodge_integral(*case, memo) for case in hodge_cases]
    want_ch = [_reference_ch_integral(*case, memo) for case in ch_cases]
    clear_caches()
    got_hodge = [hodge_integral(HodgeQuery(*case)) for case in hodge_cases]
    got_ch = [_ch_integral(*case) for case in ch_cases]
    assert got_hodge == want_hodge
    assert got_ch == want_ch
    assert (len(hodge_cases), len(ch_cases)) == (405, 61)
    assert sum(v != 0 for v in want_hodge + want_ch) == 446


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


@pytest.mark.parametrize(
    "query",
    [
        HodgeQuery(1, (-1, 3), ()),
        HodgeQuery(2, (0, -2), (1,)),
        HodgeQuery(1, (1,), (-1,)),
        HodgeQuery(3, (), (2, -5)),
    ],
)
def test_negative_exponent_or_index_rejected(query):
    with pytest.raises(ValueError, match="nonnegative"):
        hodge_integral(query)


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
            value = hodge_integral(HodgeQuery(genus, exps, lam))
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
    # and Lambda(0)^2 = lambda_g^2 = 0, whose whole sum vanishes.
    z = RationalFunction.z()
    alpha = {1: RationalFunction.const(1), 2: RationalFunction.const(-1), 3: z, 4: -z}
    vertex = tuple(alpha[1] - alpha[j] for j in (2, 3, 4))
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
    zeros = 0
    for g, us, points in cases:
        got = lambda_product_integral(g, us, points)
        want = _fraction_lambda_product(g, us, points)
        assert got == want, (g, us, points)
        assert (got.num, got.den) == (want.num, want.den)
        zeros += got.is_zero()
    assert len(cases) == 13
    assert zeros == 1


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
