"""Property tests for Polynomial and RationalFunction.

The ring and field axioms hold exactly, and the RationalFunction normal form
is unique: equal values have equal ``num`` and ``den``.  Sums in any order
therefore agree field by field, which the balanced class sum in
``localization.gw_real`` relies on.  The integer-backed Polynomial is checked
coefficient by coefficient against a reference kept here: a tuple of
Fractions with schoolbook division and the plain Euclidean gcd.  Degrees and
example counts are kept small so the whole module runs in a few seconds.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from realgw.exact_arith import Polynomial, RationalFunction, poly_gcd
from realgw.localization import _tree_sum

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
polys = st.lists(fractions, max_size=4).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RationalFunction, polys, nonzero_polys)
nonzero_ratfuncs = ratfuncs.filter(lambda r: not r.is_zero())

exact = settings(max_examples=60, deadline=None, database=None)


class FractionPolynomial:
    """Reference: a polynomial as a tuple of Fraction coefficients indexed by
    degree, with no trailing zero."""

    def __init__(self, coeffs=()):
        out = tuple(Fraction(c) for c in coeffs)
        while out and out[-1] == 0:
            out = out[:-1]
        self.coeffs = out

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def scale(self, c):
        return FractionPolynomial(a * Fraction(c) for a in self.coeffs)

    def divmod(self, other):
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FractionPolynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            f = rem[k + other.degree] / lead
            quot[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return FractionPolynomial(quot), FractionPolynomial(rem)

    def monic(self):
        return self if self.is_zero() else self.scale(1 / self.coeffs[-1])


def fraction_gcd(a, b):
    """Reference: monic gcd by the plain Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def fraction_normal_form(num, den):
    """Reference: the RationalFunction normal form of num / den as
    coefficient tuples, coprime with a monic denominator."""
    if num.is_zero():
        return (), (1,)
    g = fraction_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.coeffs[-1]
    return num.scale(1 / lead).coeffs, den.scale(1 / lead).coeffs


coeff_lists = st.lists(fractions, max_size=5)
nonzero_lists = coeff_lists.filter(any)


@exact
@given(coeff_lists, coeff_lists, fractions)
def test_ring_operations_match_fraction_reference(a, b, c):
    pa, pb = Polynomial(a), Polynomial(b)
    ra, rb = FractionPolynomial(a), FractionPolynomial(b)
    assert pa.coeffs == ra.coeffs
    assert (pa + pb).coeffs == (ra + rb).coeffs
    assert (pa - pb).coeffs == (ra + rb.scale(-1)).coeffs
    assert (pa * pb).coeffs == (ra * rb).coeffs
    assert pa.scale(c).coeffs == ra.scale(c).coeffs
    assert pa.monic().coeffs == ra.monic().coeffs


@exact
@given(coeff_lists, nonzero_lists, nonzero_lists)
def test_division_and_gcd_match_fraction_reference(a, b, common):
    # The common factor makes nontrivial gcds frequent.
    pa = Polynomial(a) * Polynomial(common)
    pb = Polynomial(b) * Polynomial(common)
    ra = FractionPolynomial(a) * FractionPolynomial(common)
    rb = FractionPolynomial(b) * FractionPolynomial(common)
    q, r = pa.divmod(pb)
    rq, rr = ra.divmod(rb)
    assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)
    assert poly_gcd(pa, pb).coeffs == fraction_gcd(ra, rb).coeffs
    assert poly_gcd(pb, pa).coeffs == fraction_gcd(rb, ra).coeffs


@exact
@given(coeff_lists, nonzero_lists, nonzero_lists)
def test_rational_function_matches_fraction_reference(num, den, common):
    pc, rc = Polynomial(common), FractionPolynomial(common)
    r = RationalFunction(Polynomial(num) * pc, Polynomial(den) * pc)
    want = fraction_normal_form(
        FractionPolynomial(num) * rc, FractionPolynomial(den) * rc
    )
    assert (r.num.coeffs, r.den.coeffs) == want


@exact
@given(coeff_lists, nonzero_lists, fractions.filter(bool))
def test_equal_polynomials_built_differently_are_identical(a, b, c):
    p = Polynomial(a)
    ways = [
        p.scale(c).scale(1 / c),
        Polynomial(a + [0, 0]),
        p + Polynomial(b) - Polynomial(b),
    ]
    # Exact division by a divisor whose leading coefficient is negative.
    divisor = Polynomial(b)
    if divisor.leading_coefficient() > 0:
        divisor = -divisor
    q, r = (p * divisor).divmod(divisor)
    assert r == Polynomial() and hash(r) == hash(Polynomial())
    ways.append(q)
    for other in ways:
        assert other == p and hash(other) == hash(p)

ZERO_P, ONE_P = Polynomial(), Polynomial.const(1)
ZERO_R, ONE_R = RationalFunction.const(0), RationalFunction.const(1)


@exact
@given(polys, polys, polys)
def test_polynomial_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO_P == a and a * ONE_P == a
    assert (a - a).is_zero()


@exact
@given(polys, nonzero_polys)
def test_polynomial_division_with_remainder(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@exact
@given(ratfuncs, ratfuncs, ratfuncs)
def test_rational_function_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO_R == a and a * ONE_R == a
    assert (a - a).is_zero()


@exact
@given(ratfuncs, nonzero_ratfuncs)
def test_rational_function_division_inverts_multiplication(a, b):
    assert (a / b) * b == a
    assert b / b == ONE_R


@exact
@given(polys, nonzero_polys)
def test_normal_form_is_reduced_and_monic(num, den):
    r = RationalFunction(num, den)
    assert r.den.leading_coefficient() == 1
    if r.is_zero():
        assert r.den == ONE_P
    else:
        assert poly_gcd(r.num, r.den) == ONE_P


@exact
@given(polys, nonzero_polys, nonzero_polys, fractions.filter(bool))
def test_equal_values_have_equal_normal_forms(num, den, common, scale):
    # num/den and (scale num common)/(scale den common) are the same value.
    r = RationalFunction(num, den)
    s = RationalFunction(num.scale(scale) * common, den.scale(scale) * common)
    assert (r.num, r.den) == (s.num, s.den)
    assert r == s and hash(r) == hash(s)


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(ratfuncs, max_size=6), st.randoms(use_true_random=False))
def test_sum_is_independent_of_order(values, rng):
    left_to_right = ZERO_R
    for v in values:
        left_to_right = left_to_right + v
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert _tree_sum(values) == left_to_right
    assert _tree_sum(shuffled) == left_to_right
