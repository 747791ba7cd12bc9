"""Property tests for Polynomial, RationalFunction and Factored.

The ring and field axioms hold exactly, and the RationalFunction normal form
is unique: equal values have equal ``num`` and ``den``.  Sums in any order
therefore agree field by field, so the factored class sum of
``localization.gw_real`` can be compared with any rational-function sum.
Products, powers, splits and sums of Factored values agree with the same
RationalFunction arithmetic, and so does their gcd-free normal form.  The integer-backed Polynomial is checked
coefficient by coefficient against a reference kept here: a tuple of
Fractions with schoolbook division and the plain Euclidean gcd.  Division
itself is checked on the integer pseudo-division that the gcd and the
RationalFunction constructor share.  Degrees and example counts are kept
small so the whole module runs in a few seconds.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from realgw.exact_arith import (
    Factored,
    Polynomial,
    RationalFunction,
    _pseudo_divmod,
    factored_sum,
    linear_combination,
    poly_gcd,
)

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


def numerators(p):
    """p's coefficients times the lcm of their denominators: an integer list
    with no trailing zero."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) for c in p.coeffs]


def scaled(ints, s):
    """The FractionPolynomial ints / s."""
    return FractionPolynomial(Fraction(c, s) for c in ints)


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
    assert (Polynomial.const(c) * pa).coeffs == ra.scale(c).coeffs
    lead = pa.coeffs[-1] if pa.coeffs else Fraction(1)
    assert (Polynomial.const(1 / lead) * pa).coeffs == ra.monic().coeffs


@exact
@given(coeff_lists, nonzero_lists, nonzero_lists)
def test_division_and_gcd_match_fraction_reference(a, b, common):
    # The common factor makes nontrivial gcds frequent.
    pa = Polynomial(a) * Polynomial(common)
    pb = Polynomial(b) * Polynomial(common)
    ra = FractionPolynomial(a) * FractionPolynomial(common)
    rb = FractionPolynomial(b) * FractionPolynomial(common)
    # Pseudo-division of the integer numerators: (q/s, r/s) is the quotient
    # and remainder of plain division.
    top, bottom = numerators(pa), numerators(pb)
    q, r, s = _pseudo_divmod(top, bottom)
    rq, rr = FractionPolynomial(top).divmod(FractionPolynomial(bottom))
    assert (scaled(q, s).coeffs, scaled(r, s).coeffs) == (rq.coeffs, rr.coeffs)
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
        Polynomial.const(1 / c) * (Polynomial.const(c) * p),
        Polynomial(a + [0, 0]),
        p + Polynomial(b) - Polynomial(b),
    ]
    # Exact division by a divisor whose leading coefficient is negative.
    divisor = Polynomial(b)
    if divisor.coeffs[-1] > 0:
        divisor = -divisor
    zero = p * divisor - divisor * p
    assert zero == Polynomial() and hash(zero) == hash(Polynomial())
    q = RationalFunction(p * divisor, divisor)
    assert q.den == ONE_P
    ways.append(q.num)
    for other in ways:
        assert other == p and hash(other) == hash(p)


@exact
@given(st.lists(st.tuples(fractions, coeff_lists), max_size=5))
def test_linear_combination_matches_fraction_reference(terms):
    got = linear_combination((c, Polynomial(a)) for c, a in terms)
    want = FractionPolynomial()
    for c, a in terms:
        want = want + FractionPolynomial(a).scale(c)
    assert got.coeffs == want.coeffs
    # The stored form is unique, so the sum equals the one built with + and
    # constant multiples, hash included.
    same = Polynomial()
    for c, a in terms:
        same = same + Polynomial.const(c) * Polynomial(a)
    assert got == same and hash(got) == hash(same)


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
    top, bottom = numerators(a), numerators(b)
    q, r, s = _pseudo_divmod(top, bottom)
    assert s > 0
    lhs = FractionPolynomial(top).scale(s)
    rhs = FractionPolynomial(q) * FractionPolynomial(bottom) + FractionPolynomial(r)
    assert lhs.coeffs == rhs.coeffs
    assert len(r) < len(bottom) and (not r or r[-1])


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
    assert r.den.coeffs[-1] == 1
    if r.is_zero():
        assert r.den == ONE_P
    else:
        assert poly_gcd(r.num, r.den) == ONE_P


@exact
@given(polys, nonzero_polys, nonzero_polys, fractions.filter(bool))
def test_equal_values_have_equal_normal_forms(num, den, common, scale):
    # num/den and (scale num common)/(scale den common) are the same value.
    r = RationalFunction(num, den)
    k = Polynomial.const(scale)
    s = RationalFunction(k * num * common, k * den * common)
    assert (r.num, r.den) == (s.num, s.den)
    assert r == s and hash(r) == hash(s)


def _product(factors):
    out = ONE_P
    for f in factors:
        out = out * f
    return out


@exact
@given(fractions, ratfuncs, polys, nonzero_polys, st.integers(-3, 3))
def test_values_normal_by_construction_match_the_constructor(c, r, p, q, k):
    # const, z, negation, sums with a constant denominator on one side,
    # products with a constant member in each cross pair and powers store
    # their result without a gcd; the full constructor must build the same
    # fields from the same quotient.
    P, Q = RationalFunction(p), RationalFunction(q)
    # Constant numerators: 1/q times c/q^2 (c = 1 when c is 0).
    over_q, over_q2 = RationalFunction(1, q), RationalFunction(c or 1, q * q)
    pairs = [
        (RationalFunction.const(c), RationalFunction(Polynomial.const(c), ONE_P)),
        (RationalFunction.z(), RationalFunction(Polynomial.variable(), ONE_P)),
        (-r, RationalFunction(-r.num, r.den)),
        (r + P, RationalFunction(r.num + p * r.den, r.den)),
        (P + r, RationalFunction(p * r.den + r.num, r.den)),
        (r + c, RationalFunction(r.num + Polynomial.const(c) * r.den, r.den)),
        (r * c, RationalFunction(Polynomial.const(c) * r.num, r.den)),
        (P * Q, RationalFunction(p * q, ONE_P)),
        (over_q * over_q2, RationalFunction(Polynomial.const(c or 1), q * q * q)),
        (r ** abs(k), RationalFunction(_product([r.num] * abs(k)), _product([r.den] * abs(k)))),
    ]
    if not r.is_zero():
        pairs.append(
            (r ** -abs(k), RationalFunction(_product([r.den] * abs(k)), _product([r.num] * abs(k))))
        )
    for stored, built in pairs:
        assert (stored.num, stored.den) == (built.num, built.den)
        assert hash(stored) == hash(built)


def left_to_right(values):
    total = ZERO_R
    for v in values:
        total = total + v
    return total


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(ratfuncs, max_size=6), st.randoms(use_true_random=False))
def test_sum_is_independent_of_order(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert left_to_right(shuffled) == left_to_right(values)


# -- Factored: a scalar, an optional polynomial rest and linear forms ---------

linear_weights = st.builds(
    lambda q, p: Polynomial((q, p)), fractions, fractions.filter(bool)
)


@st.composite
def factored_values(draw, with_rest=True):
    """A Factored value and the same value built by RationalFunction
    arithmetic: a scalar, maybe a polynomial rest, and up to three linear
    weights (content and sign included) with exponents in -3..3."""
    c = draw(fractions)
    value, reference = Factored.const(c), RationalFunction.const(c)
    if with_rest and draw(st.booleans()):
        rest = draw(nonzero_polys)
        value = value * Factored.split(RationalFunction(rest), ())
        reference = reference * RationalFunction(rest)
    for w in draw(st.lists(linear_weights, max_size=3)):
        e = draw(st.integers(-3, 3))
        value = value * Factored.weight(w) ** e
        reference = reference * RationalFunction(w) ** e
    return value, reference


def fields(r):
    return r.num, r.den


@exact
@given(factored_values(), factored_values())
def test_factored_products_match_rational_functions(x, y):
    (fx, rx), (fy, ry) = x, y
    assert fields(fx.rational_function()) == fields(rx)
    assert fields((fx * fy).rational_function()) == fields(rx * ry)
    assert fields((-fx).rational_function()) == fields(-rx)
    if not ry.is_zero() and fy.rest is None:
        assert fields((fx / fy).rational_function()) == fields(rx / ry)


@exact
@given(factored_values(), factored_values(with_rest=False), st.integers(0, 3))
def test_factored_powers_match_rational_functions(x, y, n):
    (fx, rx), (fy, ry) = x, y
    assert fields((fx**n).rational_function()) == fields(rx**n)
    if not ry.is_zero():
        assert fields((fy**-n).rational_function()) == fields(ry**-n)
    if fx.rest is not None:
        with pytest.raises(ArithmeticError):
            fx**-1


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(factored_values(), max_size=6))
def test_factored_sum_matches_left_to_right_sum(values):
    got = factored_sum(f for f, _ in values)
    assert fields(got) == fields(left_to_right(r for _, r in values))


Z2_PLUS_1 = Polynomial((1, 0, 1))


def splits_over(den, forms):
    """Reference: whether den divides the product of the forms (a, b), that
    is a*z + b, each to the power deg(den)."""
    power = FractionPolynomial((1,))
    for a, b in set(forms):
        for _ in range(den.degree):
            power = power * FractionPolynomial((b, a))
    return power.divmod(FractionPolynomial(den.coeffs))[1].is_zero()


# (z^2 + 1)/(2z + 1): z^2 + 1 cancels, and the split round-trips when other
# is 2z + 1 and raises when it is z + 3.
CANCELLING = (
    Factored.split(RationalFunction(Z2_PLUS_1), ())
    * Factored.weight(Polynomial((1, 2))) ** -1,
    RationalFunction(Z2_PLUS_1, Polynomial((1, 2))),
)


@exact
@given(factored_values(), nonzero_polys)
@example(CANCELLING, Polynomial((1, 2)))
@example(CANCELLING, Polynomial((3, 1)))
def test_split_recovers_the_value_or_raises(x, other):
    # A normal-form denominator splits over the forms the value was built
    # from.  Dividing by other * (z^2 + 1) leaves the irreducible factor
    # z^2 + 1 in the denominator, and then the split raises, unless the
    # numerator cancels it; then the split round-trips exactly when what is
    # left of the denominator splits over the forms, and raises otherwise.
    fx, rx = x
    forms = [f for f, _ in fx.forms]
    assert fields(Factored.split(rx, forms).rational_function()) == fields(rx)
    if not rx.is_zero():
        bad = rx / RationalFunction(other * Z2_PLUS_1)
        if poly_gcd(bad.den, Z2_PLUS_1).degree > 0 or not splits_over(bad.den, forms):
            with pytest.raises(ArithmeticError):
                Factored.split(bad, forms)
        else:
            assert fields(Factored.split(bad, forms).rational_function()) == fields(bad)


@exact
@given(coeff_lists)
def test_weight_takes_polynomials_of_degree_at_most_one(coeffs):
    p = Polynomial(coeffs)
    if p.degree > 1:
        with pytest.raises(ValueError):
            Factored.weight(p)
    else:
        assert fields(Factored.weight(p).rational_function()) == fields(RationalFunction(p))
