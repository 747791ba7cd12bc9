"""Property tests for Polynomial, RationalFunction and Factored.

The ring and field axioms hold exactly, and the RationalFunction normal form
is unique: equal values have equal ``num`` and ``den``.  Sums in any order
therefore agree field by field, so the factored class sum of
``localization.gw_real`` can be compared with any rational-function sum.
Products, powers, splits and sums of Factored values, their gcd-free
normal form and ``power_quotient`` agree with the same RationalFunction
arithmetic, and the Kronecker substitution under the last two reads back
every coefficient.  The images under z -> -z, 1/z and -1/z that
``substitute`` stores with no gcd equal the gcd-built ones.  A
RationalFunction is false exactly when it is zero, so ``Series`` equality
compares Fraction and RationalFunction coefficients by value.  The
integer-backed Polynomial is checked coefficient by coefficient against a
reference kept here: a tuple of Fractions with schoolbook division and the
plain Euclidean gcd.  Division
itself is checked on the integer pseudo-division that the gcd and every
exact division share, and ``_divide_out`` against repeated synthetic
division by a linear form, kept here as a reference.  Degrees and example
counts are kept small so the whole module runs in a few seconds.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from realgw.exact_arith import (
    EXPONENT_BOUND,
    Factored,
    Polynomial,
    RationalFunction,
    Series,
    _divide_out,
    _kronecker_sum,
    _pseudo_divmod,
    factored_sum,
    linear_combination,
    poly_gcd,
    power_quotient,
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
@given(polys, polys, polys)
def test_gcd_numerators_are_primitive_with_positive_lead(a, b, common):
    # The RationalFunction constructor divides by these numerators with
    # _divide_out, which is exact only for a primitive divisor.
    a, b = a * common, b * common
    if a.degree < 1 or b.degree < 1:
        return
    ints = poly_gcd(a, b)._ints
    assert math.gcd(*ints) == 1 and ints[-1] > 0


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


@exact
@given(ratfuncs, st.lists(st.tuples(fractions, st.booleans()), min_size=1, max_size=4),
       fractions)
@example(ZERO_R, [(Fraction(0), True), (Fraction(1, 2), False)], Fraction(0))
@example(ONE_R, [(Fraction(0), False), (Fraction(-2), True)], Fraction(1, 3))
def test_not_is_the_zero_test_of_both_coefficient_types(r, entries, delta):
    # bool(r) is false exactly for the zero rational function, as for a zero
    # Fraction, so Series equality compares a Fraction coefficient with a
    # RationalFunction one by value, equal or not.
    assert bool(r) == (not r.is_zero())
    assert Series([r]).is_zero() == r.is_zero()
    fracs = [c for c, _ in entries]
    mixed = [RationalFunction.const(c) if lift else c for c, lift in entries]
    assert Series(fracs) == Series(mixed) and Series(mixed) == Series(fracs)
    moved = fracs[:-1] + [fracs[-1] + delta]
    assert (Series(moved) == Series(mixed)) == (delta == 0)
    same = r == RationalFunction.const(fracs[0])
    assert (Series(mixed + [r]) == Series(fracs + [fracs[0]])) == same


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


def _at_image(p, sign, invert, top):
    """p(sign z), or z^top p(sign/z) under invert, as a Polynomial."""
    coeffs = [a * sign**i for i, a in enumerate(p.coeffs)]
    if invert:
        coeffs = [Fraction(0)] * (top + 1 - len(coeffs)) + coeffs[::-1]
    return Polynomial(coeffs)


@exact
@given(ratfuncs, st.sampled_from((1, -1)), st.booleans())
@example(ZERO_R, -1, True)
@example(RationalFunction.const(Fraction(-3, 2)), -1, True)
@example(RationalFunction(1, Polynomial((0, 0, 0, 2))), -1, True)
@example(RationalFunction(Polynomial((1, 1)), Polynomial((0, 0, 3))), -1, False)
@example(RationalFunction(Polynomial((0, 3, 1)), Polynomial((1, 0, 5))), 1, True)
@example(RationalFunction(Polynomial((0, 0, 1)), Polynomial((2, 1))), -1, True)
def test_substitute_is_the_gcd_built_image(r, sign, invert):
    # z -> sign*z, or z -> sign/z under invert, stores what the constructor
    # builds with a gcd from num and den at the image point, cleared of the
    # power of z; applying it twice gives r back; and the image takes at q
    # the value r takes at the image point.  The examples are the zero and a
    # constant value, z^k denominators and numerators with no constant term.
    image = r.substitute(sign, invert)
    top = max(r.num.degree, r.den.degree, 0)
    num, den = (_at_image(p, sign, invert, top) for p in (r.num, r.den))
    built = RationalFunction(num, den)
    assert (image.num, image.den) == (built.num, built.den)
    back = image.substitute(sign, invert)
    assert (back.num, back.den) == (r.num, r.den)
    for q in (Fraction(2, 3), Fraction(-5, 7), Fraction(3)):
        point = sign / q if invert else sign * q
        if r.den.eval_at(point):
            assert image.eval_at(q) == r.eval_at(point)


def test_substitute_rejects_other_signs():
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        RationalFunction.z().substitute(2)


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


# -- Packed keys against the dict-based Factored they replaced --------------


def synthetic_divide(ints, a, b):
    """Reference: ints / (a*z + b) by integer synthetic division, or None
    when the primitive form does not divide."""
    n = len(ints) - 1
    if n < 1:
        return None
    quot = [0] * n
    carry = ints[n]
    for k in range(n - 1, -1, -1):
        quot[k], r = divmod(carry, a)
        if r:
            return None
        carry = ints[k] - b * quot[k]
    return None if carry else quot


class DictFactored:
    """Reference: a Factored value stored as a Fraction scalar, an optional
    Polynomial rest and a dict from forms to exponents, as it was before the
    exponents were packed into one integer key.  Its products copy and merge
    the dicts, and ``dict_factored_sum`` multiplies each group out by one
    linear form per unit of exponent."""

    def __init__(self, scalar, rest, forms):
        scalar = Fraction(scalar)
        if rest is not None and rest.degree <= 0:
            scalar *= rest.eval_at(0)
            rest = None
        if scalar:
            forms = {f: e for f, e in forms.items() if e}
        else:
            rest, forms = None, {}
        self.scalar, self.rest, self._forms = scalar, rest, forms

    @staticmethod
    def const(value):
        return DictFactored(value, None, {})

    @staticmethod
    def weight(value):
        if value.degree <= 0:
            return DictFactored.const(value.eval_at(0))
        content, form = value.primitive()
        b, a = form._ints
        return DictFactored(content, None, {(a, b): 1})

    @staticmethod
    def split(value, forms):
        den = value.den._ints
        exponents = {}
        for a, b in dict.fromkeys(forms):
            while (quot := synthetic_divide(den, a, b)) is not None:
                den = quot
                exponents[(a, b)] = exponents.get((a, b), 0) - 1
        if len(den) != 1:
            raise ArithmeticError("denominator does not split over the forms")
        return DictFactored(Fraction(value.den._den, den[0]), value.num, exponents)

    @property
    def forms(self):
        return tuple(self._forms.items())

    def __mul__(self, other):
        forms = dict(self._forms)
        for f, e in other._forms.items():
            forms[f] = forms.get(f, 0) + e
        if self.rest is None or other.rest is None:
            rest = other.rest if self.rest is None else self.rest
        else:
            rest = self.rest * other.rest
        return DictFactored(self.scalar * other.scalar, rest, forms)

    def __neg__(self):
        return DictFactored(-self.scalar, self.rest, self._forms)

    def __truediv__(self, other):
        return self * other**-1

    def __pow__(self, n):
        if n < 0 and self.rest is not None:
            raise ArithmeticError("only a product of linear forms can be inverted")
        rest = None if self.rest is None else self.rest**n
        return DictFactored(
            self.scalar**n, rest, {f: e * n for f, e in self._forms.items()}
        )

    def rational_function(self):
        return dict_factored_sum((self,))


def _times_form(ints, a, b):
    out = [b * c for c in ints] + [0]
    for k, c in enumerate(ints):
        out[k + 1] += a * c
    return out


def dict_factored_sum(values):
    """Reference: the factored sum over dict exponents, one linear form
    multiplied in per unit of exponent."""
    terms = [v for v in values if v.scalar]
    if not terms:
        return RationalFunction.const(0)
    forms = sorted({f for v in terms for f in v._forms})
    low = [min(v._forms.get(f, 0) for v in terms) for f in forms]
    groups = {}
    for v in terms:
        key = tuple(v._forms.get(f, 0) - m for f, m in zip(forms, low))
        rest = Polynomial((1,)) if v.rest is None else v.rest
        groups.setdefault(key, []).append((v.scalar, rest))
    total = Polynomial()
    for key, group in groups.items():
        part = linear_combination(group)
        for (a, b), k in zip(forms, key):
            for _ in range(k):
                part = part * Polynomial((b, a))
        total = total + part
    if total.is_zero():
        return RationalFunction.const(0)
    content, primitive = total.primitive()
    num, den = [int(c) for c in primitive.coeffs], Polynomial((1,))
    for (a, b), m in zip(forms, low):
        for _ in range(m):
            num = _times_form(num, a, b)
        while m < 0 and (quot := synthetic_divide(num, a, b)) is not None:
            num, m = quot, m + 1
        for _ in range(-m):
            den = den * Polynomial((b, a))
    return RationalFunction(Polynomial.const(content) * Polynomial(num), den)


# Thirteen primitive forms (a, b), that is a*z + b.
FORMS = [
    (1, 0), (1, 1), (1, -1), (2, 1), (1, 2), (3, -1), (2, -3),
    (1, -2), (3, 2), (4, 1), (5, -2), (1, 3), (2, 5),
]


@exact
@example([1, 1], (1, 1), 0, 3)
@example([5, 0, 0, 1], (2, 5), 3, 1)
@given(
    st.lists(st.integers(-6, 6), max_size=3).map(lambda c: c + [1])
    | st.lists(st.integers(-6, 6), max_size=3).flatmap(
        lambda c: st.integers(-5, 5).filter(bool).map(lambda lead: c + [lead])
    ),
    st.sampled_from(FORMS),
    st.integers(0, 3),
    st.integers(0, 4),
)
def test_divide_out_matches_repeated_synthetic_division(base, form, power, most):
    # base * form^power is divisible at least power times; base itself may
    # or may not be divisible.  _divide_out stops at the first remainder or
    # after ``most`` divisions, as repeated synthetic division does.
    a, b = form
    ints = base
    for _ in range(power):
        ints = _times_form(ints, a, b)
    quot, times = list(ints), 0
    while times < most and (step := synthetic_divide(quot, a, b)) is not None:
        quot, times = step, times + 1
    got, got_times = _divide_out(ints, (b, a), most)
    assert (list(got), got_times) == (quot, times)
    assert got_times >= min(power, most)


@st.composite
def factored_pairs(draw):
    """A Factored value and the reference built by the same construction:
    a constant (maybe zero), a weight c*(a*z + b), the integer polynomial
    rest of a genus-0 vertex, or a split of a rational function whose
    denominator is a product of the forms."""
    kind = draw(st.sampled_from(["const", "zero", "weight", "polynomial", "split"]))
    if kind in ("const", "zero"):
        c = draw(fractions) if kind == "const" else 0
        return Factored.const(c), DictFactored.const(c)
    if kind == "weight":
        (a, b), c = draw(st.sampled_from(FORMS)), draw(fractions.filter(bool))
        w = Polynomial((c * b, c * a))
        return Factored.weight(w), DictFactored.weight(w)
    if kind == "polynomial":
        ints = draw(st.lists(st.integers(-6, 6), max_size=4))
        return Factored.polynomial(ints), DictFactored(1, Polynomial(ints), {})
    picked = draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=4))
    den = Polynomial((draw(fractions.filter(bool)),))
    for a, b in picked:
        den = den * Polynomial((b, a))
    value = RationalFunction(draw(polys), den)
    return Factored.split(value, FORMS), DictFactored.split(value, FORMS)


def _agrees(value, reference):
    assert value.scalar == reference.scalar
    assert value.rest == reference.rest
    assert dict(value.forms) == dict(reference.forms)
    assert fields(value.rational_function()) == fields(reference.rational_function())


@settings(max_examples=150, deadline=None, database=None)
@given(factored_pairs(), st.data())
def test_packed_factored_matches_dict_reference(start, data):
    # Random chains of products, quotients, powers (negative ones included)
    # and negations of values drawn over thirteen forms: the packed value
    # and the dict-based reference agree on scalar, rest, forms and normal
    # form after every step, and raise the same exception on the same step.
    value, reference = start
    for op in data.draw(st.lists(st.sampled_from(["mul", "div", "pow", "neg"]), max_size=6)):
        other = data.draw(factored_pairs())
        n = data.draw(st.integers(-3, 3))
        steps = {
            "mul": lambda x, y: x * y,
            "div": lambda x, y: x / y,
            "pow": lambda x, y: x * y**n,
            "neg": lambda x, y: -x,
        }
        step = steps[op]
        try:
            expected = step(reference, other[1])
        except (ArithmeticError, ZeroDivisionError) as error:
            with pytest.raises(type(error)):
                step(value, other[0])
            continue
        value, reference = step(value, other[0]), expected
        _agrees(value, reference)


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(factored_pairs(), max_size=8))
def test_packed_factored_sum_matches_dict_reference(values):
    # The streamed sum on packed keys and the reference sum give the same
    # normal form.
    got = factored_sum(v for v, _ in values)
    assert fields(got) == fields(dict_factored_sum(r for _, r in values))


def test_exponents_past_the_bound_raise():
    # Exponents up to EXPONENT_BOUND decode exactly; a power or a product
    # that could pass it raises ArithmeticError instead of carrying into
    # the next form's digit.
    w, v = Factored.weight(Polynomial((1, 1))), Factored.weight(Polynomial((-3, 2)))
    top = w**EXPONENT_BOUND
    assert dict(top.forms) == {(1, 1): EXPONENT_BOUND}
    assert dict((w**-EXPONENT_BOUND).forms) == {(1, 1): -EXPONENT_BOUND}
    assert dict((v * w).forms) == {(1, 1): 1, (2, -3): 1}
    for step in (
        lambda: w ** (EXPONENT_BOUND + 1),
        lambda: w ** -(EXPONENT_BOUND + 1),
        lambda: top * w,
        lambda: top / v,
        lambda: (w * v) ** (EXPONENT_BOUND // 2 + 1),
    ):
        with pytest.raises(ArithmeticError):
            step()


def _kronecker_reference(factors, parts):
    """sum of acc/d * prod_k f_k^(e_k) by Polynomial arithmetic."""
    total = Polynomial()
    for exponents, acc, d in parts:
        term = Polynomial(acc) * Polynomial.const(Fraction(1, d))
        for f, e in zip(factors, exponents):
            term = term * Polynomial(f) ** e
        total = total + term
    return total


def integer_factors(coefficients):
    """Integer factors as coefficient lists indexed by degree: degree 0-3
    with coefficients drawn from ``coefficients``, or a form a*z + b of
    FORMS as (b, a)."""
    return st.one_of(
        st.lists(st.sampled_from(coefficients), min_size=1, max_size=4).filter(
            lambda f: f[-1]
        ),
        st.sampled_from(FORMS).map(lambda form: [form[1], form[0]]),
    )


LARGE = [0, 1, -1, 7, 2**40 - 1, -(2**40) + 1]


@st.composite
def kronecker_inputs(draw):
    """Factors and parts (e, acc, d) with one exponent 0-3 per factor."""
    factors = draw(st.lists(integer_factors(LARGE), max_size=4))
    n = len(factors)
    part = st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.sampled_from(LARGE), max_size=4),
        st.integers(1, 6),
    )
    return factors, draw(st.lists(part, min_size=1, max_size=6))


@exact
@given(kronecker_inputs())
@example(([], [([], [2**20 - 1], 1)] * 4))
@example(([[0, 1], [1, 1]], [([1, 2], [-(2**40) + 1, 2**40 - 1], 3)] * 5))
@example(([[2**40 - 1] * 4], [([3], [1], 1)]))
def test_kronecker_sum_reads_back_every_coefficient(inputs):
    # The evaluation point 2^K must hold every coefficient of the sum, also
    # when equal parts with the largest coefficients add up: the bit length
    # of the part count is part of K.  A power of a dense factor has
    # coefficients above the power of its largest one, so K takes the
    # factor's 1-norm.
    factors, parts = inputs
    assert _kronecker_sum(factors, parts) == _kronecker_reference(factors, parts)


@st.composite
def power_quotient_inputs(draw):
    """Integer polynomial factors and terms (e, c) with one signed exponent
    per factor."""
    factors = draw(st.lists(integer_factors(range(-6, 7)), max_size=3))
    n = len(factors)
    term = st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-50, 50)
    )
    return [Polynomial(f) for f in factors], draw(st.lists(term, max_size=5))


@exact
@given(power_quotient_inputs(), st.integers(1, 12))
def test_power_quotient_matches_rational_function_sum(inputs, den):
    factors, terms = inputs
    want = RationalFunction.const(0)
    for exponents, c in terms:
        term = RationalFunction.const(Fraction(c, den))
        for f, e in zip(factors, exponents):
            term = term * RationalFunction(f) ** e
        want = want + term
    assert fields(power_quotient(factors, terms, den)) == fields(want)


def test_power_quotient_takes_integer_factors_only():
    with pytest.raises(ValueError):
        power_quotient([Polynomial((Fraction(1, 2), 1))], [((1,), 1)], 1)
