"""Property tests for Polynomial and RationalFunction.

The ring and field axioms hold exactly, and the RationalFunction normal form
is unique: equal values have equal ``num`` and ``den``.  Sums in any order
therefore agree field by field, which the balanced class sum in
``localization.gw_real`` relies on.  Degrees and example counts are kept
small so the whole module runs in a few seconds.
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
