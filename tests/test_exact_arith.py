"""Ring-level tests for the exact arithmetic tower."""

import math
import random
from fractions import Fraction

import pytest

from realgw import exact_arith
from realgw.exact_arith import (
    Polynomial,
    RationalFunction,
    Series,
    lcm_sum,
    poly_gcd,
    series_exp,
    series_pow,
    series_sinc,
)
from realgw.hodge import i1
from realgw.localization import AdmissiblePair, DecoratedGraph, GraphInvolution

from series_reference import series_log


def rand_fraction(rng):
    return Fraction(rng.randint(-8, 8), rng.randint(1, 9))


def test_lcm_sum_matches_fraction_sum():
    # The denominator is the lcm of the term denominators, unreduced.
    assert lcm_sum([]) == (0, 1)
    assert lcm_sum([(2, 1, 3), (-1, 1, 6), (3, 5, 4)]) == (51, 12)
    rng = random.Random(7)
    for _ in range(200):
        terms = [
            (rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(1, 12))
            for _ in range(rng.randint(0, 6))
        ]
        num, den = lcm_sum(terms)
        assert Fraction(num, den) == sum(Fraction(c * p, q) for c, p, q in terms)


def rand_poly(rng, max_deg=4):
    return Polynomial([rand_fraction(rng) for _ in range(rng.randint(0, max_deg))])


def rand_ratfunc(rng):
    den = Polynomial()
    while den.is_zero():
        den = rand_poly(rng)
    return RationalFunction(rand_poly(rng), den)


def rand_series(rng, order=5):
    return Series([rand_fraction(rng) for _ in range(order + 1)], order)


# -- sinc kernels ------------------------------------------------------------


def test_sinc_sin_taylor_coefficients():
    s = series_sinc("sin", 4)
    assert s.coeffs == (1, 0, Fraction(-1, 24), 0, Fraction(1, 1920))


def test_sinc_sinh_taylor_coefficients():
    s = series_sinc("sinh", 2)
    assert s.coeffs == (1, 0, Fraction(1, 24))


def test_sinc_constant_term_only():
    assert series_sinc("sin", 0).coeffs == (1,)


def test_sinc_sign_patterns():
    sin = series_sinc("sin", 12)
    sinh = series_sinc("sinh", 12)
    for g in range(7):
        assert sin[2 * g] * (-1) ** g > 0
        assert sinh[2 * g] > 0
    for k in range(1, 13, 2):
        assert sin[k] == 0 and sinh[k] == 0


def test_sinc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        series_sinc("cos", 4)
    with pytest.raises(ValueError):
        series_sinc("sin", -1)


# -- series powers, exp, log -------------------------------------------------


def test_square_of_sin_kernel_by_hand_multiplication():
    # (1 - t^2/24 + t^4/1920)^2 = 1 - 2/24 t^2 + (1/24^2 + 2/1920) t^4 + ...
    sq = series_pow(series_sinc("sin", 4), 2)
    assert sq[2] == Fraction(-1, 12)
    assert sq[4] == Fraction(1, 576) + Fraction(2, 1920)
    assert sq[4] == Fraction(1, 360)


def test_zeroth_power_is_one():
    s = rand_series(random.Random(1))
    s = s - Series([s.coeffs[0] - 1], s.truncation_order)  # force s(0) = 1
    assert series_pow(s, 0) == Series.one(s.truncation_order)


def test_negative_power_geometric_series():
    s = Series([1, 0, 1], 4)  # 1 + t^2
    inv = series_pow(s, -1)
    assert inv.coeffs == (1, 0, -1, 0, 1)


def test_power_additivity_on_random_series():
    rng = random.Random(7)
    for _ in range(20):
        s = rand_series(rng)
        s = Series([Fraction(1)] + list(s.coeffs[1:]), s.truncation_order)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert series_pow(s, a) * series_pow(s, b) == series_pow(s, a + b)


def _binary_power(base, k):
    """Reference: base^k by binary powering, for k < 0 after inverting base
    by the triangular recurrence of 1/base, with the parity flags series
    products give."""
    n = base.truncation_order
    if k < 0:
        c0 = RationalFunction.coerce(base.coeffs[0])
        if c0.is_zero():
            raise ZeroDivisionError("zero constant term")
        out = [1 / c0]
        for m in range(1, n + 1):
            acc = sum((base.coeffs[i] * out[m - i] for i in range(1, m + 1)), Fraction(0))
            out.append(-acc / c0)
        base = Series(out, n, parity="even" if base.parity == "even" else None)
        k = -k
    out = Series.one(n)
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _coeff_zero(c):
    return RationalFunction.coerce(c).is_zero()


def _rand_ratfunc(rng):
    num = Polynomial([rand_fraction(rng) for _ in range(rng.randint(1, 2))])
    den = Polynomial([rand_fraction(rng), Fraction(rng.randint(0, 2))])
    return RationalFunction(num, den if not den.is_zero() else Polynomial.const(1))


@pytest.mark.parametrize("kind", ["fraction", "ratfunc"])
def test_power_matches_binary_powering_reference(kind):
    # series_pow against binary powering on random series of valuation 0-3
    # with each parity flag: the same coefficients, as normal forms, and the
    # same flag for k from -4 to 6; a negative power of a series with zero
    # constant term raises, the zero series included.
    rng = random.Random(11)
    coeff = rand_fraction if kind == "fraction" else _rand_ratfunc
    order = 6 if kind == "fraction" else 4
    for parity, valuations in (("even", (0, 2)), ("odd", (1, 3)), (None, (0, 1, 2, 3))):
        for v in valuations:
            coeffs = [Fraction(0)] * (order + 1)
            for j in range(v, order + 1):
                if parity is None or j % 2 == v % 2:
                    coeffs[j] = coeff(rng)
            if _coeff_zero(coeffs[v]):
                coeffs[v] = Fraction(1)
            base = Series(coeffs, order, parity)
            for k in range(-4, 7):
                if k < 0 and v > 0:
                    with pytest.raises(ZeroDivisionError):
                        series_pow(base, k)
                    continue
                got, want = series_pow(base, k), _binary_power(base, k)
                assert got.truncation_order == want.truncation_order == order
                assert got.parity == want.parity, (parity, v, k)
                assert [RationalFunction.coerce(c) for c in got.coeffs] == [
                    RationalFunction.coerce(c) for c in want.coeffs
                ], (parity, v, k)
    zero = Series([], order)
    assert series_pow(zero, 0) == Series.one(order) and series_pow(zero, 3).is_zero()
    with pytest.raises(ZeroDivisionError):
        series_pow(zero, -1)


def test_exp_log_round_trip():
    assert series_exp(Series([0], 4)) == Series.one(4)
    s = Series([0, 0, Fraction(1, 24)], 6)
    assert series_log(series_exp(s)) == s


def _product_exp(s):
    """Reference: exp(s) = sum_(k<=n) s^k / k! by truncated products."""
    n = s.truncation_order
    out = term = Series.one(n)
    for k in range(1, n + 1):
        term = term * s
        out = out + term.scale(Fraction(1, math.factorial(k)))
    return out


def _product_log(s):
    """Reference: log(1 + u) = sum_(k<=n) (-1)^(k+1) u^k / k by truncated
    products."""
    n = s.truncation_order
    u = s - Series.one(n)
    out, term = Series([Fraction(0)], n), Series.one(n)
    for k in range(1, n + 1):
        term = term * u
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    return out


@pytest.mark.parametrize("kind", ["fraction", "ratfunc"])
def test_exp_log_match_product_reference(kind):
    # series_exp and series_log against the sums of truncated products: the
    # same coefficients, as normal forms, and the same parity flag, for
    # every parity flag and every order through 12.
    rng = random.Random(5)
    coeff = rand_fraction if kind == "fraction" else _rand_ratfunc
    for order in range(13):
        for parity, start in (("even", 2), ("odd", 1), (None, 1)):
            coeffs = [Fraction(0)] * (order + 1)
            for j in range(start, order + 1, 1 if parity is None else 2):
                coeffs[j] = coeff(rng)
            s = Series(coeffs, order, parity)
            one_plus = Series([Fraction(1)] + coeffs[1:], order, "even" if parity == "even" else None)
            for got, want in (
                (series_exp(s), _product_exp(s)),
                (series_log(one_plus), _product_log(one_plus)),
            ):
                assert got.truncation_order == want.truncation_order == order
                assert got.parity == want.parity, (parity, order)
                assert [RationalFunction.coerce(c) for c in got.coeffs] == [
                    RationalFunction.coerce(c) for c in want.coeffs
                ], (parity, order)


def test_log_of_inverse_sin_kernel_is_alpha_generating_series():
    # The t^2 coefficient of log(1 / (sin kernel)) is 1/24.
    inv = series_pow(series_sinc("sin", 6), -1)
    logged = series_log(inv)
    assert logged[2] == Fraction(1, 24)
    assert logged[4] == Fraction(1, 2880)


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        series_exp(Series([1, 1], 2))
    with pytest.raises(ValueError):
        series_log(Series([0, 1], 2))


def test_series_parity_flag_enforced():
    with pytest.raises(ValueError):
        Series([1, 1], 2, parity="even")
    with pytest.raises(ValueError, match="unknown parity flag"):
        Series([1], 0, parity="sym")
    with pytest.raises(ValueError, match="nonnegative"):
        Series([1], -1)
    with pytest.raises(IndexError):
        Series.one(2)[3]
    even = Series([1, 0, 2], 2, parity="even")
    assert (even * even).parity == "even"


def test_series_truncation_minimum_order():
    a = Series([1, 1, 1, 1], 3)
    b = Series([1, 1], 1)
    assert (a * b).truncation_order == 1
    assert (a + b).truncation_order == 1


def test_series_is_unhashable():
    # Series defines __eq__ (equal up to the smaller truncation order), so it
    # is no dictionary key.
    with pytest.raises(TypeError):
        hash(Series([1]))


# -- polynomials and rational functions --------------------------------------


def test_poly_gcd_example():
    z = Polynomial.variable()
    one = Polynomial.const(1)
    g = poly_gcd(z * z - one, z - one)
    assert g == z - one and g.coeffs == (-1, 1)
    # Neither argument is monic; the gcd is.
    two, three = Polynomial.const(2), Polynomial.const(3)
    g = poly_gcd(two * (z * z - one), three * (z - one))
    assert g == z - one and g.coeffs == (-1, 1)


def test_polynomial_power():
    z = Polynomial.variable()
    p = Polynomial((Fraction(-1, 2), 3)) + z * z
    assert p**0 == Polynomial.const(1) and p**1 == p
    assert p**5 == p * p * p * p * p
    with pytest.raises(ValueError):
        p**-1


def test_ratfunc_cancellation_to_normal_form():
    z = Polynomial.variable()
    one = Polynomial.const(1)
    f = RationalFunction(z * z - one, z - one)
    assert f == RationalFunction(z + one)
    assert f.den.degree == 0


@pytest.mark.parametrize(
    "num_root, den_root", [(1, 1), (5, 1), (1, 5)], ids=["neither", "num", "den"]
)
def test_ratfunc_rejects_a_gcd_that_leaves_a_remainder(monkeypatch, num_root, den_root):
    # The constructor divides both sides by the gcd exactly: a gcd that
    # leaves a remainder on either side raises instead of being dropped.
    z = Polynomial.variable()
    num = (z + Polynomial.const(num_root)) * (z + Polynomial.const(2))
    den = (z + Polynomial.const(den_root)) * (z + Polynomial.const(3))
    monkeypatch.setattr(exact_arith, "poly_gcd", lambda a, b: z + Polynomial.const(5))
    with pytest.raises(ArithmeticError, match="leaves a remainder"):
        RationalFunction(num, den)


def test_ratfunc_eval():
    z = RationalFunction.z()
    f = 1 / (1 - z * z)
    assert f.eval_at(Fraction(1, 2)) == Fraction(4, 3)
    with pytest.raises(ZeroDivisionError):
        f.eval_at(1)


def test_ratfunc_constant_detection():
    z = RationalFunction.z()
    f = (z * z - 1) / (z - 1) - z
    assert f.is_constant() and f.constant_value() == 1
    assert not (z + 1).is_constant()
    with pytest.raises(ValueError):
        (z + 1).constant_value()


def test_ratfunc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RationalFunction.const(1) / RationalFunction.const(0)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.const(1), Polynomial())
    with pytest.raises(ZeroDivisionError):
        RationalFunction.const(0) ** -1


def test_ring_axioms_on_random_inputs():
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    for _ in range(25):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_commutes_with_arithmetic():
    rng = random.Random(13)
    for _ in range(25):
        f, g = rand_ratfunc(rng), rand_ratfunc(rng)
        q = rand_fraction(rng)
        try:
            fv, gv = f.eval_at(q), g.eval_at(q)
            pv = (f * g).eval_at(q)
            sv = (f + g).eval_at(q)
        except ZeroDivisionError:
            continue
        assert pv == fv * gv
        assert sv == fv + gv


# -- only exact scalars enter the tower --------------------------------------


def test_polynomial_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Polynomial([0.1])
    with pytest.raises(TypeError):
        Polynomial.const(1.0)
    with pytest.raises(TypeError):
        Polynomial.variable().eval_at(0.5)


def test_rational_function_rejects_float_scalars():
    with pytest.raises(TypeError):
        RationalFunction(1, 0.5)
    with pytest.raises(TypeError):
        RationalFunction.const(0.1)
    with pytest.raises(TypeError):
        RationalFunction.z() + 0.1
    with pytest.raises(TypeError):
        i1(1, 0.1, 1, 2)


def test_series_rejects_float_coefficients():
    with pytest.raises(TypeError):
        series_pow(Series([1, 0, 0.5]), 2)
    with pytest.raises(TypeError):
        Series([1, "2"])
    with pytest.raises(TypeError):
        Series([1, 2]).scale(0.5)
    z = RationalFunction.z()
    s = Series([1, Fraction(1, 2), z])
    assert s.coeffs == (Fraction(1), Fraction(1, 2), z)
    assert isinstance(s.coeffs[0], Fraction)


def _value_pairs():
    """Per immutable value class, two equal instances built apart."""
    z = RationalFunction.z()
    graph = ((1, 2), (0, 0), ((0, 1, 1),), (0,))
    involution = ((1, 0), (0,))
    return {
        "Polynomial": (
            Polynomial((Fraction(1, 2), 3)),
            Polynomial((1, 6)) * Polynomial.const(Fraction(1, 2)),
        ),
        "RationalFunction": (
            (z + 1) / (2 * z),
            RationalFunction(Polynomial((1, 1)), Polynomial((0, 2))),
        ),
        "DecoratedGraph": (
            DecoratedGraph(*graph),
            DecoratedGraph(
                theta=(1, 2), genus=(0, 0), edges=((0, 1, 1),), marks_plus=(0,)
            ),
        ),
        "GraphInvolution": (
            GraphInvolution(*involution),
            GraphInvolution(vertices=(1, 0), edges=(0,)),
        ),
        "AdmissiblePair": tuple(
            AdmissiblePair(DecoratedGraph(*graph), GraphInvolution(*involution), 2)
            for _ in range(2)
        ),
    }


@pytest.mark.parametrize(
    "kind",
    ["Polynomial", "RationalFunction", "DecoratedGraph", "GraphInvolution", "AdmissiblePair"],
)
def test_value_classes_are_immutable_with_value_equality(kind):
    a, b = _value_pairs()[kind]
    assert a is not b and a == b and hash(a) == hash(b)
    assert type(a).__name__ == kind and repr(a) == repr(b)
    assert repr(a).startswith(f"{kind}(")
    assert not hasattr(a, "__dict__")
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and a != object()


def test_frozen_records_take_each_field_once():
    # The shared Frozen constructor takes the fields by position, by name in
    # any order, or both, and raises TypeError on a missing, extra, repeated
    # or unknown field.
    inv = GraphInvolution((1, 0), (0,))
    assert inv == GraphInvolution((1, 0), edges=(0,))
    assert inv == GraphInvolution(edges=(0,), vertices=(1, 0))
    for args, kwargs in [
        (((1, 0),), {}),
        (((1, 0), (0,), ()), {}),
        (((1, 0),), {"vertices": (1, 0)}),
        (((1, 0),), {"edge": (0,)}),
        ((), {}),
    ]:
        with pytest.raises(TypeError):
            GraphInvolution(*args, **kwargs)


def test_cached_hash_stays_out_of_equality_and_repr():
    # Polynomial and RationalFunction keep their hash once computed.  Equal
    # values hash equal whether or not either was hashed before, the hash is
    # that of the field tuple, and hashing changes neither equality nor the
    # repr.
    z = Polynomial.variable()
    p, q = Polynomial((Fraction(1, 2), 1)), z + Polynomial.const(Fraction(1, 2))
    r, s = RationalFunction(p, z * z), RationalFunction(q * q, q * z * z)
    for a, b in ((p, q), (r, s)):
        before = repr(a)
        assert hash(a) == hash(a) == hash(a._fields(a))
        assert a == b and b == a and repr(a) == before == repr(b)
        assert hash(b) == hash(a)
    assert repr(p) == "Polynomial(_ints=(1, 2), _den=2)"
    assert repr(r) == (
        "RationalFunction(num=Polynomial(_ints=(1, 2), _den=2), "
        "den=Polynomial(_ints=(0, 0, 1), _den=1))"
    )
    assert {p: 1}[q] == 1 and {r: 1}[s] == 1
