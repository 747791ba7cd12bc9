"""Tests for the transform coefficients and the identity suite."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from realgw import series_ids
from realgw.exact_arith import RationalFunction, Series, series_pow, series_sinc
from realgw.hodge import alpha_coeff
from realgw.series_ids import (
    CONJECTURE_NAMES,
    F1_series,
    IdentityReport,
    F2_series,
    check_conjecture,
    coeff_cx,
    coeff_hat,
    coeff_real,
    verify_identity,
)


def test_identity_report_defaults_and_equality():
    # Defaults: no residual (a fresh list per report), no note, not a
    # conjecture.  Equal by value, unhashable since mutable.
    a, b = IdentityReport("F1", 6, True), IdentityReport("F1", 6, True)
    assert (a.residual, a.note, a.conjecture) == ([], "", False)
    assert a == b and a.residual is not b.residual
    assert a != IdentityReport("F1", 6, True, [], "", True)
    assert str(a) == "PASS  F1  to t^6"
    assert str(IdentityReport("F2", 8, False, ["t^2"], "n", True)) == (
        "FAIL  F2  to t^8 (conjecture)  n"
    )
    assert repr(a) == (
        "IdentityReport(name='F1', order=6, passed=True, residual=[], "
        "note='', conjecture=False)"
    )
    with pytest.raises(TypeError):
        hash(a)


def test_real_coeff_values():
    assert coeff_real(0, 4, 1) == Fraction(1, 24)
    assert coeff_real(0, 4, 2) == Fraction(1, 1920)
    for h in range(3):
        for c1B in (4, 8, 12):
            assert coeff_real(h, c1B, 0) == 1


def test_real_coeff_low_genus_closed_forms():
    # (2h - 2 + c1B)/48 at genus 1 and the quadratic at genus 2.
    for h in range(3):
        for c1B in (4, 8, 12, 16):
            k = 2 * h - 2 + c1B
            assert coeff_real(h, c1B, 1) == Fraction(k, 48)
            assert coeff_real(h, c1B, 2) == Fraction(k * (5 * k - 4), 23040)


def test_real_coeff_rejects_odd_c1B():
    with pytest.raises(ValueError):
        coeff_real(0, 3, 1)


def test_hat_coeff_rejects_what_real_coeff_rejects():
    # A negative h, an odd c1B and a negative genus.
    for args in ((-1, 4, 0), (0, 3, 1), (0, 4, -1)):
        with pytest.raises(ValueError):
            coeff_real(*args)
        with pytest.raises(ValueError):
            coeff_hat(*args)


def test_complex_coeff_values():
    assert coeff_cx(0, 4, 1) == Fraction(-1, 12)
    assert coeff_cx(0, 4, 2) == Fraction(1, 360)
    assert coeff_cx(0, 4, 3) == Fraction(-1, 20160)
    assert coeff_cx(1, 4, 0) == 1


def test_complex_coeff_rejects_negative_arguments():
    with pytest.raises(ValueError, match="h must be nonnegative"):
        coeff_cx(-1, 4, 0)
    with pytest.raises(ValueError, match="g must be nonnegative"):
        coeff_cx(0, 4, -1)


def test_hat_coeff_small_cases():
    assert coeff_hat(0, 4, 0) == 1
    assert coeff_hat(0, 4, 1) == Fraction(1, 24)
    assert coeff_hat(0, 4, 2) == Fraction(1, 1920)


def test_hat_equals_real_everywhere_computed():
    for h in range(3):
        for c1B in (4, 8, 12, 16):
            for g in range(4):
                assert coeff_hat(h, c1B, g) == coeff_real(h, c1B, g), (h, c1B, g)


def _ordered_tuples(total):
    """Ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _ordered_tuples(total - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _tuple_sums(g):
    """{m: sum of prod (-1)^(g_i) alpha_(g_i)} over the ordered tuples
    (g_1..g_m) of positive integers with sum g."""
    sums = {}
    for tup in _ordered_tuples(g):
        weight = Fraction(1)
        for gi in tup:
            weight *= (-1) ** gi * alpha_coeff(gi)
        sums[len(tup)] = sums.get(len(tup), 0) + weight
    return sums


def _reference_coeffs(h, c1B, g):
    """Real, complex and hat coefficients one at a time: a kernel power per
    coefficient, and the alpha exponential written out as its sum over
    ordered tuples (g_1..g_m) with sum g of
    (2-2h-c1B)^m / (2^m m!) prod (-1)^(g_i) alpha_(g_i)."""
    real = series_pow(series_sinc("sinh", 2 * g), h - 1 + c1B // 2)[2 * g]
    cx = series_pow(series_sinc("sin", 2 * g), 2 * h - 2 + c1B)[2 * g]
    factor = Fraction(2 - 2 * h - c1B, 2)
    hat = sum(factor**m / math.factorial(m) * c for m, c in _tuple_sums(g).items())
    return real, cx, hat


def test_coefficients_match_per_coefficient_reference():
    for h in range(5):
        for c1B in range(-4, 17, 2):
            for g in range(9):
                got = (coeff_real(h, c1B, g), coeff_cx(h, c1B, g), coeff_hat(h, c1B, g))
                assert got == _reference_coeffs(h, c1B, g), (h, c1B, g)


def test_coefficient_table_builder():
    table = {g: coeff_real(0, 4, g) for g in range(3)}
    assert table == {0: 1, 1: Fraction(1, 24), 2: Fraction(1, 1920)}


def test_unit_diagonal_of_both_transforms():
    for h in range(4):
        assert coeff_cx(h, 8, 0) == 1 == coeff_real(h, 8, 0)


# -- generating series ---------------------------------------------------------


def test_F1_at_split_arguments_is_sine_kernel():
    x = RationalFunction.const(1)
    y = RationalFunction.z()
    got = F1_series(x + y, x, y, 4)
    assert got == series_sinc("sin", 4)


def test_F1_order_zero_is_one():
    s = F1_series(3, 1, 2, 0)
    assert s.coeffs[0] == RationalFunction.const(1)


def test_F2_constant_term():
    u1, u2, u3 = Fraction(2), Fraction(3), Fraction(5)
    s = F2_series(u1, u2, u3, 2)
    assert s.coeffs[0] == RationalFunction.const((u1 + u2) * u3 / (u1 * u2))


def test_series_have_even_parity():
    for s in (F1_series(3, 1, 2, 4), F2_series(3, 1, 2, 4)):
        assert all(not s[k] for k in (1, 3))


# -- identity suite -------------------------------------------------------------


@pytest.mark.parametrize("name", ["F1", "F1sq", "hat_eq_tilde", "alpha_exp"])
def test_identities_order_4(name):
    report = verify_identity(name, 4)
    assert report.passed, report.residual


def test_identity_rejects_odd_order():
    with pytest.raises(ValueError):
        verify_identity("F1", 3)
    with pytest.raises(ValueError):
        verify_identity("F1", 0)


def test_unknown_identity_name():
    with pytest.raises(ValueError):
        verify_identity("F3", 4)
    with pytest.raises(ValueError, match="unknown conjecture"):
        check_conjecture("nope")


def test_report_lists_only_nonzero_coefficients():
    report = series_ids._report("x", 4, Series([0, 0, Fraction(1, 3), 0, 0], 4))
    assert report.passed is False
    assert report.residual == ["t^2: 1/3"]
    assert series_ids._report("x", 4, Series([0] * 5, 4)).residual == []
    # An odd coefficient is named like an even one; a zero rational function
    # is not named.
    odd = Series([0, RationalFunction.const(0), Fraction(1, 3), RationalFunction.z(), 0], 4)
    assert series_ids._report("x", 4, odd).residual == ["t^2: 1/3", "t^3: z"]


def test_hat_eq_tilde_failure_names_the_case(monkeypatch):
    # hat_eq_tilde compares the alpha exponential with the kernel power as
    # whole series; perturbing the t^4 coefficient of one exponential must
    # name that case and no other.
    exact = series_ids._hat_series

    def perturbed(h, c1B, order):
        s = exact(h, c1B, order)
        if (h, c1B) != (1, 8):
            return s
        coeffs = list(s.coeffs)
        coeffs[4] += Fraction(1, 7)
        return Series(coeffs, order)

    monkeypatch.setattr(series_ids, "_hat_series", perturbed)
    report = verify_identity("hat_eq_tilde", 6)
    assert report.passed is False
    assert report.residual == ["(h=1, c1B=8, g=2): 1/7"]


def test_F1_dep_failure_names_the_pair(monkeypatch):
    exact = series_ids.F1_series

    def perturbed(u1, u2, u3, order):
        s = exact(u1, u2, u3, order)
        if (u2, u3) != (Fraction(1, 3), Fraction(2, 3)):
            return s
        coeffs = list(s.coeffs)
        coeffs[2] = coeffs[2] + 1
        return Series(coeffs, order)

    monkeypatch.setattr(series_ids, "F1_series", perturbed)
    report = check_conjecture("F1_dep", 4)
    assert report.passed is False
    assert report.residual == ["(u2,u3)=(1/3,2/3): t^2: 1"]


def test_F1sq_failure_names_each_triple(monkeypatch):
    # Perturbing F1 at two of the three weight triples must name both, in
    # order, each with its own nonzero coefficients.
    exact = series_ids.F1_series
    bad = {
        (Fraction(7, 8), Fraction(25, 8), Fraction(1, 8)): Fraction(1, 5),
        (Fraction(-43, 8), Fraction(27, 8), Fraction(-17, 4)): Fraction(2),
    }

    def perturbed(u1, u2, u3, order):
        s = exact(u1, u2, u3, order)
        if (u1, u2, u3) not in bad:
            return s
        coeffs = list(s.coeffs)
        coeffs[4] = coeffs[4] + bad[u1, u2, u3]
        return Series(coeffs, order)

    monkeypatch.setattr(series_ids, "F1_series", perturbed)
    report = verify_identity("F1sq", 4)
    assert report.passed is False
    assert report.residual == [
        "(u,a,b)=(7/8,25/8,1/8): t^4: 1/5",
        "(u,a,b)=(-43/8,27/8,-17/4): t^4: 2",
    ]
    assert str(report) == "FAIL  F1sq  to t^4  3 rational weight triples"


def test_F1sq_pass_line_is_unchanged():
    assert str(verify_identity("F1sq", 4)) == "PASS  F1sq  to t^4  3 rational weight triples"


# (series, (u1, u2, u3), base, sign, invert) with x = 1 and y = z: each
# argument triple the two-partition checks read, other than the base triples
# themselves, and the base series whose image at z -> sign*z, or
# z -> sign/z under invert, it is.
_X = RationalFunction.const(1)
_Y = RationalFunction.z()
_IMAGES = (
    ("F1", (_X, _X - _Y, -_Y), 0, -1, False),
    ("F1", (_Y, _X + _Y, _X), 0, 1, True),
    ("F1", (-_Y, _X - _Y, _X), 0, -1, True),
    ("F2", (_X, _X - _Y, -_Y), 1, -1, False),
    ("F2", (_Y, _X + _Y, _X), 1, 1, True),
    ("F2", (-_Y, _X - _Y, _X), 1, -1, True),
    ("F2", (_X + _Y, _X, _Y), 1, 1, False),
    ("F2", (_X - _Y, _X, -_Y), 1, -1, False),
    ("F2", (_X + _Y, _Y, _X), 1, 1, True),
    ("F2", (_X - _Y, -_Y, _X), 1, -1, True),
    ("F2", (_X, -_Y, _X - _Y), 2, -1, False),
)


@pytest.mark.parametrize("order", [6, 8])
def test_two_partition_series_are_images_of_the_base_series(order):
    # Each series computed from its own Lambda integrals equals the exact
    # image of f, h or k, stored form included: the same numerator and
    # denominator in every coefficient.
    base = series_ids._z_series(order)
    series = {"F1": F1_series, "F2": F2_series}
    for name, args, which, sign, invert in _IMAGES:
        direct = series[name](*args, order)
        image = series_ids._image(base[which], sign, invert)
        for s in (direct, image):
            assert all(not s[k] for k in range(1, order + 1, 2)), (name, args)
        got = [(c.num, c.den) for c in image.coeffs]
        assert got == [(c.num, c.den) for c in direct.coeffs], (name, args)


def test_two_partition_checks_see_a_perturbed_base_series(monkeypatch):
    # F12 and F2 read h and its images only through the base series: adding
    # z t^2 to h must make both checks fail, and F1 still pass.
    exact = series_ids.F2_series

    def perturbed(u1, u2, u3, order):
        s = exact(u1, u2, u3, order)
        if (u1, u2, u3) != (_X, _X + _Y, _Y):
            return s
        coeffs = list(s.coeffs)
        coeffs[2] = coeffs[2] + _Y
        return Series(coeffs, order)

    monkeypatch.setattr(series_ids, "F2_series", perturbed)
    series_ids._z_series.cache_clear()
    series_ids._k_product.cache_clear()
    try:
        assert not verify_identity("F12", 4).passed
        assert not verify_identity("F2", 4).passed
        assert verify_identity("F1", 4).passed
    finally:
        series_ids._z_series.cache_clear()
        series_ids._k_product.cache_clear()


def test_conjecture_reports_order_4():
    for name in ("F1_dep", "F2_prod"):
        report = check_conjecture(name, 4)
        assert report.conjecture
        assert report.passed, report.residual


@pytest.mark.parametrize("name", CONJECTURE_NAMES)
def test_conjecture_rejects_negative_order(name):
    with pytest.raises(ValueError, match="even and at least 2"):
        check_conjecture(name, -2)


def test_report_formatting():
    report = verify_identity("F1", 2)
    text = str(report)
    assert text.startswith("PASS") and "F1" in text
