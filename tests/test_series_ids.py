"""Tests for the transform coefficients and the identity suite."""

from fractions import Fraction

import pytest

from realgw.exact_arith import RationalFunction, series_sinc
from realgw.series_ids import (
    CONJECTURE_NAMES,
    F1_series,
    F2_series,
    check_conjecture,
    coeff_cx,
    coeff_hat,
    coeff_real,
    verify_identity,
)


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
    assert F1_series(3, 1, 2, 4).parity == "even"
    assert F2_series(3, 1, 2, 4).parity == "even"


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


def test_conjecture_reports_order_4():
    for name in ("F1_dep", "F2_prod"):
        report = check_conjecture(name, 4)
        assert report.conjecture
        assert report.passed, report.residual


def test_conjecture_trivial_order():
    assert check_conjecture("F1_dep", 0).passed


@pytest.mark.parametrize("name", CONJECTURE_NAMES)
def test_conjecture_rejects_negative_order(name):
    with pytest.raises(ValueError, match="even and nonnegative"):
        check_conjecture(name, -2)


def test_report_formatting():
    report = verify_identity("F1", 2)
    text = str(report)
    assert text.startswith("PASS") and "F1" in text
