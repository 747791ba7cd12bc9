"""Generating-function coefficients and order-by-order identity checks.

Three coefficient families drive the GW-to-enumerative transforms:

* ``coeff_real(h, c1B, g)``: coefficient of t^(2g) in
  (sinh(t/2)/(t/2))^(h-1+c1B/2),
* ``coeff_cx(h, c1B, g)``: coefficient of t^(2g) in
  (sin(t/2)/(t/2))^(2h-2+c1B),
* ``coeff_hat(h, c1B, g)``: the same numbers assembled from Hodge integrals,
  as the coefficient of t^(2g) in the alpha exponential
  exp((2-2h-c1B)/2 * sum_(g'>=1) (-1)^(g') alpha_(g') t^(2g')), which by
  the exponential formula is the sum over ordered tuples (g_1, ..., g_m) of
  positive integers with sum g of
  (2-2h-c1B)^m / (2^m m!) * prod (-1)^(g_i) alpha_(g_i).

Each kernel power is built once per kind, exponent and order as a whole
series, by one ``series_pow`` call in ``_sinc_power``, and every coefficient
is read off it: ``coeff_real``, ``coeff_cx``, the ``hat_eq_tilde`` check and
the table transforms of ``gw_convert`` all read ``_kernel``, and the
identity suite reads the sine powers directly.  ``hat_eq_tilde`` compares
the alpha exponential, built once per exponent by ``_alpha_exp``, with the
real kernel as whole series, and reports each (h, c1B, g) that differs.

The identity coeff_hat == coeff_real, together with the identities relating
the generating functions F1, F2 of the one- and two-partition Hodge integrals
to powers of sin(t/2)/(t/2), is what the ``verify_identity`` suite checks
order by order.  Conjectured statements are checked by ``check_conjecture``
and reported, never asserted.

The two-partition checks take x = 1 and y = z, and read every series they
need off three base series, computed once per order by ``_z_series``:

    f(w) = F1(1, 1+w, w),   h(w) = F2(1, 1+w, w),   k(w) = F2(1, w, 1+w).

Each genus term of F1 and F2 is a rational function homogeneous of degree 0
in (u1, u2, u3): with the u and the codimension-one classes of degree 1,
each integrand is homogeneous, integration removes the dimension of the
moduli space (3g - 2 for F1, 3g - 1 for F2), and the prefactors make up the
rest.  So scaling all three arguments by one nonzero rational function
leaves each term unchanged.  F1 is symmetric in (u2, u3), and F2 in
(u1, u2), since swapping the two marked points is an automorphism.  Dividing
the arguments by z or by -z therefore gives, with "f(1/z)" meaning f at
w = 1/z:

    F1(x, x-y, -y) = f(-z)       F2(x, x-y, -y) = F2(x-y, x, -y) = h(-z)
    F1(y, x+y, x) = f(1/z)       F2(y, x+y, x) = F2(x+y, y, x) = h(1/z)
    F1(-y, x-y, x) = f(-1/z)     F2(-y, x-y, x) = F2(x-y, -y, x) = h(-1/z)
    F2(x, x+y, y) = F2(x+y, x, y) = h(z),    F2(x, -y, x-y) = k(-z),

and F2(x, y, x+y) = k(z).  Each image is exact: ``_image`` applies the
Moebius substitution z -> -z, 1/z or -1/z to every coefficient by
``RationalFunction.substitute``, which maps a coprime pair to a coprime pair
and so needs no gcd.  With P = f h(-z), U = P (1+z)/(2-z) - P(-z),
E = h h(-z) and K = k k(-z), the left sides are

    F12:     U + U(1/z), since P(1/z) (1+1/z)/(2-1/z) = P(1/z) (1+z)/(2z-1)
             and P(-1/z) = f(-1/z) h(1/z);
    F2:      E + E(1/z) - K;
    F2_prod: K, built once per order by ``_k_product`` for both checks.

So the suite computes the Lambda integrals of f, h, k and the F1 check's
own series, and forms three series products, one per symmetric pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exact_arith import (
    RatLike,
    Rational,
    RationalFunction,
    Record,
    Series,
    series_exp,
    series_pow,
    series_sinc,
)
from .hodge import alpha_coeff, i1, i2


class IdentityReport(Record):
    """Outcome of one order-by-order identity or conjecture check."""

    __slots__ = ("name", "order", "passed", "residual", "note", "conjecture")

    def __init__(
        self,
        name: str,
        order: int,
        passed: bool,
        residual: list[str] | None = None,
        note: str = "",
        conjecture: bool = False,
    ) -> None:
        self.name = name
        self.order = order
        self.passed = passed
        self.residual = [] if residual is None else residual
        self.note = note
        self.conjecture = conjecture

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tag = " (conjecture)" if self.conjecture else ""
        note = f"  {self.note}" if self.note else ""
        return f"{status}  {self.name}  to t^{self.order}{tag}{note}"


def _check_real_args(h: int, c1B: int, g: int) -> None:
    if h < 0:
        raise ValueError("h must be nonnegative")
    if c1B % 2:
        raise ValueError("c1B must be even")
    if g < 0:
        raise ValueError("g must be nonnegative")


@lru_cache(maxsize=None)
def _sinc_power(kind: str, exponent: int, order: int) -> Series:
    """(sin(t/2)/(t/2))^exponent for ``sin``, or the sinh kernel's power for
    ``sinh``, through t^order: one ``series_pow`` call per distinct key."""
    return series_pow(series_sinc(kind, order), exponent)


def _kernel(flavor: str, h: int, c1B: int, order: int) -> Series:
    """The transform kernel of one flavor for (h, c1B), through t^order:
    (sinh(t/2)/(t/2))^(h-1+c1B/2) for ``real``, (sin(t/2)/(t/2))^(2h-2+c1B)
    for ``complex``."""
    if flavor == "real":
        return _sinc_power("sinh", h - 1 + c1B // 2, order)
    return _sinc_power("sin", 2 * h - 2 + c1B, order)


def coeff_real(h: int, c1B: int, g: int) -> Rational:
    """Real transform coefficient: t^(2g) term of the sinh kernel raised to
    h - 1 + c1B/2."""
    _check_real_args(h, c1B, g)
    return _kernel("real", h, c1B, 2 * g)[2 * g]


def coeff_cx(h: int, c1B: int, g: int) -> Rational:
    """Complex transform coefficient: t^(2g) term of the sine kernel raised
    to 2h - 2 + c1B."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    if g < 0:
        raise ValueError("g must be nonnegative")
    return _kernel("complex", h, c1B, 2 * g)[2 * g]


def _alpha_series(sign: int, order: int) -> Series:
    """sum_(g>=1) sign^g alpha_g t^(2g), through t^order."""
    coeffs = [Fraction(0)] * (order + 1)
    for g in range(1, order // 2 + 1):
        coeffs[2 * g] = sign**g * alpha_coeff(g)
    return Series(coeffs, order)


@lru_cache(maxsize=None)
def _alpha_exp(exponent: int, order: int) -> Series:
    """exp of -exponent * sum_(g>=1) (-1)^g alpha_g t^(2g), through t^order:
    the sinh kernel's power ``exponent`` rebuilt from Hodge integrals."""
    return series_exp(_alpha_series(-1, order).scale(-exponent))


def _hat_series(h: int, c1B: int, order: int) -> Series:
    """exp of (2-2h-c1B)/2 * sum_(g>=1) (-1)^g alpha_g t^(2g), through
    t^order: the real kernel of (h, c1B) rebuilt from Hodge integrals.
    For even c1B the factor is the integer -(h-1+c1B/2), the real kernel's
    exponent, so pairs with one exponent share one exponential."""
    return _alpha_exp(h - 1 + c1B // 2, order)


def coeff_hat(h: int, c1B: int, g_c: int) -> Rational:
    """Real transform coefficient rebuilt from Hodge integrals: the t^(2g_c)
    term of the alpha exponential ``_hat_series``."""
    _check_real_args(h, c1B, g_c)
    return _hat_series(h, c1B, 2 * g_c)[2 * g_c]


def _partition_series(integral, u1, u2, u3, order: int) -> Series:
    coeffs = [RationalFunction.const(0)] * (order + 1)
    for g in range(order // 2 + 1):
        coeffs[2 * g] = integral(g, u1, u2, u3)
    return Series(coeffs, order)


def F1_series(u1: RatLike, u2: RatLike, u3: RatLike, order: int) -> Series:
    """Generating series of one-partition Hodge integrals: sum I1_g t^(2g)."""
    return _partition_series(i1, u1, u2, u3, order)


def F2_series(u1: RatLike, u2: RatLike, u3: RatLike, order: int) -> Series:
    """Generating series of two-partition Hodge integrals: sum I2_g t^(2g)."""
    return _partition_series(i2, u1, u2, u3, order)


def _image(series: Series, sign: int, invert: bool = False) -> Series:
    """The series with z -> sign*z, or z -> sign/z under invert, applied to
    each rational-function coefficient by ``RationalFunction.substitute``."""
    coeffs = [
        c.substitute(sign, invert) if isinstance(c, RationalFunction) else c
        for c in series.coeffs
    ]
    return Series(coeffs, series.truncation_order)


@lru_cache(maxsize=None)
def _z_series(order: int) -> tuple[Series, Series, Series]:
    """The base series f(z) = F1(1, 1+z, z), h(z) = F2(1, 1+z, z) and
    k(z) = F2(1, z, 1+z), through t^order."""
    x = RationalFunction.const(1)
    y = RationalFunction.z()
    f = F1_series(x, x + y, y, order)
    return f, F2_series(x, x + y, y, order), F2_series(x, y, x + y, order)


@lru_cache(maxsize=None)
def _k_product(order: int) -> Series:
    """K = k(z) k(-z): the left side of F2_prod and the term F2 subtracts."""
    k = _z_series(order)[2]
    return k * _image(k, -1)


def _nonzero_terms(diff: Series) -> list[str]:
    """The nonzero coefficients of a difference series, as ``t^k: c``."""
    return [f"t^{k}: {c}" for k, c in enumerate(diff.coeffs) if c]


def _report(name: str, order: int, diff: Series, conjecture: bool = False) -> IdentityReport:
    """Report on a difference series, listing its nonzero coefficients."""
    residual = _nonzero_terms(diff)
    return IdentityReport(name, order, not residual, residual, conjecture=conjecture)


# Spot-check weights: (u, a, b) for F1sq, with u different from a and b, and
# (u2, u3) for F1_dep, all with u2 + u3 = 1 and distinct products.
_F1SQ_TRIPLES = (
    (Fraction(7, 8), Fraction(25, 8), Fraction(1, 8)),
    (Fraction(33, 8), Fraction(-21, 4), Fraction(-39, 8)),
    (Fraction(-43, 8), Fraction(27, 8), Fraction(-17, 4)),
)
_F1_DEP_PAIRS = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(37, 56), Fraction(19, 56)),
    (Fraction(67, 104), Fraction(37, 104)),
)


def check_order(order: int) -> None:
    """Both suites run to an even order in t of at least 2; any other order
    raises ``ValueError``."""
    if order % 2 or order < 2:
        raise ValueError("verification order must be even and at least 2")


def verify_identity(name: str, order: int = 6) -> IdentityReport:
    """Check one of the proved generating-function identities to the given
    even order in t and report the difference of the two sides.

    Supported names: F1, F12, F2, F1sq, hat_eq_tilde, alpha_exp.
    """
    check_order(order)
    x = RationalFunction.const(1)
    y = RationalFunction.z()
    if name == "F1":
        lhs = F1_series(x + y, x, y, order)
        return _report(name, order, lhs - series_sinc("sin", order))
    if name == "F12":
        f, h, _ = _z_series(order)
        p = f * _image(h, -1)
        u = p.scale((x + y) / (2 * x - y)) - _image(p, -1)
        lhs = u + _image(u, 1, invert=True)
        return _report(name, order, lhs - _sinc_power("sin", 5, order))
    if name == "F2":
        h = _z_series(order)[1]
        e = h * _image(h, -1)
        lhs = e + _image(e, 1, invert=True) - _k_product(order)
        return _report(name, order, lhs - _sinc_power("sin", 8, order))
    if name == "F1sq":
        rhs = _sinc_power("sin", 2, order)
        diffs = []
        for u, a, b in _F1SQ_TRIPLES:
            lhs = F1_series(u, a, b, order) * F1_series(u, u - a, u - b, order)
            terms = _nonzero_terms(lhs - rhs)
            if terms:
                diffs.append(f"(u,a,b)=({u},{a},{b}): " + "; ".join(terms))
        note = f"{len(_F1SQ_TRIPLES)} rational weight triples"
        return IdentityReport(name, order, not diffs, diffs, note=note)
    if name == "hat_eq_tilde":
        diffs = []
        for h, c1B in itertools.product(range(3), (4, 8, 12, 16)):
            diff = _hat_series(h, c1B, order) - _kernel("real", h, c1B, order)
            for g in range(order // 2 + 1):
                if diff[2 * g] != 0:
                    diffs.append(f"(h={h}, c1B={c1B}, g={g}): {diff[2 * g]}")
        return IdentityReport(name, order, not diffs, diffs, note="h <= 2, c1B in {4,8,12,16}")
    if name == "alpha_exp":
        lhs = series_exp(_alpha_series(1, order))
        diff = lhs * series_sinc("sin", order) - Series.one(order)
        return _report(name, order, diff)
    raise ValueError(f"unknown identity {name!r}")


def check_conjecture(name: str, order: int = 6) -> IdentityReport:
    """Check a conjectured statement and report the outcome.

    ``F1_dep``: the one-partition series evaluated at (1, u2, u3) should
    depend only on u2 + u3; compared at sample pairs with equal sum and
    distinct product.  ``F2_prod``: the conjectured closed form for
    F2(x,y,x+y) F2(x,-y,x-y), checked as a rational-function identity.
    """
    check_order(order)
    if name == "F1_dep":
        diffs: list[str] = []
        base = F1_series(1, *_F1_DEP_PAIRS[0], order)
        for a, b in _F1_DEP_PAIRS[1:]:
            terms = _nonzero_terms(F1_series(1, a, b, order) - base)
            if terms:
                diffs.append(f"(u2,u3)=({a},{b}): " + "; ".join(terms))
        return IdentityReport(
            name, order, not diffs, diffs,
            note=f"{len(_F1_DEP_PAIRS)} pairs with equal u2+u3", conjecture=True,
        )
    if name == "F2_prod":
        x = RationalFunction.const(1)
        y = RationalFunction.z()
        scale = (x**2 - y**2) ** 2 / (x**2 * y**2)
        rhs = _sinc_power("sin", 8, order).scale(-scale)
        return _report(name, order, _k_product(order) - rhs, conjecture=True)
    raise ValueError(f"unknown conjecture {name!r}")


IDENTITY_NAMES = ("F1", "F12", "F2", "F1sq", "hat_eq_tilde", "alpha_exp")
CONJECTURE_NAMES = ("F1_dep", "F2_prod")
