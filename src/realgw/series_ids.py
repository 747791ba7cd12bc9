"""Generating-function coefficients and order-by-order identity checks.

Three coefficient families drive the GW-to-enumerative transforms:

* ``coeff_real(h, c1B, g)``: coefficient of t^(2g) in
  (sinh(t/2)/(t/2))^(h-1+c1B/2),
* ``coeff_cx(h, c1B, g)``: coefficient of t^(2g) in
  (sin(t/2)/(t/2))^(2h-2+c1B),
* ``coeff_hat(h, c1B, g)``: the same numbers assembled from Hodge integrals,
  as the sum over ordered tuples (g_1, ..., g_m) of positive integers with
  sum g of (2-2h-c1B)^m / (2^m m!) * prod (-1)^(g_i) alpha_(g_i).

The identity coeff_hat == coeff_real, together with the identities relating
the generating functions F1, F2 of the one- and two-partition Hodge integrals
to powers of sin(t/2)/(t/2), is what the ``verify_identity`` suite checks
order by order.  Conjectured statements are checked by ``check_conjecture``
and reported, never asserted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_arith import (
    RatLike,
    Rational,
    RationalFunction,
    Series,
    series_exp,
    series_pow,
    series_sinc,
)
from .hodge import alpha_coeff, i1, i2


@dataclass
class IdentityReport:
    """Outcome of one order-by-order identity or conjecture check."""

    name: str
    order: int
    passed: bool
    residual: list[str] = field(default_factory=list)
    note: str = ""
    conjecture: bool = False

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


def coeff_real(h: int, c1B: int, g: int) -> Rational:
    """Real transform coefficient: t^(2g) term of the sinh kernel raised to
    h - 1 + c1B/2."""
    _check_real_args(h, c1B, g)
    kernel = series_sinc("sinh", 2 * g)
    return series_pow(kernel, h - 1 + c1B // 2)[2 * g]


def coeff_cx(h: int, c1B: int, g: int) -> Rational:
    """Complex transform coefficient: t^(2g) term of the sine kernel raised
    to 2h - 2 + c1B."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    if g < 0:
        raise ValueError("g must be nonnegative")
    kernel = series_sinc("sin", 2 * g)
    return series_pow(kernel, 2 * h - 2 + c1B)[2 * g]


def coeff_hat(h: int, c1B: int, g_c: int) -> Rational:
    """Real transform coefficient rebuilt from Hodge integrals.

    Sums (2-2h-c1B)^m / (2^m m!) * prod (-1)^(g_i) alpha_(g_i) over all
    ordered tuples of positive integers with sum g_c.
    """
    _check_real_args(h, c1B, g_c)
    if g_c == 0:
        return Fraction(1)
    total = Fraction(0)
    factor = Fraction(2 - 2 * h - c1B, 2)
    for tup in _ordered_tuples(g_c):
        m = len(tup)
        weight = factor**m / math.factorial(m)
        for gi in tup:
            weight *= (-1) ** gi * alpha_coeff(gi)
        total += weight
    return total


def _ordered_tuples(total: int):
    """Ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _ordered_tuples(total - first):
            yield (first,) + rest


def F1_series(u1: RatLike, u2: RatLike, u3: RatLike, order: int) -> Series:
    """Generating series of one-partition Hodge integrals: sum I1_g t^(2g)."""
    coeffs = [RationalFunction.const(0)] * (order + 1)
    for g in range(order // 2 + 1):
        coeffs[2 * g] = i1(g, u1, u2, u3)
    return Series(coeffs, order, parity="even")


def F2_series(u1: RatLike, u2: RatLike, u3: RatLike, order: int) -> Series:
    """Generating series of two-partition Hodge integrals: sum I2_g t^(2g)."""
    coeffs = [RationalFunction.const(0)] * (order + 1)
    for g in range(order // 2 + 1):
        coeffs[2 * g] = i2(g, u1, u2, u3)
    return Series(coeffs, order, parity="even")


def _report(name: str, order: int, diff: Series, note: str = "", conjecture: bool = False) -> IdentityReport:
    residual = [f"t^{k}: {diff.coeffs[k]}" for k in range(order + 1)]
    return IdentityReport(
        name, order, diff.is_zero(), residual, note, conjecture
    )


def _sample_rationals(count: int, seed: int = 20) -> list[Fraction]:
    """Deterministic small nonzero rationals for spot checks."""
    out = []
    num, den = seed, 7
    while len(out) < count:
        num = (num * 31 + 17) % 97
        den = (den * 13 + 5) % 89
        q = Fraction(num - 48, den + 1)
        if q != 0:
            out.append(q)
    return out


def verify_identity(name: str, order: int = 6) -> IdentityReport:
    """Check one of the proved generating-function identities to the given
    even order in t and report the difference of the two sides.

    Supported names: F1, F12, F2, F1sq, hat_eq_tilde, alpha_exp.
    """
    if order % 2 or order < 2:
        raise ValueError("verification order must be even and at least 2")
    x = RationalFunction.const(1)
    y = RationalFunction.z()
    if name == "F1":
        lhs = F1_series(x + y, x, y, order)
        return _report(name, order, lhs - series_sinc("sin", order))
    if name == "F12":
        lhs = (
            (F1_series(x, x + y, y, order) * F2_series(x, x - y, -y, order)).scale(
                (x + y) / (2 * x - y)
            )
            + (F1_series(y, x + y, x, order) * F2_series(-y, x - y, x, order)).scale(
                (x + y) / (2 * y - x)
            )
            - F1_series(x, x - y, -y, order) * F2_series(x, x + y, y, order)
            - F1_series(-y, x - y, x, order) * F2_series(y, x + y, x, order)
        )
        return _report(name, order, lhs - series_pow(series_sinc("sin", order), 5))
    if name == "F2":
        lhs = (
            F2_series(x + y, x, y, order) * F2_series(x - y, x, -y, order)
            + F2_series(x + y, y, x, order) * F2_series(x - y, -y, x, order)
            - F2_series(x, y, x + y, order) * F2_series(x, -y, x - y, order)
        )
        return _report(name, order, lhs - series_pow(series_sinc("sin", order), 8))
    if name == "F1sq":
        rhs = series_pow(series_sinc("sin", order), 2)
        samples = _sample_rationals(9)
        worst: Series | None = None
        tested = 0
        for u, a, b in zip(samples[0::3], samples[1::3], samples[2::3]):
            if u == a or u == b:
                continue
            lhs = F1_series(u, a, b, order) * F1_series(u, u - a, u - b, order)
            diff = lhs - rhs
            tested += 1
            if worst is None or not diff.is_zero():
                worst = diff
        if worst is None or tested < 3:
            raise ArithmeticError(f"F1sq tested only {tested} weight triples, need 3")
        return _report(name, order, worst, note=f"{tested} rational weight triples")
    if name == "hat_eq_tilde":
        diffs = []
        ok = True
        for h, c1B, g in itertools.product(range(3), (4, 8, 12, 16), range(order // 2 + 1)):
            d = coeff_hat(h, c1B, g) - coeff_real(h, c1B, g)
            if d != 0:
                ok = False
                diffs.append(f"(h={h}, c1B={c1B}, g={g}): {d}")
        return IdentityReport(name, order, ok, diffs, note="h <= 2, c1B in {4,8,12,16}")
    if name == "alpha_exp":
        log_terms = [Fraction(0)] * (order + 1)
        for gp in range(1, order // 2 + 1):
            log_terms[2 * gp] = alpha_coeff(gp)
        lhs = series_exp(Series(log_terms, order))
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
    if order < 0 or order % 2:
        raise ValueError("verification order must be even and nonnegative")
    if name == "F1_dep":
        if order == 0:
            return IdentityReport(name, 0, True, note="constant term is 1", conjecture=True)
        diffs: list[str] = []
        ok = True
        pairs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]
        extra = _sample_rationals(4, seed=5)
        for k in range(2):
            s = pairs[0][0] + pairs[0][1]
            shift = extra[2 * k] / (4 * (1 + abs(extra[2 * k + 1])))
            pairs.append((s / 2 + shift, s / 2 - shift))
        base = F1_series(1, pairs[0][0], pairs[0][1], order)
        for a, b in pairs[1:]:
            if a == 0 or b == 0:
                continue
            diff = F1_series(1, a, b, order) - base
            if not diff.is_zero():
                ok = False
                diffs.append(f"(u2,u3)=({a},{b}): " + "; ".join(str(c) for c in diff.coeffs))
        return IdentityReport(
            name, order, ok, diffs,
            note=f"{len(pairs)} pairs with equal u2+u3", conjecture=True,
        )
    if name == "F2_prod":
        x = RationalFunction.const(1)
        y = RationalFunction.z()
        lhs = F2_series(x, y, x + y, order) * F2_series(x, -y, x - y, order)
        scale = (x**2 - y**2) ** 2 / (x**2 * y**2)
        rhs = series_pow(series_sinc("sin", order), 8).scale(-scale)
        report = _report(name, order, lhs - rhs, conjecture=True)
        return report
    raise ValueError(f"unknown conjecture {name!r}")


IDENTITY_NAMES = ("F1", "F12", "F2", "F1sq", "hat_eq_tilde", "alpha_exp")
CONJECTURE_NAMES = ("F1_dep", "F2_prod")
