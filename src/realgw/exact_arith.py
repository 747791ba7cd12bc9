"""Exact arithmetic tower: rationals, polynomials, rational functions, series.

Everything downstream (intersection numbers, localization weights, generating
functions) is computed over this tower, so all values are exact:

* ``Rational`` is an alias for :class:`fractions.Fraction` (arbitrary
  precision, always reduced, positive denominator).
* :class:`Polynomial` is a dense univariate polynomial over the rationals in
  the dehomogenized weight variable ``z``, stored as integer numerators over
  one common denominator in a unique reduced form.
* :class:`RationalFunction` is a quotient of two polynomials kept in normal
  form (coprime, monic denominator), so equality of values is equality of
  normal forms.
* :class:`Series` is a truncated formal power series in ``t`` whose
  coefficients live either in the rationals or in rational functions of ``z``.

Degrees stay small in the target computations (below ~40), hence the dense
representation.  Polynomial arithmetic runs on Python integers: sums and
products work on the numerators and reduce by one integer gcd, and division
and the polynomial gcd share one integer pseudo-division.  Only this module
reads a polynomial's stored numerators and denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


def _poly(ints: Iterable[int], den: int = 1) -> "Polynomial":
    """The polynomial sum_i ints[i] z^i / den in its unique stored form."""
    ints = list(ints)
    while ints and not ints[-1]:
        ints.pop()
    # g takes the sign of den, and the zero polynomial reduces to 0 / 1.
    g = math.gcd(den, *ints) if ints else den
    if den < 0 < g:
        g = -g
    if g != 1:
        ints, den = [c // g for c in ints], den // g
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_ints", tuple(ints))
    object.__setattr__(p, "_den", den)
    return p


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list, list, int]:
    """Integer pseudo-division: lists q, r and an integer s > 0 with
    s * a = q * b + r, deg r < deg b and no trailing zero in r.  A step
    scales by the leading coefficient of b only as far as its quotient
    coefficient needs, so s stays small when b is monic or nearly so."""
    n = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quot = [0] * (len(a) - n)
    s = 1
    for k in range(len(a) - 1 - n, -1, -1):
        top = rem.pop()
        f, m = divmod(top, lead)
        if m:
            mult = abs(lead) // math.gcd(top, lead)
            s *= mult
            rem = [c * mult for c in rem]
            quot = [c * mult for c in quot]
            f = top * mult // lead
        quot[k] = f
        for i in range(n):
            rem[k + i] -= f * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, s


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial in ``z`` with rational coefficients.

    It is stored as integer numerators indexed by degree over one positive
    common denominator, with no trailing zero and no common factor, so each
    polynomial has exactly one stored form and equality and hashing compare
    values.  The zero polynomial stores no numerators over 1.  ``coeffs`` is
    a read-only view of the coefficients as Fractions.
    """

    _ints: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        p = _poly((c.numerator * (den // c.denominator) for c in fracs), den)
        object.__setattr__(self, "_ints", p._ints)
        object.__setattr__(self, "_den", p._den)

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        return Polynomial((value,))

    @staticmethod
    def variable() -> "Polynomial":
        """The polynomial ``z``."""
        return _poly((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients indexed by degree, with no trailing zero."""
        return tuple(Fraction(c, self._den) for c in self._ints)

    def is_zero(self) -> bool:
        return not self._ints

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self._ints) - 1

    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self._den, other._den)
        a = [c * (den // self._den) for c in self._ints]
        b = [c * (den // other._den) for c in other._ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, den)

    def __neg__(self) -> "Polynomial":
        return _poly((-c for c in self._ints), self._den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._ints, other._ints
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self._den * other._den)

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return _poly((x * c.numerator for x in self._ints), self._den * c.denominator)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: self = q * other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # s * A = Q * B + R on the numerators gives A/a = (Q b/(a s)) (B/b) + R/(a s).
        quot, rem, s = _pseudo_divmod(self._ints, other._ints)
        den = self._den * s
        return _poly((c * other._den for c in quot), den), _poly(rem, den)

    def eval_at(self, q: Scalar) -> Fraction:
        q = Fraction(q)
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * q + c
        return acc / self._den

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return _poly(self._ints, self._ints[-1])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for deg, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if deg == 0:
                parts.append(str(c))
            elif deg == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{deg}" if c != 1 else f"z^{deg}")
        return " + ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the primitive Euclidean algorithm:
    pseudo-division on the integer numerators, each remainder divided by the
    gcd of its coefficients to keep them small, and the last nonzero
    remainder made monic."""
    x, y = a._ints, b._ints
    while y:
        _, r, _ = _pseudo_divmod(x, y)
        if r:
            content = math.gcd(*r)
            r = [c // content for c in r]
        x, y = y, r
    return _poly(x, x[-1]) if x else Polynomial()


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of polynomials in ``z`` kept in a unique normal form.

    The normal form has coprime numerator/denominator and a monic denominator,
    so dataclass equality coincides with equality of rational functions.  A
    constant rational function reports its value via :meth:`constant_value`.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1) -> None:
        if not isinstance(num, Polynomial):
            num = Polynomial.const(num)
        if not isinstance(den, Polynomial):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.leading_coefficient()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def const(value: Scalar) -> "RationalFunction":
        return RationalFunction(Polynomial.const(value))

    @staticmethod
    def z() -> "RationalFunction":
        return RationalFunction(Polynomial.variable())

    @staticmethod
    def coerce(value: "RatLike") -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction.const(value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"rational function {self} is not constant")
        return self.num.eval_at(0)

    def __add__(self, other: "RatLike") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RatLike") -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other: "RatLike") -> "RationalFunction":
        return RationalFunction.coerce(other) - self

    def __mul__(self, other: "RatLike") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatLike") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "RatLike") -> "RationalFunction":
        return RationalFunction.coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.const(1) / self) ** (-n)
        out = RationalFunction.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def eval_at(self, q: Scalar) -> Fraction:
        """Evaluate at a rational point where the denominator does not vanish."""
        d = self.den.eval_at(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at z = {q}")
        return self.num.eval_at(q) / d

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


RatLike = Union[RationalFunction, Fraction, int]

#: Coefficients of a Series: exact rationals or rational functions of z.
Coefficient = Union[Fraction, RationalFunction]


def _coeff_is_zero(c: Coefficient) -> bool:
    return c.is_zero() if isinstance(c, RationalFunction) else c == 0


def _coeff_eq(a: Coefficient, b: Coefficient) -> bool:
    if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
        return (RationalFunction.coerce(a) - RationalFunction.coerce(b)).is_zero()
    return a == b


class Series:
    """Truncated formal power series in ``t``.

    ``coeffs[k]`` is the coefficient of ``t**k``; arithmetic never reads past
    ``truncation_order`` and mixing two series truncates to the smaller order.
    A series may carry a parity flag (``"even"`` or ``"odd"``), which asserts
    that the complementary coefficients vanish.
    """

    __slots__ = ("truncation_order", "coeffs", "parity")

    def __init__(
        self,
        coeffs: Sequence[Coefficient | int],
        truncation_order: int | None = None,
        parity: str | None = None,
    ) -> None:
        if truncation_order is None:
            truncation_order = len(coeffs) - 1
        if truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        padded = list(coeffs[: truncation_order + 1])
        padded += [Fraction(0)] * (truncation_order + 1 - len(padded))
        norm: list[Coefficient] = [
            Fraction(c) if isinstance(c, int) else c for c in padded
        ]
        if parity not in (None, "even", "odd"):
            raise ValueError(f"unknown parity flag {parity!r}")
        if parity is not None:
            bad = 1 if parity == "even" else 0
            for k in range(bad, truncation_order + 1, 2):
                if not _coeff_is_zero(norm[k]):
                    raise ValueError(f"coefficient of t^{k} violates {parity} parity")
        self.truncation_order = truncation_order
        self.coeffs = tuple(norm)
        self.parity = parity

    @staticmethod
    def one(order: int) -> "Series":
        return Series([Fraction(1)], order, parity="even")

    def __getitem__(self, k: int) -> Coefficient:
        if k < 0 or k > self.truncation_order:
            raise IndexError(f"coefficient t^{k} beyond truncation order")
        return self.coeffs[k]

    def truncate(self, order: int) -> "Series":
        if order >= self.truncation_order:
            return self
        return Series(self.coeffs[: order + 1], order, parity=self.parity)

    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.truncation_order, other.truncation_order)
        return all(_coeff_eq(self.coeffs[k], other.coeffs[k]) for k in range(n + 1))

    def __hash__(self):  # pragma: no cover - series are not used as keys
        return NotImplemented

    @staticmethod
    def _join_parity(a: str | None, b: str | None, mode: str) -> str | None:
        if a is None or b is None:
            return None
        if mode == "add":
            return a if a == b else None
        # multiplication: even*even=even, even*odd=odd, odd*odd=even
        return "even" if a == b else "odd"

    def __add__(self, other: "Series") -> "Series":
        n = min(self.truncation_order, other.truncation_order)
        return Series(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)],
            n,
            parity=self._join_parity(self.parity, other.parity, "add"),
        )

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.truncation_order, self.parity)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.truncation_order, other.truncation_order)
        out: list[Coefficient] = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if _coeff_is_zero(a):
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if _coeff_is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return Series(
            out, n, parity=self._join_parity(self.parity, other.parity, "mul")
        )

    def scale(self, c: Coefficient | int) -> "Series":
        c = Fraction(c) if isinstance(c, int) else c
        return Series(
            [a * c for a in self.coeffs], self.truncation_order, self.parity
        )

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if _coeff_is_zero(c0):
            raise ZeroDivisionError("series with zero constant term is not invertible")
        inv0 = (
            RationalFunction.const(1) / c0
            if isinstance(c0, RationalFunction)
            else 1 / c0
        )
        n = self.truncation_order
        out: list[Coefficient] = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc: Coefficient = Fraction(0)
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out[k] = -(acc * inv0)
        return Series(out, n, parity=self.parity if self.parity == "even" else None)


def series_pow(base: Series, exponent: int) -> Series:
    """Truncated integer power of a series.

    Negative exponents invert first, which requires an invertible (nonzero)
    constant term.
    """
    if exponent < 0:
        base = base.inverse()
        exponent = -exponent
    out = Series.one(base.truncation_order)
    b = base
    n = exponent
    while n:
        if n & 1:
            out = out * b
        b = b * b
        n >>= 1
    return out


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term, truncated to the same order."""
    if not _coeff_is_zero(s.coeffs[0]):
        raise ValueError("series_exp requires a zero constant term")
    n = s.truncation_order
    out = Series.one(n)
    term = Series.one(n)
    # exp(s) = sum s^k / k!; s has valuation >= 1 so k <= n terms suffice.
    for k in range(1, n + 1):
        term = term * s
        out = out + term.scale(Fraction(1, math.factorial(k)))
    return out


def series_log(s: Series) -> Series:
    """log of a series with constant term 1, truncated to the same order."""
    if not _coeff_eq(s.coeffs[0], Fraction(1)):
        raise ValueError("series_log requires constant term 1")
    n = s.truncation_order
    u = s - Series.one(n)
    out = Series([Fraction(0)], n)
    term = Series.one(n)
    for k in range(1, n + 1):
        term = term * u
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    return out


def series_sinc(kind: str, order: int) -> Series:
    """Normalized (hyperbolic) sine kernel as a truncated series.

    ``sin``  gives sin(t/2)/(t/2)  = sum (-1)^g t^(2g) / (4^g (2g+1)!),
    ``sinh`` gives sinh(t/2)/(t/2) = sum        t^(2g) / (4^g (2g+1)!).
    """
    if kind not in ("sin", "sinh"):
        raise ValueError(f"kind must be 'sin' or 'sinh', got {kind!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    sign = -1 if kind == "sin" else 1
    coeffs = [Fraction(0)] * (order + 1)
    for g in range(order // 2 + 1):
        coeffs[2 * g] = Fraction(sign**g, 4**g * math.factorial(2 * g + 1))
    return Series(coeffs, order, parity="even")
