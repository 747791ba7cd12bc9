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
  normal forms.  Its constructor builds that form with one polynomial gcd,
  and with none when a side is constant.  Where the normal form is known in
  advance, no gcd is taken (Henrici's rules, Knuth, TAOCP vol. 2, 4.5.1):
  a sum with a constant denominator, which is 1, on one side, as
  a/1 + c/d = (a d + c)/d; a product a/b * c/d whose cross pairs (a, d)
  and (c, b) each have a constant member; and a power, since powers of
  coprime polynomials are coprime and of a monic one monic.
  :func:`factored_sum` builds the form for a factored denominator without a
  gcd.
* :class:`Factored` is a value whose denominator is a product of primitive
  integer linear forms a*z + b: a Fraction times an optional Polynomial times
  those forms with signed exponents.  Its products add exponents, and
  :func:`factored_sum` adds many of them and builds one RationalFunction
  normal form by integer synthetic division, with no polynomial gcd.
* :class:`Series` is a truncated formal power series in ``t`` whose
  coefficients live either in the rationals or in rational functions of ``z``.
  Products pair only the nonzero coefficients, and :func:`series_pow`
  raises to any integer power in one pass by J. C. P. Miller's recurrence
  (TAOCP vol. 2, 4.7); :func:`series_exp` and :func:`series_log` are one
  pass each of the recurrences their derivatives give, and all three share
  one recurrence step.

Scalars are ``int`` or ``Fraction``; a float anywhere is a TypeError.  Degrees
stay small in the target computations (below ~40), hence the dense
representation.  Polynomial arithmetic runs on Python integers: sums and
products work on the numerators and reduce by one integer gcd, and the gcd
and the exact division by it share one integer pseudo-division.  ``lcm_sum``
and ``linear_combination`` sum scalar and polynomial terms as integer
numerators over a running lcm denominator, and ``reduced`` brings an integer
pair num/den to lowest terms.  Only this module reads a
polynomial's stored numerators and denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class Record:
    """Base of the value classes.

    A subclass lists its fields in ``__slots__``.  Two instances of the same
    class are equal when their fields are, and the repr names each field.
    A record is mutable, so it is not hashable; see :class:`Frozen`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """An immutable, hashable record.

    The constructor takes the fields in ``__slots__`` order or by name; a
    subclass that normalizes its input overrides it and sets the fields
    through ``object.__setattr__``.  Assigning or deleting a field
    afterwards raises AttributeError.  The hash is that of the field tuple.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        # The positional fields come first, and the keywords name the rest.
        rest = set(names[len(args) :])
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= rest:
            raise TypeError(f"{type(self).__name__} takes the fields {names} once each")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _scalar(c: Scalar) -> Fraction:
    """c as a Fraction, or a TypeError if c is no int or Fraction."""
    if type(c) is Fraction:
        return c
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact scalar must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


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


def int_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials given as coefficient lists
    indexed by degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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


class Polynomial(Frozen):
    """Dense univariate polynomial in ``z`` with rational coefficients.

    It is stored as integer numerators indexed by degree over one positive
    common denominator, with no trailing zero and no common factor, so each
    polynomial has exactly one stored form and equality and hashing compare
    values.  The zero polynomial stores no numerators over 1.  ``coeffs`` is
    a read-only view of the coefficients as Fractions.
    """

    __slots__ = ("_ints", "_den")

    _ints: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        fracs = [_scalar(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        p = _poly((c.numerator * (den // c.denominator) for c in fracs), den)
        object.__setattr__(self, "_ints", p._ints)
        object.__setattr__(self, "_den", p._den)

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        c = _scalar(value)
        return _poly((c.numerator,), c.denominator)

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

    def primitive(self) -> tuple[Fraction, "Polynomial"]:
        """(c, P) with self = c * P, P an integer polynomial with coprime
        coefficients and a positive leading one; zero gives (0, 0)."""
        ints = self._ints
        if not ints:
            return Fraction(0), self
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, self._den), _poly([c // g for c in ints])

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
        return _poly(int_product(self._ints, other._ints), self._den * other._den)

    def __pow__(self, n: int) -> "Polynomial":
        """self^n for n >= 0 by binary powering."""
        if n < 0:
            raise ValueError("a polynomial has no negative powers")
        out, base = _ONE, self
        while n:
            if n & 1:
                out = base if out is _ONE else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def eval_at(self, q: Scalar) -> Fraction:
        q = _scalar(q)
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * q + c
        return acc / self._den

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


_ONE = _poly((1,))


def linear_combination(terms: Iterable[tuple[Scalar, Polynomial]]) -> Polynomial:
    """sum_i c_i * p_i over the (c_i, p_i) pairs, accumulated as integer
    numerators over a running lcm denominator and reduced once at the end."""
    acc: list[int] = []
    den = 1
    for c, p in terms:
        if type(c) is not int:
            c = _scalar(c)
        d = c.denominator * p._den
        if den % d:
            lcm = math.lcm(den, d)
            acc = [x * (lcm // den) for x in acc]
            den = lcm
        f = c.numerator * (den // d)
        if len(acc) < len(p._ints):
            acc.extend([0] * (len(p._ints) - len(acc)))
        for i, x in enumerate(p._ints):
            acc[i] += f * x
    return _poly(acc, den)


def lcm_sum(terms: Iterable[tuple[int, int, int]]) -> tuple[int, int]:
    """sum_i c_i * p_i / q_i over the (c_i, p_i, q_i) integer triples, q_i > 0,
    as a numerator over the running lcm of the q_i, unreduced: the caller
    folds in any common factor and builds one Fraction."""
    acc, den = 0, 1
    for c, p, q in terms:
        if den % q:
            lcm = den // math.gcd(den, q) * q
            acc *= lcm // den
            den = lcm
        acc += c * p * (den // q)
    return acc, den


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, as the pair of coprime integers with the same value:
    one gcd, and zero comes out as (0, 1)."""
    g = math.gcd(num, den)
    return num // g, den // g


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


class RationalFunction(Frozen):
    """Quotient of polynomials in ``z`` kept in a unique normal form.

    The normal form has coprime numerator/denominator and a monic denominator,
    so field equality coincides with equality of rational functions.  The
    constructor takes polynomials or ``int``/``Fraction`` scalars and builds
    the form in one pass: num/den = (N d)/(D n) on the integer numerators N, D
    over n, d; the primitive gcd G from :func:`poly_gcd` divides N and D
    exactly over the integers (Gauss's lemma); the leading integer of D/G is
    folded into both sides.  A constant side skips the gcd: nothing can
    cancel.  ``const``, ``z``, negation, ``**`` and the sums and products
    named in the module docstring are normal by construction and store their
    result without one.
    """

    __slots__ = ("num", "den")

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
            den = _ONE
        else:
            top, bottom = num._ints, den._ints
            # A constant side leaves nothing to cancel.
            if len(top) > 1 and len(bottom) > 1:
                # Looked up as a module global, so a tracer can count the calls.
                gcd = poly_gcd(num, den)._ints
                if len(gcd) > 1:
                    q, _, s = _pseudo_divmod(top, gcd)
                    r, _, t = _pseudo_divmod(bottom, gcd)
                    top, bottom = [c // s for c in q], [c // t for c in r]
            num, den = _monic(top, num._den, bottom, den._den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def const(value: Scalar) -> "RationalFunction":
        return _normal(Polynomial.const(value), _ONE)

    @staticmethod
    def z() -> "RationalFunction":
        return _normal(Polynomial.variable(), _ONE)

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
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        # A constant denominator is 1, and a/1 + c/d = (a d + c)/d is coprime.
        if self.den.degree == 0 or other.den.degree == 0:
            return _normal(num, den if num._ints else _ONE)
        return RationalFunction(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _normal(-self.num, self.den)

    def __sub__(self, other: "RatLike") -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other: "RatLike") -> "RationalFunction":
        return RationalFunction.coerce(other) - self

    def __mul__(self, other: "RatLike") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        num, den = a * c, b * d
        # (a c)/(b d) is coprime when a, d and c, b are: a constant member of
        # each cross pair makes it so.
        if (a.degree <= 0 or d.degree == 0) and (c.degree <= 0 or b.degree == 0):
            return _normal(num, den if num._ints else _ONE)
        return RationalFunction(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatLike") -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "RatLike") -> "RationalFunction":
        return RationalFunction.coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        # Powers of coprime polynomials are coprime, and of a monic one monic.
        if n >= 0:
            return _normal(self.num**n, self.den**n)
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        top, bottom = self.den**-n, self.num**-n
        return _normal(*_monic(top._ints, top._den, bottom._ints, bottom._den))

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


def _monic(
    top: Sequence[int], n: int, bottom: Sequence[int], d: int
) -> tuple[Polynomial, Polynomial]:
    """(top / n) / (bottom / d) for integer lists with no trailing zero, as
    num and den with the leading coefficient of den divided out of both
    sides: the normal form when top and bottom are coprime."""
    lead = bottom[-1]
    return _poly([c * d for c in top], n * lead), _poly(bottom, lead)


def _normal(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num / den stored as given: coprime, with den monic."""
    r = object.__new__(RationalFunction)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


RatLike = Union[RationalFunction, Fraction, int]

#: A primitive integer linear form a*z + b (a > 0, gcd(a, b) = 1) as (a, b).
Form = tuple[int, int]


def _times_linear(ints: Sequence[int], a: int, b: int) -> list[int]:
    """The integer polynomial ints times a*z + b."""
    out = [b * c for c in ints] + [0]
    for k, c in enumerate(ints):
        out[k + 1] += a * c
    return out


def _divide_linear(ints: Sequence[int], a: int, b: int) -> list[int] | None:
    """ints / (a*z + b) by integer synthetic division, or None when the form
    does not divide.  The form is primitive, so by Gauss's lemma a quotient
    over the rationals has integer coefficients and every step is exact."""
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


class Factored:
    """An exact value c * rest * prod_f f^e_f with a factored denominator.

    ``scalar`` c is a Fraction, ``rest`` an optional Polynomial (None stands
    for 1), and each f a primitive integer linear form a*z + b, a > 0, with a
    signed exponent e.  ``*``, ``/`` and ``**`` add and scale exponents, so
    they cancel forms without any polynomial gcd; only values with no rest
    can be inverted.  Values are built by :meth:`const`, from a weight of
    degree at most 1 by :meth:`weight`, and from a RationalFunction whose
    denominator splits over given forms by :meth:`split`.  :func:`factored_sum`
    adds them and returns the RationalFunction normal form; a single value
    converts the same way.  Values are immutable and compare by identity:
    compare their rational functions.
    """

    __slots__ = ("scalar", "rest", "_forms")

    scalar: Fraction
    rest: Polynomial | None
    _forms: dict[Form, int]

    def __init__(self, scalar: Scalar, rest: Polynomial | None, forms: dict[Form, int]):
        """Private: use const, weight or split.  Folds a constant rest into
        the scalar, drops zero exponents and stores zero as a bare 0."""
        scalar = _scalar(scalar)
        if rest is not None and rest.degree <= 0:
            scalar *= rest.eval_at(0)
            rest = None
        if scalar:
            forms = {f: e for f, e in forms.items() if e}
        else:
            rest, forms = None, {}
        self.scalar, self.rest, self._forms = scalar, rest, forms

    @staticmethod
    def const(value: Scalar) -> "Factored":
        return Factored(value, None, {})

    @staticmethod
    def weight(value: Polynomial) -> "Factored":
        """A weight p*z + q: its content times one primitive form, or a
        constant.  A polynomial of higher degree raises ValueError."""
        if value.degree > 1:
            raise ValueError(f"weight {value} is not of degree at most 1")
        if value.degree <= 0:
            return Factored.const(value.eval_at(0))
        content, form = value.primitive()
        b, a = form._ints
        return Factored(content, None, {(a, b): 1})

    @staticmethod
    def split(value: RationalFunction, forms: Iterable[Form]) -> "Factored":
        """value with its denominator divided out over the given forms, each
        as often as it divides; ArithmeticError when something else is left."""
        den = value.den._ints
        exponents: dict[Form, int] = {}
        for a, b in dict.fromkeys(forms):
            while (quot := _divide_linear(den, a, b)) is not None:
                den = quot
                exponents[(a, b)] = exponents.get((a, b), 0) - 1
        if len(den) != 1:
            raise ArithmeticError(
                f"denominator {value.den} does not split over the linear forms"
            )
        return Factored(Fraction(value.den._den, den[0]), value.num, exponents)

    @property
    def forms(self) -> tuple[tuple[Form, int], ...]:
        """The (form, exponent) pairs, exponents nonzero."""
        return tuple(self._forms.items())

    def __mul__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        forms = dict(self._forms)
        for f, e in other._forms.items():
            forms[f] = forms.get(f, 0) + e
        if self.rest is None or other.rest is None:
            rest = other.rest if self.rest is None else self.rest
        else:
            rest = self.rest * other.rest
        return Factored(self.scalar * other.scalar, rest, forms)

    def __neg__(self) -> "Factored":
        return Factored(-self.scalar, self.rest, self._forms)

    def __truediv__(self, other: "Factored") -> "Factored":
        return self * other ** -1

    def __pow__(self, n: int) -> "Factored":
        if n < 0 and self.rest is not None:
            raise ArithmeticError("only a product of linear forms can be inverted")
        rest = None if self.rest is None else self.rest**n
        # Fraction(0) ** -k raises ZeroDivisionError.
        scalar = self.scalar**n
        return Factored(scalar, rest, {f: e * n for f, e in self._forms.items()})

    def rational_function(self) -> RationalFunction:
        return factored_sum((self,))

    def __repr__(self) -> str:
        return f"Factored({self.scalar}, {self.rest}, {self._forms})"


def factored_sum(values: Iterable[Factored]) -> RationalFunction:
    """sum of the values as a RationalFunction in normal form, with no
    polynomial gcd.

    Each form is taken out at its least exponent over the values (0 where a
    value lacks it).  The values that are left with the same exponents sum
    their scalar-times-rest parts in one linear combination and are then
    multiplied by their forms; one more linear combination adds those.  The
    forms of negative least exponent make the denominator: each is divided
    out of the numerator by synthetic division as often as it goes, so what
    is left is coprime, and the leading integer of the denominator is folded
    into both sides, as the RationalFunction constructor does.
    """
    terms = [v for v in values if v.scalar]
    if not terms:
        return RationalFunction.const(0)
    forms = sorted({f for v in terms for f in v._forms})
    low = [min(v._forms.get(f, 0) for v in terms) for f in forms]
    groups: dict[tuple[int, ...], list[tuple[Fraction, Polynomial]]] = {}
    for v in terms:
        key = tuple(v._forms.get(f, 0) - m for f, m in zip(forms, low))
        groups.setdefault(key, []).append((v.scalar, _ONE if v.rest is None else v.rest))
    parts = []
    for key, group in groups.items():
        part = linear_combination(group)
        ints = part._ints
        for (a, b), k in zip(forms, key):
            for _ in range(k):
                ints = _times_linear(ints, a, b)
        parts.append((1, _poly(ints, part._den)))
    total = linear_combination(parts)
    if total.is_zero():
        return RationalFunction.const(0)
    num, den = total._ints, [1]
    for (a, b), m in zip(forms, low):
        for _ in range(m):
            num = _times_linear(num, a, b)
        while m < 0 and (quot := _divide_linear(num, a, b)) is not None:
            num, m = quot, m + 1
        for _ in range(-m):
            den = _times_linear(den, a, b)
    lead = den[-1]
    return _normal(_poly(num, total._den * lead), _poly(den, lead))

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
        norm = [
            c if isinstance(c, (Fraction, RationalFunction)) else _scalar(c)
            for c in padded
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

    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.truncation_order, other.truncation_order)
        return all(_coeff_eq(self.coeffs[k], other.coeffs[k]) for k in range(n + 1))

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
        right = other._nonzero(n)
        out: list[Coefficient | None] = [None] * (n + 1)
        for i, a in self._nonzero(n):
            for j, b in right:
                if i + j > n:
                    break
                # A slot starts from its first product, not from a zero.
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        return Series(
            [Fraction(0) if c is None else c for c in out],
            n,
            parity=self._join_parity(self.parity, other.parity, "mul"),
        )

    def _nonzero(self, n: int) -> list[tuple[int, Coefficient]]:
        """The (k, coefficient) pairs with k <= n and a nonzero coefficient."""
        coeffs = enumerate(self.coeffs[: n + 1])
        return [(k, c) for k, c in coeffs if not _coeff_is_zero(c)]

    def scale(self, c: Coefficient | int) -> "Series":
        return Series(
            [a * c for a in self.coeffs], self.truncation_order, self.parity
        )


def _recurrence_sum(
    terms: list[tuple[int, Coefficient]],
    out: list[Coefficient],
    m: int,
    weight: Callable[[int], int],
) -> Coefficient | None:
    """sum of weight(j) * c * out[m - j] over the (j, c) of ``terms``, sorted
    by j, with j <= m, skipping zero weights and zero entries of ``out``;
    None when nothing is summed.  The one step of the power, exp and log
    recurrences."""
    acc: Coefficient | None = None
    for j, c in terms:
        if j > m:
            break
        w, a = weight(j), out[m - j]
        if w and not _coeff_is_zero(a):
            p = w * c * a
            acc = p if acc is None else acc + p
    return acc


def series_pow(base: Series, exponent: int) -> Series:
    """Truncated integer power of a series, in one pass.

    With base = t^v g and g_0 != 0, base^k = t^(vk) g^k, and the
    coefficients a_m of g^k follow from J. C. P. Miller's recurrence
    m g_0 a_m = sum_(j=1..m) ((k+1) j - m) g_j a_(m-j), for any integer k.
    A negative exponent needs v = 0 and raises ZeroDivisionError otherwise.
    An even base gives an even power, an odd one a power of the parity of
    k, and k = 0 gives ``Series.one``.
    """
    n = base.truncation_order
    if exponent == 0:
        return Series.one(n)
    parity = base.parity
    if parity == "odd" and exponent % 2 == 0:
        parity = "even"
    terms = base._nonzero(n)
    if not terms or (exponent < 0 and terms[0][0] > 0):
        if exponent < 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return Series([], n, parity)
    v, g0 = terms[0]
    shift = v * exponent
    g = [(j - v, c) for j, c in terms[1:]]
    inverse = g0**-1
    out: list[Coefficient] = [g0**exponent]
    for m in range(1, n - shift + 1):
        acc = _recurrence_sum(g, out, m, lambda j: (exponent + 1) * j - m)
        out.append(Fraction(0) if acc is None else acc * (inverse * Fraction(1, m)))
    return Series([Fraction(0)] * shift + out, n, parity)


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term, truncated to the same order.

    In one pass: a = exp(s) satisfies t a' = (t s') a, so a_0 = 1 and
    m a_m = sum_(k=1..m) k s_k a_(m-k).  An even s gives an even series.
    """
    if not _coeff_is_zero(s.coeffs[0]):
        raise ValueError("series_exp requires a zero constant term")
    n = s.truncation_order
    terms = s._nonzero(n)
    out: list[Coefficient] = [Fraction(1)]
    for m in range(1, n + 1):
        acc = _recurrence_sum(terms, out, m, lambda k: k)
        out.append(Fraction(0) if acc is None else acc * Fraction(1, m))
    return Series(out, n, "even" if n == 0 or s.parity == "even" else None)


def series_log(s: Series) -> Series:
    """log of a series with constant term 1, truncated to the same order.

    In one pass: with s = 1 + u, b = log(s) satisfies s b' = u', so b_0 = 0
    and m b_m = m u_m - sum_(k=1..m-1) k b_k u_(m-k).
    """
    if not _coeff_eq(s.coeffs[0], Fraction(1)):
        raise ValueError("series_log requires constant term 1")
    n = s.truncation_order
    terms = s._nonzero(n)[1:]
    out: list[Coefficient] = [Fraction(0)]
    for m in range(1, n + 1):
        acc = _recurrence_sum(terms, out, m, lambda j: m - j)
        um = s.coeffs[m]
        out.append(um if acc is None else um - acc * Fraction(1, m))
    return Series(out, n)


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
