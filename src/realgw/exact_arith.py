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
  integer linear forms a*z + b: a reduced integer pair times an optional
  Polynomial times those forms with signed exponents.  The exponents are
  packed into one integer key, a 32-bit digit per form of a process-wide
  registry, and ``*`` and ``**`` keep them within ``EXPONENT_BOUND`` =
  2^31 - 1, so no key carries from one digit into the next.  Products add
  keys and multiply integer pairs.  :func:`factored_sum` groups many values
  on their keys as they stream in, adds the groups by Kronecker
  substitution and builds one RationalFunction normal form by exact
  division, with no polynomial gcd.
* :func:`power_quotient` sums integer multiples of products of powers,
  with signed exponents, of given integer polynomials, and normalizes the
  quotient with one polynomial gcd.  It and :func:`factored_sum` take the
  factors out at their least exponents and build numerator and
  denominator by one Kronecker substitution on integers,
  :func:`_kronecker_sum`, so no table of polynomial powers is kept.
* :class:`Series` is a truncated formal power series in ``t`` whose
  coefficients live either in the rationals or in rational functions of ``z``.
  A RationalFunction is false exactly when it is zero, so ``not c`` is the
  zero test for both coefficient types.  Only the public constructor pads
  and type-checks coefficients; sums, products, scalings, powers and
  exponentials store theirs as given, by :func:`_series`.
  Products pair only the nonzero coefficients, and :func:`series_pow`
  raises to any integer power in one pass by J. C. P. Miller's recurrence
  (TAOCP vol. 2, 4.7); :func:`series_exp` is one pass of the recurrence
  its derivative gives, and both share one recurrence step.

Scalars are ``int`` or ``Fraction``; a float anywhere is a TypeError.  Degrees
stay small in the target computations (below ~40), hence the dense
representation.  Polynomial arithmetic runs on Python integers: sums and
products work on the numerators and reduce by one integer gcd.  The
polynomial gcd and every exact division share one integer pseudo-division
(Knuth, TAOCP vol. 2, 4.6.1): :func:`_divide_out` divides by a primitive
integer polynomial, which by Gauss's lemma divides exactly when
pseudo-division leaves no remainder, with an integer quotient.  It serves
the RationalFunction constructor, ``Factored.split`` and
:func:`factored_sum`.  ``lcm_sum`` and ``linear_combination``, which
``Polynomial`` ``+`` and ``-`` call, sum scalar and polynomial terms as
integer numerators over a running lcm denominator, and ``reduced`` brings
an integer pair num/den to lowest terms.  Only this module reads a
polynomial's stored numerators and denominator, a Factored value's key and
integer scalar, or the form registry.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

Rational = Fraction

Scalar = int | Fraction


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

    The constructor takes the fields in ``__slots__`` order or by name and
    sets them through the slot descriptors, which ``__setattr__`` does not
    reach; a subclass that normalizes its input overrides it and sets the
    fields through ``object.__setattr__``.  Assigning or deleting a field
    afterwards raises AttributeError.  The hash is that of the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        # The positional fields come first, and the keywords name the rest.
        if kwargs:
            rest = names[len(args) :]
            if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {names} once each")
            args += tuple(kwargs[name] for name in rest)
        elif len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names} once each")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _HashedOnce(Frozen):
    """A Frozen record that keeps its hash, once computed, in a slot of its
    own: a subclass lists only its fields in ``__slots__``, so equality and
    repr do not see the cached hash."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
            return h


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


def _divide_out(
    ints: Sequence[int], divisor: Sequence[int], most: int
) -> tuple[Sequence[int], int]:
    """(quotient, times): the nonzero integer polynomial ints divided by the
    primitive integer polynomial divisor as often as it divides exactly, at
    most ``most`` times.  By Gauss's lemma a primitive divisor divides an
    integer polynomial over the rationals exactly when pseudo-division leaves
    no remainder, and then the quotient q has integer coefficients: each
    step's leading coefficient is q_k times that of the divisor, so
    pseudo-division never scales and its quotient is q."""
    times = 0
    while times < most:
        quot, rem, _ = _pseudo_divmod(ints, divisor)
        if rem:
            break
        ints, times = quot, times + 1
    return ints, times


class Polynomial(_HashedOnce):
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
        return linear_combination(((1, self), (1, other)))

    def __neg__(self) -> "Polynomial":
        return _poly((-c for c in self._ints), self._den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return linear_combination(((1, self), (-1, other)))

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
    total: list = [[], 1]
    for c, p in terms:
        if type(c) is not int:
            c = _scalar(c)
        _accumulate(total, c.numerator, c.denominator * p._den, p._ints)
    return _poly(*total)


def _accumulate(total: list, c: int, d: int, ints: Sequence[int]) -> None:
    """Add c/d * sum_i ints[i] z^i, d > 0, to total = [numerators, den] in
    place, keeping den the lcm of the denominators added so far."""
    acc, den = total
    if den % d:
        lcm = den // math.gcd(den, d) * d
        acc[:] = [x * (lcm // den) for x in acc]
        total[1] = den = lcm
    f = c * (den // d)
    if len(acc) < len(ints):
        acc.extend([0] * (len(ints) - len(acc)))
    for i, x in enumerate(ints):
        acc[i] += f * x


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


class RationalFunction(_HashedOnce):
    """Quotient of polynomials in ``z`` kept in a unique normal form.

    The normal form has coprime numerator/denominator and a monic denominator,
    so field equality coincides with equality of rational functions.  The
    constructor takes polynomials or ``int``/``Fraction`` scalars and builds
    the form in one pass: num/den = (N d)/(D n) on the integer numerators N, D
    over n, d; the primitive gcd G from :func:`poly_gcd` divides N and D
    exactly over the integers (Gauss's lemma), by :func:`_divide_out`, and a
    remainder on either side raises ArithmeticError; the leading integer of
    D/G is folded into both sides.  A constant side skips the gcd: nothing can
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
                    top, i = _divide_out(top, gcd, 1)
                    bottom, j = _divide_out(bottom, gcd, 1)
                    if i + j < 2:
                        raise ArithmeticError(
                            f"gcd {_poly(gcd)} leaves a remainder in ({num}) / ({den})"
                        )
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

    def __bool__(self) -> bool:
        return not self.num.is_zero()

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

    def substitute(self, sign: int, invert: bool = False) -> "RationalFunction":
        """The image under z -> sign*z, or z -> sign/z when ``invert`` is
        set, for sign = 1 or -1, in normal form with no gcd.

        Both maps are Moebius substitutions: a common root r of the images of
        coprime num and den would make sign*r, or sign/r, a common root of
        num and den, so the images are coprime.  Under invert, p of degree n
        goes to z^-n times its reversed coefficient list P, which is nonzero
        at 0; so num/den goes to z^(deg den - deg num) P_num/P_den, the power
        of z joins the side where its exponent is positive, and z divides
        neither P, which keeps both sides coprime.  The leading coefficient
        of the new denominator is divided out of both sides (``_monic``).
        """
        top, bottom = self.num._ints, self.den._ints
        if sign == -1:
            top = [-c if i % 2 else c for i, c in enumerate(top)]
            bottom = [-c if i % 2 else c for i, c in enumerate(bottom)]
        elif sign != 1:
            raise ValueError(f"sign must be 1 or -1, not {sign}")
        if invert and top:
            shift = len(bottom) - len(top)
            top, bottom = list(reversed(top)), list(reversed(bottom))
            while not top[-1]:
                top.pop()
            while not bottom[-1]:
                bottom.pop()
            if shift > 0:
                top = [0] * shift + top
            else:
                bottom = [0] * -shift + bottom
        elif top is self.num._ints:
            return self
        return _normal(*_monic(top, self.num._den, bottom, self.den._den))

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


RatLike = RationalFunction | Fraction | int

#: A primitive integer linear form a*z + b (a > 0, gcd(a, b) = 1) as (a, b).
Form = tuple[int, int]

#: Bits per form in a packed exponent key: the width of the C unsigned int
#: ("I") through which keys are decoded.
_DIGIT_BITS = 32
_HALF = 1 << (_DIGIT_BITS - 1)
#: The largest exponent, in absolute value, that a Factored value may carry.
EXPONENT_BOUND = _HALF - 1

#: The process-wide form registry: the key of each form to the first power,
#: 2^(W i) for the form of digit i, and the form of each digit.
_UNITS: dict[Form, int] = {}
_FORMS: list[Form] = []


def _unit(form: Form) -> int:
    """The key of form^1, with the form given the next digit if it is new."""
    unit = _UNITS.get(form)
    if unit is None:
        unit = _UNITS[form] = 1 << (_DIGIT_BITS * len(_FORMS))
        _FORMS.append(form)
    return unit


def _digits(x: int, n: int) -> list[int]:
    """The n lowest base-2^W digits of x, 0 <= x < 2^(W n), lowest first."""
    raw = x.to_bytes(n * _DIGIT_BITS // 8, sys.byteorder)
    return memoryview(raw).cast("I").tolist()


def _offset(n: int) -> int:
    """The key with the digit 2^(W-1) at each of n digits: added to a key,
    it turns the signed digits into the ordinary base-2^W ones, shifted."""
    return _HALF * ((1 << (_DIGIT_BITS * n)) - 1) // ((1 << _DIGIT_BITS) - 1)


def _bounded(height: int) -> int:
    """height, or ArithmeticError when it passes EXPONENT_BOUND."""
    if height > EXPONENT_BOUND:
        raise ArithmeticError(
            f"a factored value may carry exponents up to {EXPONENT_BOUND} only"
        )
    return height


class Factored:
    """An exact value c * rest * prod_f f^e_f with a factored denominator.

    The scalar c is a reduced integer pair num/den, den > 0, read as a
    Fraction through ``scalar``; ``rest`` is a Polynomial of positive degree
    or None, which stands for 1 (a constant rest is folded into c); each f is
    a primitive integer linear form a*z + b, a > 0, with a signed exponent e.
    Zero is 0/1 with no rest and no forms.

    The exponents are packed into one integer key.  A process-wide registry
    gives each form a digit i, in the order forms are first met, and the key
    is sum_f e_f 2^(W i_f), W = 32, with signed digits.  So ``*`` adds keys,
    ``**`` multiplies a key and ``/`` subtracts one, and forms cancel with no
    polynomial gcd; the scalars multiply with two integer gcds across the
    pairs.  Only ``forms`` and :func:`factored_sum` decode a key.

    The sum of two keys, or a key times an integer, is the key of the digit
    sums or multiples as long as each of those stays within EXPONENT_BOUND =
    2^(W-1) - 1: an integer has one representation by digits in
    [-2^(W-1), 2^(W-1)), so nothing carries from one digit into the next.
    Each value carries a height, a bound on the absolute value of each of
    its exponents: 0 for a constant or a polynomial, 1 for a weight, the
    largest multiplicity divided out by a split, the sum of the factors'
    heights for a product and the height times |n| for a power.  ``*``,
    ``**`` and ``split`` raise ArithmeticError when a height would pass
    EXPONENT_BOUND, so no chain of products and powers reaches a carry.

    Only values with no rest can be inverted.  Values are built by
    :meth:`const`, :meth:`polynomial`, from a weight of degree at most 1 by
    :meth:`weight`, and from a RationalFunction whose denominator splits over
    given forms by :meth:`split`, which divides the forms out by exact
    pseudo-division: a primitive form leaves an integer quotient (Gauss's
    lemma), see :func:`_divide_out`.  :func:`factored_sum` adds them and
    returns the RationalFunction normal form; a single value converts the
    same way.
    Values are immutable and compare by identity: compare their rational
    functions.
    """

    __slots__ = ("_num", "_den", "rest", "_key", "_height")

    _num: int
    _den: int
    rest: Polynomial | None
    _key: int
    _height: int

    def __init__(
        self, num: int, den: int, rest: Polynomial | None, key: int, height: int
    ) -> None:
        """Private: use const, polynomial, weight or split.  The fields are
        stored as given, so they must already be in the form above."""
        self._num, self._den, self.rest = num, den, rest
        self._key, self._height = key, height

    @staticmethod
    def const(value: Scalar, den: int = 1) -> "Factored":
        """value / den, den a nonzero integer; integers build no Fraction."""
        if type(value) is not int:
            value = _scalar(value)
        if not den:
            raise ZeroDivisionError("factored constant with zero denominator")
        return _with_rest(value.numerator, value.denominator * den, _ONE, 0, 0)

    @staticmethod
    def polynomial(ints: Sequence[int]) -> "Factored":
        """The integer polynomial sum_i ints[i] z^i."""
        return _with_rest(1, 1, _poly(ints), 0, 0)

    @staticmethod
    def weight(value: Polynomial) -> "Factored":
        """A weight p*z + q: its content times one primitive form, or a
        constant.  A polynomial of higher degree raises ValueError."""
        if value.degree > 1:
            raise ValueError(f"weight {value} is not of degree at most 1")
        if value.degree <= 0:
            return Factored.const(value._ints[0] if value._ints else 0, value._den)
        content, form = value.primitive()
        b, a = form._ints
        return Factored(content.numerator, content.denominator, None, _unit((a, b)), 1)

    @staticmethod
    def split(value: RationalFunction, forms: Iterable[Form]) -> "Factored":
        """value with its denominator divided out over the given forms, each
        as often as it divides exactly, at most its degree times, by
        :func:`_divide_out`; ArithmeticError when something else is left."""
        den = value.den._ints
        key = height = 0
        for a, b in dict.fromkeys(forms):
            den, count = _divide_out(den, (b, a), len(den) - 1)
            if count:
                key -= count * _unit((a, b))
                height = max(height, _bounded(count))
        if len(den) != 1:
            raise ArithmeticError(
                f"denominator {value.den} does not split over the linear forms"
            )
        return _with_rest(value.den._den, den[0], value.num, key, height)

    @property
    def scalar(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def forms(self) -> tuple[tuple[Form, int], ...]:
        """The (form, exponent) pairs, exponents nonzero, by digit."""
        n = len(_FORMS)
        digits = _digits(self._key + _offset(n), n)
        return tuple((_FORMS[i], d - _HALF) for i, d in enumerate(digits) if d != _HALF)

    def __mul__(self, other: "Factored") -> "Factored":
        if other.__class__ is not Factored:
            return NotImplemented
        a, b, c, d = self._num, self._den, other._num, other._den
        if not a or not c:
            return _ZERO
        g, h = math.gcd(a, d), math.gcd(c, b)
        if self.rest is None or other.rest is None:
            rest = other.rest if self.rest is None else self.rest
        else:
            rest = self.rest * other.rest
        return Factored(
            (a // g) * (c // h),
            (b // h) * (d // g),
            rest,
            self._key + other._key,
            _bounded(self._height + other._height),
        )

    def __neg__(self) -> "Factored":
        return Factored(-self._num, self._den, self.rest, self._key, self._height)

    def __truediv__(self, other: "Factored") -> "Factored":
        return self * other**-1

    def __pow__(self, n: int) -> "Factored":
        if n < 0 and self.rest is not None:
            raise ArithmeticError("only a product of linear forms can be inverted")
        height = _bounded(self._height * abs(n))
        num, den = self._num, self._den
        if n >= 0:
            num, den = num**n, den**n
        elif not num:
            raise ZeroDivisionError("zero has no negative powers")
        else:
            num, den = den**-n, num**-n
            if den < 0:
                num, den = -num, -den
        rest = self.rest**n if self.rest is not None and n else None
        return Factored(num, den, rest, self._key * n, height)

    def rational_function(self) -> RationalFunction:
        return factored_sum((self,))

    def __repr__(self) -> str:
        return f"Factored({self.scalar}, {self.rest}, {dict(self.forms)})"


_ZERO = Factored(0, 1, None, 0, 0)


def _with_rest(num: int, den: int, rest: Polynomial, key: int, height: int) -> Factored:
    """num/den * rest * the forms of key, for integers num and den != 0: the
    scalar reduced, a constant rest folded into it and zero stored bare."""
    if rest.degree <= 0:
        num *= rest._ints[0] if rest._ints else 0
        den *= rest._den
        rest = None
    if not num:
        return _ZERO
    if den < 0:
        num, den = -num, -den
    num, den = reduced(num, den)
    return Factored(num, den, rest, key, height)


def factored_sum(values: Iterable[Factored]) -> RationalFunction:
    """sum of the values as a RationalFunction in normal form, with no
    polynomial gcd.

    The values stream in and are grouped on their packed keys: each group
    keeps the sum of its scalar-times-rest parts as integer numerators over a
    running lcm, as :func:`linear_combination` does, so memory follows the
    distinct exponent vectors, not the values.  Only the distinct keys are
    decoded: each form with a negative least exponent over them (0 where a
    key lacks the form) is taken out at that exponent, and every group is
    left with a polynomial times powers of forms.  :func:`_kronecker_sum` adds
    those.  The forms taken out make the denominator: each is divided out of
    the numerator as often as it divides exactly, at most its exponent in the
    denominator times, by :func:`_divide_out`'s pseudo-division (a primitive
    form leaves an integer quotient, by Gauss's lemma), so what is left is
    coprime, and :func:`_monic` folds the leading integer of the denominator
    into both sides, as the RationalFunction constructor does.
    """
    groups: dict[int, list] = {}
    for v in values:
        if v._num:
            group = groups.get(v._key)
            if group is None:
                group = groups[v._key] = [[], 1]
            if v.rest is None:
                _accumulate(group, v._num, v._den, (1,))
            else:
                _accumulate(group, v._num, v._den * v.rest._den, v.rest._ints)
    if not groups:
        return RationalFunction.const(0)
    n = len(_FORMS)
    offset = _offset(n)
    low: list[int] = []
    for key in groups:
        digits = _digits(key + offset, n)
        low = list(map(min, low, digits)) if low else digits
    low = [min(m - _HALF, 0) for m in low]
    floor = sum(m << (_DIGIT_BITS * i) for i, m in enumerate(low))
    forms = [(b, a) for a, b in _FORMS]
    total = _kronecker_sum(
        forms,
        [(_digits(key - floor, n), acc, den) for key, (acc, den) in groups.items()],
    )
    if total.is_zero():
        return RationalFunction.const(0)
    num, left = total._ints, []
    for form, m in zip(forms, low):
        num, times = _divide_out(num, form, -m)
        left.append(-m - times)
    den = _kronecker_sum(forms, [(left, [1], 1)])._ints
    return _normal(*_monic(num, total._den, den, 1))


def power_quotient(
    factors: Sequence[Polynomial], terms: Iterable[tuple[Sequence[int], int]], den: int
) -> RationalFunction:
    """sum_t c_t / den * prod_k factors[k]^(e_(t,k)) over the terms (e_t, c_t)
    as a RationalFunction in normal form, for integer polynomials as
    factors, integer c_t, signed exponents and an integer den > 0.

    Each factor is taken out at its least exponent low_k over the terms
    with c_t != 0, or at 0 when that is positive, so the numerator
    sum_t c_t prod_k f_k^(e_(t,k) - low_k) and the denominator
    den * prod_k f_k^(-low_k) are integer polynomials.
    :func:`_kronecker_sum` builds both, and the RationalFunction
    constructor normalizes the quotient with one polynomial gcd.
    """
    if any(f._den != 1 for f in factors):
        raise ValueError("power_quotient takes integer polynomials as factors")
    ints = [f._ints for f in factors]
    terms = [(e, c) for e, c in terms if c]
    if not terms:
        return RationalFunction.const(0)
    low = [min(0, *column) for column in zip(*(e for e, _ in terms))]
    num = _kronecker_sum(
        ints, [([x - m for x, m in zip(e, low)], [c], 1) for e, c in terms]
    )
    return RationalFunction(num, _kronecker_sum(ints, [([-m for m in low], [den], 1)]))


def _kronecker_sum(
    factors: Sequence[Sequence[int]], parts: list[tuple[list[int], list[int], int]]
) -> Polynomial:
    """sum of acc/d * prod_k f_k^(e_k) over the parts (e, acc, d): f_k the
    nonzero integer coefficient lists of ``factors``, indexed by degree, e a
    nonnegative exponent per factor, acc integer coefficients and d > 0.

    By Kronecker substitution: with D the lcm of the d, the integer
    polynomial D times the sum is evaluated at z = 2^K, where each part
    costs one product of integers with the values of its factor powers,
    each built once per call, and its coefficients are read back as the
    base-2^K digits of the value, in [-2^(K-1), 2^(K-1)).  That is exact
    when no coefficient leaves that range.  A coefficient of p * q is at
    most the sum of the absolute coefficients of p (its 1-norm) times the
    largest of q, and 1-norms multiply at most, so a part's coefficients
    are below (D/d) |acc|_1 prod_k |f_k|_1^(e_k) < 2^B, B the sum of the
    bit lengths, and K = max B + bit length of the part count + 1 bounds
    the sum.
    """
    den = math.lcm(*(d for _, _, d in parts))
    sizes = [sum(map(abs, f)).bit_length() for f in factors]
    degrees = [len(f) - 1 for f in factors]
    width = degree = 0
    for exponents, acc, d in parts:
        size = sum(map(operator.mul, exponents, sizes))
        size += (den // d).bit_length() + sum(map(abs, acc)).bit_length()
        width = max(width, size)
        degree = max(degree, len(acc) - 1 + sum(map(operator.mul, exponents, degrees)))
    width += len(parts).bit_length() + 1
    powers: dict[tuple[int, int], int] = {}
    value = 0
    for exponents, acc, d in parts:
        scale = den // d
        for k, e in enumerate(exponents):
            if e:
                power = powers.get((k, e))
                if power is None:
                    power = powers[(k, e)] = _packed(factors[k], width) ** e
                scale *= power
        value += _packed(acc, width) * scale
    # Shifted by 2^(K-1) at every digit, the digits are nonnegative.
    half = 1 << (width - 1)
    value += half * ((1 << (width * (degree + 1))) - 1) // ((1 << width) - 1)
    mask = (1 << width) - 1
    coeffs = []
    for _ in range(degree + 1):
        coeffs.append((value & mask) - half)
        value >>= width
    return _poly(coeffs, den)


def _packed(ints: Sequence[int], width: int) -> int:
    """The integer polynomial sum_i ints[i] z^i at z = 2^width."""
    packed = 0
    for c in reversed(ints):
        packed = (packed << width) + c
    return packed


#: Coefficients of a Series: exact rationals or rational functions of z.
Coefficient = Fraction | RationalFunction


class Series:
    """Truncated formal power series in ``t``.

    ``coeffs[k]`` is the coefficient of ``t**k``; arithmetic never reads past
    ``truncation_order`` and mixing two series truncates to the smaller order.
    The constructor pads the coefficients with zeros through
    ``truncation_order`` and takes each as a Fraction or RationalFunction,
    an int becoming a Fraction.  ``not c`` is the zero test for both
    coefficient types.  Sums, products, scalings, powers and exponentials
    store their exact coefficients as given, by :func:`_series`.
    """

    __slots__ = ("truncation_order", "coeffs")

    def __init__(
        self,
        coeffs: Sequence[Coefficient | int],
        truncation_order: int | None = None,
    ) -> None:
        if truncation_order is None:
            truncation_order = len(coeffs) - 1
        if truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        padded = list(coeffs[: truncation_order + 1])
        padded += [Fraction(0)] * (truncation_order + 1 - len(padded))
        self.truncation_order = truncation_order
        self.coeffs = tuple(
            c if isinstance(c, (Fraction, RationalFunction)) else _scalar(c)
            for c in padded
        )

    @staticmethod
    def one(order: int) -> "Series":
        return Series([Fraction(1)], order)

    def __getitem__(self, k: int) -> Coefficient:
        if k < 0 or k > self.truncation_order:
            raise IndexError(f"coefficient t^{k} beyond truncation order")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return not any(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other: "Series") -> "Series":
        return _series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return _series([-c for c in self.coeffs])

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
        return _series([Fraction(0) if c is None else c for c in out])

    def _nonzero(self, n: int) -> list[tuple[int, Coefficient]]:
        """The (k, coefficient) pairs with k <= n and a nonzero coefficient."""
        return [(k, c) for k, c in enumerate(self.coeffs[: n + 1]) if c]

    def scale(self, c: Coefficient | int) -> "Series":
        if not isinstance(c, RationalFunction):
            c = _scalar(c)
        return _series([a * c for a in self.coeffs])


def _series(coeffs: list[Coefficient]) -> Series:
    """The series with these exact coefficients, through t^(len - 1), stored
    as given."""
    s = object.__new__(Series)
    s.truncation_order = len(coeffs) - 1
    s.coeffs = tuple(coeffs)
    return s


def _recurrence_sum(
    terms: list[tuple[int, Coefficient]],
    out: list[Coefficient],
    m: int,
    weight: Callable[[int], int],
) -> Coefficient | None:
    """sum of weight(j) * c * out[m - j] over the (j, c) of ``terms``, sorted
    by j, with j <= m, skipping zero weights and zero entries of ``out``;
    None when nothing is summed.  The one step of the power and exp
    recurrences."""
    acc: Coefficient | None = None
    for j, c in terms:
        if j > m:
            break
        w, a = weight(j), out[m - j]
        if w and a:
            p = w * c * a
            acc = p if acc is None else acc + p
    return acc


def series_pow(base: Series, exponent: int) -> Series:
    """Truncated integer power of a series, in one pass.

    With base = t^v g and g_0 != 0, base^k = t^(vk) g^k, and the
    coefficients a_m of g^k follow from J. C. P. Miller's recurrence
    m g_0 a_m = sum_(j=1..m) ((k+1) j - m) g_j a_(m-j), for any integer k.
    A negative exponent needs v = 0 and raises ZeroDivisionError otherwise,
    and k = 0 gives ``Series.one``.
    """
    n = base.truncation_order
    if exponent == 0:
        return Series.one(n)
    terms = base._nonzero(n)
    if not terms or (exponent < 0 and terms[0][0] > 0):
        if exponent < 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return _series([Fraction(0)] * (n + 1))
    v, g0 = terms[0]
    shift = v * exponent
    g = [(j - v, c) for j, c in terms[1:]]
    inverse = g0**-1
    out: list[Coefficient] = [g0**exponent]
    for m in range(1, n - shift + 1):
        acc = _recurrence_sum(g, out, m, lambda j: (exponent + 1) * j - m)
        out.append(Fraction(0) if acc is None else acc * (inverse * Fraction(1, m)))
    return _series(([Fraction(0)] * shift + out)[: n + 1])


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term, truncated to the same order.

    In one pass: a = exp(s) satisfies t a' = (t s') a, so a_0 = 1 and
    m a_m = sum_(k=1..m) k s_k a_(m-k).
    """
    if s.coeffs[0]:
        raise ValueError("series_exp requires a zero constant term")
    n = s.truncation_order
    terms = s._nonzero(n)
    out: list[Coefficient] = [Fraction(1)]
    for m in range(1, n + 1):
        acc = _recurrence_sum(terms, out, m, lambda k: k)
        out.append(Fraction(0) if acc is None else acc * Fraction(1, m))
    return _series(out)


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
    return Series(coeffs, order)
