"""Hodge integrals over moduli of curves via the Grothendieck-Riemann-Roch
expansion of the Chern character of the Hodge bundle.

A Hodge integral here is an integral of a monomial in psi classes and lambda
classes (Chern classes of the Hodge bundle E) over the Deligne-Mumford space.
The evaluation pipeline:

1. ``lambda_to_ch`` rewrites a lambda monomial as a polynomial in the odd
   Chern characters ch_1, ch_3, ch_5, ... by Newton's identities; the even
   Chern characters of E vanish identically (Mumford), so they are dropped.
2. ``grr_expand`` expands one ch_(2l-1) into psi, kappa, and boundary terms
   with Bernoulli-number prefactors.
3. The integrator eliminates ch factors one at a time.  Kappa and psi terms
   stay on the same space; boundary terms push the remaining integrand to the
   normalization (irreducible divisor) or to a product of two smaller spaces
   (separating divisors) by the projection formula, and recurse.  Kappa, psi,
   and remaining ch factors restrict to boundary pieces in the standard way:
   psi_i lands on the piece carrying the point i, while kappa and ch restrict
   to the sum over pieces.
4. With no ch factors left, the integral is a psi-kappa correlator.

On top of this the module exposes the products Lambda(u_1)Lambda(u_2)
Lambda(u_3) integrated against geometric-series denominators 1/(u - psi),
the one- and two-partition Hodge integrals I1, I2, and the coefficients
alpha_g' of the expansion of -log(sin(t/2)/(t/2)).

The boundary conventions (the global 1/2, ordered separating types, the sign
(-psi')^a) are calibrated by the test suite against integral(lambda_1) = 1/24
on the 1-pointed genus-1 space and against the degree-1 localization identity
for the sine kernel.

Pure queries over unsynchronized memo dictionaries: single-threaded by
contract, same as the psi-kappa layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_arith import Polynomial, RatLike, Rational, RationalFunction
from .psi_kappa import _kappa_value

_hodge_memo: dict[tuple, Fraction] = {}
_ch_memo: dict[tuple, Fraction] = {}


@dataclass(frozen=True)
class HodgeQuery:
    """Integral of prod psi_i^(a_i) * prod lambda_(r_j) on the genus-g space
    with one marked point per psi exponent."""

    genus: int
    psi_exponents: tuple[int, ...]
    lambda_indices: tuple[int, ...]

    def __init__(self, genus: int, psi_exponents, lambda_indices) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "psi_exponents", tuple(sorted(psi_exponents)))
        object.__setattr__(self, "lambda_indices", tuple(sorted(lambda_indices)))

    def is_stable(self) -> bool:
        return 2 * self.genus - 2 + len(self.psi_exponents) > 0


@dataclass(frozen=True)
class ChernTerm:
    """One summand of the GRR expansion of ch_(2l-1) of the Hodge bundle.

    kind is one of ``kappa``, ``psi``, ``boundary_irr``, ``boundary_sep``.
    Kappa terms carry ``index``; psi terms carry ``point`` and ``index`` (the
    power); boundary terms carry the node exponent pair ``node_exponents``
    with a + b = 2l - 2, and separating terms also carry ``h`` and the
    ``marking_subset`` of point positions going to the genus-h side.
    """

    kind: str
    index: int = 0
    point: int | None = None
    h: int | None = None
    marking_subset: tuple[int, ...] | None = None
    node_exponents: tuple[int, int] | None = None


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for the generating function x / (e^x - 1)."""
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    binom = 1  # C(m+1, j), starting at j = 0
    for j in range(m):
        if j:
            binom = binom * (m + 2 - j) // j
        acc += binom * bernoulli(j)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def grr_expand(l: int, context: tuple[int, int]) -> tuple[tuple[Fraction, ChernTerm], ...]:
    """GRR expansion of ch_(2l-1)(E) on the genus-g space with n points.

    Returns (coefficient, term) pairs:

        ch_(2l-1) = B_(2l)/(2l)! * [ kappa_(2l-1) - sum_i psi_i^(2l-1)
                    + 1/2 * sum_boundary push(sum_(a+b=2l-2) (-psi')^a psi''^b) ]

    Separating types are ordered pairs (h, marking subset), each divisor
    appearing twice, which the global 1/2 compensates.
    """
    if l < 1:
        raise ValueError("Chern character index must be positive")
    g, n = context
    pref = bernoulli(2 * l) / math.factorial(2 * l)
    m = 2 * l - 1
    terms: list[tuple[Fraction, ChernTerm]] = [(pref, ChernTerm("kappa", index=m))]
    for i in range(n):
        terms.append((-pref, ChernTerm("psi", index=m, point=i)))
    half = pref / 2
    for a in range(2 * l - 1):
        b = 2 * l - 2 - a
        sign = Fraction((-1) ** a)
        if g >= 1:
            terms.append(
                (half * sign, ChernTerm("boundary_irr", node_exponents=(a, b)))
            )
        for h in range(g + 1):
            for size in range(n + 1):
                if 2 * h - 2 + size + 1 <= 0:
                    continue
                if 2 * (g - h) - 2 + (n - size) + 1 <= 0:
                    continue
                for subset in itertools.combinations(range(n), size):
                    terms.append(
                        (
                            half * sign,
                            ChernTerm(
                                "boundary_sep",
                                h=h,
                                marking_subset=subset,
                                node_exponents=(a, b),
                            ),
                        )
                    )
    return tuple(terms)


class LambdaPolynomial:
    """Polynomial in the odd Chern characters of the Hodge bundle.

    Stored as a map from sorted tuples of odd indices to rational
    coefficients; the empty tuple indexes the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None) -> None:
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def const(value) -> "LambdaPolynomial":
        return LambdaPolynomial({(): Fraction(value)})

    @staticmethod
    def ch(index: int) -> "LambdaPolynomial":
        if index % 2 == 0:
            return LambdaPolynomial()  # even Chern characters of E vanish
        return LambdaPolynomial({(index,): Fraction(1)})

    def __add__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LambdaPolynomial(out)

    def __mul__(self, other: "LambdaPolynomial") -> "LambdaPolynomial":
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(sorted(k1 + k2))
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return LambdaPolynomial(out)

    def scale(self, c) -> "LambdaPolynomial":
        c = Fraction(c)
        return LambdaPolynomial({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaPolynomial):
            return NotImplemented
        return self.terms == other.terms


@lru_cache(maxsize=None)
def _lambda_class(k: int) -> LambdaPolynomial:
    """lambda_k as a polynomial in odd Chern characters via Newton's identities:
    e_k = (1/k) * sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i  with  p_i = i! ch_i."""
    if k == 0:
        return LambdaPolynomial.const(1)
    acc = LambdaPolynomial()
    for i in range(1, k + 1):
        p_i = LambdaPolynomial.ch(i).scale(math.factorial(i))
        if not p_i.terms:
            continue
        term = (_lambda_class(k - i) * p_i).scale(Fraction((-1) ** (i - 1)))
        acc = acc + term
    return acc.scale(Fraction(1, k))


def lambda_to_ch(lambda_indices) -> LambdaPolynomial:
    """Rewrite a lambda monomial as a polynomial in odd Chern characters."""
    out = LambdaPolynomial.const(1)
    for r in sorted(lambda_indices):
        if r < 0:
            raise ValueError("lambda indices must be nonnegative")
        out = out * _lambda_class(r)
    return out


def _split_multiset(ms: tuple[int, ...]):
    """All splits of a sorted multiset into (left, right) with multiplicity.

    The multiplicity counts how many subsets of the underlying labeled
    collection realize the split.
    """
    values: list[tuple[int, int]] = []
    for v in sorted(set(ms)):
        values.append((v, ms.count(v)))
    splits: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 1)]
    for v, mult in values:
        new = []
        for left, right, weight in splits:
            for j in range(mult + 1):
                w = weight * math.comb(mult, j)
                new.append((left + (v,) * j, right + (v,) * (mult - j), w))
        splits = new
    return splits


def _ch_integral(
    genus: int,
    psi: tuple[int, ...],
    kappa: tuple[int, ...],
    ch: tuple[int, ...],
) -> Fraction:
    """Integral of a psi-kappa monomial times prod ch_(m)(E), m odd."""
    n = len(psi)
    if 2 * genus - 2 + n <= 0:
        return Fraction(0)
    if sum(psi) + sum(kappa) + sum(ch) != 3 * genus - 3 + n:
        return Fraction(0)
    if not ch:
        return _kappa_value(genus, psi, kappa)
    key = (genus, psi, kappa, ch)
    cached = _ch_memo.get(key)
    if cached is not None:
        return cached
    m = ch[-1]
    rest_ch = ch[:-1]
    l = (m + 1) // 2
    total = Fraction(0)
    # Group the separating terms of the expansion by the psi-exponent multiset
    # they send to the genus-h side; point subsets with equal exponent
    # multisets contribute identical integrals.
    sep_groups: dict[tuple, Fraction] = {}
    for coeff, term in grr_expand(l, (genus, n)):
        if term.kind == "kappa":
            total += coeff * _ch_integral(
                genus, psi, tuple(sorted(kappa + (term.index,))), rest_ch
            )
        elif term.kind == "psi":
            exps = list(psi)
            exps[term.point] += term.index
            total += coeff * _ch_integral(
                genus, tuple(sorted(exps)), kappa, rest_ch
            )
        elif term.kind == "boundary_irr":
            a, b = term.node_exponents
            total += coeff * _ch_integral(
                genus - 1, tuple(sorted(psi + (a, b))), kappa, rest_ch
            )
        else:
            a, b = term.node_exponents
            left = tuple(sorted(psi[i] for i in term.marking_subset))
            key_g = (term.h, left, a, b)
            sep_groups[key_g] = sep_groups.get(key_g, Fraction(0)) + coeff
    for (h, left, a, b), coeff in sep_groups.items():
        right = list(psi)
        for v in left:
            right.remove(v)
        psi1 = tuple(sorted(left + (a,)))
        psi2 = tuple(sorted(right + [b]))
        for k1, k2, wk in _split_multiset(kappa):
            for c1, c2, wc in _split_multiset(rest_ch):
                v1 = _ch_integral(h, psi1, k1, c1)
                if v1 == 0:
                    continue
                v2 = _ch_integral(genus - h, psi2, k2, c2)
                if v2 == 0:
                    continue
                total += coeff * wk * wc * v1 * v2
    _ch_memo[key] = total
    return total


def hodge_integral(q: HodgeQuery) -> Rational:
    """Exact integral of a psi-lambda monomial over the moduli space.

    Returns 0 on a dimension mismatch or when a lambda index exceeds the
    genus (the Hodge bundle has rank g).  A query with too few points for a
    stable space is interpreted on the minimal stable space with extra psi^0
    points, so a genus-1 query with no points integrates over the 1-pointed
    space (same convention as the kappa layer).
    """
    if q.genus < 0:
        raise ValueError("genus must be nonnegative")
    psi = q.psi_exponents
    while 2 * q.genus - 2 + len(psi) <= 0:
        psi = psi + (0,)
    if any(r > q.genus for r in q.lambda_indices):
        return Fraction(0)
    key = (q.genus, psi, q.lambda_indices)
    cached = _hodge_memo.get(key)
    if cached is not None:
        return cached
    total = Fraction(0)
    for ch_key, coeff in lambda_to_ch(q.lambda_indices).terms.items():
        total += coeff * _ch_integral(q.genus, psi, (), ch_key)
    _hodge_memo[key] = total
    return total


def lambda_product_integral(
    genus: int,
    lambda_args: tuple[RatLike, ...],
    point_denominators: list[RatLike | None],
    psi_exponents: list[int] | None = None,
) -> RationalFunction:
    """Integral of prod_j Lambda(u_j) times a psi monomial over the genus-g
    space, with one marked point per entry of ``point_denominators``.

    Lambda(u) = sum_r c_r(E*) u^(g-r) is the u-twisted Euler class of the dual
    Hodge bundle.  A non-None denominator entry w attaches the factor
    1/(w - psi) at that point, expanded as a geometric series truncated at the
    dimension of the space; a None entry is a plain marked point.  Optional
    ``psi_exponents`` attach fixed psi powers on top.

    The sum runs over lambda tuples (r_i) and compositions (s_j) of the
    remaining psi degree over the flagged points.  With u_i = a_i/b_i,
    w_j = c_j/d_j and ``top`` the psi degree left after the fixed exponents,
    every term is a polynomial over the common denominator
    D = prod b_i^g * prod c_j^(top+1):

        u_i^(g-r)    = a_i^(g-r) b_i^r        / b_i^g,
        w_j^-(s+1)   = d_j^(s+1) c_j^(top-s)  / c_j^(top+1).

    The numerators come from power tables built once per call; each lambda
    tuple sums its composition terms first and multiplies by its u-part once.
    Only the final quotient by D is normalized, so the whole sum costs one
    polynomial gcd.
    """
    n = len(point_denominators)
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: genus {genus} with {n} points")
    base = list(psi_exponents) if psi_exponents is not None else [0] * n
    if len(base) != n or any(a < 0 for a in base):
        raise ValueError("psi_exponents must give one nonnegative power per point")
    us = [RationalFunction.coerce(u) for u in lambda_args]
    flagged: list[tuple[int, RationalFunction]] = []
    for i, w in enumerate(point_denominators):
        if w is None:
            continue
        w = RationalFunction.coerce(w)
        if w.is_zero():
            raise ZeroDivisionError("zero weight in a geometric denominator")
        flagged.append((i, w))
    top = 3 * genus - 3 + n - sum(base)
    if top < 0:
        return RationalFunction.const(0)
    # u_tables[i][r] = a_i^(g-r) * b_i^r
    u_tables = []
    den = Polynomial.const(1)
    for u in us:
        num_pows, den_pows = _powers(u.num, genus), _powers(u.den, genus)
        u_tables.append([num_pows[genus - r] * den_pows[r] for r in range(genus + 1)])
        den = den * den_pows[genus]
    # w_tables[j][s] = d_j^(s+1) * c_j^(top-s)
    w_tables = []
    for _, w in flagged:
        num_pows, den_pows = _powers(w.num, top + 1), _powers(w.den, top + 1)
        w_tables.append([den_pows[s + 1] * num_pows[top - s] for s in range(top + 1)])
        den = den * num_pows[top + 1]
    acc = Polynomial()
    for rs in itertools.product(range(genus + 1), repeat=len(us)):
        rsum = sum(rs)
        remaining = top - rsum
        if remaining < 0:
            continue
        lam = tuple(r for r in rs if r > 0)
        inner = Polynomial()
        for comp in _compositions(remaining, len(flagged)):
            exps = list(base)
            for (i, _), s in zip(flagged, comp):
                exps[i] += s
            value = hodge_integral(HodgeQuery(genus, exps, lam))
            if value == 0:
                continue
            term = Polynomial.const(value)
            for table, s in zip(w_tables, comp):
                term = term * table[s]
            inner = inner + term
        if inner.is_zero():
            continue
        if rsum % 2:
            inner = -inner
        for table, r in zip(u_tables, rs):
            inner = inner * table[r]
        acc = acc + inner
    return RationalFunction(acc, den)


def _powers(p: Polynomial, k: int) -> list[Polynomial]:
    """[p^0, p^1, ..., p^k]."""
    out = [Polynomial.const(1)]
    for _ in range(k):
        out.append(out[-1] * p)
    return out


def _compositions(total: int, parts: int):
    """Compositions of ``total`` into ``parts`` nonnegative integers."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def I1(
    g: int, u1: RationalFunction, u2: RationalFunction, u3: RationalFunction
) -> RationalFunction:
    """One-partition Hodge integral: 1 at genus 0, otherwise the integral of
    Lambda(u1)Lambda(u2)Lambda(u3) / (u1 (u1 - psi)) on the 1-pointed space."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if any(RationalFunction.coerce(u).is_zero() for u in (u1, u2, u3)):
        raise ZeroDivisionError("I1 requires nonzero arguments")
    if g == 0:
        return RationalFunction.const(1)
    inner = lambda_product_integral(g, (u1, u2, u3), [u1])
    return inner / RationalFunction.coerce(u1)


@lru_cache(maxsize=None)
def I2(
    g: int, u1: RationalFunction, u2: RationalFunction, u3: RationalFunction
) -> RationalFunction:
    """Two-partition Hodge integral: (u1+u2)u3/(u1 u2) at genus 0, otherwise
    (u1+u2)^2 u3/(u1 u2) times the 2-pointed integral with denominators
    (u1 - psi_1)(u2 - psi_2)."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    u1 = RationalFunction.coerce(u1)
    u2 = RationalFunction.coerce(u2)
    u3 = RationalFunction.coerce(u3)
    if u1.is_zero() or u2.is_zero() or u3.is_zero():
        raise ZeroDivisionError("I2 requires nonzero arguments")
    if g == 0:
        return (u1 + u2) * u3 / (u1 * u2)
    inner = lambda_product_integral(g, (u1, u2, u3), [u1, u2])
    return (u1 + u2) ** 2 * u3 / (u1 * u2) * inner


def i1(g: int, u1: RatLike, u2: RatLike, u3: RatLike) -> RationalFunction:
    """Coercing convenience wrapper around :func:`I1`."""
    return I1(
        g,
        RationalFunction.coerce(u1),
        RationalFunction.coerce(u2),
        RationalFunction.coerce(u3),
    )


def i2(g: int, u1: RatLike, u2: RatLike, u3: RatLike) -> RationalFunction:
    """Coercing convenience wrapper around :func:`I2`."""
    return I2(
        g,
        RationalFunction.coerce(u1),
        RationalFunction.coerce(u2),
        RationalFunction.coerce(u3),
    )


@lru_cache(maxsize=None)
def alpha_coeff(gp: int) -> Rational:
    """Coefficient alpha_(g') of t^(2g') in -log(sin(t/2)/(t/2)), realized as
    the Hodge integral of lambda_(g'-1) lambda_(g') sum_r (-1)^r lambda_r
    psi^(g'-1-r) on the 1-pointed genus-g' space."""
    if gp < 1:
        raise ValueError("alpha coefficients start at 1")
    total = Fraction(0)
    for r in range(gp):
        lam = [gp - 1, gp, r]
        total += (-1) ** r * hodge_integral(
            HodgeQuery(gp, (gp - 1 - r,), tuple(i for i in lam if i > 0))
        )
    return total


def clear_caches() -> None:
    """Drop all memoized values (used by tests that measure determinism)."""
    _hodge_memo.clear()
    _ch_memo.clear()
    I1.cache_clear()
    I2.cache_clear()
