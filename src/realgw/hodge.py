"""Hodge integrals over moduli of curves via the Grothendieck-Riemann-Roch
expansion of the Chern character of the Hodge bundle.

A Hodge integral here is an integral of a monomial in psi classes and lambda
classes (Chern classes of the Hodge bundle E) over the Deligne-Mumford space.
The evaluation pipeline:

1. ``lambda_to_ch`` rewrites a lambda monomial as a polynomial in the odd
   Chern characters ch_1, ch_3, ch_5, ... by Newton's identities; the even
   Chern characters of E vanish identically (Mumford), so they are dropped.
2. ``_ch_integral`` eliminates ch factors one at a time, expanding the
   largest ch_(2l-1) by GRR into kappa, psi, and boundary terms with the
   Bernoulli-number prefactor B_(2l)/(2l)!.  Kappa and psi terms stay on the
   same space; boundary terms push the remaining integrand to the
   normalization (irreducible divisor) or to a product of two smaller spaces
   (separating divisors) by the projection formula, and recurse.  Kappa, psi,
   and remaining ch factors restrict to boundary pieces in the standard way:
   psi_i lands on the piece carrying the point i, while kappa and ch restrict
   to the sum over pieces.
3. The terms are generated already grouped by the integral they lead to:
   one psi term per distinct exponent times its multiplicity, and one
   separating term per split of the psi-exponent multiset times the number
   of labeled point subsets realizing it.  The kappa and ch splits of a
   separating term are bucketed by the degree they send to the genus-h
   side, and only the bucket that side's dimension asks for is visited.
4. With no ch factors left, the integral is a psi-kappa correlator.

On top of this the module exposes the products Lambda(u_1)Lambda(u_2)
Lambda(u_3) integrated against geometric-series denominators 1/(u - psi),
the one- and two-partition Hodge integrals I1, I2, and the coefficients
alpha_g' of the expansion of -log(sin(t/2)/(t/2)).  The product integral is
summed as polynomials over one common denominator built from the power
tables of its arguments, so the only rational-function normalization is the
final one.

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
from .psi_kappa import _kappa_value, _subsets_of_multiset

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


def _ch_mul(p: dict, q: dict) -> dict[tuple[int, ...], Fraction]:
    """Product of two polynomials in the odd Chern characters, each a map from
    sorted index tuples to coefficients; zero coefficients are dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(sorted(k1 + k2))
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _lambda_class(k: int) -> dict[tuple[int, ...], Fraction]:
    """lambda_k as a polynomial in odd Chern characters via Newton's identities:
    e_k = (1/k) * sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i  with  p_i = i! ch_i.
    The even ch_i vanish, so only odd i, where the sign is +1, contribute."""
    if k == 0:
        return {(): Fraction(1)}
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, k + 1, 2):
        p_i = {(i,): Fraction(math.factorial(i), k)}
        for key, v in _ch_mul(_lambda_class(k - i), p_i).items():
            acc[key] = acc.get(key, 0) + v
    return {key: v for key, v in acc.items() if v}


def lambda_to_ch(lambda_indices) -> dict[tuple[int, ...], Fraction]:
    """Rewrite a lambda monomial as a polynomial in odd Chern characters.

    The result maps sorted tuples of odd ch indices to their nonzero
    rational coefficients; the empty tuple indexes the constant term.
    """
    out = {(): Fraction(1)}
    for r in sorted(lambda_indices):
        if r < 0:
            raise ValueError("lambda indices must be nonnegative")
        out = _ch_mul(out, _lambda_class(r))
    return out


def _ch_integral(
    genus: int,
    psi: tuple[int, ...],
    kappa: tuple[int, ...],
    ch: tuple[int, ...],
) -> Fraction:
    """Integral of a psi-kappa monomial times prod ch_(m)(E), m odd.

    Eliminates the largest ch factor by the GRR expansion

        ch_m = B_(m+1)/(m+1)! * [ kappa_m - sum_i psi_i^m
               + 1/2 * sum_boundary push(sum_(a+b=m-1) (-psi')^a psi''^b) ],

    with the terms generated already grouped: one psi term per distinct
    exponent times its multiplicity, and one separating term per
    (genus-h side, point multiset) split times the number of labeled point
    subsets realizing it.  Separating types are ordered, so each divisor
    appears twice, which the global 1/2 compensates.
    """
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
    # kappa_m and psi_i^m stay on the same space.
    same = _ch_integral(genus, psi, tuple(sorted(kappa + (m,))), rest_ch)
    for i, v in enumerate(psi):
        if i and psi[i - 1] == v:
            continue
        bumped = tuple(sorted(psi[:i] + (v + m,) + psi[i + 1 :]))
        same -= psi.count(v) * _ch_integral(genus, bumped, kappa, rest_ch)
    # Boundary terms, summed with the sign (-1)^a of the node exponent a.
    node = Fraction(0)
    if genus >= 1:
        for a in range(m):
            psi_irr = tuple(sorted(psi + (a, m - 1 - a)))
            v = _ch_integral(genus - 1, psi_irr, kappa, rest_ch)
            node += -v if a % 2 else v
    buckets = _splits_by_degree(kappa, rest_ch)
    for left, right, count in _subsets_of_multiset(psi):
        n_left = len(left)
        free = n_left - sum(left) - 2
        for h in range(genus + 1):
            if 2 * h - 1 + n_left <= 0 or 2 * (genus - h) - 1 + n - n_left <= 0:
                continue
            # Degree the genus-h side needs from its node exponent a plus the
            # kappa and ch factors it receives; the other side then matches.
            need = 3 * h + free
            for a in range(min(m, need + 1)):
                bucket = buckets.get(need - a)
                if bucket is None:
                    continue
                psi1 = tuple(sorted(left + (a,)))
                psi2 = tuple(sorted(right + (m - 1 - a,)))
                acc = 0
                for k1, c1, k2, c2, w in bucket:
                    v1 = _ch_integral(h, psi1, k1, c1)
                    if v1 == 0:
                        continue
                    v2 = _ch_integral(genus - h, psi2, k2, c2)
                    if v2 == 0:
                        continue
                    acc += w * v1 * v2
                if acc:
                    node += (-count if a % 2 else count) * acc
    pref = bernoulli(m + 1) / math.factorial(m + 1)
    total = pref * same + pref / 2 * node
    _ch_memo[key] = total
    return total


def _splits_by_degree(
    kappa: tuple[int, ...], ch: tuple[int, ...]
) -> dict[int, list[tuple]]:
    """Splits (k1, c1, k2, c2, count) of the kappa and ch multisets between
    the two sides of a separating node, bucketed by the degree
    sum(k1) + sum(c1) they send to the first side."""
    buckets: dict[int, list[tuple]] = {}
    for k1, k2, wk in _subsets_of_multiset(kappa):
        for c1, c2, wc in _subsets_of_multiset(ch):
            degree = sum(k1) + sum(c1)
            buckets.setdefault(degree, []).append((k1, c1, k2, c2, wk * wc))
    return buckets


def hodge_integral(q: HodgeQuery) -> Rational:
    """Exact integral of a psi-lambda monomial over the moduli space.

    Returns 0 on a dimension mismatch or when a lambda index exceeds the
    genus (the Hodge bundle has rank g).  A query with too few points for a
    stable space is interpreted on the minimal stable space with extra psi^0
    points, so a genus-1 query with no points integrates over the 1-pointed
    space (same convention as the kappa layer).  A negative genus, psi
    exponent or lambda index raises ``ValueError``.
    """
    if q.genus < 0:
        raise ValueError("genus must be nonnegative")
    if any(a < 0 for a in q.psi_exponents) or any(r < 0 for r in q.lambda_indices):
        raise ValueError("psi exponents and lambda indices must be nonnegative")
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
    for ch_key, coeff in lambda_to_ch(q.lambda_indices).items():
        total += coeff * _ch_integral(q.genus, psi, (), ch_key)
    _hodge_memo[key] = total
    return total


def lambda_product_integral(
    genus: int,
    lambda_args: tuple[RatLike, ...],
    point_denominators: list[RatLike | None],
) -> RationalFunction:
    """Integral of prod_j Lambda(u_j) over the genus-g space, with one marked
    point per entry of ``point_denominators``.

    Lambda(u) = sum_r c_r(E*) u^(g-r) is the u-twisted Euler class of the dual
    Hodge bundle.  A non-None denominator entry w attaches the factor
    1/(w - psi) at that point, expanded as a geometric series truncated at the
    dimension of the space; a None entry is a plain marked point.

    The sum runs over lambda tuples (r_i) and compositions (s_j) of the
    remaining psi degree over the flagged points.  With u_i = a_i/b_i,
    w_j = c_j/d_j and ``top`` the dimension 3g - 3 + n, every term is a
    polynomial over the common denominator D = prod b_i^g * prod c_j^(top+1):

        u_i^(g-r)    = a_i^(g-r) b_i^r        / b_i^g,
        w_j^-(s+1)   = d_j^(s+1) c_j^(top-s)  / c_j^(top+1).

    The power tables and D are polynomials built once per call.  The weight
    product W(comp) = prod_j w_tables[j][s_j] is built once per composition
    and shared by every lambda tuple.  Each lambda tuple sums value * W(comp)
    over its compositions and multiplies by its u-part once, and only the
    final quotient by D is normalized, so the whole sum costs one polynomial
    gcd.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = len(point_denominators)
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: genus {genus} with {n} points")
    us = [RationalFunction.coerce(u) for u in lambda_args]
    flagged: list[tuple[int, RationalFunction]] = []
    for i, w in enumerate(point_denominators):
        if w is None:
            continue
        w = RationalFunction.coerce(w)
        if w.is_zero():
            raise ZeroDivisionError("zero weight in a geometric denominator")
        flagged.append((i, w))
    top = 3 * genus - 3 + n
    # u_tables[i][r] = a_i^(g-r) * b_i^r
    u_tables = []
    den = Polynomial.const(1)
    for u in us:
        a_pows, b_pows = _powers(u.num, genus), _powers(u.den, genus)
        u_tables.append([a_pows[genus - r] * b_pows[r] for r in range(genus + 1)])
        den = den * b_pows[genus]
    # w_tables[j][s] = d_j^(s+1) * c_j^(top-s)
    w_tables = []
    for _, w in flagged:
        c_pows, d_pows = _powers(w.num, top + 1), _powers(w.den, top + 1)
        w_tables.append([d_pows[s + 1] * c_pows[top - s] for s in range(top + 1)])
        den = den * c_pows[top + 1]
    # weights[comp] = prod_j w_tables[j][s_j], shared by every lambda tuple.
    weights: dict[tuple[int, ...], Polynomial] = {}
    acc = Polynomial()
    for rs in itertools.product(range(genus + 1), repeat=len(us)):
        remaining = top - sum(rs)
        if remaining < 0:
            continue
        lam = tuple(r for r in rs if r > 0)
        inner = Polynomial()
        for comp in _compositions(remaining, len(flagged)):
            exps = [0] * n
            for (i, _), s in zip(flagged, comp):
                exps[i] = s
            value = hodge_integral(HodgeQuery(genus, exps, lam))
            if not value:
                continue
            weight = weights.get(comp)
            if weight is None:
                weight = Polynomial.const(1)
                for table, s in zip(w_tables, comp):
                    weight = weight * table[s]
                weights[comp] = weight
            inner = inner + weight.scale(value)
        if inner.is_zero():
            continue
        for table, r in zip(u_tables, rs):
            inner = inner * table[r]
        acc = acc - inner if sum(rs) % 2 else acc + inner
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
