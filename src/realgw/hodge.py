"""Hodge integrals over moduli of curves via the Grothendieck-Riemann-Roch
expansion of the Chern character of the Hodge bundle.

A Hodge integral here is an integral of a monomial in psi classes and lambda
classes (Chern classes of the Hodge bundle E) over the Deligne-Mumford space.
The evaluation pipeline:

1. Lambda classes and ch(E) pull back under the map forgetting a point, so
   the dilaton and string equations hold.  ``hodge_integral`` and
   ``_ch_integral`` remove the psi^1 points by the dilaton equation before
   the memo read, and a miss takes the expansion step of the psi-kappa
   layer, ``psi_kappa._expand``: 0 on an unstable space or a dimension
   mismatch, else the iterated string step, else the layer's own expansion
   below.  This is the first step of Faber's algorithm (Algorithms for
   computing intersection numbers on moduli spaces of curves, 1999).
2. ``lambda_to_ch`` rewrites a lambda monomial as a polynomial in the odd
   Chern characters ch_1, ch_3, ch_5, ... by Newton's identities; the even
   Chern characters of E vanish identically (Mumford), so they are dropped.
3. ``_ch_integral`` eliminates ch factors one at a time, expanding the
   largest ch_(2l-1) by GRR into kappa, psi, and boundary terms with the
   Bernoulli-number prefactor B_(2l)/(2l)!.  The kappa_a term becomes one
   more marked point with psi exponent a + 1 by the pushforward identity
   kappa_a = pi_*(psi_(n+1)^(a+1)) of Arbarello and Cornalba (see
   ``_grr``), an identity, not a vanishing rule.  Psi terms stay on the
   same space; boundary terms push the remaining integrand to the
   normalization (irreducible divisor) or to a product of two smaller
   spaces (separating divisors) by the projection formula, and recurse.
   Psi and remaining ch factors restrict to boundary pieces in the standard
   way: psi_i lands on the piece carrying the point i, while ch restricts
   to the sum over pieces.  So every key is psi and ch only, and first
   takes step 1.
4. The terms are generated already grouped by the integral they lead to:
   one psi term per distinct exponent times its multiplicity, and the
   boundary terms from ``psi_kappa._boundary_terms``, the pushforward the
   DVV recursion shares, which reads the genus of a separating side off
   its dimension.  All terms of one expansion, same-space, irreducible
   and separating, are summed as integer numerators over one running lcm
   denominator (``exact_arith.lcm_sum``), and the prefactor
   B_(2l)/(2 (2l)!) is folded into the one reduction per memo entry.
   ``hodge_integral`` sums its string and ch terms the same way.  The
   memos hold reduced integer pairs (num, den), as the psi-kappa layer's
   do, and only ``hodge_integral`` builds a Fraction, one per call.
5. Classes that vanish by theorem are not expanded.  Mumford's relation
   c(E)c(E^dual) = 1 (Towards an enumerative geometry of the moduli space
   of curves, 1983) gives lambda_g^2 = 0 for g >= 1, so ``hodge_integral``
   returns 0 when lambda_g appears twice.  ``_ch_integral`` returns 0 for a
   ch factor at genus 0, where E = 0, and for ch_m with m >= 3 at genus 1,
   where E is pulled back from the 1-pointed space, so lambda_1^2 = 0 and
   ch_m = lambda_1^m / m! = 0 for m >= 2.  The dilaton and string steps
   are identities, not vanishing rules: a query reaches 0 through them
   only when the lowerings run out (the psi exponents sum to less than
   the number of removable psi^0 points).
6. With no ch factors left, the integral is a psi correlator, read from
   the psi-kappa layer through ``_kappa_value``.

On top of this the module exposes the products Lambda(u_1)Lambda(u_2)
Lambda(u_3) integrated against geometric-series denominators 1/(u - psi),
the one- and two-partition Hodge integrals I1, I2, and the coefficients
alpha_g' of the expansion of -log(sin(t/2)/(t/2)).  The product integral's
coefficients <lambda_r1 ... lambda_rk psi^s> depend only on the shape
(genus, number of Lambda factors, points, flagged points), never on the
arguments: ``_lambda_rows`` looks them up once per shape, cached like I1
and I2, groups them by the sorted multiset of lambda indices and stores
them, signs included, as integers over one common denominator.  The
arguments enter through bases: each is a rational scalar times a quotient
of primitive integer polynomials, and arguments proportional to each other
share one base, as the Lambda arguments and edge weights of a localization
vertex do.  A term is an integer times a product of base powers, so the
terms are summed as integers per exponent vector over the bases.  The
sum over those vectors goes to ``exact_arith.power_quotient`` with the
numerator and denominator of each base as two factors: it multiplies the
powers out by Kronecker substitution, keeps no table of them, and
normalizes once, so the integral costs one polynomial gcd.

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
from fractions import Fraction
from functools import lru_cache

from .exact_arith import (
    RatLike,
    Rational,
    RationalFunction,
    lcm_sum,
    power_quotient,
    reduced,
)
from .psi_kappa import (
    _ZERO,
    _boundary_terms,
    _dilaton,
    _expand,
    _kappa_value,
    _pad_to_stable,
)

_hodge_memo: dict[tuple, tuple[int, int]] = {}
_ch_memo: dict[tuple, tuple[int, int]] = {}


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
    genus: int, psi: tuple[int, ...], ch: tuple[int, ...]
) -> tuple[int, int]:
    """Integral of a psi monomial times prod ch_(m)(E), m odd, as a reduced
    pair (num, den).

    A key with no ch factor is a psi correlator and goes to the psi-kappa
    layer as it is.  Any other key loses its psi^1 points by the dilaton
    equation (``_dilaton``) before the memo read; a miss goes to ``_expand``
    with ``_grr``, which eliminates the largest ch factor by the GRR
    expansion

        ch_m = B_(m+1)/(m+1)! * [ kappa_m - sum_i psi_i^m
               + 1/2 * sum_boundary push(sum_(a+b=m-1) (-psi')^a psi''^b) ],

    in which the kappa term becomes one more marked point (``_grr``), so
    every key is psi and ch only.  The psi terms come one per distinct
    exponent times its multiplicity, the boundary terms from
    ``_boundary_terms``.  All terms are summed as integers over one running
    denominator, the same-space ones doubled against the 1/2, and the
    prefactor B_(m+1)/(2 (m+1)!) is folded into the one reduction of the
    memo entry.

    A ch factor at genus 0 (where E = 0), or ch_m with m >= 3 at genus 1
    (where lambda_1^2 = 0 by Mumford's relation, so ch_m = lambda_1^m / m!
    vanishes for m >= 2), gives 0 without expansion.
    """
    if not ch:
        return _kappa_value(genus, psi, ())
    factor = 1
    if 1 in psi:
        factor, psi = _dilaton(genus, psi)
    key = (genus, psi, ch)
    value = _ch_memo.get(key)
    if value is None:
        if genus == 0 or (genus == 1 and ch[-1] >= 3):
            return _ZERO
        value = _expand(_ch_memo, key, _grr, _ch_integral)
    if factor == 1:
        return value
    return reduced(factor * value[0], value[1])


def _grr(genus: int, psi: tuple[int, ...], ch: tuple[int, ...]) -> tuple[int, int]:
    """The GRR expansion of the largest ch factor of a stable genus >= 1
    key of the right dimension, as described in ``_ch_integral``.  The
    boundary terms push sum_a (-psi')^a psi''^(m-1-a) and the other ch
    factors forward (``_boundary_terms``).

    The kappa_m term goes to the space with one more point: kappa_m is the
    pushforward of psi_(n+1)^(m+1) under the map pi forgetting that point
    (Arbarello and Cornalba, Combinatorial and algebro-geometric cohomology
    classes on the moduli spaces of curves, 1996), psi_i = pi^* psi_i +
    D_(i,n+1) with psi_(n+1) D_(i,n+1) = 0, and ch(E) pulls back, so by the
    projection formula

        int kappa_m psi^A P = int_(n+1 points) psi_(n+1)^(m+1) psi^A P.
    """
    m = ch[-1]
    rest_ch = ch[:-1]
    # kappa_m and psi_i^m stay on the same genus.
    terms = [(2, *_ch_integral(genus, tuple(sorted(psi + (m + 1,))), rest_ch))]
    for i, p in enumerate(psi):
        if i and psi[i - 1] == p:
            continue
        bumped = tuple(sorted(psi[:i] + (p + m,) + psi[i + 1 :]))
        terms.append((-2 * psi.count(p), *_ch_integral(genus, bumped, rest_ch)))
    # Boundary terms, with the sign (-1)^a of the node exponent a.
    signs = [-1 if a % 2 else 1 for a in range(m)]
    terms += _boundary_terms(genus, psi, signs, rest_ch, _ch_integral)
    num, den = lcm_sum(terms)
    pref = bernoulli(m + 1)
    return reduced(
        pref.numerator * num, pref.denominator * 2 * math.factorial(m + 1) * den
    )


def hodge_integral(genus: int, psi_exponents, lambda_indices) -> Rational:
    """Exact integral of prod psi_i^(a_i) * prod lambda_(r_j) over the genus-g
    space with one marked point per psi exponent, in any order of either.

    Returns 0 on a dimension mismatch, when a lambda index exceeds the
    genus (the Hodge bundle has rank g), or when lambda_g appears twice at
    genus g >= 1 (Mumford's relation c(E)c(E^dual) = 1 gives lambda_g^2 = 0;
    at genus 0, lambda_0 = 1), in each case without expansion.  A query
    with too few points for a stable space is interpreted on the minimal
    stable space with extra psi^0 points (``_pad_to_stable``), so a genus-1
    query with no points integrates over the 1-pointed space.  A negative
    genus, psi exponent or lambda index raises ``ValueError``.

    The psi^1 points go by the dilaton equation (``_dilaton``) before the
    memo read, and a miss goes to ``_expand`` with ``_lambda_expand``, so
    only queries with no psi^0 point left to remove are expanded by
    ``lambda_to_ch`` and ``_ch_integral``.
    """
    psi = tuple(sorted(psi_exponents))
    lam = tuple(sorted(lambda_indices))
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if any(a < 0 for a in psi) or any(r < 0 for r in lam):
        raise ValueError("psi exponents and lambda indices must be nonnegative")
    psi = _pad_to_stable(genus, psi)
    if any(r > genus for r in lam):
        return Fraction(0)
    if genus >= 1 and lam.count(genus) >= 2:
        return Fraction(0)
    factor, psi = _dilaton(genus, psi)
    key = (genus, psi, lam)
    value = _hodge_memo.get(key)
    if value is None:
        value = _expand(_hodge_memo, key, _lambda_expand, _lambda_value)
    return Fraction(factor * value[0], value[1])


def _lambda_value(genus: int, psi: tuple[int, ...], lam: tuple[int, ...]):
    # Through the module binding, so a wrapper installed on it sees every
    # reduced query.
    return hodge_integral(genus, psi, lam).as_integer_ratio()


def _lambda_expand(
    genus: int, psi: tuple[int, ...], lam: tuple[int, ...]
) -> tuple[int, int]:
    """A lambda monomial with no psi^0 or psi^1 point left to remove,
    rewritten by ``lambda_to_ch`` as a sum of ch integrals."""
    terms = []
    for ch_key, coeff in lambda_to_ch(lam).items():
        num, den = _ch_integral(genus, psi, ch_key)
        terms.append((1, coeff.numerator * num, coeff.denominator * den))
    return reduced(*lcm_sum(terms))


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
    remaining psi degree over the flagged points, ``top`` = 3g - 3 + n being
    the dimension:

        sum (-1)^(sum r) <prod lambda_(r_i) prod psi_j^(s_j)>
            * prod_i u_i^(g - r_i) * prod_j w_j^-(s_j + 1).

    Every argument is written as a rational scalar times a base, a quotient
    P/Q of primitive integer polynomials with positive leading coefficients
    (``_scaled_base``).  Proportional arguments share their base, as the
    Lambda argument alpha_label - alpha_other and the edge weight
    (alpha_label - alpha_other)/degree of a vertex do, and constants have
    none.  A term is then an integer scalar times prod_b B_b^(e_b), e_b
    being the exponent the term gives base b: g - r_i per Lambda argument
    on b, -(s_j + 1) per weight on b.  The scalars are integers because
    ``_lambda_rows`` stores the Hodge values of a shape, signs included,
    times one common denominator L, and because the scalar parts
    u_i = p_i/q_i * B and w_j = p_j/q_j * B are taken over
    K = prod_i q_i^g * prod_j p_j^(top+1).  The terms are summed as integers
    per exponent vector: per lambda multiset, the compositions by the
    exponents their weights give (compositions that only move degree
    between points of one base meet), then each ordering of the multiset
    onto those sums.

    The sums per exponent vector, over K L, go to
    ``exact_arith.power_quotient`` with the factors P_b and Q_b of each base
    and the exponents e_b and -e_b.  It clears the negative exponents by the
    common denominator prod_b P_b^(-lo_b) Q_b^(hi_b), lo_b and hi_b the
    least and greatest e_b or 0, and normalizes only the quotient, so the
    whole integral costs one polynomial gcd.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = len(point_denominators)
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: genus {genus} with {n} points")
    us = [_scaled_base(RationalFunction.coerce(u)) for u in lambda_args]
    ws = []
    for w in point_denominators:
        if w is None:
            continue
        w = RationalFunction.coerce(w)
        if w.is_zero():
            raise ZeroDivisionError("zero weight in a geometric denominator")
        ws.append(_scaled_base(w))
    top = 3 * genus - 3 + n
    bases = list(dict.fromkeys(b for _, _, b in us + ws if b is not None))
    # An exponent vector (e_b) is one integer: digit b, at place radix^b,
    # holds e_b + shift, which lies in [0, radix), so adding keys adds the
    # vectors without carries.
    shift = (top + 1) * len(ws)
    radix = genus * len(us) + shift + 1
    place = {b: radix**i for i, b in enumerate(bases)}
    scale = 1
    # u_tables[i][r] = (key of u_i^(g-r), p_i^(g-r) q_i^r)
    u_tables = []
    for p, q, b in us:
        step = place.get(b, 0)
        u_tables.append(
            [((genus - r) * step, p ** (genus - r) * q**r) for r in range(genus + 1)]
        )
        scale *= q**genus
    # w_tables[j][s] = (key of w_j^-(s+1), q_j^(s+1) p_j^(top-s))
    w_tables = []
    for p, q, b in ws:
        step = place.get(b, 0)
        w_tables.append(
            [(-(s + 1) * step, q ** (s + 1) * p ** (top - s)) for s in range(top + 1)]
        )
        scale *= p ** (top + 1)
    offset = shift * sum(place.values())
    den, multisets = _lambda_rows(genus, len(us), n, len(ws))
    weights: dict[tuple[int, ...], tuple[int, int]] = {}
    sums: dict[int, int] = {}
    for perms, rows in multisets:
        inner: dict[int, int] = {}
        for comp, value in rows:
            weight = weights.get(comp)
            if weight is None:
                key, c = offset, 1
                for table, s in zip(w_tables, comp):
                    k, m = table[s]
                    key += k
                    c *= m
                weight = weights[comp] = (key, c)
            key, c = weight
            inner[key] = inner.get(key, 0) + value * c
        for rs in perms:
            key, c = 0, 1
            for table, r in zip(u_tables, rs):
                k, m = table[r]
                key += k
                c *= m
            for k, v in inner.items():
                sums[key + k] = sums.get(key + k, 0) + c * v
    # Base b = P_b/Q_b enters as the two factors P_b and Q_b, with the
    # exponents e_b and -e_b.
    terms = []
    for key, total in sums.items():
        exponents = []
        for _ in bases:
            key, digit = divmod(key, radix)
            exponents += (digit - shift, shift - digit)
        terms.append((exponents, total))
    factors = [f for base in bases for f in base]
    return power_quotient(factors, terms, scale * den)


@lru_cache(maxsize=None)
def _scaled_base(value: RationalFunction) -> tuple[int, int, tuple | None]:
    """(p, q, base) with value = p/q * P/Q, q > 0 and base = (P, Q), P and Q
    primitive integer polynomials with positive leading coefficients, or
    None when value is a constant."""
    c_num, p = value.num.primitive()
    c_den, q = value.den.primitive()
    c = c_num / c_den
    base = (p, q) if p.degree > 0 or q.degree > 0 else None
    return c.numerator, c.denominator, base


@lru_cache(maxsize=None)
def _lambda_rows(genus: int, factors: int, points: int, flagged: int) -> tuple:
    """The nonzero Hodge values of a Lambda-product integral of one shape:
    ``factors`` Lambda classes on the genus-g space with ``points`` marked
    points, ``flagged`` of them carrying a geometric denominator.

    Returns (den, multisets): one entry (perms, rows) per sorted multiset of
    lambda indices with a nonzero row, perms the distinct orderings of the
    multiset as lambda tuples (r_i), and rows the (composition, n) pairs
    with n = den * (-1)^(sum r) * <prod lambda_(r_i) prod psi_j^(s_j)> != 0,
    an integer: den is the lcm of the values' denominators.  Hodge integrals
    are symmetric in the points, so which points are flagged does not
    matter, and ``hodge_integral`` sorts its lambda indices, so one lookup
    serves every permutation.  ``hodge_integral`` is called through the
    module binding, so a wrapper installed on it sees every lookup.
    """
    top = 3 * genus - 3 + points
    plain = (0,) * (points - flagged)
    found = []
    for lam in itertools.combinations_with_replacement(range(genus + 1), factors):
        remaining = top - sum(lam)
        if remaining < 0:
            continue
        nonzero = tuple(r for r in lam if r > 0)
        sign = -1 if sum(lam) % 2 else 1
        rows = []
        for comp in _compositions(remaining, flagged):
            value = hodge_integral(genus, plain + comp, nonzero)
            if value:
                rows.append((comp, sign * value))
        if rows:
            found.append((tuple(sorted(set(itertools.permutations(lam)))), rows))
    den = math.lcm(*(v.denominator for _, rows in found for _, v in rows))
    multisets = tuple(
        (perms, tuple((comp, v.numerator * (den // v.denominator)) for comp, v in rows))
        for perms, rows in found
    )
    return den, multisets


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
    if u1.is_zero() or u2.is_zero() or u3.is_zero():
        raise ZeroDivisionError("I1 requires nonzero arguments")
    if g == 0:
        return RationalFunction.const(1)
    inner = lambda_product_integral(g, (u1, u2, u3), [u1])
    return inner / u1


@lru_cache(maxsize=None)
def I2(
    g: int, u1: RationalFunction, u2: RationalFunction, u3: RationalFunction
) -> RationalFunction:
    """Two-partition Hodge integral: (u1+u2)u3/(u1 u2) at genus 0, otherwise
    (u1+u2)^2 u3/(u1 u2) times the 2-pointed integral with denominators
    (u1 - psi_1)(u2 - psi_2)."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
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
    """Coercing convenience wrapper around :func:`I2`.

    I2 is symmetric in u1 and u2: swapping the two marked points is an
    automorphism of the 2-pointed space, and the prefactor is symmetric.  So
    the pair is put in hash order before the lookup, and both orders share
    one cache entry; a hash tie only costs a cache miss.
    """
    u1 = RationalFunction.coerce(u1)
    u2 = RationalFunction.coerce(u2)
    if hash(u2) < hash(u1):
        u1, u2 = u2, u1
    return I2(g, u1, u2, RationalFunction.coerce(u3))


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
            gp, (gp - 1 - r,), [i for i in lam if i > 0]
        )
    return total

