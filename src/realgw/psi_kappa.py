"""Intersection numbers of psi classes on moduli of stable curves.

``witten_psi`` evaluates the correlators <tau_{a_1} ... tau_{a_n}>_g, i.e. the
integrals of psi-class monomials over the Deligne-Mumford space of genus-g
n-pointed stable curves.  The evaluation removes the one exponents by the
dilaton equation (``_dilaton``) before it reads the memo; a miss takes the
expansion step ``_expand``, which the ch and lambda memos of the Hodge layer
share: the stability and dimension check, then the iterated string equation
on the zero exponents, and otherwise the Witten-Kontsevich (DVV) recursion
on the largest exponent.  The two seed values are

    <tau_0^3>_0 = 1        (the 3-pointed rational moduli space is a point)
    <tau_1>_1   = 1/24

The second seed cannot be reached by the recursion itself (its genus-reduction
term degenerates to an unstable two-pointed rational correlator); it is pinned
here and re-validated downstream against the generating-function identities of
the Hodge layer.

The Hodge layer turns each kappa_m term of its GRR expansion into a marked
point with psi exponent m+1 by the pushforward kappa_m = pi_*(psi^(m+1)), so
it reads only psi correlators from here, through ``_kappa_value``.

The boundary terms of DVV, irreducible and separating, come from
``_boundary_terms``, which the GRR recursion of the Hodge layer shares: it
reads the genus of each separating side off its dimension.

The string and DVV sums are accumulated as integer numerators over
one running lcm denominator (``exact_arith.lcm_sum``), with the DVV weights
doubled to integers.  The memos hold each value as a reduced integer pair
(num, den) with den > 0, zero as (0, 1), reduced by one gcd
(``exact_arith.reduced``); the recursions read and sum the pairs as
integers, and only ``witten_psi`` builds a Fraction.

All queries are memoized on canonical sorted keys with no psi^1 point the
dilaton equation can remove, and a memo hit returns before any stability or
dimension check (a key that fails it is never stored); the module is pure
but the shared memo dictionaries are not synchronized, so it is
single-threaded by contract.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_arith import Rational, lcm_sum, reduced

_psi_memo: dict[tuple, tuple[int, int]] = {}
# Always empty; bench/tracer.py reports its size as the kappa memo's.
_kappa_memo: dict[tuple, tuple[int, int]] = {}

_ZERO = (0, 1)


def _pad_to_stable(genus: int, psi: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted ``psi`` with psi^0 points prepended until the genus-g space is
    stable: a query with too few points is read on the minimal stable space."""
    while 2 * genus - 2 + len(psi) <= 0:
        psi = (0,) + psi
    return psi


def _psi_value(genus: int, exps: tuple[int, ...]) -> tuple[int, int]:
    """Internal evaluation with the convention that unstable input is 0.

    ``exps`` is sorted (every caller passes a sorted tuple).  The psi^1
    points go by the dilaton equation before the memo read, so the memo is
    keyed on what is left; a miss goes to ``_expand``.
    """
    factor = 1
    if 1 in exps:
        factor, exps = _dilaton(genus, exps)
    key = (genus, exps)
    value = _psi_memo.get(key)
    if value is None:
        value = _expand(_psi_memo, key, _psi_reduce, _psi_value)
    if factor == 1:
        return value
    return reduced(factor * value[0], value[1])


def _dilaton(genus: int, psi: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(factor, rest) for a sorted psi tuple: rest drops the psi^1 points
    that the dilaton equation

        <tau_1 X> = (2g - 2 + n) <X>    (X on n points)

    removes, one after another while the space with one point fewer is
    stable, and factor is the product of their 2g - 2 + (points left).  The
    equation holds for every class pulled back under the forgetful map."""
    top = 2 * genus - 3 + len(psi)
    removed = min(psi.count(1), top)
    if removed <= 0:
        return 1, psi
    i = psi.index(1)
    return math.perm(top, removed), psi[:i] + psi[i + removed :]


def _string_lowerings(genus: int, psi: tuple[int, ...]):
    """The iterated string equation for a sorted psi tuple, or None when no
    psi^0 point can be removed.

    The k psi^0 points that can go while the space stays stable are removed
    at once: the value of psi is the sum of weight times the value of
    lowered over the (lowered, weight) pairs returned.  A lowered tuple is
    the remaining exponents minus a vector b with sum k and b_j <= a_j,
    sorted, and its weight sums k!/prod b_j! over the b that give it.  The
    pairs are built by k rounds of the one-point string equation (lower one
    positive exponent by 1, times its multiplicity), merging the partial
    lowerings that meet; there are none when the exponents sum to less than
    k, and the value is 0.  Like the dilaton equation, this holds for every
    class pulled back under the forgetful map."""
    removed = min(psi.count(0), 2 * genus - 3 + len(psi))
    if removed <= 0:
        return None
    states = {psi[removed:]: 1}
    for _ in range(removed):
        nxt: dict[tuple[int, ...], int] = {}
        for rest, weight in states.items():
            for i, a in enumerate(rest):
                if a and (i == 0 or rest[i - 1] != a):
                    lowered = rest[:i] + (a - 1,) + rest[i + 1 :]
                    nxt[lowered] = nxt.get(lowered, 0) + rest.count(a) * weight
        states = nxt
    return states.items()


def _expand(memo: dict, key: tuple, expand, value) -> tuple[int, int]:
    """The value of a key (genus, psi, *classes) that missed ``memo`` after
    the dilaton step, stored in ``memo`` unless the first check rules it out.

    This is the first step of Faber's algorithm (Algorithms for computing
    intersection numbers on moduli spaces of curves, 1999), shared by the
    psi, ch and lambda memos.  An unstable space, or degrees (psi exponents
    plus class degrees) that miss its dimension 3g - 3 + n, give 0 and no
    entry.  Otherwise the removable psi^0 points go at once by the iterated
    string equation (``_string_lowerings``), summing weight times
    ``value(genus, lowered, *classes)``; the classes pull back under the map
    forgetting a point, so the equation holds.  A key with no psi^0 point to
    remove is handed to ``expand(*key)``, the layer's own expansion.
    """
    genus, psi, *classes = key
    n = len(psi)
    if 2 * genus - 2 + n <= 0:
        return _ZERO
    if sum(psi) + sum(map(sum, classes)) != 3 * genus - 3 + n:
        return _ZERO
    lowerings = _string_lowerings(genus, psi)
    if lowerings is None:
        result = expand(*key)
    else:
        terms = [(w, *value(genus, lowered, *classes)) for lowered, w in lowerings]
        result = reduced(*lcm_sum(terms))
    memo[key] = result
    return result


def _boundary_terms(genus: int, points: tuple[int, ...], weights, ch, value):
    """(weight, num, den) terms of the boundary pushforward of
    sum_a weights[a] psi'^a psi''^(top - a), top = len(weights) - 1, from the
    genus-g space with the sorted psi exponents ``points`` and the sorted ch
    factors ``ch``; ``value(genus, psi, ch)`` reads an integral as a reduced
    pair.  Both node branches get a new point.

    The irreducible divisor gives one genus g - 1 term per a, with psi^a and
    psi^(top - a) on the two branches.  A separating divisor puts the points
    left and psi^a on one side, the rest with psi^(top - a) on the other,
    and sends the ch factors c1 to the first side (ch restricts to the sum
    over the pieces).  Each such term comes once per split of the point
    multiset and of the ch multiset, times the number of labeled subsets
    realizing both.  The genus h of the first side is not searched for: it
    has len(left) + 1 points, so its dimension 3h - 2 + len(left) must equal
    sum(left) + a + sum(c1), which fixes h, or rules the term out when h is
    outside 0..genus.  The ch splits are grouped by degree mod 3, so only
    those that make h an integer are visited.  The other side's dimension
    then matches; an unstable side, genus 0 with at most two points, would
    need a negative dimension, so none is reached (Faber, Algorithms for
    computing intersection numbers on moduli spaces of curves, 1999).
    Separating types are ordered, so each divisor comes twice, and the
    caller halves the sum.
    """
    top = len(weights) - 1
    terms = [
        (w, *value(genus - 1, tuple(sorted(points + (a, top - a))), ch))
        for a, w in enumerate(weights)
    ]
    by_class = ([], [], [])
    for c1, c2, count in _subsets_of_multiset(ch):
        deg = sum(c1)
        by_class[deg % 3].append((deg, c1, c2, count))
    for left, right, count in _subsets_of_multiset(points):
        base = sum(left) + 2 - len(left)
        for a, w in enumerate(weights):
            shift = base + a
            splits = by_class[-shift % 3]
            if not splits:
                continue
            psi1 = tuple(sorted(left + (a,)))
            psi2 = tuple(sorted(right + (top - a,)))
            for deg, c1, c2, ch_count in splits:
                h = (shift + deg) // 3
                if not 0 <= h <= genus:
                    continue
                n1, d1 = value(h, psi1, c1)
                if not n1:
                    continue
                n2, d2 = value(genus - h, psi2, c2)
                if n2:
                    terms.append((count * ch_count * w, n1 * n2, d1 * d2))
    return terms


def _psi_reduce(genus: int, exps: tuple[int, ...]) -> tuple[int, int]:
    if genus == 0 and exps == (0, 0, 0):
        return (1, 1)
    if genus == 1 and exps == (1,):
        return (1, 24)
    # DVV recursion on the largest exponent (all exponents are >= 2 here),
    # summed in integers with every term doubled, so the degeneration weight
    # (2b+1)!! (2c+1)!! / 2 becomes an integer; the 2 and (2 a1 + 1)!! go
    # into the final denominator.
    a1 = exps[-1]
    rest = exps[:-1]
    terms = []
    for j in range(len(rest)):
        aj = rest[j]
        merged = rest[:j] + rest[j + 1 :] + (a1 + aj - 1,)
        # (2(a1 + aj) - 1)!! / (2 aj - 1)!! is a product of odd integers.
        c = math.prod(range(2 * aj + 1, 2 * (a1 + aj), 2))
        terms.append((2 * c, *_psi_value(genus, tuple(sorted(merged)))))
    # Degenerations with psi'^b psi''^c at the node, b + c = a1 - 2, each
    # weighted (2b+1)!! (2c+1)!!.
    odd = [math.prod(range(1, 2 * b + 2, 2)) for b in range(a1 - 1)]
    weights = [odd[b] * odd[a1 - 2 - b] for b in range(a1 - 1)]
    terms += _boundary_terms(genus, rest, weights, (), _kappa_value)
    num, den = lcm_sum(terms)
    return reduced(num, 2 * den * math.prod(range(1, 2 * a1 + 2, 2)))


def witten_psi(genus: int, exponents) -> Rational:
    """Exact value of <tau_{a_1} ... tau_{a_n}>_g, in any order of exponents.

    Returns 0 whenever the exponents miss the dimension 3g - 3 + n; raises
    ``ValueError`` on a negative genus or exponent or an unstable query.
    """
    exps = tuple(sorted(exponents))
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if 2 * genus - 2 + len(exps) <= 0:
        raise ValueError(f"unstable query: genus {genus} with {len(exps)} points")
    if any(a < 0 for a in exps):
        raise ValueError("psi exponents must be nonnegative")
    return Fraction(*_psi_value(genus, exps))


@lru_cache(maxsize=None)
def _subsets_of_multiset(
    ms: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """(subset, complement, count) triples of a sorted multiset, where count
    is the number of labeled subsets realizing the split.  Memoized: a few
    dozen multisets recur hundreds of thousands of times in high genus."""
    splits: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 1)]
    for v in sorted(set(ms)):
        mult = ms.count(v)
        new = []
        for inc, exc, w in splits:
            for j in range(mult + 1):
                w_j = w * math.comb(mult, j)
                new.append((inc + (v,) * j, exc + (v,) * (mult - j), w_j))
        splits = new
    return tuple(splits)


# A psi read; bench/tracer.py wraps hodge's binding as the psi_kappa layer.
def _kappa_value(genus: int, psi: tuple[int, ...], classes: tuple) -> tuple[int, int]:
    return _psi_value(genus, psi)


def self_validate() -> None:
    """Quick consistency check of the recursion constants.

    Runs on import, also under ``python -O``; the DVV constants are a known
    risk point, so the seeds plus one string and one dilaton instance are
    pinned here.  Raises ArithmeticError on the first mismatch.
    """
    t4 = witten_psi(2, (4,))
    t14 = witten_psi(2, (1, 4))
    checks = (
        ("<t0^3>_0", witten_psi(0, (0, 0, 0)), 1),
        ("<t1>_1", witten_psi(1, (1,)), Fraction(1, 24)),
        ("<t0^3 t1>_0", witten_psi(0, (1, 0, 0, 0)), 1),
        ("<t4>_2", t4, Fraction(1, 1152)),
        # string: <t0 t2 t4>_2 = <t1 t4>_2 + <t2 t3>_2
        (
            "string <t0 t2 t4>_2",
            witten_psi(2, (0, 2, 4)),
            t14 + witten_psi(2, (2, 3)),
        ),
        # dilaton: <t1 t4>_2 = (2*2 - 2 + 1) <t4>_2
        ("dilaton <t1 t4>_2", t14, 3 * t4),
    )
    for name, got, want in checks:
        if got != want:
            raise ArithmeticError(
                f"psi self-validation failed: {name} is {got}, expected {want}"
            )


self_validate()
