"""Intersection numbers of psi and kappa classes on moduli of stable curves.

``witten_psi`` evaluates the correlators <tau_{a_1} ... tau_{a_n}>_g, i.e. the
integrals of psi-class monomials over the Deligne-Mumford space of genus-g
n-pointed stable curves.  The evaluation applies the string and dilaton
equations whenever a zero or one exponent is present and otherwise runs the
Witten-Kontsevich (DVV) recursion on the largest exponent.  The two seed
values are

    <tau_0^3>_0 = 1        (the 3-pointed rational moduli space is a point)
    <tau_1>_1   = 1/24

The second seed cannot be reached by the recursion itself (its genus-reduction
term degenerates to an unstable two-pointed rational correlator); it is pinned
here and re-validated downstream against the generating-function identities of
the Hodge layer.

``kappa_psi`` additionally accepts kappa classes and eliminates them one at a
time through the forgetful-map relation kappa_b = pi_*(psi^(b+1)), trading the
last kappa index for a new marked point minus merge corrections.

All queries are memoized on canonical sorted keys; the module is pure but the
shared memo dictionaries are not synchronized, so it is single-threaded by
contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_arith import Rational

_psi_memo: dict[tuple, Fraction] = {}
_kappa_memo: dict[tuple, Fraction] = {}


@dataclass(frozen=True)
class PsiQuery:
    """A correlator <tau_{a_1} ... tau_{a_n}>_g with sorted exponents."""

    genus: int
    exponents: tuple[int, ...]

    def __init__(self, genus: int, exponents) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "exponents", tuple(sorted(exponents)))

    def is_stable(self) -> bool:
        return 2 * self.genus - 2 + len(self.exponents) > 0


@dataclass(frozen=True)
class KappaPsiQuery:
    """A mixed correlator with psi exponents and kappa indices."""

    genus: int
    psi_exponents: tuple[int, ...]
    kappa_indices: tuple[int, ...]

    def __init__(self, genus: int, psi_exponents, kappa_indices) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "psi_exponents", tuple(sorted(psi_exponents)))
        object.__setattr__(self, "kappa_indices", tuple(sorted(kappa_indices)))

    def is_stable(self) -> bool:
        # Replacing every kappa index by a marked point must give a stable
        # space; this also admits closed-surface queries such as kappa_1 on
        # the unpointed genus-1 moduli.
        n_eff = len(self.psi_exponents) + len(self.kappa_indices)
        return 2 * self.genus - 2 + n_eff > 0


def _dimension(genus: int, n: int) -> int:
    return 3 * genus - 3 + n


def _double_factorial(n: int) -> int:
    """(2k+1)!! for odd arguments; (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _psi_value(genus: int, exps: tuple[int, ...]) -> Fraction:
    """Internal evaluation with the convention that unstable input is 0."""
    n = len(exps)
    if 2 * genus - 2 + n <= 0:
        return Fraction(0)
    if any(a < 0 for a in exps):
        return Fraction(0)
    if sum(exps) != _dimension(genus, n):
        return Fraction(0)
    key = (genus, exps)
    cached = _psi_memo.get(key)
    if cached is not None:
        return cached
    value = _psi_reduce(genus, exps)
    _psi_memo[key] = value
    return value


def _psi_reduce(genus: int, exps: tuple[int, ...]) -> Fraction:
    n = len(exps)
    if genus == 0 and exps == (0, 0, 0):
        return Fraction(1)
    if genus == 1 and exps == (1,):
        return Fraction(1, 24)
    # String equation: drop a tau_0 and lower one remaining exponent.
    if exps and exps[0] == 0:
        rest = exps[1:]
        total = Fraction(0)
        for j in range(len(rest)):
            if rest[j] == 0:
                continue
            reduced = rest[:j] + (rest[j] - 1,) + rest[j + 1 :]
            total += _psi_value(genus, tuple(sorted(reduced)))
        return total
    # Dilaton equation: drop a tau_1 and scale by 2g - 2 + (n - 1).
    if 1 in exps:
        j = exps.index(1)
        rest = exps[:j] + exps[j + 1 :]
        return (2 * genus - 2 + n - 1) * _psi_value(genus, rest)
    # DVV recursion on the largest exponent (all exponents are >= 2 here).
    a1 = exps[-1]
    rest = exps[:-1]
    total = Fraction(0)
    for j in range(len(rest)):
        aj = rest[j]
        reduced = rest[:j] + rest[j + 1 :] + (a1 + aj - 1,)
        total += Fraction(
            _double_factorial(2 * (a1 + aj) - 1), _double_factorial(2 * aj - 1)
        ) * _psi_value(genus, tuple(sorted(reduced)))
    for b in range(a1 - 1):
        c = a1 - 2 - b
        w = Fraction(_double_factorial(2 * b + 1) * _double_factorial(2 * c + 1), 2)
        # Non-separating degeneration.
        total += w * _psi_value(genus - 1, tuple(sorted(rest + (b, c))))
        # Separating degenerations over all genus and marked-point splits,
        # one term per split of the exponent multiset times its subset count.
        for g1 in range(genus + 1):
            for left, right, count in _subsets_of_multiset(rest):
                lv = _psi_value(g1, tuple(sorted(left + (b,))))
                if lv == 0:
                    continue
                rv = _psi_value(genus - g1, tuple(sorted(right + (c,))))
                total += count * w * lv * rv
    return total / _double_factorial(2 * a1 + 1)


def witten_psi(q: PsiQuery) -> Rational:
    """Exact value of <tau_{a_1} ... tau_{a_n}>_g.

    Returns 0 whenever the exponents miss the dimension 3g - 3 + n; raises
    ``ValueError`` on a negative genus or exponent or an unstable query.
    """
    if q.genus < 0:
        raise ValueError("genus must be nonnegative")
    if not q.is_stable():
        raise ValueError(f"unstable query: genus {q.genus} with {len(q.exponents)} points")
    if any(a < 0 for a in q.exponents):
        raise ValueError("psi exponents must be nonnegative")
    return _psi_value(q.genus, q.exponents)


def kappa_psi(q: KappaPsiQuery) -> Rational:
    """Exact value of the integral of a psi-kappa monomial.

    Kappa indices are eliminated from the largest down through the forgetful
    map: trading kappa_b for a new marked point with psi-power b+1 requires
    inclusion-exclusion over the subsets T of the remaining kappa indices
    that merge into the new point,

        <psi^A kappa_b prod kappa_c> =
            sum_T (-1)^|T| <psi^(A + {1 + b + sum T}) prod_(c not in T) kappa_c>,

    evaluated on the space with one extra point.  (Pairwise merge corrections
    alone would drop the simultaneous merges that appear from three kappa
    classes on; the subset form is calibrated by kappa_1^3 = 43/2880 on the
    unpointed genus-2 space.)

    A query whose nominal base space is unstable (genus 1 with no marked
    points) is interpreted on the minimal stable space with extra psi^0
    points, so e.g. the genus-1 kappa_1 query evaluates kappa_1 on the
    1-pointed space.  A negative genus or psi exponent, or a kappa index
    below 1, raises ``ValueError``.
    """
    if q.genus < 0:
        raise ValueError("genus must be nonnegative")
    if not q.is_stable():
        raise ValueError(
            f"unstable query: genus {q.genus}, {len(q.psi_exponents)} points, "
            f"{len(q.kappa_indices)} kappa classes"
        )
    if any(a < 0 for a in q.psi_exponents):
        raise ValueError("psi exponents must be nonnegative")
    if any(b <= 0 for b in q.kappa_indices):
        raise ValueError("kappa indices must be positive")
    psi = q.psi_exponents
    while 2 * q.genus - 2 + len(psi) <= 0:
        psi = psi + (0,)
    return _kappa_value(q.genus, psi, q.kappa_indices)


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


def _kappa_value(
    genus: int, psi: tuple[int, ...], kappa: tuple[int, ...]
) -> Fraction:
    if not kappa:
        return _psi_value(genus, psi)
    key = (genus, psi, kappa)
    cached = _kappa_memo.get(key)
    if cached is not None:
        return cached
    b = kappa[-1]
    rest = kappa[:-1]
    value = Fraction(0)
    for merged, remaining, count in _subsets_of_multiset(rest):
        exponent = 1 + b + sum(merged)
        value += (
            (-1) ** len(merged)
            * count
            * _kappa_value(genus, tuple(sorted(psi + (exponent,))), remaining)
        )
    _kappa_memo[key] = value
    return value


def genus0_closed_form(exponents) -> Rational:
    """Independent oracle for genus 0: <tau_a...>_0 = (n-3)! / prod(a_i!).

    Valid for stable n >= 3 with sum(a_i) = n - 3; used by the test suite to
    cross-check the recursion.
    """
    exps = tuple(exponents)
    n = len(exps)
    if n < 3 or sum(exps) != n - 3:
        return Fraction(0)
    return Fraction(math.factorial(n - 3), math.prod(math.factorial(a) for a in exps))


def self_validate() -> None:
    """Quick consistency check of the recursion constants.

    Runs on import, also under ``python -O``; the DVV constants are a known
    risk point, so the seeds plus one string and one dilaton instance are
    pinned here.  Raises ArithmeticError on the first mismatch.
    """
    t4 = witten_psi(PsiQuery(2, (4,)))
    t14 = witten_psi(PsiQuery(2, (1, 4)))
    checks = (
        ("<t0^3>_0", witten_psi(PsiQuery(0, (0, 0, 0))), 1),
        ("<t1>_1", witten_psi(PsiQuery(1, (1,))), Fraction(1, 24)),
        ("<t0^3 t1>_0", witten_psi(PsiQuery(0, (1, 0, 0, 0))), 1),
        ("<t4>_2", t4, Fraction(1, 1152)),
        # string: <t0 t2 t4>_2 = <t1 t4>_2 + <t2 t3>_2
        (
            "string <t0 t2 t4>_2",
            witten_psi(PsiQuery(2, (0, 2, 4))),
            t14 + witten_psi(PsiQuery(2, (2, 3))),
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
