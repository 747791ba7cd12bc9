"""Reference routines for the intersection-number layers that the package
itself does not need.

``ch_with_kappa`` is the one kappa-class pushforward: the package pushes
each GRR kappa term into a marked point inside ``hodge._grr`` and reads only
psi and ch integrals.  ``clear_caches`` drops every memo and cache of the
Hodge and psi layers, for tests that recompute values from the seeds.
"""

from fractions import Fraction

from realgw import hodge, psi_kappa


def ch_with_kappa(genus, psi, kappa, ch):
    """``hodge._ch_integral`` with kappa factors, pushed into marked points
    by the forgetful map, kappa_b = pi_*(psi^(b+1)): the last kappa_b
    becomes a point with psi exponent 1 + b + sum T, over the subsets T of
    the other kappa indices that merge into it, with sign (-1)^|T|.  ch(E)
    pulls back under the forgetful map, so the identity holds with ch
    factors too.  Calibrated by kappa_1^3 = 43/2880 on the unpointed genus-2
    space, which needs the simultaneous merges of three kappa classes."""
    if not kappa:
        return Fraction(*hodge._ch_integral(genus, psi, ch))
    b, rest = kappa[-1], kappa[:-1]
    total = Fraction(0)
    for merged, remaining, count in psi_kappa._subsets_of_multiset(rest):
        point = tuple(sorted(psi + (1 + b + sum(merged),)))
        sign = -count if len(merged) % 2 else count
        total += sign * ch_with_kappa(genus, point, remaining, ch)
    return total


def clear_caches():
    """Drop the Hodge and psi memos, in place, and the shape rows, scaled
    bases, alpha coefficients and I1 and I2 caches built from them."""
    for memo in (hodge._hodge_memo, hodge._ch_memo, psi_kappa._psi_memo):
        memo.clear()
    for name in ("_lambda_rows", "_scaled_base", "alpha_coeff", "I1", "I2"):
        getattr(hodge, name).cache_clear()
