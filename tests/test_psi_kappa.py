"""Tests for the psi/kappa intersection-number engine.

The independent oracle for genus 0 is the closed form
<tau_{a_1}...tau_{a_n}>_0 = (n-3)!/prod(a_i!); higher-genus anchors are the
classical correlator values, and the string/dilaton equations are checked on
randomized stable queries.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from realgw import psi_kappa
from realgw.psi_kappa import (
    self_validate,
    witten_psi,
    _pad_to_stable,
    _subsets_of_multiset,
)

from hodge_reference import ch_with_kappa

# Classical correlator values (Witten-Kontsevich theory).
KNOWN_CORRELATORS = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (0, 0, 0, 1)): Fraction(1),
    (0, (0, 0, 0, 0, 2)): Fraction(1),
    (0, (0, 0, 0, 1, 1)): Fraction(2),
    (1, (1,)): Fraction(1, 24),
    (1, (0, 2)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (0, 0, 3)): Fraction(1, 24),
    (1, (0, 1, 2)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (0, 5)): Fraction(1, 1152),
    (2, (1, 4)): Fraction(1, 384),
    (2, (2, 3)): Fraction(29, 5760),
    (2, (2, 2, 2)): Fraction(7, 240),
    (3, (7,)): Fraction(1, 82944),
    (3, (1, 7)): Fraction(5, 82944),
    (3, (2, 6)): Fraction(77, 414720),
    (3, (3, 5)): Fraction(503, 1451520),
    (3, (4, 4)): Fraction(607, 1451520),
}


def genus0_closed_form(exponents):
    """Independent oracle for genus 0: <tau_a...>_0 = (n-3)! / prod(a_i!),
    valid for stable n >= 3 with sum(a_i) = n - 3 and 0 otherwise."""
    exps = tuple(exponents)
    n = len(exps)
    if n < 3 or sum(exps) != n - 3:
        return Fraction(0)
    return Fraction(math.factorial(n - 3), math.prod(math.factorial(a) for a in exps))


def stable_random_query(rng, max_genus=3, max_points=6):
    """(genus, exponents) of a random stable correlator of the right
    dimension; the exponents come in random order."""
    while True:
        g = rng.randint(0, max_genus)
        n = rng.randint(1, max_points)
        if 2 * g - 2 + n <= 0:
            continue
        dim = 3 * g - 3 + n
        exps = [0] * n
        for _ in range(dim):
            exps[rng.randrange(n)] += 1
        return g, tuple(exps)


def test_base_point():
    assert witten_psi(0, (0, 0, 0)) == 1


def test_dilaton_from_base():
    assert witten_psi(0, (1, 0, 0, 0)) == 1


def test_one_pointed_torus():
    assert witten_psi(1, (1,)) == Fraction(1, 24)


def test_known_correlators():
    for (g, exps), expected in KNOWN_CORRELATORS.items():
        assert witten_psi(g, exps) == expected, (g, exps)


def test_genus0_closed_form_oracle():
    rng = random.Random(3)
    for _ in range(120):
        g, exps = stable_random_query(rng, max_genus=0, max_points=9)
        assert witten_psi(g, exps) == genus0_closed_form(exps)


def test_dimension_vanishing():
    rng = random.Random(5)
    count = 0
    while count < 60:
        g, exps = stable_random_query(rng)
        bumped = exps[:-1] + (exps[-1] + 1,)
        assert witten_psi(g, bumped) == 0
        count += 1


def test_unstable_query_raises():
    with pytest.raises(ValueError):
        witten_psi(0, (0, 0))


def test_unstable_internal_key_is_zero():
    # The genus-1 key with no points meets the dimension (0 = 0), so only the
    # stability check of _expand keeps it out of DVV, which needs a point.
    assert psi_kappa._psi_value(1, ()) == (0, 1)
    assert (1, ()) not in psi_kappa._psi_memo


def test_string_equation_randomized():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        g, exps = stable_random_query(rng)
        extended = witten_psi(g, exps + (0,))
        total = Fraction(0)
        for j, a in enumerate(exps):
            if a == 0:
                continue
            reduced = exps[:j] + (a - 1,) + exps[j + 1 :]
            total += witten_psi(g, reduced)
        assert extended == total
        checked += 1


def test_dilaton_equation_randomized():
    rng = random.Random(19)
    checked = 0
    while checked < 100:
        g, exps = stable_random_query(rng)
        n = len(exps)
        extended = witten_psi(g, exps + (1,))
        assert extended == (2 * g - 2 + n) * witten_psi(g, exps)
        checked += 1


def test_symmetry_under_shuffling():
    rng = random.Random(23)
    for _ in range(30):
        g, exps = stable_random_query(rng)
        shuffled = list(exps)
        rng.shuffle(shuffled)
        assert witten_psi(g, shuffled) == witten_psi(g, sorted(exps))


def _dfact(k):
    """k!! for odd k, with (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


def _labeled_subset_psi(genus, exps, memo):
    """Reference correlator: the string, dilaton and DVV steps of the library,
    but with the separating DVV sum over every genus g1 and all labeled
    subsets of the points."""
    n = len(exps)
    if 2 * genus - 2 + n <= 0 or sum(exps) != 3 * genus - 3 + n:
        return Fraction(0)
    key = (genus, exps)
    if key in memo:
        return memo[key]

    def value(g, points):
        return _labeled_subset_psi(g, tuple(sorted(points)), memo)

    if key == (0, (0, 0, 0)):
        total = Fraction(1)
    elif key == (1, (1,)):
        total = Fraction(1, 24)
    elif exps[0] == 0:
        rest = exps[1:]
        total = sum(
            value(genus, rest[:j] + (rest[j] - 1,) + rest[j + 1 :])
            for j in range(len(rest))
            if rest[j] > 0
        )
    elif 1 in exps:
        j = exps.index(1)
        total = (2 * genus - 3 + n) * value(genus, exps[:j] + exps[j + 1 :])
    else:
        a1, rest = exps[-1], exps[:-1]
        total = Fraction(0)
        for j, aj in enumerate(rest):
            w = Fraction(_dfact(2 * (a1 + aj) - 1), _dfact(2 * aj - 1))
            total += w * value(genus, rest[:j] + rest[j + 1 :] + (a1 + aj - 1,))
        for b in range(a1 - 1):
            c = a1 - 2 - b
            w = Fraction(_dfact(2 * b + 1) * _dfact(2 * c + 1), 2)
            total += w * value(genus - 1, rest + (b, c))
            for g1 in range(genus + 1):
                for mask in range(1 << len(rest)):
                    left = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
                    right = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
                    total += w * value(g1, left + (b,)) * value(genus - g1, right + (c,))
        total /= _dfact(2 * a1 + 1)
    memo[key] = total
    return total


def _matches_reference(max_genus, max_points):
    """Check witten_psi against _labeled_subset_psi on every exponent tuple
    with genus <= max_genus and 1 to max_points points; returns the number
    of tuples.  Clearing the memo first makes the library recompute each
    correlator."""
    psi_kappa._psi_memo.clear()
    memo = {}
    checked = 0
    for genus in range(max_genus + 1):
        for n in range(1, max_points + 1):
            if 2 * genus - 2 + n <= 0:
                continue
            dim = 3 * genus - 3 + n
            for exps in itertools.combinations_with_replacement(range(dim + 1), n):
                if sum(exps) == dim:
                    got = witten_psi(genus, exps)
                    assert got == _labeled_subset_psi(genus, exps, memo), (genus, exps)
                    checked += 1
    return checked


def test_psi_reduce_matches_labeled_subset_reference():
    # The library groups the separating DVV terms by exponent multiset; the
    # reference sums them over every labeled subset.
    assert _matches_reference(3, 5) == 140


def test_psi_reduce_matches_all_genus_split_reference():
    # The library reads the genus of the separating DVV split off the
    # dimension of the side carrying psi^b; the reference tries every g1.
    assert _matches_reference(5, 4) == 241


def test_memo_determinism():
    first = witten_psi(3, (2, 6))
    assert all(witten_psi(3, (2, 6)) == first for _ in range(3))


def test_self_validation_runs():
    self_validate()


# -- kappa classes, through the test-side pushforward ------------------------


def _kappa(genus, psi, kappa):
    # A query with too few points is read on the minimal stable space.
    return ch_with_kappa(genus, _pad_to_stable(genus, tuple(psi)), tuple(kappa), ())


def test_kappa_free_delegates():
    assert _kappa(0, (0, 0, 0), ()) == 1


def test_kappa1_on_one_pointed_torus():
    # The nominal unpointed genus-1 space is unstable; the query lands on the
    # 1-pointed space, where kappa_1 integrates to 1/24.
    assert _kappa(1, (), (1,)) == Fraction(1, 24)


def test_kappa1_on_rational_4_pointed_space():
    # kappa_1 = pushforward of psi^2, so the integral must match the
    # 4-pointed psi integral <tau_1 tau_0^3>_0.
    assert _kappa(0, (0, 0, 0, 0), (1,)) == witten_psi(0, (1, 0, 0, 0)) == 1


def test_kappa_powers_on_rational_spaces():
    # integral of kappa_1^2 over the 5-pointed rational space:
    # <tau_2 tau_2 tau_0^5>_0 - <tau_3 tau_0^5>_0 = 6 - 1.
    assert _kappa(0, (0,) * 5, (1, 1)) == 5
    assert _kappa(0, (0,) * 5, (2,)) == 1


def test_kappa1_cubed_genus2_weil_petersson_value():
    # Weil-Petersson volume of the genus-2 space: kappa_1^3 = 43/2880; this
    # exercises the simultaneous-merge terms of the kappa elimination and
    # the genus-2 psi correlators they land on.
    assert _kappa(2, (), (1, 1, 1)) == Fraction(43, 2880)


def test_kappa_symmetry_under_shuffling():
    # The kappa classes may be pushed into points in any order: each order
    # of elimination gives the same value from the psi correlators.
    rng = random.Random(29)
    cases = [
        (2, (0,), (2, 1, 1)),
        (0, (0, 0, 0, 0, 0, 0, 0), (2, 1, 1)),
        (1, (1, 0, 0), (1, 1)),
        (2, (2, 0, 1), (2, 1)),
        (1, (1, 0), (1,)),
    ]
    for g, psi, kappa in cases:
        want = _kappa(g, sorted(psi), sorted(kappa))
        assert want != 0, (g, psi, kappa)
        for _ in range(4):
            p, k = rng.sample(psi, len(psi)), rng.sample(kappa, len(kappa))
            assert _kappa(g, p, k) == want, (g, p, k)


def test_negative_psi_exponent_rejected():
    # The exponents sum to the dimension, so the negative entry is the only
    # thing wrong with the query.
    with pytest.raises(ValueError, match="nonnegative"):
        witten_psi(0, (-1, 2, 0, 0))


def test_negative_genus_rejected():
    # The query is stable and misses the dimension, so it used to give 0;
    # the internal recursion still reaches genus -1 and must keep giving 0.
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        witten_psi(-1, (0,) * 5)
    assert witten_psi(1, (0, 2)) == Fraction(1, 24)


def test_self_validation_survives_optimize_flag():
    # With asserts stripped by -O, a wrong seed value must still be caught.
    probe = (
        "import sys\n"
        "from realgw import psi_kappa\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "psi_kappa._psi_memo[(2, (4,))] = (1, 1151)\n"
        "try:\n"
        "    psi_kappa.self_validate()\n"
        "except ArithmeticError:\n"
        "    sys.exit(0)\n"
        "sys.exit(2)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env, timeout=60)
    assert done.returncode == 0


def test_multiset_splits_count_labeled_subsets():
    assert list(_subsets_of_multiset(())) == [((), (), 1)]
    assert list(_subsets_of_multiset((1, 1, 2))) == [
        ((), (1, 1, 2), 1),
        ((2,), (1, 1), 1),
        ((1,), (1, 2), 2),
        ((1, 2), (1,), 2),
        ((1, 1), (2,), 1),
        ((1, 1, 2), (), 1),
    ]
    # The weights count all 2^n labeled subsets.
    for ms in ((0, 0, 0, 1), (2, 2, 3, 3, 3), (1, 4, 4, 4, 4)):
        assert sum(w for _, _, w in _subsets_of_multiset(ms)) == 2 ** len(ms)
