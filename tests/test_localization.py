"""Tests for the fixed-locus enumeration and contribution formulas.

The per-class contributions for degrees 1, 3, 4 are compared symbolically
(as rational functions of the weight ratio) against the closed combinations
of one- and two-partition Hodge integrals that the degree-wise localization
analysis produces.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from realgw import localization
from realgw.exact_arith import RationalFunction
from realgw.gw_convert import bundled_table
from realgw.hodge import _compositions, i1, i2, lambda_product_integral
from realgw.localization import (
    ALPHA,
    AdmissiblePair,
    DecoratedGraph,
    GraphInvolution,
    automorphism_order,
    bracket,
    edge_contribution,
    edge_key,
    enumerate_pairs,
    euler_tangent,
    gw_real,
    isomorphic,
    pair_contribution,
    pair_contributions,
    psi_edge_weight,
    vertex_contribution,
    vertex_key,
    _edge_involutions,
    _edge_multisets,
    _fixed_edge_contribution,
    _free_edge_contribution,
    _is_connected,
    _theta_tuples,
    _tree_sum,
    _vertex_involutions,
)

A1, A2, A3, A4 = ALPHA[1], ALPHA[2], ALPHA[3], ALPHA[4]


def degree1_pair(genus_half):
    graph = DecoratedGraph(
        theta=(1, 2), genus=(genus_half, genus_half), edges=((0, 1, 1),), marks_plus=(0,)
    )
    inv = GraphInvolution(vertices=(1, 0), edges=(0,))
    pair = AdmissiblePair(graph, inv, 1)
    return AdmissiblePair(graph, inv, automorphism_order(pair))


# -- enumeration ------------------------------------------------------------------


def test_degree1_single_class():
    for g in (0, 2, 4):
        pairs = enumerate_pairs(g, 1)
        assert len(pairs) == 1
        (p,) = pairs
        assert p.aut_order == 1
        assert p.graph.genus == (g // 2, g // 2)
        assert len(p.involution.fixed_edges(p.graph)) == 1


def _betti(graph):
    """First Betti number of the graph."""
    return len(graph.edges) - graph.num_vertices + 1


def test_degree3_four_families():
    for g in (0, 2, 4):
        pairs = enumerate_pairs(g, 3)
        splittings = g // 2 + 1
        assert len(pairs) == 4 * splittings
        assert all(p.aut_order == 1 for p in pairs)
        assert all(_betti(p.graph) == 0 for p in pairs)


def test_degree4_eleven_families():
    pairs = enumerate_pairs(1, 4)
    assert len(pairs) == 11
    auts = sorted(p.aut_order for p in pairs)
    assert auts == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert all(_betti(p.graph) == 1 for p in pairs)


def test_parity_enumerations_are_empty():
    for g, d in ((1, 1), (0, 2), (1, 3), (0, 4), (2, 4)):
        assert enumerate_pairs(g, d) == ()


def test_enumeration_is_deterministic():
    first = enumerate_pairs(3, 4)
    enumerate_pairs.cache_clear()
    second = enumerate_pairs(3, 4)
    assert first == second


# -- reference enumeration: pairwise isomorphism tests by backtracking ---------


def _reference_key(pair: AdmissiblePair):
    g = pair.graph
    edge_types = sorted(
        (
            tuple(sorted((g.theta[a], g.theta[b]))),
            deg,
            pair.involution.edges[i] == i,
        )
        for i, (a, b, deg) in enumerate(g.edges)
    )
    vertex_types = sorted(zip(g.theta, g.genus))
    mark_types = tuple(g.genus[m] for m in g.marks_plus)
    return (tuple(vertex_types), tuple(edge_types), mark_types)


def _reference_vertex_bijections(p: AdmissiblePair, q: AdmissiblePair):
    gp, gq = p.graph, q.graph
    nv = gp.num_vertices
    if nv != gq.num_vertices:
        return
    for perm in itertools.permutations(range(nv)):
        if any(gq.theta[perm[v]] != gp.theta[v] for v in range(nv)):
            continue
        if any(gq.genus[perm[v]] != gp.genus[v] for v in range(nv)):
            continue
        if any(perm[m] != mq for m, mq in zip(gp.marks_plus, gq.marks_plus)):
            continue
        if any(
            perm[p.involution.vertices[v]] != q.involution.vertices[perm[v]]
            for v in range(nv)
        ):
            continue
        yield perm


def _reference_edge_bijections(p: AdmissiblePair, q: AdmissiblePair, perm):
    ep, eq = p.graph.edges, q.graph.edges
    ne = len(ep)
    if ne != len(eq):
        return

    def candidates(i: int):
        a, b, deg = ep[i]
        target = {perm[a], perm[b]}
        return [
            j for j, (c, d, deg2) in enumerate(eq) if deg2 == deg and {c, d} == target
        ]

    assign = [-1] * ne
    used = [False] * ne

    def backtrack(i: int):
        if i == ne:
            yield tuple(assign)
            return
        if assign[i] != -1:
            yield from backtrack(i + 1)
            return
        for j in candidates(i):
            if used[j]:
                continue
            si = p.involution.edges[i]
            sj = q.involution.edges[j]
            if si == i:
                if sj != j:
                    continue
                assign[i] = j
                used[j] = True
                yield from backtrack(i + 1)
                assign[i] = -1
                used[j] = False
            else:
                if sj == j or used[sj] or sj not in candidates(si):
                    continue
                assign[i], assign[si] = j, sj
                used[j] = used[sj] = True
                yield from backtrack(i + 1)
                assign[i] = assign[si] = -1
                used[j] = used[sj] = False

    yield from backtrack(0)


def _reference_isomorphisms(p: AdmissiblePair, q: AdmissiblePair):
    for perm in _reference_vertex_bijections(p, q):
        for edge_map in _reference_edge_bijections(p, q, perm):
            yield perm, edge_map


def _reference_aut_order(pair: AdmissiblePair) -> int:
    return sum(1 for _ in _reference_isomorphisms(pair, pair))


def _reference_enumerate_pairs(g: int, d: int) -> tuple[AdmissiblePair, ...]:
    """The same candidates as enumerate_pairs, deduplicated by pairwise
    isomorphism tests within buckets of a cheap invariant."""
    found: list[AdmissiblePair] = []
    keys: dict[tuple, list[int]] = {}
    for nv in range(2, d + 2, 2):
        for theta in _theta_tuples(nv):
            label_vertices = {t: [v for v in range(nv) if theta[v] == t] for t in (1, 3)}
            if not label_vertices[1] or (d >= 2 and not label_vertices[3]):
                continue
            for edges in _edge_multisets(theta, d):
                if not _is_connected(nv, edges):
                    continue
                b1 = len(edges) - nv + 1
                if b1 > g or (g - b1) % 2:
                    continue
                for sigma_v in _vertex_involutions(theta):
                    for sigma_e in _edge_involutions(edges, sigma_v):
                        if any(
                            edges[i][2] % 2 == 0
                            for i in range(len(edges))
                            if sigma_e[i] == i
                        ):
                            continue
                        orbits = [v for v in range(nv) if sigma_v[v] > v]
                        for split in _compositions((g - b1) // 2, len(orbits)):
                            genus = [0] * nv
                            for v, gv in zip(orbits, split):
                                genus[v] = genus[sigma_v[v]] = gv
                            for marks in itertools.product(
                                *[label_vertices[bracket(i)] for i in range(1, d + 1)]
                            ):
                                pair = AdmissiblePair(
                                    DecoratedGraph(theta, tuple(genus), edges, marks),
                                    GraphInvolution(sigma_v, sigma_e),
                                    0,
                                )
                                bucket = keys.setdefault(_reference_key(pair), [])
                                if any(
                                    next(_reference_isomorphisms(pair, found[k]), None)
                                    for k in bucket
                                ):
                                    continue
                                bucket.append(len(found))
                                found.append(
                                    AdmissiblePair(
                                        pair.graph,
                                        pair.involution,
                                        _reference_aut_order(pair),
                                    )
                                )
    return tuple(found)


@pytest.mark.parametrize(
    "g, d", [(g, d) for d in range(1, 5) for g in range(6)] + [(0, 5)]
)
def test_enumeration_matches_pairwise_reference(g, d):
    # Same representatives in the same order, with the same |Aut|.
    assert enumerate_pairs(g, d) == _reference_enumerate_pairs(g, d)


def _relabel(p: AdmissiblePair, rng: random.Random):
    """A random relabeling of p's vertices and edges, with the two maps."""
    nv = p.graph.num_vertices
    ne = len(p.graph.edges)
    perm = list(range(nv))
    rng.shuffle(perm)
    eperm = list(range(ne))
    rng.shuffle(eperm)
    edges = [None] * ne
    for old, new in enumerate(eperm):
        a, b, deg = p.graph.edges[old]
        edges[new] = (min(perm[a], perm[b]), max(perm[a], perm[b]), deg)
    sigma_v = [0] * nv
    for v in range(nv):
        sigma_v[perm[v]] = perm[p.involution.vertices[v]]
    sigma_e = [0] * ne
    for i in range(ne):
        sigma_e[eperm[i]] = eperm[p.involution.edges[i]]
    theta = [0] * nv
    genus = [0] * nv
    for v in range(nv):
        theta[perm[v]] = p.graph.theta[v]
        genus[perm[v]] = p.graph.genus[v]
    relabeled = AdmissiblePair(
        DecoratedGraph(
            tuple(theta),
            tuple(genus),
            tuple(edges),
            tuple(perm[m] for m in p.graph.marks_plus),
        ),
        GraphInvolution(tuple(sigma_v), tuple(sigma_e)),
        p.aut_order,
    )
    return relabeled, perm, eperm


def test_isomorphism_stable_under_relabeling():
    rng = random.Random(47)
    for p in enumerate_pairs(1, 4) + enumerate_pairs(2, 3) + enumerate_pairs(0, 5):
        relabeled, _, _ = _relabel(p, rng)
        assert isomorphic(p, relabeled)
        assert automorphism_order(relabeled) == p.aut_order
        assert automorphism_order(relabeled) == _reference_aut_order(relabeled)


def test_local_keys_stable_under_relabeling():
    # Relabeled vertices and edges keep their keys, so the factor caches see
    # one entry per local configuration whatever the vertex and edge order.
    rng = random.Random(53)
    for p in enumerate_pairs(1, 4) + enumerate_pairs(2, 3) + enumerate_pairs(0, 5):
        relabeled, perm, eperm = _relabel(p, rng)
        for v in range(p.graph.num_vertices):
            assert vertex_key(relabeled, perm[v]) == vertex_key(p, v)
        for i in range(len(p.graph.edges)):
            assert edge_key(relabeled, eperm[i]) == edge_key(p, i)


# -- elementary weights --------------------------------------------------------


def test_psi_edge_weights():
    assert psi_edge_weight(1, 2, 1) == A2 - A1  # equals -2
    assert (psi_edge_weight(1, 2, 1) - RationalFunction.const(-2)).is_zero()
    assert (psi_edge_weight(1, 3, 1) - (A3 - A1)).is_zero()
    assert (psi_edge_weight(1, 2, 3) - RationalFunction.const(Fraction(-2, 3))).is_zero()


def test_degree1_vertex_contributions():
    p0 = degree1_pair(0)
    assert vertex_key(p0, 0) == (1, 0, ((2, 1),), 1)
    expect0 = A1 * A1 - A3 * A3
    assert (vertex_contribution(*vertex_key(p0, 0)) - expect0).is_zero()
    for gp in (1, 2):
        p = degree1_pair(gp)
        expect = (
            RationalFunction.const((-1) ** gp)
            * (A1**2 - A3**2)
            * i1(gp, 2 * A1, A1 - A3, A1 + A3)
        )
        assert (vertex_contribution(*vertex_key(p, 0)) - expect).is_zero()


def test_fixed_edge_contribution_value():
    p = degree1_pair(0)
    assert edge_key(p, 0) == (1, 2, 1, True)
    assert (edge_contribution(*edge_key(p, 0)) - 1 / (A1**2 - A3**2)).is_zero()


def _fixed_edge_anchored(anchor: int, other: int, deg: int) -> RationalFunction:
    """The fixed-edge factor written out with the given anchor label."""
    denom = (2 * ALPHA[anchor] / deg) ** (deg - 1)
    for j in (1, 2, 3, 4):
        if j in (anchor, other):
            continue
        for r in range((deg - 1) // 2 + 1):
            denom = denom * (ALPHA[anchor] * (deg - 2 * r) / deg - ALPHA[j])
    sign = (-1) ** ((deg - 1) // 2)
    return RationalFunction.const(Fraction(sign, deg * math.factorial(deg))) / denom


def test_fixed_edge_anchor_convention_is_symmetric():
    # Both endpoint anchors give the same factor for odd degrees.
    for deg in (1, 3, 5):
        for theta in ((1, 2), (2, 1), (3, 4), (4, 3)):
            value = _fixed_edge_contribution(*theta, deg)
            for anchor, other in (theta, theta[::-1]):
                expect = _fixed_edge_anchored(anchor, other, deg)
                assert (value - expect).is_zero(), (deg, theta, anchor)


def test_free_edge_contributions():
    # endpoints with labels 1,3: -1 / (4 a1 a3 (a1+a3)^2)
    expect13 = RationalFunction.const(-1) / (4 * A1 * A3 * (A1 + A3) ** 2)
    assert (_free_edge_contribution(1, 3, 1) - expect13).is_zero()
    # endpoints with labels 1,4: +1 / (4 a1 a3 (a1-a3)^2)
    expect14 = RationalFunction.const(1) / (4 * A1 * A3 * (A1 - A3) ** 2)
    assert (_free_edge_contribution(1, 4, 1) - expect14).is_zero()
    # endpoint order does not matter
    assert (_free_edge_contribution(3, 1, 1) - _free_edge_contribution(1, 3, 1)).is_zero()


def test_fixed_edge_even_degree_rejected():
    g = DecoratedGraph((1, 2), (0, 0), ((0, 1, 2),), ())
    pair = AdmissiblePair(g, GraphInvolution((1, 0), (0,)), 1)
    with pytest.raises(ValueError):
        edge_contribution(*edge_key(pair, 0))


# -- reference factors: computed per (pair, vertex) and per (pair, edge) -------


@functools.lru_cache(maxsize=None)
def _reference_lambda_product(genus, lambda_args, denominators):
    # Memoized on its own arguments, in edge-index order, only to keep the
    # reference fast; the vertex data still comes from the pair.
    return lambda_product_integral(genus, lambda_args, list(denominators))


def _reference_psi_edge_weight(graph: DecoratedGraph, edge_index: int, v: int):
    a, b, deg = graph.edges[edge_index]
    other = b if v == a else a
    return (ALPHA[graph.theta[other]] - ALPHA[graph.theta[v]]) / deg


def _reference_vertex_contribution(pair: AdmissiblePair, v: int) -> RationalFunction:
    graph = pair.graph
    label = graph.theta[v]
    edge_ids = [i for i, (a, b, _) in enumerate(graph.edges) if v in (a, b)]
    n_marks = sum(m == v for m in graph.marks_plus) + sum(
        pair.involution.vertices[m] == v for m in graph.marks_plus
    )
    n_special = len(edge_ids) + n_marks
    e_t = euler_tangent(label)
    psis = [_reference_psi_edge_weight(graph, i, v) for i in edge_ids]
    if graph.genus[v] == 0 and n_special <= 2:
        out = RationalFunction.const((-1) ** n_marks) * e_t ** (n_special - 1)
        total = RationalFunction.const(0)
        for w in psis:
            out = out / w
            total = total + w
        return out * total ** (3 - n_special - len(edge_ids))
    lambda_args = tuple(ALPHA[label] - ALPHA[j] for j in (1, 2, 3, 4) if j != label)
    denominators = tuple(-w for w in psis) + (None,) * n_marks
    integral = _reference_lambda_product(graph.genus[v], lambda_args, denominators)
    out = RationalFunction.const(-((-1) ** (graph.genus[v] + len(edge_ids))))
    out = out * e_t ** (n_special - 1) * integral
    for w in psis:
        out = out / (-w)
    return out


def _reference_edge_contribution(pair: AdmissiblePair, i: int) -> RationalFunction:
    a, b, deg = pair.graph.edges[i]
    fixed = pair.involution.edges[i] == i
    return _reference_edge_factor(pair.graph.theta[a], pair.graph.theta[b], deg, fixed)


@functools.lru_cache(maxsize=None)
def _reference_edge_factor(t1: int, t2: int, deg: int, fixed: bool) -> RationalFunction:
    # Endpoint labels in edge order, not sorted.
    if fixed:
        assert deg % 2 == 1
        return _fixed_edge_anchored(*((t1, t2) if t1 in (1, 3) else (t2, t1)), deg)
    denom = ((ALPHA[t1] - ALPHA[t2]) / deg) ** (2 * deg - 2)
    for j in (1, 2, 3, 4):
        if j in (t1, t2):
            continue
        for r in range(deg + 1):
            denom = denom * ((ALPHA[t1] * (deg - r) + ALPHA[t2] * r) / deg - ALPHA[j])
    sign = (-1) ** deg
    return RationalFunction.const(Fraction(sign, deg * math.factorial(deg) ** 2)) / denom


@pytest.mark.parametrize(
    "g, d", [(g, d) for d in range(1, 5) for g in range(6)] + [(0, 5)]
)
def test_local_factors_match_per_pair_reference(g, d):
    # Every vertex factor in V+ and every edge factor the class multiplies.
    for pair in enumerate_pairs(g, d):
        vplus, _ = pair.default_halves()
        for v in vplus:
            got = vertex_contribution(*vertex_key(pair, v))
            assert got == _reference_vertex_contribution(pair, v), (pair, v)
        for i in range(len(pair.graph.edges)):
            got = edge_contribution(*edge_key(pair, i))
            assert got == _reference_edge_contribution(pair, i), (pair, i)


def test_factor_caches_hold_one_entry_per_local_key():
    # A fresh interpreter, so the caches start empty and no other test's
    # caches are cleared.
    probe = (
        "from realgw.localization import edge_contribution, gw_real, "
        "vertex_contribution\n"
        "print(gw_real(0, 5), vertex_contribution.cache_info().misses, "
        "edge_contribution.cache_info().misses)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["5", "80", "10"]


def test_balanced_sum_equals_left_to_right_sum():
    values = [v for _, v in pair_contributions(0, 5)]
    total = RationalFunction.const(0)
    for v in values:
        total = total + v
    assert _tree_sum(values) == total == RationalFunction.const(5)
    assert _tree_sum([]) == RationalFunction.const(0)
    assert _tree_sum(values[:1]) == values[0]


def test_weight_dependent_sum_raises(monkeypatch):
    # Scaling the genus-0 degree-1 vertex factor by z makes the sum depend on
    # the weight; the uncached gw_real must notice.
    original = localization.vertex_contribution

    def skewed(*key):
        out = original(*key)
        return out * A3 if key == (1, 0, ((2, 1),), 1) else out

    monkeypatch.setattr(localization, "vertex_contribution", skewed)
    with pytest.raises(ArithmeticError, match="not constant"):
        gw_real.__wrapped__(0, 1)


# -- per-class symbolic values ---------------------------------------------------


def _rf_key(value: RationalFunction):
    return (value.num.coeffs, value.den.coeffs)


def _multiset(values):
    return Counter(_rf_key(v) for v in values)


def test_degree1_assembled_sum_matches_closed_form():
    for g in (0, 2, 4, 6):
        total = RationalFunction.const(0)
        for _, v in pair_contributions(g, 1):
            total = total + v
        expect = RationalFunction.const((-1) ** (g // 2)) * i1(
            g // 2, 2 * A1, A1 - A3, A1 + A3
        )
        assert (total - expect).is_zero(), g


def degree3_expected(g):
    values = []
    for g1 in range(g // 2 + 1):
        g2 = g // 2 - g1
        sign = RationalFunction.const((-1) ** (g // 2))
        values.append(
            sign * i2(g1, A1 - A3, 2 * A1, A1 + A3) * i1(g2, A3 - A1, 2 * A3, A1 + A3)
        )
        values.append(
            sign * i2(g1, A1 + A3, 2 * A1, A1 - A3) * i1(g2, A1 + A3, 2 * A3, A3 - A1)
        )
        values.append(
            sign
            * (2 * A1 / (3 * A3 - A1))
            * i1(g1, A1 - A3, 2 * A1, A1 + A3)
            * i2(g2, A3 - A1, 2 * A3, A1 + A3)
        )
        values.append(
            -sign
            * (2 * A1 / (3 * A3 + A1))
            * i1(g1, A1 + A3, 2 * A1, A1 - A3)
            * i2(g2, A1 + A3, 2 * A3, A3 - A1)
        )
    return values


def test_degree3_per_class_contributions():
    for g in (0, 2, 4):
        got = _multiset(v for _, v in pair_contributions(g, 3))
        assert got == _multiset(degree3_expected(g)), g


def degree4_cycle_expected(g):
    values = []
    for g1 in range((g - 1) // 2 + 1):
        g2 = (g - 1) // 2 - g1
        sign = RationalFunction.const((-1) ** ((g - 1) // 2))
        values.append(
            -sign * i2(g1, A1 - A3, 2 * A1, A1 + A3) * i2(g2, A3 - A1, 2 * A3, A1 + A3)
        )
        values.append(
            -sign * i2(g1, A1 + A3, 2 * A1, A1 - A3) * i2(g2, A1 + A3, 2 * A3, A3 - A1)
        )
        values.append(
            sign * i2(g1, A1 - A3, A1 + A3, 2 * A1) * i2(g2, A3 - A1, A1 + A3, 2 * A3)
        )
    return values


def _is_loop_class(pair: AdmissiblePair) -> bool:
    ends = Counter((a, b) for a, b, _ in pair.graph.edges)
    return max(ends.values()) == 2


def test_degree4_cycle_classes_and_loop_cancellation():
    for g in (1, 3, 5):
        loops = []
        cycles = []
        for pair, value in pair_contributions(g, 4):
            (loops if _is_loop_class(pair) else cycles).append(value)
        splittings = (g - 1) // 2 + 1
        assert len(loops) == 8 * splittings
        total = RationalFunction.const(0)
        for v in loops:
            total = total + v
        assert total.is_zero(), g
        assert _multiset(cycles) == _multiset(degree4_cycle_expected(g)), g


# -- assembled invariants ---------------------------------------------------------


def test_table_column_degree1():
    assert gw_real(0, 1) == 1
    assert gw_real(2, 1) == Fraction(1, 24)
    assert gw_real(4, 1) == Fraction(1, 1920)


def test_table_column_degree3():
    assert gw_real(0, 3) == -1
    assert gw_real(2, 3) == Fraction(-5, 24)
    assert gw_real(4, 3) == Fraction(-23, 1152)


def test_table_column_degree4():
    assert gw_real(1, 4) == -1
    assert gw_real(3, 4) == Fraction(-1, 3)
    assert gw_real(5, 4) == Fraction(-19, 360)


def test_degree5_best_effort_matches_bundled_data():
    # Degrees above 4 are outside the guaranteed range, but the enumerator is
    # generic; the rational-curve count through 5 conjugate point pairs is 5.
    assert gw_real(0, 5) == 5


@pytest.mark.parametrize(
    "g, d",
    [
        (0, 5),
        (2, 5),
        (4, 5),
        (1, 6),
        pytest.param(3, 6, marks=pytest.mark.slow),
        pytest.param(5, 6, marks=pytest.mark.slow),
    ],
)
def test_localization_regenerates_bundled_real_table(g, d):
    # The real GW values of degree 5 and up ship as data; localization
    # re-derives them exactly.
    assert gw_real(g, d) == bundled_table(2, "GW").entries[(g, d)]


def test_parity_vanishing_with_verification():
    for g, d in ((1, 1), (0, 2), (1, 3), (0, 4), (2, 4)):
        assert gw_real(g, d) == 0
        assert _tree_sum([v for _, v in pair_contributions(g, d)]).is_zero()


def test_weight_independence_two_point_evaluation():
    for g, d in ((2, 1), (0, 3), (2, 3), (1, 4), (3, 4)):
        total = RationalFunction.const(0)
        for _, v in pair_contributions(g, d):
            total = total + v
        assert total.eval_at(Fraction(2, 5)) == total.eval_at(Fraction(7, 3))
        assert total.eval_at(Fraction(2, 5)) == gw_real(g, d)


def test_half_choice_independence_everywhere():
    cases = [(0, 1), (2, 1), (0, 3), (2, 3), (1, 4), (3, 4)]
    for g, d in cases:
        for pair in enumerate_pairs(g, d):
            reference = pair_contribution(pair)
            for halves in pair.all_halves():
                alt = pair_contribution(pair, halves)
                assert (alt - reference).is_zero(), (g, d, halves)


def test_gw_real_argument_validation():
    with pytest.raises(ValueError):
        gw_real(0, 0)
    # d - g even for g = -1, odd for g = -2: both are rejected, not 0.
    with pytest.raises(ValueError):
        gw_real(-1, 1)
    with pytest.raises(ValueError):
        gw_real(-2, 1)
    with pytest.raises(ValueError):
        enumerate_pairs(-1, 2)
