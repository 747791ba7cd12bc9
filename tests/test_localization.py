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
from realgw.exact_arith import Factored, RationalFunction, factored_sum
from realgw.gw_convert import InvariantTable, bundled_table, e_from_gw
from realgw.hodge import _compositions, i1, i2, lambda_product_integral
from realgw.localization import (
    ALPHA,
    AdmissiblePair,
    DecoratedGraph,
    GraphInvolution,
    automorphism_order,
    bracket,
    class_total,
    edge_contribution,
    edge_key,
    enumerate_pairs,
    gw_real,
    isomorphic,
    pair_contribution,
    pair_contributions,
    psi_edge_weight,
    string_factor,
    vertex_contribution,
    vertex_key,
    _canonical_form,
    _class_value,
    _fixed_edge_contribution,
    _free_edge_contribution,
    _invariant_edges,
    _reached,
    _sigma_orbits,
    _theta_tuples,
    _unmarked_classes,
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
        assert len(p.involution.fixed_edges()) == 1


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
    _unmarked_classes.cache_clear()
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
    # Every bijection that keeps the labels: each label group of p onto the
    # same label group of q in every order.
    gp, gq = p.graph, q.graph
    nv = gp.num_vertices
    if sorted(gp.theta) != sorted(gq.theta):
        return
    sources = [[v for v in range(nv) if gp.theta[v] == t] for t in (1, 2, 3, 4)]
    targets = [[w for w in range(nv) if gq.theta[w] == t] for t in (1, 2, 3, 4)]
    for images in itertools.product(*(itertools.permutations(t) for t in targets)):
        perm = [0] * nv
        for source, image in zip(sources, images):
            for v, w in zip(source, image):
                perm[v] = w
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


# Reference candidate generator: every edge multiset, every vertex involution
# and every edge involution.  Redundant but simple, so it checks the
# sigma-orbit generator inside enumerate_pairs.


def _is_connected(nv: int, edges) -> bool:
    if nv == 0:
        return False
    seen = {0}
    frontier = [0]
    adj: dict[int, set[int]] = {v: set() for v in range(nv)}
    for a, b, _ in edges:
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == nv


def _edge_multisets(theta: tuple[int, ...], total_degree: int):
    """Non-decreasing tuples of (v, w, degree) edges with the given total."""
    nv = len(theta)
    items = [
        (v, w, deg)
        for v in range(nv)
        for w in range(v + 1, nv)
        if theta[v] != theta[w]
        for deg in range(1, total_degree + 1)
    ]

    def extend(start: int, remaining: int, acc: list):
        if remaining == 0:
            if len(acc) >= nv - 1:
                yield tuple(acc)
            return
        for idx in range(start, len(items)):
            deg = items[idx][2]
            if deg > remaining:
                continue
            acc.append(items[idx])
            yield from extend(idx, remaining - deg, acc)
            acc.pop()

    yield from extend(0, total_degree, [])


def _vertex_involutions(theta: tuple[int, ...]):
    """Every fixed-point-free involution matching theta with tau4: the pairs
    of bijections group 1 -> group 2 and group 3 -> group 4."""
    nv = len(theta)
    group: dict[int, list[int]] = {t: [] for t in (1, 2, 3, 4)}
    for v, t in enumerate(theta):
        group[t].append(v)
    if len(group[1]) != len(group[2]) or len(group[3]) != len(group[4]):
        return
    for m12 in itertools.permutations(group[2]):
        for m34 in itertools.permutations(group[4]):
            sigma = [0] * nv
            for a, b in zip(group[1], m12):
                sigma[a], sigma[b] = b, a
            for a, b in zip(group[3], m34):
                sigma[a], sigma[b] = b, a
            yield tuple(sigma)


def _edge_involutions(graph_edges, sigma_v: tuple[int, ...]):
    """Every involution of the edge index set compatible with the vertex map
    whose fixed edges have odd degree."""
    ne = len(graph_edges)

    def image_matches(i: int, j: int) -> bool:
        a, b, deg = graph_edges[i]
        c, d, deg2 = graph_edges[j]
        return deg == deg2 and {sigma_v[a], sigma_v[b]} == {c, d}

    mapping = [-1] * ne

    def backtrack(i: int):
        if i == ne:
            yield tuple(mapping)
            return
        if mapping[i] != -1:
            yield from backtrack(i + 1)
            return
        for j in range(ne):
            if not image_matches(i, j):
                continue
            if j == i:
                if graph_edges[i][2] % 2 == 0:
                    continue
                mapping[i] = i
                yield from backtrack(i + 1)
                mapping[i] = -1
            elif mapping[j] == -1 and image_matches(j, i):
                mapping[i], mapping[j] = j, i
                yield from backtrack(i + 1)
                mapping[i] = mapping[j] = -1

    yield from backtrack(0)


def _reference_candidates(g: int, d: int):
    """Every contributing admissible pair the reference generator lists,
    with aut_order 0; each class appears many times."""
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
                                yield AdmissiblePair(
                                    DecoratedGraph(theta, tuple(genus), edges, marks),
                                    GraphInvolution(sigma_v, sigma_e),
                                    0,
                                )


def _reference_enumerate_pairs(g: int, d: int) -> tuple[AdmissiblePair, ...]:
    """The reference candidates, deduplicated by pairwise isomorphism
    tests within buckets of a cheap invariant."""
    found: list[AdmissiblePair] = []
    keys: dict[tuple, list[int]] = {}
    for pair in _reference_candidates(g, d):
        bucket = keys.setdefault(_reference_key(pair), [])
        if any(next(_reference_isomorphisms(pair, found[k]), None) for k in bucket):
            continue
        bucket.append(len(found))
        found.append(
            AdmissiblePair(pair.graph, pair.involution, _reference_aut_order(pair))
        )
    return tuple(found)


def _reference_invariant_edges(orbits, total_degree: int):
    """Every sigma-invariant edge multiset of the given total degree, with
    one admissible edge involution per isomorphism type: a degree multiset
    per orbit, connected or not, with no bound on the edge count."""
    items = [
        (pair, image, deg, deg if pair == image and deg % 2 else 2 * deg)
        for pair, image in orbits
        for deg in range(1, total_degree + 1)
    ]

    def extend(start: int, remaining: int, acc: list):
        if remaining == 0:
            yield acc
            return
        for idx in range(start, len(items)):
            if items[idx][3] <= remaining:
                acc.append(idx)
                yield from extend(idx, remaining - items[idx][3], acc)
                acc.pop()

    for chosen in extend(0, total_degree, []):
        edges: list[tuple[int, int, int]] = []
        base: list[int] = []
        blocks = []
        for idx, m in Counter(chosen).items():
            pair, image, deg, _ = items[idx]
            start = len(edges)
            if pair == image:
                n = m if deg % 2 else 2 * m
                edges += [(*pair, deg)] * n
                base += range(start, start + n)
                blocks.append((start, n, range(n, -1, -2) if deg % 2 else (0,)))
            else:
                edges += [(*pair, deg)] * m + [(*image, deg)] * m
                base += [*range(start + m, start + 2 * m), *range(start, start + m)]
        involutions = []
        for counts in itertools.product(*(fixed for _, _, fixed in blocks)):
            sigma_e = list(base)
            for (start, n, _), f in zip(blocks, counts):
                for i in range(start + f, start + n, 2):
                    sigma_e[i], sigma_e[i + 1] = i + 1, i
            involutions.append(tuple(sigma_e))
        yield tuple(edges), involutions


@pytest.mark.parametrize("d", range(1, 7))
def test_invariant_edges_match_filtered_reference(d):
    # The pruned generator yields exactly the reference's connected edge
    # multisets with first Betti number at most g, with the same
    # involutions, for every label tuple.
    for nv in range(2, d + 2, 2):
        for theta in _theta_tuples(nv):
            _, orbits = _sigma_orbits(theta)
            reference = [
                (edges, tuple(involutions))
                for edges, involutions in _reference_invariant_edges(orbits, d)
                if _is_connected(nv, edges)
            ]
            for g in range(5):
                expect = Counter(item for item in reference if len(item[0]) - nv + 1 <= g)
                got = Counter(
                    (edges, tuple(involutions))
                    for edges, involutions in _invariant_edges(nv, orbits, d, g)
                )
                assert got == expect, (theta, g)


@pytest.mark.parametrize(
    "g, d",
    [(g, d) for d in range(1, 5) for g in range(6)]
    + [(0, 5), pytest.param(2, 5, marks=pytest.mark.slow)],
)
def test_enumeration_matches_pairwise_reference(g, d):
    # A bijection between the classes and the reference classes: each class
    # is isomorphic to exactly one reference class, with the same |Aut|, and
    # no two classes share one.
    got = enumerate_pairs(g, d)
    reference = _reference_enumerate_pairs(g, d)
    assert len(got) == len(reference)
    matched = set()
    for pair in got:
        key = _reference_key(pair)
        hits = [
            k
            for k, ref in enumerate(reference)
            if _reference_key(ref) == key and next(_reference_isomorphisms(pair, ref), None)
        ]
        assert len(hits) == 1, pair
        assert reference[hits[0]].aut_order == pair.aut_order, pair
        matched.add(hits[0])
    assert len(matched) == len(got)


@pytest.mark.parametrize("g, d", [(4, 5), (1, 6)])
def test_enumeration_matches_reference_canonical_forms(g, d):
    # The reference generator, deduplicated by the same canonical form, gives
    # the same set of (canonical form, |Aut|).
    reference = {
        _canonical_form(p.graph, p.involution)[:2] for p in _reference_candidates(g, d)
    }
    pairs = enumerate_pairs(g, d)
    got = {(_canonical_form(p.graph, p.involution)[0], p.aut_order) for p in pairs}
    assert len(got) == len(pairs)
    assert got == reference


@pytest.mark.parametrize(
    "g, d", [(g, d) for d in range(1, 5) for g in range(6)] + [(0, 5)]
)
def test_marked_classes_expand_unmarked_orbits(g, d):
    # Orbit-stabilizer per unmarked class U: the marked classes expanded from
    # U have 1/|Aut| summing to (number of placements) / |Aut U|, and no two
    # of them, over all U, share a canonical form.
    expanded: dict[tuple, list[AdmissiblePair]] = {}
    for p in enumerate_pairs(g, d):
        key = (p.graph.theta, p.graph.genus, p.graph.edges, p.involution)
        expanded.setdefault(key, []).append(p)
        assert p.aut_order == automorphism_order(p), p
    loci = _unmarked_classes(g, d)
    assert len(expanded) == len(loci)
    for locus, group in loci:
        graph = locus.graph
        assert graph.marks_plus == ()
        assert locus.aut_order == automorphism_order(locus)
        assert len(group) == len(set(group))
        marked = expanded[(graph.theta, graph.genus, graph.edges, locus.involution)]
        placements = graph.theta.count(1) ** ((d + 1) // 2) * graph.theta.count(3) ** (
            d // 2
        )
        got = sum(Fraction(1, p.aut_order) for p in marked)
        assert got == Fraction(placements, locus.aut_order), locus
    forms = [_canonical_form(p.graph, p.involution)[0] for p in enumerate_pairs(g, d)]
    assert len(set(forms)) == len(forms)


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


def test_refined_canonical_form_stable_under_relabeling():
    # The refined cells are taken by every relabeling: a relabeled class has
    # the same canonical form, and its |Aut| is the brute-force count and
    # the order the genus-split orbits gave the class.  Every (0,7) class and
    # a seeded sample of the (4,7) ones, whose loops, parallel edges and
    # genus splits the (0,7) trees lack.
    rng = random.Random(59)
    loci = [p for p, _ in _unmarked_classes(0, 7)]
    loci += rng.sample([p for p, _ in _unmarked_classes(4, 7)], 500)
    for p in loci:
        relabeled, _, _ = _relabel(p, rng)
        form, aut, _ = _canonical_form(relabeled.graph, relabeled.involution)
        assert form == _canonical_form(p.graph, p.involution)[0], p
        assert aut == p.aut_order == _reference_aut_order(relabeled), p


@pytest.mark.parametrize(
    "g, d, count",
    [
        (0, 7, 242),
        (4, 7, 2810),
        pytest.param(5, 8, 9552, marks=pytest.mark.slow),
        pytest.param(0, 9, 1724, marks=pytest.mark.slow),
        pytest.param(2, 9, 10420, marks=pytest.mark.slow),
        # A regression pin from this code, not an independent count.
        pytest.param(1, 10, 7542, marks=pytest.mark.slow),
    ],
)
def test_frontier_unmarked_class_counts(g, d, count):
    assert len(_unmarked_classes(g, d)) == count


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
    def weight(*args):
        return psi_edge_weight(*args).rational_function()

    assert weight(1, 2, 1) == A2 - A1  # equals -2
    assert (weight(1, 2, 1) - RationalFunction.const(-2)).is_zero()
    assert (weight(1, 3, 1) - (A3 - A1)).is_zero()
    assert (weight(1, 2, 3) - RationalFunction.const(Fraction(-2, 3))).is_zero()


def _marked_vertex_factor(label, genus, ends, n_marks) -> Factored:
    """The mark-free vertex factor times the string factor of n_marks plain
    marks, the split the class values use."""
    value = vertex_contribution(label, genus, ends)
    return value * string_factor(label, _reached(ends), n_marks)


def _marked_pair_vertex_factor(pair: AdmissiblePair, v: int) -> Factored:
    n_marks = pair.graph.markings_at(v, pair.involution.vertices)
    return _marked_vertex_factor(*vertex_key(pair, v), n_marks)


def test_degree1_vertex_contributions():
    p0 = degree1_pair(0)
    assert vertex_key(p0, 0) == (1, 0, ((2, 1),))
    expect0 = A1 * A1 - A3 * A3
    assert _marked_pair_vertex_factor(p0, 0).rational_function() == expect0
    for gp in (1, 2):
        p = degree1_pair(gp)
        expect = (
            RationalFunction.const((-1) ** gp)
            * (A1**2 - A3**2)
            * i1(gp, 2 * A1, A1 - A3, A1 + A3)
        )
        assert _marked_pair_vertex_factor(p, 0).rational_function() == expect


def test_fixed_edge_contribution_value():
    p = degree1_pair(0)
    assert edge_key(p, 0) == (1, 2, 1, True)
    assert edge_contribution(*edge_key(p, 0)).rational_function() == 1 / (A1**2 - A3**2)


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
            value = _fixed_edge_contribution(*theta, deg).rational_function()
            for anchor, other in (theta, theta[::-1]):
                expect = _fixed_edge_anchored(anchor, other, deg)
                assert value == expect, (deg, theta, anchor)


def test_free_edge_contributions():
    def free(*args):
        return _free_edge_contribution(*args).rational_function()

    # endpoints with labels 1,3: -1 / (4 a1 a3 (a1+a3)^2)
    expect13 = RationalFunction.const(-1) / (4 * A1 * A3 * (A1 + A3) ** 2)
    assert free(1, 3, 1) == expect13
    # endpoints with labels 1,4: +1 / (4 a1 a3 (a1-a3)^2)
    expect14 = RationalFunction.const(1) / (4 * A1 * A3 * (A1 - A3) ** 2)
    assert free(1, 4, 1) == expect14
    # endpoint order does not matter
    assert free(3, 1, 1) == free(1, 3, 1)


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


def _reference_vertex_factor(label: int, genus: int, ends, n_marks: int) -> RationalFunction:
    """The vertex factor from (other label, degree) per incident edge, in
    the given order, by the general route: a weight product for an unstable
    vertex and a Lambda-product integral otherwise, genus 0 included."""
    n_special = len(ends) + n_marks
    e_t = RationalFunction.const(1)
    for j in (1, 2, 3, 4):
        if j != label:
            e_t = e_t * (ALPHA[label] - ALPHA[j])
    psis = [(ALPHA[other] - ALPHA[label]) / deg for other, deg in ends]
    if genus == 0 and n_special <= 2:
        out = RationalFunction.const((-1) ** n_marks) * e_t ** (n_special - 1)
        total = RationalFunction.const(0)
        for w in psis:
            out = out / w
            total = total + w
        return out * total ** (3 - n_special - len(ends))
    lambda_args = tuple(ALPHA[label] - ALPHA[j] for j in (1, 2, 3, 4) if j != label)
    denominators = tuple(-w for w in psis) + (None,) * n_marks
    integral = _reference_lambda_product(genus, lambda_args, denominators)
    out = RationalFunction.const(-((-1) ** (genus + len(ends))))
    out = out * e_t ** (n_special - 1) * integral
    for w in psis:
        out = out / (-w)
    return out


def _reference_vertex_contribution(pair: AdmissiblePair, v: int) -> RationalFunction:
    graph = pair.graph
    ends = [(graph.theta[a + b - v], deg) for a, b, deg in graph.edges if v in (a, b)]
    n_marks = sum(m == v for m in graph.marks_plus) + sum(
        pair.involution.vertices[m] == v for m in graph.marks_plus
    )
    return _reference_vertex_factor(graph.theta[v], graph.genus[v], ends, n_marks)


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
    # Every vertex factor in V+, the mark-free factor times the string
    # factor of the vertex's marks, against the reference with the marks as
    # plain points, and every edge factor the class multiplies.
    for pair in enumerate_pairs(g, d):
        vplus, _ = pair.default_halves()
        for v in vplus:
            got = _marked_pair_vertex_factor(pair, v).rational_function()
            assert got == _reference_vertex_contribution(pair, v), (pair, v)
        for i in range(len(pair.graph.edges)):
            got = edge_contribution(*edge_key(pair, i)).rational_function()
            assert got == _reference_edge_contribution(pair, i), (pair, i)


def _genus0_keys_met(max_degree: int):
    """(label, 0, ends, n) for the genus-0 V+ vertex keys of every
    contributing class of degree at most max_degree and genus at most 5, n
    every mark count up to the plus points of the vertex's label."""
    keys = set()
    for d in range(1, max_degree + 1):
        for g in range(d % 2 == 0, 6, 2):
            for locus, _ in _unmarked_classes(g, d):
                vplus, _ = locus.default_halves()
                for v in vplus:
                    label, genus, ends = vertex_key(locus, v)
                    if genus == 0:
                        k = (d + 1) // 2 if label == 1 else d // 2
                        keys.update((label, 0, ends, n) for n in range(k + 1))
    return keys


def test_genus0_vertex_factor_matches_lambda_route():
    # The closed genus-0 factor times the string factor of n marks equals
    # the general route with n plain points on every genus-0 (label, genus,
    # ends, n) met up to degree 6 (a Lambda-product integral for the stable
    # ones) and on every unstable one with edge degrees at most 3 (a weight
    # product): one edge with 0 or 1 marks, or two edges and no mark.
    ends = [(other, deg) for other in (1, 2, 3, 4) for deg in (1, 2, 3)]
    unstable = set()
    for label in (1, 2, 3, 4):
        mine = [end for end in ends if end[0] != label]
        unstable.update((label, 0, (end,), n) for end in mine for n in (0, 1))
        unstable.update(
            (label, 0, pair, 0) for pair in itertools.combinations_with_replacement(mine, 2)
        )
    assert len(unstable) == 252
    met = _genus0_keys_met(6)
    assert len(met - unstable) > 100
    for key in unstable | met:
        got = _marked_vertex_factor(*key).rational_function()
        assert got == _reference_vertex_factor(*key), key


def test_factor_caches_hold_one_entry_per_local_key():
    # Cache misses of a cold gw_real(0, 5): vertex, edge and string factors.
    # Mark-free vertex keys took the vertex misses from 80.
    probe = (
        "from realgw.localization import edge_contribution, gw_real, "
        "string_factor, vertex_contribution\n"
        "print(gw_real(0, 5), vertex_contribution.cache_info().misses, "
        "edge_contribution.cache_info().misses, string_factor.cache_info().misses)\n"
    )
    done = _run_fresh(probe)
    assert done.stdout.split() == ["5", "40", "10", "68"]


def _run_fresh(probe: str) -> subprocess.CompletedProcess:
    """Run probe in a fresh interpreter, so every cache starts empty and no
    other test's caches are cleared."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


def _cold_call_count(target: str, call: str) -> int:
    """Calls of target, a ``module.function`` binding such as
    ``hodge.hodge_integral``, made by the statement call in a fresh
    interpreter, recursive calls through that binding included."""
    probe = (
        "import contextlib, io\n"
        "from realgw import cli, exact_arith, gw_convert, hodge, localization, "
        "psi_kappa, series_ids\n"
        "calls = 0\n"
        f"wrapped = {target}\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return wrapped(*args)\n"
        f"{target} = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call}\n"
        "print(calls)\n"
    )
    return int(_run_fresh(probe).stdout)


def test_cold_enumeration_canonical_form_calls():
    # Candidates sent to _canonical_form by a cold enumerate_pairs, counted in
    # a fresh interpreter, with the marked and unmarked class counts.  The
    # reference generator sends 584 and 1,778 marked candidates; canonicalizing
    # each mark placement sent 296, 902 and 60,204 at (0,5), (2,5) and (0,7),
    # and each genus split of an unmarked candidate 56, 182 and 844.  Only the
    # genus-free candidates are sent now; their genus splits are taken as
    # orbits of the vertex group.
    probe = (
        "from realgw import localization\n"
        "calls = 0\n"
        "canonical_form = localization._canonical_form\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return canonical_form(*args)\n"
        "localization._canonical_form = counted\n"
        "for g, d in ((0, 5), (2, 5), (0, 7)):\n"
        "    calls = 0\n"
        "    marked = len(localization.enumerate_pairs(g, d))\n"
        "    print(marked, len(localization._unmarked_classes(g, d)), calls)\n"
    )
    done = _run_fresh(probe)
    marked, unmarked, calls = zip(
        *(map(int, line.split()) for line in done.stdout.splitlines())
    )
    assert marked == (152, 470, 13704)
    assert unmarked == (34, 112, 242)
    assert calls[0] <= 56 and calls[1] <= 78 and calls[2] <= 844


def _cold_enumeration_yields(target: str) -> tuple[int, ...]:
    """Items yielded by the generator ``localization.<target>`` during a
    cold _unmarked_classes at (0,5), (2,5) and (0,7), in a fresh
    interpreter."""
    probe = (
        "from realgw import localization\n"
        "count = 0\n"
        f"generator = localization.{target}\n"
        "def counted(*args):\n"
        "    global count\n"
        "    for item in generator(*args):\n"
        "        count += 1\n"
        "        yield item\n"
        f"localization.{target} = counted\n"
        "for g, d in ((0, 5), (2, 5), (0, 7)):\n"
        "    count = 0\n"
        "    localization._unmarked_classes(g, d)\n"
        "    print(count)\n"
    )
    return tuple(map(int, _run_fresh(probe).stdout.split()))


def test_cold_enumeration_edge_multisets():
    # Edge multisets _invariant_edges yields to a cold enumeration.  Building
    # every sigma-invariant multiset and dropping the disconnected ones and
    # those of too large a Betti number afterwards yielded 392, 392 and
    # 13,948; the edge-count and component bounds inside the generator yield
    # only the connected ones with b1 <= g.
    (c05, c25, c07) = _cold_enumeration_yields("_invariant_edges")
    assert 0 < c05 <= 56 and 0 < c25 <= 70 and 0 < c07 <= 844


def test_cold_enumeration_relabelings():
    # Vertex orders _canonical_form tries in a cold enumeration.  Permuting
    # whole (label, genus) cells of every genus split tried 200, 326 and
    # 19,596; the refined cells of the genus-free candidates try 68, 90 and
    # 1,224.
    (c05, c25, c07) = _cold_enumeration_yields("_relabelings")
    assert 0 < c05 <= 68 and 0 < c25 <= 90 and 0 < c07 <= 1224


def _cold_memo_sizes(argv: list[str]) -> tuple[int, int, int, int]:
    """Entries of the ch, kappa and psi memos after a cold CLI run, and the
    calls hodge makes into ``_kappa_value``, counted in a fresh
    interpreter."""
    probe = (
        "import contextlib, io\n"
        "from realgw import cli, hodge, psi_kappa\n"
        "calls = 0\n"
        "kappa_value = hodge._kappa_value\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return kappa_value(*args)\n"
        "hodge._kappa_value = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({argv!r})\n"
        "print(len(hodge._ch_memo), len(psi_kappa._kappa_memo), "
        "len(psi_kappa._psi_memo), calls)\n"
    )
    return tuple(map(int, _run_fresh(probe).stdout.split()))


def test_cold_degree1_column_memo_sizes():
    # Memo entries left by a cold `realgw enum --degree 1 --max-genus 8`.
    # Removing psi^0 points by the string equation in hodge_integral took
    # them from 1,791, 2,003 and 903; the dilaton step and the string and
    # dilaton steps on kappa-free ch keys from 879, 997 and 495; pushing
    # each GRR kappa term into a marked point from 657, 673 and 326, and
    # hodge's calls into _kappa_value from 7,921; the dilaton step before
    # the psi memo read took psi from 136.  The bench's psi_kappa layer
    # wraps those calls, so there must be some.
    ch, kappa, psi, calls = _cold_memo_sizes(
        ["enum", "--degree", "1", "--max-genus", "8"]
    )
    assert ch <= 217 and kappa == 0 and psi <= 98
    assert 0 < calls <= 558


def test_cold_verify_order6_memo_sizes():
    # Memo entries left by a cold `realgw verify --suite all --order 6`.
    # The dilaton step and the string and dilaton steps on kappa-free ch
    # keys took them from 261, 252 and 166; pushing each GRR kappa term into
    # a marked point from 132, 114 and 75, and hodge's calls into
    # _kappa_value from 881; the dilaton step before the psi memo read took
    # psi from 43.
    ch, kappa, psi, calls = _cold_memo_sizes(
        ["verify", "--suite", "all", "--order", "6"]
    )
    assert ch <= 51 and kappa == 0 and psi <= 31
    assert 0 < calls <= 128


def test_memo_values_are_reduced_integer_pairs():
    # After a cold `realgw enum --degree 1 --max-genus 10` the kappa memo is
    # still empty, and every memo value of the Hodge and psi-kappa layers is
    # a reduced pair of ints with a positive denominator, and zero is stored
    # as (0, 1).  No key of the psi, ch or Hodge memo keeps a psi^1 point
    # that the dilaton equation removes: each is read after the dilaton step.
    probe = (
        "import contextlib, io, math\n"
        "from realgw import cli, hodge, psi_kappa\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['enum', '--degree', '1', '--max-genus', '10'])\n"
        "memos = (hodge._hodge_memo, hodge._ch_memo, psi_kappa._kappa_memo, "
        "psi_kappa._psi_memo)\n"
        "values = [v for memo in memos for v in memo.values()]\n"
        "bad = [v for v in values if not (\n"
        "    type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)\n"
        "    and v[1] > 0 and math.gcd(*v) == 1)]\n"
        "zeros = [v for v in values if not v[0]]\n"
        "dilatable = [key for memo in (psi_kappa._psi_memo, hodge._ch_memo, "
        "hodge._hodge_memo) for key in memo\n"
        "    if psi_kappa._dilaton(*key[:2])[1] != key[1]]\n"
        "print(len(values), len(psi_kappa._kappa_memo), len(dilatable), bad, "
        "len(zeros), set(zeros) <= {(0, 1)})\n"
    )
    out = _run_fresh(probe).stdout.split(maxsplit=5)
    count, kappa, dilatable, bad, zeros, zeros_ok = out
    assert int(count) > 1000 and int(kappa) == 0 and bad == "[]"
    assert dilatable == "0"
    assert int(zeros) > 0 and zeros_ok == "True\n"


@pytest.mark.parametrize(
    "call, low, high",
    [
        ("cli.main(['gw', '--genus', '4', '--degree', '3'])", 1, 10),
        ("cli.main(['verify', '--suite', 'all', '--order', '6'])", 1, 90),
        ("localization.gw_real(0, 5)", 0, 0),
    ],
    ids=["gw-4-3", "verify-order6", "gw-real-0-5"],
)
def test_cold_run_normalization_count(call, low, high):
    # poly_gcd calls (one per RationalFunction normalization) of a cold run,
    # counted in a fresh interpreter.  Storing const, z and negation without
    # a gcd took the first two from 785 and 957; summing the localization
    # classes over factored denominators took gw-4-3 from 457 and gw_real(0,5)
    # from 2,479.  Skipping the gcd for a constant side, for sums with a
    # constant denominator, for products with a constant member in each
    # cross pair and for powers took the three from 22, 695 and 62.  The
    # closed genus-0 vertex factor, with no Lambda integral to normalize,
    # took gw-4-3 from 18 and gw_real(0,5), whose vertices all have genus 0,
    # from 31 to none.  Reading the identity suite's two-partition series
    # off three base series by exact images, and forming each symmetric
    # product once, took verify-order6 from 216.  Mark-free vertex keys,
    # with fewer Lambda integrals to normalize, took gw-4-3 from 16.
    # The bench's deg4-column heavy layer wraps poly_gcd, so the other two
    # runs must make some.
    assert low <= _cold_call_count("exact_arith.poly_gcd", call) <= high


def test_cold_genus0_run_makes_no_lambda_product_calls():
    # Every vertex of a class of gw_real(0, 5) has genus 0 and takes the
    # closed genus-0 factor; the parent made 62 Lambda integrals here,
    # through localization's binding, which a vertex of positive genus still
    # calls (test_unsplittable_vertex_integral_raises).
    call = "localization.gw_real(0, 5)"
    assert _cold_call_count("localization.lambda_product_integral", call) == 0


@pytest.mark.parametrize(
    "call, low, high",
    [
        ("cli.main(['gw', '--genus', '4', '--degree', '3'])", 0, 0),
        ("cli.main(['verify', '--suite', 'all', '--order', '6'])", 1, 703),
        ("localization.gw_real(0, 5)", 0, 0),
    ],
    ids=["gw-4-3", "verify-order6", "gw-real-0-5"],
)
def test_cold_run_polynomial_product_count(call, low, high):
    # Polynomial.__mul__ calls of a cold run, counted in a fresh interpreter.
    # The Lambda integral and the factored class sum multiply their factor
    # powers out by one Kronecker substitution on integers, with no power
    # table of polynomials: that took the first two from 84 and 1,298.  The
    # identity suite's base series and images took verify-order6 from
    # 1,187.  One term per unmarked class, with no count-vector terms whose
    # polynomial parts multiply, took gw-4-3 from 6 and gw-real-0-5 from 10.
    assert low <= _cold_call_count("exact_arith.Polynomial.__mul__", call) <= high


def test_cold_genus0_run_linear_combinations():
    # linear_combination calls of a cold gw_real(0, 5) through both
    # bindings, localization's (the weights) and exact_arith's, counted in a
    # fresh interpreter.  Building each weight once per argument tuple, and
    # streaming the factored sum into integer groups, took them from 359.
    probe = (
        "from realgw import exact_arith, localization\n"
        "calls = 0\n"
        "def counting(f):\n"
        "    def counted(*args):\n"
        "        global calls\n"
        "        calls += 1\n"
        "        return f(*args)\n"
        "    return counted\n"
        "localization.linear_combination = counting(localization.linear_combination)\n"
        "exact_arith.linear_combination = counting(exact_arith.linear_combination)\n"
        "print(localization.gw_real(0, 5), calls)\n"
    )
    value, calls = _run_fresh(probe).stdout.split()
    assert value == "5"
    assert 0 < int(calls) <= 42


def test_cold_verify_order6_lambda_product_calls():
    # lambda_product_integral calls of a cold `realgw verify --suite all
    # --order 6`, through hodge's binding.  One I2 cache entry per unordered
    # pair (u1, u2) took them from 75; computing only the base series f, h,
    # k and the F1 check's series, and reading the seven other symbolic
    # series off them as exact images, from 63.  The bench's verify-order6
    # heavy layer wraps this function, so there must be some.
    call = "cli.main(['verify', '--suite', 'all', '--order', '6'])"
    assert 0 < _cold_call_count("hodge.lambda_product_integral", call) <= 42


def test_cold_degree1_column_psi_value_calls():
    # _psi_value calls of a cold `realgw enum --degree 1 --max-genus 8`,
    # recursive ones included.  Reading the genus of the separating DVV split
    # off the dimension, instead of trying every genus, took them from 4,621;
    # the dilaton step before the memo read, in place of a recursive call,
    # from 1,487.
    call = "cli.main(['enum', '--degree', '1', '--max-genus', '8'])"
    assert 0 < _cold_call_count("psi_kappa._psi_value", call) <= 1453


def test_cold_run_polynomial_products():
    # Polynomial.__mul__ calls of a cold gw_real(4, 5), counted in a fresh
    # interpreter.  Assembling the Lambda-product integrals over shared bases
    # with one process-wide power table took them from 25,926; the closed
    # genus-0 vertex factor, built on integer coefficient lists, from 1,486;
    # multiplying the base powers out by Kronecker substitution, from 1,385;
    # one term per unmarked class, from 412.
    probe = (
        "from realgw import exact_arith, localization\n"
        "calls = 0\n"
        "mul = exact_arith.Polynomial.__mul__\n"
        "def counted(a, b):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return mul(a, b)\n"
        "exact_arith.Polynomial.__mul__ = counted\n"
        "print(localization.gw_real(4, 5), calls)\n"
    )
    done = _run_fresh(probe)
    value, calls = done.stdout.split()
    assert value == "43/128"
    assert 0 < int(calls) <= 77


@pytest.mark.parametrize(
    "call, bound",
    [
        ("cli.main(['verify', '--suite', 'all', '--order', '6'])", 12),
        ("cli.main(['enum', '--degree', '1', '--max-genus', '8'])", 7),
        ("gw_convert.e_from_gw(gw_convert.bundled_table(2, 'GW'))", 32),
    ],
    ids=["verify-order6", "enum-1-8", "e-from-gw-real"],
)
def test_cold_run_series_pow_calls(call, bound):
    # series_pow calls of a cold run, through series_ids' binding, counted in
    # a fresh interpreter.  Building each transform kernel once per (h, c1B)
    # as a whole series and reading every coefficient off it took them from
    # 52, 16 and 48: the identity check raises 12 kernels plus four sine
    # kernel powers, and each table transform one kernel per (h, d).
    # Memoizing each power on its kind, exponent and order took verify-order6
    # from 16: the 12 kernels have 9 distinct exponents, and the sine powers
    # 3 (2, 5 and 8, shared by F2 and F2_prod).
    assert 0 < _cold_call_count("series_ids.series_pow", call) <= bound


@pytest.mark.parametrize(
    "call, bound",
    [("cli.main(['verify', '--suite', 'all', '--order', '6'])", 45)],
    ids=["verify-order6"],
)
def test_cold_run_series_constructions(call, bound):
    # Public Series constructions of a cold run, counted in a fresh
    # interpreter.  Storing sums, products, scalings, powers and
    # exponentials through exact_arith._series, with no padding, type check
    # or parity flag, took them from 137.  The 45 left are built from
    # coefficient lists: 14 sinc kernels, 10 alpha series, 14 partition
    # series, 6 images of the base series and one Series.one.
    assert 0 < _cold_call_count("exact_arith.Series.__init__", call) <= bound


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["gw", "--genus", "4", "--degree", "3"], 53),
        (["verify", "--suite", "all", "--order", "6"], 182),
    ],
    ids=["gw-4-3", "verify-order6"],
)
def test_cold_run_hodge_integral_calls(argv, bound):
    # hodge_integral calls of a cold CLI run, recursive ones included,
    # counted in a fresh interpreter.  Looking the Lambda-product values up
    # once per shape and lambda multiset took them from 809 and 5,146; the
    # dilaton step, which does not recurse, from 227 and 185; mark-free
    # vertex keys, so one Lambda integral per vertex whatever its marks,
    # took gw-4-3 from 192.
    assert 0 < _cold_call_count("hodge.hodge_integral", f"cli.main({argv!r})") <= bound


@pytest.mark.parametrize(
    "g, d",
    [(g, d) for d in range(1, 5) for g in range(6)]
    + [(0, 5)]
    + [pytest.param(g, 5, marks=pytest.mark.slow) for g in (2, 4)]
    + [pytest.param(1, 6, marks=pytest.mark.slow)]
    + [pytest.param(0, 7, marks=pytest.mark.slow)],
)
def test_factored_class_sum_equals_left_to_right_sum(g, d):
    # The one-term-per-class total gw_real checks, against the sum of the
    # per-marked-class values, as rational functions before any constant
    # test.  The marked side is the left-to-right rational-function sum in
    # enumeration order; at degree 7 its 13,704 values are summed by
    # factored_sum instead, which keeps the case affordable.
    if d < 7:
        total = RationalFunction.const(0)
        for _, v in pair_contributions(g, d):
            total = total + v
    else:
        total = factored_sum(_class_value(p) for p in enumerate_pairs(g, d))
    assert class_total(g, d) == total
    assert total.is_constant()


def test_weight_dependent_sum_raises(monkeypatch):
    # Scaling the genus-0 degree-1 vertex factor by z makes the sum depend on
    # the weight; the uncached gw_real must notice.
    original = localization.vertex_contribution

    def skewed(*key):
        out = original(*key)
        return out * Factored.weight(A3.num) if key == (1, 0, ((2, 1),)) else out

    monkeypatch.setattr(localization, "vertex_contribution", skewed)
    with pytest.raises(ArithmeticError, match="not constant"):
        gw_real.__wrapped__(0, 1)


def test_unsplittable_vertex_integral_raises(monkeypatch):
    # A Lambda integral whose denominator z^2 + 1 is no product of the
    # vertex's psi forms must raise, not be summed.  The factor caches are
    # cleared first, so the stable genus-1 vertices of (2,1) are recomputed
    # through the patched module binding; a failing factor is never cached.
    vertex_contribution.cache_clear()
    edge_contribution.cache_clear()
    monkeypatch.setattr(
        localization, "lambda_product_integral", lambda *args: 1 / (A3 * A3 + 1)
    )
    with pytest.raises(ArithmeticError, match="does not split"):
        gw_real.__wrapped__(2, 1)


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


@pytest.mark.parametrize(
    "g", [0, 2, 4, 6, 8, 10, 12, 14, pytest.param(16, marks=pytest.mark.slow)]
)
def test_degree1_closed_form(g):
    # A line has E(g, 1) = 0 for g >= 1, so the real GW-invariant is
    # [t^g] sinh(t/2)/(t/2) = 1 / (2^g (g+1)!) for even g.
    assert gw_real(g, 1) == Fraction(1, 2**g * math.factorial(g + 1))


def test_degree5_best_effort_matches_bundled_data():
    # Degrees above 4 are outside the guaranteed range, but the enumerator is
    # generic; the rational-curve count through 5 conjugate point pairs is 5.
    assert gw_real(0, 5) == 5


@pytest.mark.slow
def test_degree9_rational_count_pin():
    # Past the bundled table (d <= 8), so a regression pin from this code,
    # not an independent oracle; gw_real's z-independence check still runs.
    # The number of real rational curves through 9 conjugate point pairs.
    assert gw_real(0, 9) == 1993


@pytest.mark.slow
def test_degree9_genus2_pin():
    # Past the bundled table, so regression pins from this code, not
    # independent oracles.  GW(0,9) = 1993 is pinned above, and the table
    # implies GW(1,9) = 0 by the parity rule (d - g even).
    value = gw_real(2, 9)
    assert value == Fraction(26393, 24)
    gw = InvariantTable("real", "GW", {(0, 9): Fraction(1993), (2, 9): value})
    assert e_from_gw(gw).entries[(2, 9)] == -312


@pytest.mark.slow
def test_degree9_genus4_pin():
    # Past the bundled table, so regression pins from this code, not
    # independent oracles; one term per unmarked class makes the 32,524
    # classes affordable.  GW(0,9) and GW(2,9) are the literals pinned
    # above, and GW(1,9) = GW(3,9) = 0 by the parity rule (d - g even).
    value = gw_real(4, 9)
    assert value == Fraction(-937637, 5760)
    gw = InvariantTable(
        "real",
        "GW",
        {(0, 9): Fraction(1993), (2, 9): Fraction(26393, 24), (4, 9): value},
    )
    assert e_from_gw(gw).entries[(4, 9)] == -404


@pytest.mark.slow
def test_degree10_genus1_pin():
    # Past the bundled table, so regression pins from this code, not
    # independent oracles.  GW(0,10) vanishes by the parity rule (d - g
    # even), so the only lower-genus term of the transform drops out.
    gw = InvariantTable("real", "GW")
    gw.entries[(0, 10)] = Fraction(0)
    gw.entries[(1, 10)] = gw_real(1, 10)
    assert gw.entries[(1, 10)] == -65216
    assert e_from_gw(gw).entries[(1, 10)] == -65216


@pytest.mark.parametrize(
    "g, d",
    [
        (0, 5),
        (2, 5),
        (4, 5),
        (1, 6),
        (0, 7),
        pytest.param(3, 6, marks=pytest.mark.slow),
        pytest.param(5, 6, marks=pytest.mark.slow),
        pytest.param(2, 7, marks=pytest.mark.slow),
        pytest.param(4, 7, marks=pytest.mark.slow),
        pytest.param(1, 8, marks=pytest.mark.slow),
        pytest.param(3, 8, marks=pytest.mark.slow),
        pytest.param(5, 8, marks=pytest.mark.slow),
    ],
)
def test_localization_regenerates_bundled_real_table(g, d):
    # The real GW values of degree 5 and up ship as data; localization
    # re-derives them exactly.
    assert gw_real(g, d) == bundled_table(2, "GW").entries[(g, d)]


def test_parity_vanishing_with_verification():
    for g, d in ((1, 1), (0, 2), (1, 3), (0, 4), (2, 4)):
        assert gw_real(g, d) == 0
        assert class_total(g, d).is_zero()


def test_weight_independence_two_point_evaluation():
    for g, d in ((2, 1), (0, 3), (2, 3), (1, 4), (3, 4)):
        total = RationalFunction.const(0)
        for _, v in pair_contributions(g, d):
            total = total + v
        assert total.eval_at(Fraction(2, 5)) == total.eval_at(Fraction(7, 3))
        assert total.eval_at(Fraction(2, 5)) == gw_real(g, d)


def all_halves(pair: AdmissiblePair):
    """Every choice (V+, E+) of one vertex per sigma-orbit and one edge per
    free sigma-orbit."""
    sigma_v = pair.involution.vertices
    vorbits = [(v, sigma_v[v]) for v in range(len(sigma_v)) if sigma_v[v] > v]
    eorbits = pair.involution.free_edge_orbits()
    for vpick in itertools.product(*vorbits):
        for epick in itertools.product(*eorbits):
            yield tuple(sorted(vpick)), tuple(sorted(epick))


def contribution_with_halves(pair: AdmissiblePair, halves) -> RationalFunction:
    """pair_contribution's product, over the given (V+, E+)."""
    vplus, eplus = halves
    out = Factored.const(Fraction(1, pair.aut_order))
    for v in vplus:
        out = out * _marked_pair_vertex_factor(pair, v)
    for i in pair.involution.fixed_edges() + list(eplus):
        out = out * edge_contribution(*edge_key(pair, i))
    return out.rational_function()


def test_half_choice_independence_everywhere():
    cases = [(0, 1), (2, 1), (0, 3), (2, 3), (1, 4), (3, 4)]
    for g, d in cases:
        for pair in enumerate_pairs(g, d):
            reference = pair_contribution(pair)
            assert contribution_with_halves(pair, pair.default_halves()) == reference
            for halves in all_halves(pair):
                alt = contribution_with_halves(pair, halves)
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
    with pytest.raises(ValueError, match="degree must be positive"):
        enumerate_pairs(0, 0)
