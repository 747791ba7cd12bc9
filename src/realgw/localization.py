"""Torus-equivariant localization for real GW-invariants of the projective
3-space with conjugate pairs of point constraints.

The two-torus acting on P^3 has four fixed points, labeled 1..4, and the
standard real structure swaps them by tau4 = (1 2)(3 4).  A fixed locus of
the induced action on the real map moduli is indexed by a decorated graph
with involution:

* vertices carry a fixed-point label theta(v) in {1..4} and a genus g(v);
* edges carry covering degrees d(e), join distinct labels, and sum to d;
* the marked points 1+, 1-, ..., d+, d- are assigned to vertices;
* the involution sigma swaps conjugate data: theta(sigma(v)) = tau4(theta(v)),
  degrees and genera are preserved, and i+ <-> i-.

A pair is admissible when every sigma-fixed edge has odd degree and
contributing when the i-th plus point sits at label 1 for odd i and label 3
for even i (otherwise the point constraint restricts to zero on the locus).
The invariant is the sum over isomorphism classes of contributing admissible
pairs of

    (1/|Aut|) * prod_(v in V+) Cntr_v * prod_(e in E_R + E+) Cntr_e,

where (V+, E+) pick one vertex per sigma-orbit and one edge per free
sigma-orbit; the value is independent of those choices.  Vertex factors are
closed weight products for unstable vertices and triple-Lambda Hodge
integrals otherwise; edge factors are the standard weight products of the
degree-d(e) covers.  Everything is evaluated in exact rational functions of
the dehomogenized weight z (weights 1, -1, z, -z at the four fixed points);
the assembled sum must be constant in z, which is asserted.

Enumeration is exhaustive over the tiny graphs involved (vertex and edge
counts are bounded by the degree), with isomorphism classes and automorphism
orders computed by backtracking over label-, genus-, degree-, and
marking-preserving bijections that commute with the involutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_arith import Rational, RationalFunction
from .hodge import _compositions, lambda_product_integral

TAU4 = {1: 2, 2: 1, 3: 4, 4: 3}

#: Equivariant weights at the four fixed points: alpha_1 = -alpha_2 = 1,
#: alpha_3 = -alpha_4 = z.
ALPHA = {
    1: RationalFunction.const(1),
    2: RationalFunction.const(-1),
    3: RationalFunction.z(),
    4: -RationalFunction.z(),
}


def bracket(i: int) -> int:
    """Required label of the i-th plus point: 1 for odd i, 3 for even i."""
    return 1 if i % 2 else 3


@dataclass(frozen=True)
class DecoratedGraph:
    """Labeled decorated graph underlying one fixed locus.

    Edges are (v, w, degree) with v < w; parallel edges repeat in the tuple
    and are distinguished by position.  ``marks_plus[i-1]`` is the vertex
    carrying the point i+; the conjugate point i- sits at its sigma image.
    """

    theta: tuple[int, ...]
    genus: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    marks_plus: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.theta)

    @property
    def degree(self) -> int:
        return sum(deg for _, _, deg in self.edges)

    def betti(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    def arithmetic_genus(self) -> int:
        return self.betti() + sum(self.genus)

    def vertex_edges(self, v: int) -> list[int]:
        return [i for i, (a, b, _) in enumerate(self.edges) if v in (a, b)]

    def markings_at(self, v: int, sigma_v: tuple[int, ...]) -> int:
        plus = sum(1 for m in self.marks_plus if m == v)
        minus = sum(1 for m in self.marks_plus if sigma_v[m] == v)
        return plus + minus


@dataclass(frozen=True)
class GraphInvolution:
    """Involution data: a vertex permutation and an edge-index permutation."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def fixed_edges(self, graph: DecoratedGraph) -> list[int]:
        return [i for i in range(len(graph.edges)) if self.edges[i] == i]

    def free_edge_orbits(self, graph: DecoratedGraph) -> list[tuple[int, int]]:
        return [
            (i, self.edges[i])
            for i in range(len(graph.edges))
            if self.edges[i] > i
        ]

    def vertex_orbits(self) -> list[tuple[int, int]]:
        return [
            (v, self.vertices[v])
            for v in range(len(self.vertices))
            if self.vertices[v] > v
        ]


@dataclass(frozen=True)
class AdmissiblePair:
    """Isomorphism class representative of a contributing admissible pair."""

    graph: DecoratedGraph
    involution: GraphInvolution
    aut_order: int

    def default_halves(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical (V+, E+): labels 1 and 3, least index per free orbit."""
        vplus = tuple(
            v for v in range(self.graph.num_vertices) if self.graph.theta[v] in (1, 3)
        )
        eplus = tuple(i for i, _ in self.involution.free_edge_orbits(self.graph))
        return vplus, eplus

    def all_halves(self):
        """Every valid choice of one vertex per sigma-orbit and one edge per
        free sigma-orbit (exhausted by the choice-independence tests)."""
        vorbits = self.involution.vertex_orbits()
        eorbits = self.involution.free_edge_orbits(self.graph)
        for vpick in itertools.product(*[(a, b) for a, b in vorbits]):
            for epick in itertools.product(*[(i, j) for i, j in eorbits]):
                yield tuple(sorted(vpick)), tuple(sorted(epick))


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


def _theta_tuples(nv: int):
    """Non-decreasing label tuples with paired counts under tau4."""
    for tup in itertools.combinations_with_replacement((1, 2, 3, 4), nv):
        if tup.count(1) == tup.count(2) and tup.count(3) == tup.count(4):
            yield tup


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
    """Fixed-point-free involutions matching theta with tau4 label swaps.

    Every vertex lies in one of the label groups 1..4 and gets matched with a
    partner of the conjugate label, so the involutions are exactly the pairs
    of bijections group 1 -> group 2 and group 3 -> group 4.
    """
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
    """Involutions of the edge index set compatible with the vertex map."""
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
                mapping[i] = i
                yield from backtrack(i + 1)
                mapping[i] = -1
            elif mapping[j] == -1 and image_matches(j, i):
                mapping[i], mapping[j] = j, i
                yield from backtrack(i + 1)
                mapping[i] = mapping[j] = -1

    yield from backtrack(0)


def _invariant_key(pair: AdmissiblePair):
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


def _vertex_bijections(p: AdmissiblePair, q: AdmissiblePair):
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


def _edge_bijections(p: AdmissiblePair, q: AdmissiblePair, perm):
    ep, eq = p.graph.edges, q.graph.edges
    ne = len(ep)
    if ne != len(eq):
        return

    def candidates(i: int):
        a, b, deg = ep[i]
        target = {perm[a], perm[b]}
        return [
            j
            for j, (c, d, deg2) in enumerate(eq)
            if deg2 == deg and {c, d} == target
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
            # commuting with the involutions pins the image of sigma(i); the
            # two elements of a sigma-orbit are always assigned together, so
            # sigma(i) is unassigned here whenever it differs from i.
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


def _isomorphisms(p: AdmissiblePair, q: AdmissiblePair):
    for perm in _vertex_bijections(p, q):
        for edge_map in _edge_bijections(p, q, perm):
            yield perm, edge_map


def isomorphic(p: AdmissiblePair, q: AdmissiblePair) -> bool:
    return next(_isomorphisms(p, q), None) is not None


def automorphism_order(pair: AdmissiblePair) -> int:
    return sum(1 for _ in _isomorphisms(pair, pair))


@lru_cache(maxsize=None)
def enumerate_pairs(g: int, d: int) -> tuple[AdmissiblePair, ...]:
    """All isomorphism classes of contributing admissible pairs of arithmetic
    genus g and total degree d, with automorphism orders.

    Complete and duplicate-free; an empty result is valid (and is how the
    parity vanishing manifests).
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    found: list[AdmissiblePair] = []
    keys: dict[tuple, list[int]] = {}
    for nv in range(2, d + 2, 2):
        for theta in _theta_tuples(nv):
            label_vertices = {
                t: [v for v in range(nv) if theta[v] == t] for t in (1, 3)
            }
            # contributing pairs need a vertex for every plus point
            if d >= 1 and not label_vertices[1]:
                continue
            if d >= 2 and not label_vertices[3]:
                continue
            for edges in _edge_multisets(theta, d):
                if not _is_connected(nv, edges):
                    continue
                b1 = len(edges) - nv + 1
                if b1 < 0 or b1 > g or (g - b1) % 2:
                    continue
                half_genus = (g - b1) // 2
                for sigma_v in _vertex_involutions(theta):
                    for sigma_e in _edge_involutions(edges, sigma_v):
                        if any(
                            edges[i][2] % 2 == 0
                            for i in range(len(edges))
                            if sigma_e[i] == i
                        ):
                            continue  # admissibility: fixed edges of odd degree
                        orbits = [
                            v for v in range(nv) if sigma_v[v] > v
                        ]
                        for split in _compositions(half_genus, len(orbits)):
                            genus = [0] * nv
                            for v, gv in zip(orbits, split):
                                genus[v] = genus[sigma_v[v]] = gv
                            for marks in itertools.product(
                                *[label_vertices[bracket(i)] for i in range(1, d + 1)]
                            ):
                                graph = DecoratedGraph(
                                    theta, tuple(genus), edges, marks
                                )
                                pair = AdmissiblePair(
                                    graph,
                                    GraphInvolution(sigma_v, sigma_e),
                                    0,
                                )
                                key = _invariant_key(pair)
                                bucket = keys.setdefault(key, [])
                                if any(
                                    isomorphic(pair, found[k]) for k in bucket
                                ):
                                    continue
                                pair = AdmissiblePair(
                                    graph,
                                    pair.involution,
                                    automorphism_order(pair),
                                )
                                bucket.append(len(found))
                                found.append(pair)
    return tuple(found)


def euler_tangent(label: int) -> RationalFunction:
    """Equivariant Euler class of the tangent space of P^3 at a fixed point."""
    out = RationalFunction.const(1)
    for j in (1, 2, 3, 4):
        if j != label:
            out = out * (ALPHA[label] - ALPHA[j])
    return out


def psi_edge_weight(graph: DecoratedGraph, edge_index: int, v: int) -> RationalFunction:
    """Weight of the cotangent direction along an edge at one endpoint:
    (alpha_other - alpha_v) / degree."""
    a, b, deg = graph.edges[edge_index]
    if v == a:
        other = b
    elif v == b:
        other = a
    else:
        raise ValueError(f"vertex {v} is not an endpoint of edge {edge_index}")
    return (ALPHA[graph.theta[other]] - ALPHA[graph.theta[v]]) / deg


@lru_cache(maxsize=None)
def vertex_contribution(pair: AdmissiblePair, v: int) -> RationalFunction:
    """Signed fixed-locus factor of one vertex.

    Unstable vertices (genus 0 with at most two special points) contribute a
    closed product of weights; stable vertices contribute a triple-Lambda
    Hodge integral over the moduli of the vertex curve, with one geometric
    denominator per incident edge.
    """
    graph = pair.graph
    sigma_v = pair.involution.vertices
    label = graph.theta[v]
    edge_ids = graph.vertex_edges(v)
    n_marks = graph.markings_at(v, sigma_v)
    n_special = len(edge_ids) + n_marks
    e_t = euler_tangent(label)
    psis = [psi_edge_weight(graph, i, v) for i in edge_ids]
    if graph.genus[v] == 0 and n_special <= 2:
        out = RationalFunction.const((-1) ** n_marks) * e_t ** (n_special - 1)
        total = RationalFunction.const(0)
        for w in psis:
            out = out / w
            total = total + w
        exponent = 3 - n_special - len(edge_ids)
        return out * total**exponent
    lambda_args = tuple(
        ALPHA[label] - ALPHA[j] for j in (1, 2, 3, 4) if j != label
    )
    denominators: list[RationalFunction | None] = [-w for w in psis]
    denominators += [None] * n_marks
    integral = lambda_product_integral(graph.genus[v], lambda_args, denominators)
    out = RationalFunction.const(-((-1) ** (graph.genus[v] + len(edge_ids))))
    out = out * e_t ** (n_special - 1) * integral
    for w in psis:
        out = out / (-w)
    return out


@lru_cache(maxsize=None)
def edge_contribution(pair: AdmissiblePair, edge_index: int) -> RationalFunction:
    """Fixed-locus factor of one edge (degree-d(e) cover of a fixed line)."""
    graph = pair.graph
    a, b, deg = graph.edges[edge_index]
    if pair.involution.edges[edge_index] == edge_index:
        if deg % 2 == 0:
            raise ValueError("sigma-fixed edge of even degree is not admissible")
        return _fixed_edge_contribution(graph, a, b, deg)
    return _free_edge_contribution(graph, a, b, deg)


def _free_edge_contribution(
    graph: DecoratedGraph, a: int, b: int, deg: int
) -> RationalFunction:
    t1, t2 = graph.theta[a], graph.theta[b]
    base = (ALPHA[t1] - ALPHA[t2]) / deg
    denom = base ** (2 * deg - 2)
    for j in (1, 2, 3, 4):
        if j in (t1, t2):
            continue
        for r in range(deg + 1):
            denom = denom * (
                (ALPHA[t1] * (deg - r) + ALPHA[t2] * r) / deg - ALPHA[j]
            )
    return RationalFunction.const(Fraction((-1) ** deg, deg * math.factorial(deg) ** 2)) / denom


def _fixed_edge_contribution(
    graph: DecoratedGraph, a: int, b: int, deg: int, anchor_conjugate: bool = False
) -> RationalFunction:
    """Fixed-edge factor, anchored at the endpoint with label in {1, 3}.

    ``anchor_conjugate`` anchors at the other endpoint instead; for odd
    degrees the two agree (checked by a unit test).
    """
    t1, t2 = graph.theta[a], graph.theta[b]
    if (t1 in (2, 4)) != anchor_conjugate:
        t1, t2 = t2, t1
    denom = (2 * ALPHA[t1] / deg) ** (deg - 1)
    for j in (1, 2, 3, 4):
        if j in (t1, t2):
            continue
        for r in range((deg - 1) // 2 + 1):
            denom = denom * (ALPHA[t1] * (deg - 2 * r) / deg - ALPHA[j])
    return RationalFunction.const(
        Fraction((-1) ** ((deg - 1) // 2), deg * math.factorial(deg))
    ) / denom


def pair_contribution(
    pair: AdmissiblePair,
    halves: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> RationalFunction:
    """Total contribution of one isomorphism class to the invariant."""
    if halves is None:
        halves = pair.default_halves()
    vplus, eplus = halves
    out = RationalFunction.const(Fraction(1, pair.aut_order))
    for v in vplus:
        out = out * vertex_contribution(pair, v)
    for i in pair.involution.fixed_edges(pair.graph):
        out = out * edge_contribution(pair, i)
    for i in eplus:
        out = out * edge_contribution(pair, i)
    return out


def pair_contributions(g: int, d: int) -> list[tuple[AdmissiblePair, RationalFunction]]:
    """Per-class contributions, for inspection and the symbolic tests."""
    return [(p, pair_contribution(p)) for p in enumerate_pairs(g, d)]


@lru_cache(maxsize=None)
def gw_real(g: int, d: int, verify_parity_sum: bool = False) -> Rational:
    """Real genus-g degree-d GW-invariant with d conjugate point pairs.

    The localization sum must be constant in the weight variable; a
    non-constant sum signals an implementation error and raises.  For d - g
    even the invariant vanishes; ``verify_parity_sum`` recomputes the sum
    anyway and checks it is zero.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if (d - g) % 2 == 0 and not verify_parity_sum:
        return Fraction(0)
    total = RationalFunction.const(0)
    for _, value in pair_contributions(g, d):
        total = total + value
    if not total.is_constant():
        raise ArithmeticError(
            f"localization sum for (g={g}, d={d}) is not constant: {total}"
        )
    return total.constant_value()
