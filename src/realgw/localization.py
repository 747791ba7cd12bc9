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
triple-Lambda Hodge integrals, in closed form at genus 0 (stable or not);
edge factors are the standard weight products of the degree-d(e) covers.
Everything is evaluated in exact rational functions of the dehomogenized
weight z (weights 1, -1, z, -z at the four fixed points); the assembled sum
must be constant in z, which ``gw_real`` checks.

Enumeration builds each candidate from its sigma-orbits (generation from
orbits, as in McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998, without the canonical augmentation).  Per sorted label tuple the vertex
involution is fixed once; edges are chosen as a degree multiset per orbit of
vertex pairs, so every edge multiset is sigma-invariant, and one edge
involution is emitted per isomorphism type (the number of sigma-fixed edges
in each class of odd-degree edges on a fixed pair).  The choice is pruned as
it grows, by the edge count and the components left to join, so only the
connected multisets with first Betti number b1 <= g come out.  Each such
genus-free candidate is reduced to a canonical form: the least encoding of
its involution and edges over the vertex relabelings that keep every cell of
a refined vertex colouring (the equitable partition of McKay & Piperno,
"Practical graph isomorphism, II", 2014) in its own block.  A candidate is
kept when its form is new; the relabelings reaching the least code give its
vertex automorphism group G.  Its genus splits, (g - b1)/2 spread over the
vertex orbits, are then taken as G-orbits: the least split of each orbit is
an unmarked class, with vertex group Stab_G(split) and automorphism order
|Stab_G(split)| times closed-form counts of edge permutations within each
edge class.  The marked classes are the G-orbits of the plus-point
placements on the unmarked ones (orbit-stabilizer), so they need no
canonical form of their own either.

Vertex and edge factors depend only on local data, and many classes share it,
so they are cached on it: a vertex on (label, genus, sorted (other-end label,
edge degree) pairs, mark count), an edge on (sorted labels, degree, fixed by
sigma?).

A class contributes through its marks only by the mark count at each V+
vertex, and edge factors do not see marks at all.  So the sum runs over the
unmarked classes and their mark count vectors: the k1 = ceil(d/2) plus
points of label 1 spread over the label-1 vertices and the k3 = floor(d/2)
of label 3 over the label-3 ones, and a count vector stands for the
k1!/prod n_v! * k3!/prod n_w! placements that have it.  Summing over all
placements with 1/|Aut U| equals summing over the marked classes with
1/|Aut| (the usual graph-sum bookkeeping, as in Graber-Pandharipande,
"Localization of virtual classes", 1999).

Every denominator in the sum is a product of linear forms in z: the weight
differences alpha_i - alpha_j, the psi weights and the interpolation points
of the edge covers.  So the factors are kept as ``exact_arith.Factored``
values, a scalar times a product of forms with signed exponents (times a
polynomial: the numerator of a Lambda integral, whose denominator is split
over its vertex's psi forms, or a power of the psi-weight sum of a genus-0
vertex).  Each weight is built once.  A term's product adds the packed
exponent keys and multiplies integer scalars, so vertex and edge forms
cancel without a polynomial gcd.  The terms of all classes stream into
``factored_sum``, which groups them on their keys, so memory follows the
distinct exponent vectors, not the terms: each form comes out at its least
exponent, each group is one integer linear combination, the groups are added
by Kronecker substitution, and the normal form of the total is built by
exact pseudo-division, which a primitive form passes with an integer
quotient (Gauss's lemma).  The normal form is unique, so the total is the
one any order of rational-function additions gives.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .exact_arith import (
    Factored,
    Frozen,
    Polynomial,
    Rational,
    RationalFunction,
    Scalar,
    factored_sum,
    int_product,
    linear_combination,
)
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


class DecoratedGraph(Frozen):
    """Labeled decorated graph underlying one fixed locus.

    Edges are (v, w, degree) with v < w; parallel edges repeat in the tuple
    and are distinguished by position.  ``marks_plus[i-1]`` is the vertex
    carrying the point i+; the conjugate point i- sits at its sigma image.
    An unmarked class has no plus points.
    """

    __slots__ = ("theta", "genus", "edges", "marks_plus")

    theta: tuple[int, ...]
    genus: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    marks_plus: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.theta)

    def markings_at(self, v: int, sigma_v: tuple[int, ...]) -> int:
        plus = sum(1 for m in self.marks_plus if m == v)
        minus = sum(1 for m in self.marks_plus if sigma_v[m] == v)
        return plus + minus


class GraphInvolution(Frozen):
    """Involution data: a vertex permutation and an edge-index permutation."""

    __slots__ = ("vertices", "edges")

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def fixed_edges(self) -> list[int]:
        return [i for i, j in enumerate(self.edges) if j == i]

    def free_edge_orbits(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.edges) if j > i]


class AdmissiblePair(Frozen):
    """Isomorphism class representative of a contributing admissible pair."""

    __slots__ = ("graph", "involution", "aut_order")

    graph: DecoratedGraph
    involution: GraphInvolution
    aut_order: int

    def default_halves(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical (V+, E+): labels 1 and 3, least index per free orbit."""
        vplus = tuple(
            v for v in range(self.graph.num_vertices) if self.graph.theta[v] in (1, 3)
        )
        eplus = tuple(i for i, _ in self.involution.free_edge_orbits())
        return vplus, eplus


def _theta_tuples(nv: int):
    """Non-decreasing label tuples with paired counts under tau4."""
    for tup in itertools.combinations_with_replacement((1, 2, 3, 4), nv):
        if tup.count(1) == tup.count(2) and tup.count(3) == tup.count(4):
            yield tup


def _sigma_orbits(theta: tuple[int, ...]):
    """The vertex involution fixed for theta and the sigma-orbits of the
    vertex pairs that may carry edges.

    sigma pairs the i-th vertex of label 1 with the i-th of label 2, and the
    same for labels 3 and 4.  Any other involution covering tau4 becomes this
    one after relabeling vertices inside the label-2 and label-4 groups, which
    keeps theta sorted.  A pair {v, w} of distinct labels is either fixed
    ({v, sigma v}) or lies in a free orbit with {sigma v, sigma w}; each orbit
    is returned as (pair, image pair), the image equal to the pair when fixed.
    """
    nv = len(theta)
    group = {t: [v for v in range(nv) if theta[v] == t] for t in (1, 2, 3, 4)}
    sigma = [0] * nv
    for a, b in (*zip(group[1], group[2]), *zip(group[3], group[4])):
        sigma[a], sigma[b] = b, a
    orbits = []
    for v in range(nv):
        for w in range(v + 1, nv):
            image = tuple(sorted((sigma[v], sigma[w])))
            if theta[v] != theta[w] and (v, w) <= image:
                orbits.append(((v, w), image))
    return tuple(sigma), orbits


def _invariant_edges(nv: int, orbits, total_degree: int, max_betti: int):
    """Connected sigma-invariant edge multisets on nv vertices of the given
    total degree and first Betti number at most max_betti, each with one
    admissible edge involution per isomorphism type.

    A degree multiset is chosen per orbit.  An edge of degree k on a free
    orbit comes with its copy on the image pair, the two swapped, and costs
    2k of the budget.  On a fixed pair an edge of odd degree k costs k, and
    an even degree comes only as two swapped edges, since a sigma-fixed edge
    has odd degree.  A choice is extended only while it can still end
    connected with at most nv - 1 + max_betti edges: a union-find with undo
    over the chosen orbits counts the components c, and the c - 1 merges
    still needed take at least c - 1 more edges and c - 1 more units of the
    budget, since no choice joins more components than it costs.  Up to
    relabeling edges, the involutions differ only in the number f of fixed
    edges among the m of each odd degree on each fixed pair: f = m, m - 2,
    ... down to m mod 2.  Yields (edges, involutions).
    """
    items = []  # (pair, image pair, degree, cost, edge count)
    for pair, image in orbits:
        for deg in range(1, total_degree + 1):
            single = pair == image and deg % 2
            cost, count = (deg, 1) if single else (2 * deg, 2)
            items.append((pair, image, deg, cost, count))
    max_edges = nv - 1 + max_betti
    parent = list(range(nv))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def extend(start: int, remaining: int, n_edges: int, components: int, acc: list):
        if remaining == 0:
            if components == 1:
                yield acc
            return
        for idx in range(start, len(items)):
            pair, image, _, cost, count = items[idx]
            if cost > remaining or n_edges + count > max_edges:
                continue
            joined = []
            for v, w in (pair, image):
                rv, rw = root(v), root(w)
                if rv != rw:
                    parent[rw] = rv
                    joined.append(rw)
            left = components - len(joined)
            if remaining - cost >= left - 1 and n_edges + count + left - 1 <= max_edges:
                acc.append(idx)
                yield from extend(idx, remaining - cost, n_edges + count, left, acc)
                acc.pop()
            for r in joined:
                parent[r] = r

    for chosen in extend(0, total_degree, 0, nv, []):
        edges: list[tuple[int, int, int]] = []
        base: list[int] = []
        blocks = []  # (first edge, edge count, fixed counts) per fixed-pair class
        for idx, m in Counter(chosen).items():
            pair, image, deg, _, _ = items[idx]
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


def _ranks(signatures: list) -> list[int]:
    """The rank of each signature among the distinct ones, sorted."""
    rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [rank[s] for s in signatures]


def _relabelings(cells: list[list[int]]):
    """The vertex orders that put each cell, in the given order, onto its own
    block of positions."""
    for blocks in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        yield [v for block in blocks for v in block]


def _canonical_form(graph: DecoratedGraph, involution: GraphInvolution):
    """Canonical form of a pair, its automorphism order and the vertex
    permutations of its automorphisms.

    A vertex's colour starts as the rank of its (theta, genus) and is
    refined to a stable partition, as in the equitable-partition step of
    McKay & Piperno, "Practical graph isomorphism, II" (2014): each round
    ranks the sorted signatures (colour, colour of the sigma partner, sorted
    (other end's colour, degree, sigma-fixed?) per incident edge), until the
    number of colours stops growing or every cell is a singleton; with
    singleton (theta, genus) cells there is no round.  Colours are ranks of
    invariant signatures, so every isomorphism keeps them.  Only the
    relabelings that send each colour cell, in colour order, onto its own
    block of positions are tried.  Each encodes the conjugated vertex
    involution, the relabeled plus points and the sorted edge list with
    sigma-fixed flags; the least code, after the (theta, genus) of every
    position, is the canonical form.  The relabelings reaching it give the
    vertex automorphisms: v goes to the vertex the first of them puts at v's
    position.  Each of them extends to the same number of edge
    automorphisms: per sigma-stable edge class (a, b, degree) with f fixed
    edges and p swapped pairs there are f! p! 2^p, and per two classes
    swapped by sigma with n edges each, n!.
    """
    sigma_v, sigma_e = involution.vertices, involution.edges
    nv = graph.num_vertices
    kinds = list(zip(graph.theta, graph.genus))
    colour = _ranks(kinds)
    n_cells = max(colour) + 1
    if n_cells < nv:
        adjacency: list[list[tuple[int, int, bool]]] = [[] for _ in range(nv)]
        for i, (a, b, deg) in enumerate(graph.edges):
            adjacency[a].append((b, deg, sigma_e[i] == i))
            adjacency[b].append((a, deg, sigma_e[i] == i))
        while True:
            colour = _ranks(
                [
                    (
                        colour[v],
                        colour[sigma_v[v]],
                        tuple(sorted((colour[w], deg, fx) for w, deg, fx in ends)),
                    )
                    for v, ends in enumerate(adjacency)
                ]
            )
            refined = max(colour) + 1
            if refined in (n_cells, nv):
                break
            n_cells = refined
    cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    position = [0] * nv
    best = None
    ties: list[list[int]] = []
    for order in _relabelings(cells):
        for i, v in enumerate(order):
            position[v] = i
        edges = []
        for i, (a, b, deg) in enumerate(graph.edges):
            pa, pb = position[a], position[b]
            edges.append((min(pa, pb), max(pa, pb), deg, sigma_e[i] == i))
        edges.sort()
        code = (
            tuple(position[sigma_v[v]] for v in order),
            tuple(position[m] for m in graph.marks_plus),
            tuple(edges),
        )
        if best is None or code < best:
            best, ties = code, [order]
        elif code == best:
            ties.append(order)
    group = []
    for order in ties:
        perm = [0] * graph.num_vertices
        for v, w in zip(order, ties[0]):
            perm[v] = w
        group.append(tuple(perm))
    classes: dict[tuple[int, int, int], list[int]] = {}
    for i, edge in enumerate(graph.edges):
        classes.setdefault(edge, []).append(i)
    edge_auts = 1
    for (a, b, deg), members in classes.items():
        image = (*sorted((sigma_v[a], sigma_v[b])), deg)
        if image == (a, b, deg):
            fixed = sum(1 for i in members if sigma_e[i] == i)
            swapped = (len(members) - fixed) // 2
            edge_auts *= math.factorial(fixed) * math.factorial(swapped) * 2**swapped
        elif (a, b, deg) < image:
            edge_auts *= math.factorial(len(members))
    form = (tuple(kinds[v] for v in ties[0]), best)
    return form, len(group) * edge_auts, tuple(group)


def isomorphic(p: AdmissiblePair, q: AdmissiblePair) -> bool:
    return (
        _canonical_form(p.graph, p.involution)[0]
        == _canonical_form(q.graph, q.involution)[0]
    )


def automorphism_order(pair: AdmissiblePair) -> int:
    return _canonical_form(pair.graph, pair.involution)[1]


@lru_cache(maxsize=None)
def _unmarked_classes(g: int, d: int):
    """The isomorphism classes of contributing admissible pairs with their
    marks forgotten, each as (pair with no plus points, vertex permutations
    of its automorphisms).  Computed once per (g, d): both the marked
    classes and the class sum are read off them.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    found: list[tuple[AdmissiblePair, tuple[tuple[int, ...], ...]]] = []
    seen: set[tuple] = set()
    for nv in range(2, d + 2, 2):
        for theta in _theta_tuples(nv):
            # contributing pairs need a vertex for every plus point
            if 1 not in theta or (d >= 2 and 3 not in theta):
                continue
            sigma_v, orbits = _sigma_orbits(theta)
            vertex_orbits = [v for v in range(nv) if sigma_v[v] > v]
            for edges, involutions in _invariant_edges(nv, orbits, d, g):
                b1 = len(edges) - nv + 1
                if (g - b1) % 2:
                    continue
                splits = []
                for split in _compositions((g - b1) // 2, len(vertex_orbits)):
                    genus = [0] * nv
                    for v, gv in zip(vertex_orbits, split):
                        genus[v] = genus[sigma_v[v]] = gv
                    splits.append(tuple(genus))
                bare = DecoratedGraph(theta, (0,) * nv, edges, ())
                for sigma_e in involutions:
                    involution = GraphInvolution(sigma_v, sigma_e)
                    form, aut, group = _canonical_form(bare, involution)
                    if form in seen:
                        continue
                    seen.add(form)
                    edge_auts = aut // len(group)
                    # One class per G-orbit of genus splits, the least one.
                    for genus in splits:
                        stabilizer = []
                        for perm in group:
                            image = tuple(genus[w] for w in perm)
                            if image < genus:
                                break
                            if image == genus:
                                stabilizer.append(perm)
                        else:
                            graph = DecoratedGraph(theta, genus, edges, ())
                            aut = len(stabilizer) * edge_auts
                            pair = AdmissiblePair(graph, involution, aut)
                            found.append((pair, tuple(stabilizer)))
    return tuple(found)


@lru_cache(maxsize=None)
def enumerate_pairs(g: int, d: int) -> tuple[AdmissiblePair, ...]:
    """All isomorphism classes of contributing admissible pairs of arithmetic
    genus g and total degree d, with automorphism orders.

    Complete and duplicate-free; an empty result is valid (and is how the
    parity vanishing manifests).  Each unmarked class U with vertex
    automorphisms G gives one marked class per G-orbit of plus-point
    placements, represented by the least placement of the orbit, with
    |Aut| = |Stab_G(placement)| * |Aut U| / |G|.
    """
    found: list[AdmissiblePair] = []
    for locus, group in _unmarked_classes(g, d):
        graph = locus.graph
        label_vertices = {
            t: [v for v, label in enumerate(graph.theta) if label == t] for t in (1, 3)
        }
        for marks in itertools.product(
            *[label_vertices[bracket(i)] for i in range(1, d + 1)]
        ):
            stabilizer = 0
            for perm in group:
                image = tuple(perm[m] for m in marks)
                if image < marks:
                    break
                stabilizer += image == marks
            else:
                found.append(
                    AdmissiblePair(
                        DecoratedGraph(graph.theta, graph.genus, graph.edges, marks),
                        locus.involution,
                        stabilizer * locus.aut_order // len(group),
                    )
                )
    return tuple(found)


@lru_cache(maxsize=None)
def _weight(*terms: tuple[Scalar, int]) -> Factored:
    """The weight sum_i c_i alpha_(j_i) over the (c_i, j_i) pairs, formed on
    the polynomials of ALPHA with no rational-function arithmetic, once per
    distinct argument tuple."""
    return Factored.weight(linear_combination((c, ALPHA[j].num) for c, j in terms))


@lru_cache(maxsize=None)
def euler_tangent(label: int) -> Factored:
    """Equivariant Euler class of the tangent space of P^3 at a fixed point."""
    out = Factored.const(1)
    for j in (1, 2, 3, 4):
        if j != label:
            out = out * _weight((1, label), (-1, j))
    return out


@lru_cache(maxsize=None)
def psi_edge_weight(label: int, other: int, deg: int) -> Factored:
    """Cotangent weight (alpha_other - alpha_label) / deg at the ``label`` end
    of an edge to ``other``."""
    return _weight((Fraction(1, deg), other), (Fraction(-1, deg), label))


@lru_cache(maxsize=None)
def _difference(label: int, other: int) -> tuple[int, ...]:
    """alpha_label - alpha_other as integer coefficients by degree."""
    poly = linear_combination(((1, ALPHA[label].num), (-1, ALPHA[other].num)))
    return tuple(int(c) for c in poly.coeffs)


@lru_cache(maxsize=None)
def _lambda_args(label: int) -> tuple[RationalFunction, ...]:
    """The Lambda arguments alpha_label - alpha_j, j != label, of a stable
    vertex at ``label``."""
    return tuple(
        _weight((1, label), (-1, j)).rational_function()
        for j in (1, 2, 3, 4)
        if j != label
    )


@lru_cache(maxsize=None)
def _psi_denominator(label: int, other: int, deg: int) -> RationalFunction:
    """The geometric-series weight -psi_edge_weight = (alpha_label -
    alpha_other)/deg of an edge to ``other``: the Lambda argument of
    ``other`` over the degree."""
    return (-psi_edge_weight(label, other, deg)).rational_function()


def vertex_key(pair: AdmissiblePair, v: int):
    """(label, genus, sorted (other label, degree) per edge, mark count)."""
    graph = pair.graph
    ends = [(graph.theta[a + b - v], deg) for a, b, deg in graph.edges if v in (a, b)]
    n_marks = graph.markings_at(v, pair.involution.vertices)
    return graph.theta[v], graph.genus[v], tuple(sorted(ends)), n_marks


@lru_cache(maxsize=None)
def vertex_contribution(
    label: int, genus: int, neighbours: tuple[tuple[int, int], ...], n_marks: int
) -> Factored:
    """Signed fixed-locus factor of one vertex, from its local data.

    With n special points and W_e = (alpha_label - alpha_other) / d_e per
    incident edge, the factor is -(-1)^(genus + |E_v|) e_T^(n-1) prod_e
    W_e^-1 times the triple-Lambda Hodge integral of prod_e 1/(W_e - psi_e)
    over the moduli of the vertex curve.  A vertex of positive genus takes
    that integral from ``lambda_product_integral``; its denominator is a
    product of the psi weights' forms and is split over them.

    At genus 0, Lambda = 1 and the integral is prod_e W_e^-1 (sum_e
    W_e^-1)^(n-3) (the genus-0 psi integrals, as in Graber-Pandharipande
    1999), so the factor is -(-1)^|E_v| e_T^(n-1) (sum_e W_e^-1)^(n-3)
    prod_e W_e^-2.  The same closed form gives the unstable vertices (n <= 2)
    their weight products.  With p_j = alpha_label - alpha_j and D_j the
    degree sum of the edges to label j, sum_e W_e^-1 = S / prod_j p_j over
    the labels j the edges reach, where S = sum_j D_j prod_(k != j) p_k is
    formed on integer coefficient lists.  With m_j edges to label j, the
    factor is -(-1)^|E_v| prod_e d_e^2 S^(n-3) prod_j p_j^(n-1-2 m_j), the
    exponent lowered by n - 3 for each reached j.  For n >= 3, S^(n-3) is
    kept as a polynomial, as the numerator of the integral it replaces was,
    so the class sum groups its terms on the same forms; for n <= 2, S is a
    weight (at most two edges) and its power is negative.
    """
    n_special = len(neighbours) + n_marks
    sign = -((-1) ** (genus + len(neighbours)))
    if genus == 0:
        edge_counts: Counter[int] = Counter()  # m_j
        reached: Counter[int] = Counter()  # D_j
        for other, deg in neighbours:
            edge_counts[other] += 1
            reached[other] += deg
        spread: list[int] = []  # S
        for j, total in reached.items():
            term = [total]
            for k in reached:
                if k != j:
                    term = int_product(term, _difference(label, k))
            spread = [a + b for a, b in itertools.zip_longest(spread, term, fillvalue=0)]
        out = Factored.const(sign * math.prod(deg * deg for _, deg in neighbours))
        for j in (1, 2, 3, 4):
            if j != label:
                exponent = n_special - 1 - 2 * edge_counts[j]
                if j in reached:
                    exponent -= n_special - 3
                out = out * _weight((1, label), (-1, j)) ** exponent
        if n_special < 3:
            return out * Factored.weight(Polynomial(spread)) ** (n_special - 3)
        power = [1]
        for _ in range(n_special - 3):
            power = int_product(power, spread)
        return out * Factored.polynomial(power)
    weights = [psi_edge_weight(label, other, deg) for other, deg in neighbours]
    denominators: list[RationalFunction | None] = [
        _psi_denominator(label, *end) for end in neighbours
    ]
    denominators += [None] * n_marks
    integral = lambda_product_integral(genus, _lambda_args(label), denominators)
    forms = [f for w in weights for f, _ in w.forms]
    out = Factored.const(sign) * euler_tangent(label) ** (n_special - 1)
    out = out * Factored.split(integral, forms)
    for w in weights:
        out = out / (-w)
    return out


def edge_key(pair: AdmissiblePair, i: int):
    """(sorted endpoint labels, degree, sigma-fixed?)."""
    a, b, deg = pair.graph.edges[i]
    t1, t2 = sorted((pair.graph.theta[a], pair.graph.theta[b]))
    return t1, t2, deg, pair.involution.edges[i] == i


@lru_cache(maxsize=None)
def edge_contribution(t1: int, t2: int, deg: int, fixed: bool) -> Factored:
    """Fixed-locus factor of one edge (degree-d(e) cover of a fixed line)."""
    if fixed:
        if deg % 2 == 0:
            raise ValueError("sigma-fixed edge of even degree is not admissible")
        return _fixed_edge_contribution(t1, t2, deg)
    return _free_edge_contribution(t1, t2, deg)


def _free_edge_contribution(t1: int, t2: int, deg: int) -> Factored:
    denom = _weight((Fraction(1, deg), t1), (Fraction(-1, deg), t2)) ** (2 * deg - 2)
    for j in (1, 2, 3, 4):
        if j in (t1, t2):
            continue
        for r in range(deg + 1):
            denom = denom * _weight(
                (Fraction(deg - r, deg), t1), (Fraction(r, deg), t2), (-1, j)
            )
    return Factored.const((-1) ** deg, deg * math.factorial(deg) ** 2) / denom


def _fixed_edge_contribution(t1: int, t2: int, deg: int) -> Factored:
    """Fixed-edge factor, anchored at the endpoint with label in {1, 3}; for
    odd degrees the other anchor gives the same factor (checked by a test)."""
    if t1 in (2, 4):
        t1, t2 = t2, t1
    denom = _weight((Fraction(2, deg), t1)) ** (deg - 1)
    for j in (1, 2, 3, 4):
        if j in (t1, t2):
            continue
        for r in range((deg - 1) // 2 + 1):
            denom = denom * _weight((Fraction(deg - 2 * r, deg), t1), (-1, j))
    return Factored.const((-1) ** ((deg - 1) // 2), deg * math.factorial(deg)) / denom


def _edge_part(pair: AdmissiblePair) -> Factored:
    """1/|Aut| times the factors of the sigma-fixed edges and of E+."""
    _, eplus = pair.default_halves()
    out = Factored.const(1, pair.aut_order)
    for i in pair.involution.fixed_edges() + list(eplus):
        out = out * edge_contribution(*edge_key(pair, i))
    return out


def _class_value(pair: AdmissiblePair) -> Factored:
    """Contribution of one isomorphism class, in factored form."""
    vplus, _ = pair.default_halves()
    out = _edge_part(pair)
    for v in vplus:
        out = out * vertex_contribution(*vertex_key(pair, v))
    return out


def pair_contribution(pair: AdmissiblePair) -> RationalFunction:
    """Total contribution of one isomorphism class to the invariant."""
    return _class_value(pair).rational_function()


def pair_contributions(g: int, d: int) -> list[tuple[AdmissiblePair, RationalFunction]]:
    """Per-class contributions, for inspection and the symbolic tests."""
    return [(p, pair_contribution(p)) for p in enumerate_pairs(g, d)]


def _locus_terms(locus: AdmissiblePair, d: int) -> list[Factored]:
    """The count-vector terms of one unmarked class U: per count vector, the
    multinomials k1!/prod n_v! and k3!/prod n_w!, the V+ vertex factors with
    those mark counts, the edge factors and 1/|Aut U|."""
    vplus, _ = locus.default_halves()
    terms = [_edge_part(locus)]
    for label, k in ((1, (d + 1) // 2), (3, d // 2)):
        local = [vertex_key(locus, v)[:3] for v in vplus if locus.graph.theta[v] == label]
        side = []
        for counts in _compositions(k, len(local)):
            out = Factored.const(
                math.factorial(k) // math.prod(math.factorial(n) for n in counts)
            )
            for key, n in zip(local, counts):
                out = out * vertex_contribution(*key, n)
            side.append(out)
        terms = [term * part for term in terms for part in side]
    return terms


def class_total(g: int, d: int) -> RationalFunction:
    """Sum of the class contributions as a rational function in z: the
    count-vector terms of every unmarked class, summed once in factored
    form (see the module docstring)."""
    return factored_sum(
        term for locus, _ in _unmarked_classes(g, d) for term in _locus_terms(locus, d)
    )


@lru_cache(maxsize=None)
def gw_real(g: int, d: int) -> Rational:
    """Real genus-g degree-d GW-invariant with d conjugate point pairs.

    The localization sum must be constant in the weight variable; a
    non-constant sum signals an implementation error and raises.  For d - g
    even the invariant vanishes, and 0 is returned without the sum.  A
    nonpositive degree or a negative genus raises ``ValueError``.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if (d - g) % 2 == 0:
        return Fraction(0)
    total = class_total(g, d)
    if not total.is_constant():
        raise ArithmeticError(
            f"localization sum for (g={g}, d={d}) is not constant: {total}"
        )
    return total.constant_value()
