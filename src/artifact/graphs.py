"""Looped multigraphs, factorization machinery, and graph-level relations.

A degree-r monomial in pairs and singletons is the same data as a
multigraph on vertices 1..n whose singletons are loops counting 1 toward
the degree.  This module owns that dictionary plus the constructive
toolkit: pairing loops into classical ones, splitting 2r-regular graphs
into r 2-factors, perfect matchings of regular bipartite graphs, the
five-way classification of 2-regular components, and the signed
three-term exchange relations written on edges.  Graphs are values:
``LoopedMultigraph.replace`` is the one edit, and it returns a new graph.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .plucker import PluckerMonomial

Edge = tuple[int, int]


@dataclass
class LoopedMultigraph:
    """Multigraph on 1..n; a loop (v, v) adds 1 to deg(v), not 2."""

    n: int
    edges: list[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        fixed = []
        for a, b in self.edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a}, {b}) leaves the range 1..{self.n}")
            fixed.append((a, b) if a <= b else (b, a))
        self.edges = sorted(fixed)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.n + 1)}
        for a, b in self.edges:
            deg[a] += 1
            if a != b:
                deg[b] += 1
        return deg

    def loop_vertices(self) -> list[int]:
        return [a for a, b in self.edges if a == b]

    def proper_edges(self) -> list[Edge]:
        return [e for e in self.edges if e[0] != e[1]]

    def is_regular(self, r: int) -> bool:
        return all(d == r for d in self.degrees().values())

    def replace(self, drop: Iterable[Edge], add: Iterable[Edge] = ()) -> "LoopedMultigraph":
        """A new graph: this one without the edges ``drop``, with the edges ``add``."""
        left = Counter(self.edges)
        left.subtract((min(e), max(e)) for e in drop)
        if min(left.values(), default=0) < 0:
            raise ValueError("the dropped edges are not a subgraph")
        return LoopedMultigraph(self.n, [*left.elements(), *add])

    def components(self) -> list[list[int]]:
        """Indices into ``edges`` of each connected component, ascending.

        Components come in the order of their smallest vertex; isolated
        vertices are skipped.  This is the one component pass of the graph
        layer: ``classify_two_regular`` and ``two_factorize`` both read it.
        """
        adj: dict[int, list[int]] = defaultdict(list)
        for idx, (a, b) in enumerate(self.edges):
            adj[a].append(idx)
            if b != a:
                adj[b].append(idx)
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in sorted(adj):
            if start in seen:
                continue
            seen.add(start)
            stack, comp = [start], set()
            while stack:
                for idx in adj[stack.pop()]:
                    comp.add(idx)
                    for w in self.edges[idx]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
            out.append(sorted(comp))
        return out


def graph_from_monomial(m: PluckerMonomial) -> LoopedMultigraph:
    """Pairs become edges, singletons become loops; lengths > 2 rejected."""
    edges: list[Edge] = []
    for row in m.factors:
        if len(row) == 2:
            edges.append((row[0], row[1]))
        elif len(row) == 1:
            edges.append((row[0], row[0]))
        else:
            raise ValueError(f"factor {row} has no graph form")
    return LoopedMultigraph(m.n, edges)


def monomial_from_graph(g: LoopedMultigraph) -> PluckerMonomial:
    rows = tuple((a,) if a == b else (a, b) for a, b in g.edges)
    return PluckerMonomial(g.n, rows)


GraphCombo = list[tuple[Fraction, LoopedMultigraph]]


def _sgn(x: int, y: int) -> int:
    return 1 if x < y else -1


def edge_loop_relation(g: LoopedMultigraph, edge: Edge, vertex: int) -> GraphCombo:
    """Trade an edge against a loop via the three-term exchange.

    With the edge (i, j) and a loop at k distinct from both ends,
    p_ij p_k = sgn(i,k) p_{ik} p_j - sgn(j,k) p_{jk} p_i, so the graph
    splits into two signed graphs whose loop counts are preserved.
    """
    i, j = min(edge), max(edge)
    k = vertex
    if i == j:
        raise ValueError("first argument must be a proper edge")
    if k in (i, j):
        raise ValueError("loop vertex must differ from the edge ends")
    return [
        (Fraction(_sgn(i, k)), g.replace([(i, j), (k, k)], [(i, k), (j, j)])),
        (Fraction(-_sgn(j, k)), g.replace([(i, j), (k, k)], [(j, k), (i, i)])),
    ]


def edge_pair_relation(g: LoopedMultigraph, e1: Edge, e2: Edge) -> GraphCombo:
    """Rewire two disjoint edges via the quadratic Plücker relation.

    On sorted support a < b < c < d the three pairings P1 = {ab, cd},
    P2 = {ac, bd}, P3 = {ad, bc} satisfy P1 - P2 + P3 = 0 (as monomials
    with sorted indices), so each pairing equals a signed sum of the
    other two.
    """
    e1 = (min(e1), max(e1))
    e2 = (min(e2), max(e2))
    support = sorted({*e1, *e2})
    if len(support) != 4:
        raise ValueError("edges must cover four distinct vertices")
    a, b, c, d = support
    pairings = {
        frozenset({(a, b), (c, d)}): 1,
        frozenset({(a, c), (b, d)}): 2,
        frozenset({(a, d), (b, c)}): 3,
    }
    which = pairings[frozenset({e1, e2})]

    def with_edges(p: Edge, q: Edge) -> LoopedMultigraph:
        return g.replace([e1, e2], [p, q])

    if which == 1:
        return [
            (Fraction(1), with_edges((a, c), (b, d))),
            (Fraction(-1), with_edges((a, d), (b, c))),
        ]
    if which == 2:
        return [
            (Fraction(1), with_edges((a, b), (c, d))),
            (Fraction(1), with_edges((a, d), (b, c))),
        ]
    return [
        (Fraction(1), with_edges((a, c), (b, d))),
        (Fraction(-1), with_edges((a, b), (c, d))),
    ]


Provenance = dict[int, tuple[str, Edge]]


def normalize_loops(g: LoopedMultigraph) -> tuple[LoopedMultigraph, Provenance]:
    """Pair the loops so the graph becomes classical (loops count 2).

    Loops are matched greedily between the two lowest vertices still
    carrying unpaired loops; a leftover pair at one vertex becomes a
    classical loop there.  Returns the classical graph and a provenance
    map from each position in its (sorted) edge list to the source:
    ("edge", e) for a real edge, ("loops", (u, w)) for the two loops a
    synthetic edge replaced.  Odd loop totals are rejected.
    """
    loops = [a for a, b in g.edges if a == b]
    if len(loops) % 2:
        raise ValueError("odd number of loops cannot be paired")
    per_vertex = Counter(loops)
    tagged: list[tuple[Edge, tuple[str, Edge]]] = []
    for e in g.proper_edges():
        tagged.append((e, ("edge", e)))
    vertices = sorted(per_vertex)
    while True:
        carrying = [v for v in vertices if per_vertex[v] > 0]
        if len(carrying) < 2:
            break
        u, w = carrying[0], carrying[1]
        per_vertex[u] -= 1
        per_vertex[w] -= 1
        tagged.append(((u, w), ("loops", (u, w))))
    for v in vertices:
        while per_vertex[v] >= 2:
            per_vertex[v] -= 2
            tagged.append(((v, v), ("loops", (v, v))))
    if any(per_vertex[v] for v in vertices):
        raise AssertionError("every loop must be paired off")
    tagged.sort(key=lambda t: t[0])
    classical = LoopedMultigraph(g.n, [e for e, _ in tagged])
    if classical.edges != [e for e, _ in tagged]:
        raise AssertionError("sort must align")
    provenance = {i: src for i, (_, src) in enumerate(tagged)}
    return classical, provenance


def _euler_circuit(edges: list[tuple[int, Edge]]) -> list[tuple[int, int, int]]:
    """Hierholzer on one connected even-degree component.

    Edges carry instance ids; classical loops traverse v -> v once.
    Returns directed traversal triples (edge_id, tail, head).
    """
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for eid, (a, b) in edges:
        adj[a].append((eid, b))
        if a != b:
            adj[b].append((eid, a))
    used: set[int] = set()
    start = edges[0][1][0]
    stack: list[tuple[int, int | None]] = [(start, None)]
    path: list[tuple[int, int, int]] = []
    trail: list[tuple[int, int]] = []
    while stack:
        v, via = stack[-1]
        found = None
        while adj[v]:
            eid, w = adj[v].pop()
            if eid in used:
                continue
            used.add(eid)
            found = (eid, w)
            break
        if found is None:
            stack.pop()
            if via is not None and stack:
                path.append((via, stack[-1][0], v))
        else:
            stack.append((found[1], found[0]))
    path.reverse()
    if len(path) != len(edges):
        raise AssertionError("component must be connected with even degrees")
    return path


def one_factorize_bipartite(
    n_left: int, n_right: int, edges: list[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Split a k-regular bipartite multigraph into k perfect matchings.

    Left vertices are 0..n_left-1, right vertices 0..n_right-1; edges are
    (left, right) with multiplicity.  Uses repeated augmenting-path
    matchings, which always succeed on regular bipartite graphs.
    """
    if n_left != n_right:
        raise ValueError("regular bipartite graphs need equal sides")
    degree = Counter(l for l, _ in edges)
    k = degree[0] if edges else 0
    if any(degree[v] != k for v in range(n_left)):
        raise ValueError("left side is not regular")
    right_degree = Counter(r for _, r in edges)
    if any(right_degree[v] != k for v in range(n_right)):
        raise ValueError("right side is not regular")
    remaining = Counter(edges)
    factors: list[list[tuple[int, int]]] = []
    for _ in range(k):
        adj: dict[int, list[int]] = defaultdict(list)
        for (l, r), cnt in remaining.items():
            if cnt > 0:
                adj[l].append(r)
        match_right: dict[int, int] = {}

        def try_assign(l: int, banned: set[int]) -> bool:
            for r in adj[l]:
                if r in banned:
                    continue
                banned.add(r)
                if r not in match_right or try_assign(match_right[r], banned):
                    match_right[r] = l
                    return True
            return False

        for l in range(n_left):
            if not try_assign(l, set()):
                raise ValueError("no perfect matching; graph was not regular")
        matching = sorted((l, r) for r, l in match_right.items())
        for e in matching:
            remaining[e] -= 1
        factors.append(matching)
    if +remaining:
        raise AssertionError("matchings must use every edge")
    return factors


def two_factorize(g: LoopedMultigraph) -> list[LoopedMultigraph]:
    """Split a 2r-regular looped multigraph into r 2-regular ones.

    Loops are first paired into classical loops; each component's Euler
    circuit orients the edges so the out/in incidence graph is r-regular
    bipartite, whose matchings pull back to 2-factors.  Every returned
    graph is 2-regular in loop-counts-one degrees.
    """
    deg = g.degrees()
    degs = {d for d in deg.values() if d}
    if len(degs) != 1 or next(iter(degs)) % 2:
        raise ValueError("graph is not 2r-regular")
    r = next(iter(degs)) // 2
    classical, provenance = normalize_loops(g)
    # one Euler circuit per component
    arcs: list[tuple[int, int, int]] = []
    for comp in classical.components():
        arcs.extend(_euler_circuit([(eid, classical.edges[eid]) for eid in comp]))
    # classical degree is 2r everywhere on the support, so the circuits
    # leave and enter each touched vertex exactly r times: the out/in
    # incidence graph is r-regular bipartite
    touched = sorted({v for e in classical.edges for v in e})
    index = {v: i for i, v in enumerate(touched)}
    bip_edges = [(index[tail], index[head]) for _, tail, head in arcs]
    arc_lookup: dict[tuple[int, int], list[int]] = defaultdict(list)
    for eid, tail, head in arcs:
        arc_lookup[(index[tail], index[head])].append(eid)
    out: list[LoopedMultigraph] = []
    # the matchings partition the arc multiset, so a global cursor hands
    # each parallel arc instance to exactly one factor
    taken: dict[tuple[int, int], int] = defaultdict(int)
    for matching in one_factorize_bipartite(len(touched), len(touched), bip_edges):
        back_edges: list[Edge] = []
        for l, rgt in matching:
            eid = arc_lookup[(l, rgt)][taken[(l, rgt)]]
            taken[(l, rgt)] += 1
            tag, (a, b) = provenance[eid]
            if tag == "edge":
                back_edges.append((a, b))
            else:
                # synthetic classical edge: return its source loops
                back_edges.extend([(a, a), (b, b)])
        out.append(LoopedMultigraph(g.n, back_edges))
    support = {v: 2 if d else 0 for v, d in deg.items()}
    if any(f.degrees() != support for f in out):
        raise AssertionError("factor must be 2-regular")
    if len(out) != r:
        raise AssertionError(f"expected {r} 2-factors, found {len(out)}")
    return out


def _trail(adj: dict[int, list[tuple[int, int]]], start: int) -> list[int]:
    """Vertex sequence of a walk from start along unused edges, smallest neighbour first."""
    seq, used = [start], set()
    while True:
        step = next(
            (p for p in sorted(adj[seq[-1]], key=lambda p: p[1]) if p[0] not in used),
            None,
        )
        if step is None:
            return seq
        used.add(step[0])
        seq.append(step[1])


def classify_two_regular(g: LoopedMultigraph) -> list[dict]:
    """Component census of a 2-regular looped multigraph, with ordered walks.

    Every component of such a graph is one of five shapes: an even or odd
    cycle, a path whose ends both carry loops (even or odd edge count), or
    a single vertex with two loops.  These are the only graphs the graph
    route walks: its 2-factors come from ``two_factorize``, and the edge
    relations that repair them keep every vertex degree.  A graph with a
    vertex of another degree raises.

    Each component gives its kind, its vertex sequence and the edges in
    walk order: a cycle from its smallest vertex, a path from its smaller
    end (end loops first and last), always to the smallest neighbour first.
    """
    for v, d in g.degrees().items():
        if d not in (0, 2):
            raise ValueError(f"vertex {v} has degree {d}, graph is not 2-regular")
    out = []
    for comp in ([g.edges[i] for i in ids] for ids in g.components()):
        loops = [a for a, b in comp if a == b]
        adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for idx, (a, b) in enumerate(e for e in comp if e[0] != e[1]):
            adj[a].append((idx, b))
            adj[b].append((idx, a))
        if not adj:
            out.append({"kind": "vertex_with_two_loops", "vertices": loops[:1], "order": comp})
            continue
        # degree 2 leaves a cycle, or a path whose two ends carry the loops
        seq = _trail(adj, min(loops or adj))
        order = [(min(p), max(p)) for p in zip(seq, seq[1:])]
        even = len(order) % 2 == 0
        if loops:
            kind = "even_path_loop_to_loop" if even else "odd_path_loop_to_loop"
            order = [(seq[0], seq[0]), *order, (seq[-1], seq[-1])]
        else:
            kind, seq = ("even_cycle" if even else "odd_cycle"), seq[:-1]
        out.append({"kind": kind, "vertices": seq, "order": order})
    return out


def to_dot(g: LoopedMultigraph) -> str:
    """Graphviz text form; loops render as self-edges."""
    lines = ["graph G {"]
    touched = {v for e in g.edges for v in e}
    for v in range(1, g.n + 1):
        if v in touched:
            lines.append(f"  {v};")
    for a, b in g.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
