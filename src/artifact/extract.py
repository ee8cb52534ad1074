"""Constructive degree-one factor extraction for type-A invariants.

Given a torus-invariant standard monomial f of degree k >= 2, produce an
exact decomposition f = sum c_t * g_t * h_t with every g_t a degree-one
zero-weight standard monomial and every h_t a degree k-1 monomial.  Most
f are divisible by such a unit, and the divisor is picked straight from
f's own rows, without enumerating the degree-one basis.  Otherwise, when
k is even and s (the unit's box count over n) is odd, the route is
combinatorial: f is a ks-regular looped multigraph, and the candidate
is a matching of one of its 2-factors plus (s-1)/2 more.  Odd cycles
are repaired with signed three-term relations, then loops are traded
against edges between candidate and cofactor until the candidate has
the loop count of the unit shape; every move builds new graphs through
``LoopedMultigraph.replace``.  Any other undivided f, and any f on which
the combinatorics jam, goes to an exact linear-algebra factorization,
and either route's terms must pass ``verifier.straightens_to``, the
identity ``validate_certificate`` also checks.  The other parities need no
graph split in practice: for s even on the g2n family a 2-factor of the
2k-regular loopless graph is itself a dividing unit (Petersen), and no
measured piece with s even, or with k and s both odd, has an undivided
basis element.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from fractions import Fraction

from .graphs import (
    Edge,
    GraphCombo,
    LoopedMultigraph,
    classify_two_regular,
    edge_loop_relation,
    edge_pair_relation,
    graph_from_monomial,
    monomial_from_graph,
    two_factorize,
)
from .plucker import PluckerMonomial, straighten
from .tableau_a import content_vector, row_content
from .verifier import (
    CertTermList,
    basis_monomials,
    factor_by_linear_algebra,
    monomial_degree,
    straightens_to,
)
from .weights import FAMILY_A, GroupInstance, shape_from_weight

logger = logging.getLogger(__name__)


class ExtractionStuck(RuntimeError):
    """The combinatorial route ran out of moves; caller should fall back."""


def _pick_spare_loop(comps: list[dict], banned: set[int]) -> int | None:
    """Loop vertex to consume: a path end before a doubled loop, then the smallest."""
    spare = [
        (comp["kind"] == "vertex_with_two_loops", a)
        for comp in comps
        for a, b in comp["order"]
        if a == b and a not in banned
    ]
    return min(spare)[1] if spare else None


def merge_odd_cycles(g: LoopedMultigraph) -> GraphCombo:
    """Rewrite away every odd cycle, branching on signed relations.

    Pairs of odd cycles merge into one even cycle through the quadratic
    relation on one edge from each (both branches do); a final unpaired
    odd cycle is opened against a spare loop, leaving a path with a loop
    end.  Each step lowers the odd-cycle count, so this terminates.
    """
    work: GraphCombo = [(Fraction(1), g)]
    done: GraphCombo = []
    while work:
        coeff, cur = work.pop()
        comps = classify_two_regular(cur)
        odd = sorted(
            comp["order"] for comp in comps if comp["kind"] == "odd_cycle"
        )
        if not odd:
            done.append((coeff, cur))
            continue
        if len(odd) >= 2:
            e1, e2 = min(odd[0]), min(odd[1])
            for sign, nxt in edge_pair_relation(cur, e1, e2):
                work.append((coeff * sign, nxt))
            continue
        edge = min(odd[0])
        loop_v = _pick_spare_loop(comps, banned=set(edge))
        if loop_v is None:
            raise ExtractionStuck("lone odd cycle with no spare loop")
        for sign, nxt in edge_loop_relation(cur, edge, loop_v):
            work.append((coeff * sign, nxt))
    return done


def one_factor_selection(g: LoopedMultigraph) -> LoopedMultigraph:
    """Spanning degree-one subgraph of an odd-cycle-free 2-regular graph.

    Takes every other edge of each component's walk, from the first: the
    alternate edges of an even cycle, one loop of a doubled loop, and on a
    path both end loops when its edge count is odd, the first loop only
    when it is even.  What is left is 1-regular too.  The graph route only
    selects from 2-regular graphs (see ``classify_two_regular``), so any
    other input raises ValueError; an odd cycle has no such subgraph.
    """
    chosen: list[Edge] = []
    for comp in classify_two_regular(g):
        if comp["kind"] == "odd_cycle":
            raise ExtractionStuck("cannot select a matching from an odd cycle")
        chosen.extend(comp["order"][0::2])
    out = LoopedMultigraph(g.n, chosen)
    for v, d in g.degrees().items():
        if out.degree(v) != (1 if d else 0):
            raise AssertionError("selection must be 1-regular")
    return out


def graph_difference(g: LoopedMultigraph, sub: LoopedMultigraph) -> LoopedMultigraph:
    return g.replace(sub.edges)


def _union(n: int, parts: list[LoopedMultigraph]) -> LoopedMultigraph:
    return LoopedMultigraph(n, [e for p in parts for e in p.edges])


def _trade(
    g: LoopedMultigraph, h: LoopedMultigraph, give: list[Edge], take: list[Edge]
) -> tuple[LoopedMultigraph, LoopedMultigraph]:
    """Move the edges ``give`` from g to h and the edges ``take`` from h to g."""
    return g.replace(give, take), h.replace(take, give)


def iter_interchanges(
    g: LoopedMultigraph, h: LoopedMultigraph, direction: int
):
    """Yield every loop-trading move between candidate and cofactor.

    ``direction`` -1 lowers the candidate's loop count by two, +1 raises
    it; each move preserves the factor multiset of g * h exactly, so it
    is an identity on the product.  Moves come out in a fixed order
    (sorted edge and loop choices), pair swaps before two-edge trades.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    h_count = Counter(h.edges)
    if direction == -1:
        loop_count = Counter(g.loop_vertices())
        for i, j in itertools.combinations(sorted(loop_count), 2):
            if h_count[(i, j)] > 0:
                yield _trade(g, h, [(i, i), (j, j)], [(i, j)])
        pairs = [
            (k, l)
            for k, l in itertools.combinations_with_replacement(sorted(loop_count), 2)
            if k != l or loop_count[k] >= 2
        ]
        for a, b in sorted(set(g.proper_edges())):
            for k, l in pairs:
                if k in (a, b) or l in (a, b):
                    continue
                for x, y in ((k, l), (l, k)):
                    e1, e2 = tuple(sorted((a, x))), tuple(sorted((b, y)))
                    if all(h_count[e] >= c for e, c in Counter((e1, e2)).items()):
                        yield _trade(g, h, [(a, b), (k, k), (l, l)], [e1, e2])
        return
    h_loops = Counter(h.loop_vertices())
    for i, j in sorted(set(g.proper_edges())):
        if h_loops[i] and h_loops[j]:
            yield _trade(g, h, [(i, j)], [(i, i), (j, j)])
    for e1, e2 in itertools.combinations(sorted(g.proper_edges()), 2):
        for i, k in (e1, e1[::-1]):
            for j, l in (e2, e2[::-1]):
                bridge = tuple(sorted((i, j)))
                if i != j and h_count[bridge] and all(
                    h_loops[v] >= c for v, c in Counter((k, l)).items()
                ):
                    yield _trade(g, h, [e1, e2], [bridge, (k, k), (l, l)])


def _relations(h: LoopedMultigraph):
    """Signed branches of each relation that rewrites the cofactor, lazily.

    Edge-loop relations come first, over the sorted proper edges and the
    sorted loop vertices off each edge; then edge-pair relations, over
    the pairs of disjoint proper edges.
    """
    proper = sorted(set(h.proper_edges()))
    loops = sorted(set(h.loop_vertices()))
    for e in proper:
        for v in loops:
            if v not in e:
                yield edge_loop_relation(h, e, v)
    for e1, e2 in itertools.combinations(proper, 2):
        if len({*e1, *e2}) == 4:
            yield edge_pair_relation(h, e1, e2)


def rebalance_loops(
    g: LoopedMultigraph, h: LoopedMultigraph, target: int
) -> list[tuple[Fraction, LoopedMultigraph, LoopedMultigraph]]:
    """Drive the candidate's loop count to ``target`` on every branch.

    Direct interchanges move two loops at a time and keep each g * h
    product fixed; when none applies, the cofactor is rewritten by one
    signed relation, chosen by a one-step lookahead that prefers both
    branches becoming movable.  Relation steps are capped quadratically
    in the total loop count, after which the caller must fall back.
    """
    total_loops = len(g.loop_vertices()) + len(h.loop_vertices())
    cap = max(4, total_loops * total_loops)
    steps = 0
    work: list[tuple[Fraction, LoopedMultigraph, LoopedMultigraph]] = [
        (Fraction(1), g, h)
    ]
    done: list[tuple[Fraction, LoopedMultigraph, LoopedMultigraph]] = []
    while work:
        coeff, cg, ch = work.pop()
        delta = len(cg.loop_vertices()) - target
        if delta == 0:
            done.append((coeff, cg, ch))
            continue
        if delta % 2:
            raise ExtractionStuck("loop surplus has the wrong parity")
        direction = -1 if delta > 0 else 1
        move = next(iter_interchanges(cg, ch, direction), None)
        if move is not None:
            work.append((coeff, *move))
            continue
        steps += 1
        if steps > cap:
            raise ExtractionStuck("relation budget exhausted while rebalancing")
        best = None
        for branches in _relations(ch):
            score = sum(
                1 for _, hb in branches if any(iter_interchanges(cg, hb, direction))
            )
            if best is None or score > best[0]:
                best = (score, branches)
            if score == 2:
                break
        if best is None:
            raise ExtractionStuck("no relation applies to the cofactor")
        for sign, hb in best[1]:
            work.append((coeff * sign, cg, hb))
    return done


def degree_one_basis(instance: GroupInstance) -> list[PluckerMonomial]:
    """Zero-weight standard monomials of degree one, enumeration order."""
    return basis_monomials(instance, 1)


def _take_rows(i, rows, mults, idx_left, need_len, need_idx, picked) -> bool:
    """Depth-first choice of how many copies of rows[i:] to take.

    Counts are tried largest first, so the first full pick is the
    lexicographically smallest.  ``idx_left[i]`` counts the occurrences
    of each index in rows[i:]; a branch ends once an index needs more.
    Capping each length class at its need makes the index counts enough
    at the end: the boxes then add up only if every class is full.
    """
    if i == len(rows):
        return not any(need_idx)
    if any(need > left for need, left in zip(need_idx, idx_left[i])):
        return False
    row = rows[i]
    ell = len(row)
    for take in range(min(mults[i], need_len[ell], *(need_idx[v] for v in row)), -1, -1):
        need_len[ell] -= take
        for v in row:
            need_idx[v] -= take
        picked.append((row, take))
        if _take_rows(i + 1, rows, mults, idx_left, need_len, need_idx, picked):
            return True
        picked.pop()
        need_len[ell] += take
        for v in row:
            need_idx[v] += take
    return False


def dividing_unit(instance: GroupInstance, f: PluckerMonomial) -> PluckerMonomial | None:
    """The first degree-one basis element dividing the standard f, or None.

    A sub-multiset of f's rows is a chain like f's own rows, so it is
    standard; it is a degree-one basis element exactly when it has the
    unit shape's row lengths and uses every index 1..n boxes/n times.
    The search picks such a sub-multiset straight from f's rows, walking
    the distinct rows in canonical order and taking the most copies
    first, so its first hit is the lexicographically first dividing unit:
    the one that comes first in ``degree_one_basis``.
    """
    unit_shape = shape_from_weight(instance, 1)
    n = instance.n
    per_index = content_vector(unit_shape, n, "uniform")[0]
    counts = Counter(f.factors)  # f.factors is canonical, so is this order
    rows, mults = list(counts), list(counts.values())
    idx_left: list[tuple[int, ...]] = [()] * len(rows)
    left = [0] * (n + 1)
    for i in range(len(rows) - 1, -1, -1):
        for v in rows[i]:
            left[v] += mults[i]
        idx_left[i] = tuple(left)
    need_len = Counter(unit_shape.row_lengths())
    need_idx = [0] + [per_index] * n
    picked: list[tuple[tuple[int, ...], int]] = []
    if not _take_rows(0, rows, mults, idx_left, need_len, need_idx, picked):
        return None
    return PluckerMonomial.trusted(n, tuple(row for row, take in picked for _ in range(take)))


def _split_candidate(
    f: PluckerMonomial, k: int, s: int
) -> list[tuple[Fraction, LoopedMultigraph, LoopedMultigraph]]:
    """Graph-level candidates (coeff, g, h) of the degree-k f before loop rebalancing.

    For k even and s odd only: f's graph is ks-regular with ks even, so it
    has a 2-factorization.  One 2-factor with an even number of odd
    cycles, or with a loop, is repaired by ``merge_odd_cycles``; g takes a
    matching of each repaired branch plus (s-1)/2 more 2-factors, and h
    the rest.
    """
    n = f.n
    G = graph_from_monomial(f)
    if not G.is_regular(k * s):
        raise ValueError("monomial is not torus-invariant")
    factors = two_factorize(G)
    order = sorted(
        range(len(factors)),
        key=lambda i: (-len(factors[i].loop_vertices()), i),
    )
    pick = None
    for idx in order:
        comps = classify_two_regular(factors[idx])
        n_odd = sum(1 for c in comps if c["kind"] == "odd_cycle")
        if n_odd % 2 == 0 or factors[idx].loop_vertices():
            pick = idx
            break
    if pick is None:
        raise ExtractionStuck("no two-factor supports a matching")
    others = [factors[i] for i in range(len(factors)) if i != pick]
    take = (s - 1) // 2
    out = []
    for coeff, repaired in merge_odd_cycles(factors[pick]):
        m = one_factor_selection(repaired)
        rem = graph_difference(repaired, m)
        g_t = _union(n, [m] + others[:take])
        h_t = _union(n, [rem] + others[take:])
        out.append((coeff, g_t, h_t))
    return out


def extract_degree_one(instance: GroupInstance, f: PluckerMonomial) -> CertTermList:
    """Decompose f into degree-one generators times degree k-1 cofactors.

    Fast path is plain monomial division: ``dividing_unit`` searches f's
    rows for a sub-multiset with the unit shape's row lengths and uniform
    content.  Every sub-multiset of a standard monomial's rows is
    standard, so the search misses no dividing basis element, and it
    returns the same one a scan of ``degree_one_basis`` would.  Otherwise,
    for k even and s odd, the graph pipeline runs and its candidates are
    rebalanced and straightened; for the other parities, or if the
    combinatorics jam, an exact linear-algebra factorization takes over,
    so the result is always a verified identity.
    """
    if instance.family != FAMILY_A:
        raise ValueError("extraction is defined for the type-A families")
    n = instance.n
    if f.n != n:
        raise ValueError("monomial rank does not match the instance")
    if not f.is_standard:
        raise ValueError("input monomial must be standard")
    k = monomial_degree(instance, f)
    if k < 2:
        raise ValueError("degree must be at least 2")
    expected = shape_from_weight(instance, k)
    # f's rows are canonical, so they run longest first like the shape's
    if tuple(map(len, f.factors)) != expected.row_lengths():
        raise ValueError("monomial shape does not match the scaled weight")
    if len(set(row_content(f.factors, n))) > 1:
        raise ValueError("monomial is not torus-invariant")
    unit = dividing_unit(instance, f)
    if unit is not None:
        return [(Fraction(1), unit, f.quotient(unit))]
    unit_shape = shape_from_weight(instance, 1)
    s = unit_shape.boxes // n
    if k % 2 == 0 and s % 2 == 1 and {len(r) for r in f.factors} <= {1, 2}:
        try:
            raw = _split_candidate(f, k, s)
            singles = unit_shape.row_lengths().count(1)
            balanced: list[tuple[Fraction, LoopedMultigraph, LoopedMultigraph]] = []
            for coeff, g, h in raw:
                for c2, g2, h2 in rebalance_loops(g, h, singles):
                    balanced.append((coeff * c2, g2, h2))
            out: CertTermList = []
            for coeff, g, h in balanced:
                h_mono = monomial_from_graph(h)
                for mono, c in straighten(monomial_from_graph(g)).items():
                    out.append((coeff * c, mono, h_mono))
            _validate_terms(f, out)
            return out
        except ExtractionStuck as exc:
            logger.warning(
                "combinatorial extraction jammed (%s); using linear algebra", exc
            )
    out = factor_by_linear_algebra(instance, f)
    _validate_terms(f, out)
    return out


def _validate_terms(f: PluckerMonomial, terms: CertTermList) -> None:
    if not all(g.is_standard for _, g, _ in terms):
        raise AssertionError("generator must be standard")
    if not straightens_to(f, terms):
        raise AssertionError("extraction identity failed straightening check")
