"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: enumerate a superset
and filter, classify by counting, or search row by row as the package
once did.  The tests compare these against the production code paths.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator

from artifact.extract import degree_one_basis
from artifact.graphs import GraphCombo, monomial_from_graph
from artifact.linalg import RankTracker
from artifact.plucker import PluckerMonomial, PluckerPoly, straighten
from artifact.tableau_a import (
    Factors,
    canonical_rows,
    check_rows,
    content_vector,
    divide_rows,
    first_violation,
    row_content,
)
from artifact.tableau_b import _row_candidates, enumerate_standard_b, is_admissible
from artifact.verifier import _b_units, _partitions, basis_monomials
from artifact.weights import FAMILY_B, GroupInstance, ShapeA, ShapeB, shape_from_weight


def all_rows(n: int, length: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), length))


def grid_standard(rows) -> bool:
    """Column-by-column standardness on the padded grid (reference)."""
    ordered = sorted((tuple(r) for r in rows), key=lambda r: (-len(r), r))
    for upper, lower in zip(ordered, ordered[1:]):
        if len(lower) > len(upper):
            return False
    width = len(ordered[0]) if ordered else 0
    for j in range(width):
        column = [r[j] for r in ordered if len(r) > j]
        if any(a > b for a, b in zip(column, column[1:])):
            return False
    return True


def naive_standard_tableaux(
    cols, n: int, content: tuple[int, ...] | None = None
) -> set[tuple[tuple[int, ...], ...]]:
    """Filtered brute force over all row multisets of the shape."""
    cols = tuple(cols)
    lengths = [sum(1 for c in cols if c > i) for i in range(cols[0])] if cols else []
    if content is None:
        boxes = sum(cols)
        assert boxes % n == 0
        content = (boxes // n,) * n
    by_length = Counter(lengths)
    pools = [
        itertools.combinations_with_replacement(all_rows(n, ell), c)
        for ell, c in sorted(by_length.items(), reverse=True)
    ]
    found: set[tuple[tuple[int, ...], ...]] = set()
    for pick in itertools.product(*pools):
        rows = tuple(r for group in pick for r in group)
        counts = [0] * n
        for row in rows:
            for e in row:
                counts[e - 1] += 1
        if tuple(counts) != tuple(content):
            continue
        if grid_standard(rows):
            found.add(tuple(sorted(rows, key=lambda r: (-len(r), r))))
    return found


def enumerate_standard_rowwise(
    shape: ShapeA | tuple[int, ...], n: int, content="uniform"
) -> Iterator[Factors]:
    """Row-by-row search for standard tableaux (reference for the strip walk).

    Rows are generated top to bottom in the canonical arrangement, each
    entry smallest first, so the stream is in lexicographic order of the
    rows.  Two supply prunes keep deep shapes tractable: entries of every
    later row dominate the current row columnwise, so leftover values
    below the current row head are dead, and a value fits at most once
    per remaining row.
    """
    cols = shape.column_lengths if isinstance(shape, ShapeA) else tuple(shape)
    if not cols:
        if content == "uniform" or sum(content) == 0:
            yield ()
        else:
            raise ValueError("non-empty content for the empty shape")
        return
    counts = list(content_vector(cols, n, content))
    lengths = [sum(1 for c in cols if c > i) for i in range(cols[0])]
    total_rows = len(lengths)
    out: list[tuple[int, ...]] = []

    def fill_row(
        length: int, pos: int, row: list[int], prev: tuple[int, ...] | None
    ) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(row)
            return
        low = row[-1] + 1 if pos else 1
        if prev is not None and pos < len(prev):
            low = max(low, prev[pos])
        # leave room for a strictly increasing suffix
        for v in range(low, n - (length - pos - 1) + 1):
            if counts[v - 1] == 0:
                continue
            counts[v - 1] -= 1
            row.append(v)
            yield from fill_row(length, pos + 1, row, prev)
            row.pop()
            counts[v - 1] += 1

    def place(idx: int, prev: tuple[int, ...] | None) -> Iterator[Factors]:
        if idx == total_rows:
            yield tuple(out)
            return
        rows_left = total_rows - idx - 1
        for row in fill_row(lengths[idx], 0, [], prev):
            if any(counts[v] for v in range(row[0] - 1)):
                continue
            if max(counts) > rows_left:
                continue
            out.append(row)
            yield from place(idx + 1, row)
            out.pop()

    yield from place(0, None)


def valid_b_rows(n: int, length: int) -> list[tuple[int, ...]]:
    """Strictly increasing rows in 1..2n avoiding complementary pairs."""
    out = []
    for row in itertools.combinations(range(1, 2 * n + 1), length):
        if any((2 * n + 1 - e) in row for e in row):
            continue
        out.append(row)
    return out


def check_b_rows(rows, n: int) -> None:
    """Raise unless each row is strictly increasing in 1..2n with no opposite pair."""
    check_rows(rows, 2 * n)
    for row in rows:
        for e in row:
            if 2 * n + 1 - e in row:
                raise ValueError(f"row {row} holds both {e} and {2 * n + 1 - e}")


def b_weight(rows, n: int) -> tuple[int, ...]:
    """Twice the weight of type-B rows: c_j - c_{2n+1-j} for j = 1..n."""
    c = row_content(rows, 2 * n)
    return tuple(c[j] - c[2 * n - 1 - j] for j in range(n))


def b_pairs_admissible(rows, paired: int, n: int) -> bool:
    """Whether each of the first `paired` row pairs is admissible."""
    return all(is_admissible(rows[2 * i], rows[2 * i + 1], n) for i in range(paired))


def naive_standard_b(instance: GroupInstance, degree: int) -> set[tuple[tuple[int, ...], ...]]:
    """Filtered brute force over row multisets of the spin shape."""
    shape = shape_from_weight(instance, degree)
    assert isinstance(shape, ShapeB)
    n = instance.n
    lengths = shape.row_lengths()
    by_length = Counter(lengths)
    pools = [
        itertools.combinations_with_replacement(valid_b_rows(n, ell), c)
        for ell, c in sorted(by_length.items(), reverse=True)
    ]
    found: set[tuple[tuple[int, ...], ...]] = set()
    for pick in itertools.product(*pools):
        rows = tuple(r for group in pick for r in group)
        ordered = tuple(sorted(rows, key=lambda r: (-len(r), r)))
        if (first_violation(ordered) is None
                and b_pairs_admissible(ordered, shape.paired_rows, n)
                and not any(b_weight(ordered, n))):
            found.add(ordered)
    return found


def enumerate_standard_b_pool(
    instance: GroupInstance, degree: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Type-B search filtering the whole candidate pool at every row (reference).

    Rows are produced top to bottom, each ranging over the lexicographic
    candidates that dominate the previous row entrywise, with the
    admissibility check applied as soon as a paired row completes; the
    imbalance is re-summed over all opposite pairs for every candidate.
    """
    if instance.family != FAMILY_B:
        raise ValueError("type-B enumeration needs a type-B instance")
    shape = shape_from_weight(instance, degree)
    if not isinstance(shape, ShapeB):
        raise AssertionError("a type-B instance has a spin shape")
    lengths = shape.row_lengths()
    if not lengths:
        yield ()
        return
    n = instance.n
    top = 2 * n
    paired = shape.paired_rows
    pools = {length: _row_candidates(n, length) for length in set(lengths)}
    total_boxes = sum(lengths)
    counts = [0] * top
    rows: list[tuple[int, ...]] = []

    def imbalance() -> int:
        return sum(abs(counts[j] - counts[top - 1 - j]) for j in range(n))

    def place(idx: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(lengths):
            yield tuple(rows)
            return
        length = lengths[idx]
        prev = rows[idx - 1] if idx else None
        for cand in pools[length]:
            if prev is not None and any(
                cand[j] < prev[j] for j in range(min(length, len(prev)))
            ):
                continue
            for e in cand:
                counts[e - 1] += 1
            rows.append(cand)
            ok = True
            if idx % 2 == 1 and idx // 2 < paired:
                if len(rows[idx - 1]) != length:
                    raise ValueError("paired rows of unequal length")
                ok = is_admissible(rows[idx - 1], cand, n)
            if ok and imbalance() <= total_boxes - used - length:
                yield from place(idx + 1, used + length)
            rows.pop()
            for e in cand:
                counts[e - 1] -= 1

    for t in place(0, 0):
        if not any(b_weight(t, n)):
            yield t


def enumerate_standard_b_imbalance(
    instance: GroupInstance, degree: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Type-B search pruning on the scalar imbalance alone (reference).

    The package's search before its per-coordinate weight prune: each
    row's candidates are looked up in a table built once per call, and
    the imbalance, the sum over opposite pairs of |c_t - c_opp|, is
    carried along and updated from the entries of each row placed.  A row
    is kept while the imbalance fits in the boxes left, so the last row
    admits exactly the torus-invariant tableaux.
    """
    if instance.family != FAMILY_B:
        raise ValueError("type-B enumeration needs a type-B instance")
    shape = shape_from_weight(instance, degree)
    assert isinstance(shape, ShapeB)
    lengths = shape.row_lengths()
    if not lengths:
        yield ()
        return
    n = instance.n
    top = 2 * n
    total = sum(lengths)
    above: dict = {}
    counts = [0] * top
    rows: list[tuple[int, ...]] = []

    def candidates(idx: int) -> list[tuple[int, ...]]:
        length = lengths[idx]
        if not idx:
            return _row_candidates(n, length)
        prev = rows[idx - 1]
        pair_row = idx % 2 == 1 and idx // 2 < shape.paired_rows
        key = (length, prev, pair_row)
        if key not in above:
            if pair_row and len(prev) != length:
                raise ValueError("paired rows of unequal length")
            above[key] = [
                cand for cand in _row_candidates(n, length)
                if all(c >= p for c, p in zip(cand, prev))
                and (not pair_row or is_admissible(prev, cand, n))
            ]
        return above[key]

    def place(idx: int, used: int, imbalance: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(lengths):
            yield tuple(rows)
            return
        length = lengths[idx]
        remaining = total - used - length
        for cand in candidates(idx):
            after = imbalance
            for e in cand:
                after += 1 if counts[e - 1] >= counts[top - e] else -1
                counts[e - 1] += 1
            if after <= remaining:
                rows.append(cand)
                yield from place(idx + 1, used + length, after)
                rows.pop()
            for e in cand:
                counts[e - 1] -= 1

    yield from place(0, 0, 0)


def two_regular_on(support: tuple[int, ...]):
    """Every edge multiset on the support with all degrees exactly 2.

    Loops count one toward the degree.  The lowest vertex with missing
    degree is always completed first with a canonical partner multiset,
    so each graph comes out exactly once.
    """
    deficits = {v: 2 for v in support}
    edges: list[tuple[int, int]] = []

    def rec():
        pending = [v for v in support if deficits[v] > 0]
        if not pending:
            yield tuple(sorted(edges))
            return
        v = pending[0]
        options = [v] + [w for w in support if w > v and deficits[w] > 0]
        for partners in itertools.combinations_with_replacement(options, deficits[v]):
            use = Counter(w for w in partners if w != v)
            if any(deficits[w] < c for w, c in use.items()):
                continue
            added = [(v, v) if w == v else (v, w) for w in partners]
            saved = deficits[v]
            deficits[v] = 0
            for w, c in use.items():
                deficits[w] -= c
            edges.extend(added)
            yield from rec()
            del edges[-len(added):]
            deficits[v] = saved
            for w, c in use.items():
                deficits[w] += c

    yield from rec()


def brute_two_regular_graphs(n: int):
    """All labeled 2-regular multigraphs with support inside 1..n."""
    base = range(1, n + 1)
    for size in range(1, n + 1):
        for support in itertools.combinations(base, size):
            yield from two_regular_on(support)


def brute_classify(n: int, edges) -> list[tuple[tuple[int, ...], str]]:
    """Reference component classifier, by loop and edge counting."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        groups.setdefault(find(e[0]), []).append(e)
    out = []
    for root in sorted(groups, key=lambda r: min(min(e) for e in groups[r])):
        comp = groups[root]
        verts = tuple(sorted({v for e in comp for v in e}))
        loops = sum(1 for a, b in comp if a == b)
        proper = sum(1 for a, b in comp if a != b)
        if len(verts) == 1 and loops == 2:
            kind = "vertex_with_two_loops"
        elif loops == 0:
            kind = "even_cycle" if proper % 2 == 0 else "odd_cycle"
        else:
            assert loops == 2, "degree-2 component must have 0 or 2 loops"
            kind = (
                "even_path_loop_to_loop"
                if proper % 2 == 0
                else "odd_path_loop_to_loop"
            )
        out.append((verts, kind))
    return out


def random_two_regular(rng: random.Random, vertices: list[int]) -> list[tuple[int, int]]:
    """One random 2-regular graph (loops count 1) on the given support."""
    vs = vertices[:]
    rng.shuffle(vs)
    edges: list[tuple[int, int]] = []
    i = 0
    while i < len(vs):
        size = rng.randint(1, len(vs) - i)
        chunk = vs[i : i + size]
        i += size
        if size == 1:
            edges += [(chunk[0], chunk[0]), (chunk[0], chunk[0])]
        elif rng.random() < 0.5:
            # cycle (size 2 gives a doubled edge)
            for j in range(size):
                a, b = chunk[j], chunk[(j + 1) % size]
                edges.append((min(a, b), max(a, b)))
        else:
            # path with a loop at each end
            edges.append((chunk[0], chunk[0]))
            for j in range(size - 1):
                a, b = chunk[j], chunk[j + 1]
                edges.append((min(a, b), max(a, b)))
            edges.append((chunk[-1], chunk[-1]))
    return edges


def random_regular_union(
    rng: random.Random, n: int, r: int
) -> list[tuple[int, int]]:
    """A 2r-regular multigraph built as a union of r random 2-factors."""
    support = list(range(1, n + 1))
    edges: list[tuple[int, int]] = []
    for _ in range(r):
        edges += random_two_regular(rng, support)
    return edges


def combo_to_poly(combo: GraphCombo) -> PluckerPoly:
    """The polynomial a signed combination of graphs stands for."""
    if not combo:
        raise ValueError("empty combination")
    n = combo[0][1].n
    out = PluckerPoly(n)
    for coeff, g in combo:
        out = out + PluckerPoly.from_monomial(monomial_from_graph(g), coeff)
    return out


def random_bipartite_regular(
    rng: random.Random, n: int, k: int
) -> list[tuple[int, int]]:
    """A k-regular bipartite multigraph as a union of k random matchings."""
    edges: list[tuple[int, int]] = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += [(i, perm[i]) for i in range(n)]
    return edges


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix.

    The rows stream through a :class:`RankTracker`: its mod-p rank is a
    lower bound that settles the rank when it reaches the smaller
    dimension, and otherwise the fraction-free recount decides.
    """
    if not rows:
        return 0
    tracker = RankTracker(len(rows[0]))
    for row in rows:
        tracker.add(row)
    return tracker.exact()


def full_product_rank(instance: GroupInstance, k: int, d: int) -> tuple[int, int, str]:
    """(dim, rank, verdict) of a generation check done the brute-force way.

    Every product of lower-degree basis monomials over every partition of
    k with parts <= d is straightened, and the exact rank of all the
    coordinate rows is taken at once.
    """
    basis_k = basis_monomials(instance, k)
    dim = len(basis_k)
    if k <= d:
        return dim, dim, "pass"
    index = {m: i for i, m in enumerate(basis_k)}
    lower = {j: basis_monomials(instance, j) for j in range(1, min(d, k - 1) + 1)}
    rows = []
    for parts in _partitions(k, min(d, k - 1)):
        pools = [
            itertools.combinations_with_replacement(lower[j], c)
            for j, c in sorted(Counter(parts).items())
        ]
        for pick in itertools.product(*pools):
            mono = PluckerMonomial(instance.n, ())
            for group in pick:
                for m in group:
                    mono = mono * m
            row = [0] * dim
            for term, coeff in straighten(mono).items():
                assert coeff.denominator == 1
                row[index[term]] = int(coeff)
            rows.append(row)
    rank = exact_rank(rows) if rows and dim else 0
    return dim, rank, "pass" if rank == dim else "fail"


def tuple_splitter(lower: dict[int, list[tuple]]):
    """The splitter on unit tuples: peel one lower piece per level, memoized.

    Every unit tuple is sorted the same way.  The head of an element is
    its first unit; a dividing piece must hold it, so only the pieces
    whose first unit it is are tried, degree by degree in basis order,
    each by one greedy ``divide_rows`` pass over the whole tuple.
    """
    top = max(lower, default=0)
    members = {j: set(pieces) for j, pieces in lower.items()}
    by_head: dict[int, dict[object, list[tuple]]] = {j: {} for j in lower}
    for j, pieces in lower.items():
        for piece in pieces:
            by_head[j].setdefault(piece[0], []).append(piece)
    memo: dict[tuple, list[tuple] | None] = {}

    def split(units: tuple, degree: int) -> list[tuple] | None:
        if degree <= top:
            return [units] if units in members.get(degree, ()) else None
        if units not in memo:
            memo[units] = next(
                (
                    [piece, *sub]
                    for j, heads in by_head.items()
                    for piece in heads.get(units[0], ())
                    if (rest := divide_rows(units, piece)) is not None
                    and (sub := split(rest, degree - j)) is not None
                ),
                None,
            )
        return memo[units]

    return split


def split_residue(
    basis: list[PluckerMonomial], k: int, lower: dict[int, list[PluckerMonomial]]
) -> list[PluckerMonomial]:
    """The degree-k basis elements that are no product of lower ones.

    ``lower`` maps each generator degree j to the degree-j basis; the
    units are rows.  Returns the unsplit residue in basis order.
    """
    split = tuple_splitter({j: [m.factors for m in monos] for j, monos in lower.items()})
    return [m for m in basis if split(m.factors, k) is None]


def nearest_first_rank(instance: GroupInstance, k: int, d: int) -> tuple[int, int, str]:
    """(dim, rank, verdict) by the split-first route that scores every product first.

    This is the route ``check_generation`` once took: split off the basis
    elements that are products, build every product of the schedule up
    front, sort the non-standard ones by how few rows they have outside
    their nearest residue element, and stream them through a rank tracker
    that stops at full residue rank or recounts exactly.
    """
    basis_k = basis_monomials(instance, k)
    dim = len(basis_k)
    if k <= d:
        return dim, dim, "pass"
    lower = {j: basis_monomials(instance, j) for j in range(1, min(d, k - 1) + 1)}
    residue = [m.factors for m in split_residue(basis_k, k, lower)]
    if not residue:
        return dim, dim, "pass"
    products: set[Factors] = set()
    for parts in _partitions(k, min(d, k - 1)):
        pools = [
            itertools.combinations_with_replacement([m.factors for m in lower[j]], c)
            for j, c in sorted(Counter(parts).items())
        ]
        for pick in itertools.product(*pools):
            products.add(canonical_rows([r for group in pick for piece in group for r in piece]))
    targets = [Counter(r) for r in residue]

    def nearest(factors: Factors) -> int:
        rows = Counter(factors)
        shared = max(sum(min(c, rows.get(r, 0)) for r, c in t.items()) for t in targets)
        return len(factors) - shared

    index = {r: i for i, r in enumerate(residue)}
    tracker = RankTracker(len(residue))
    nonstandard = [f for f in products if first_violation(f) is not None]
    for factors in sorted(nonstandard, key=lambda f: (nearest(f), f)):
        row = [0] * len(residue)
        for term, coeff in straighten(PluckerMonomial(instance.n, factors)).items():
            assert coeff.denominator == 1
            if term.factors in index:
                row[index[term.factors]] = int(coeff)
        if any(row):
            tracker.add(row)
            if tracker.rank_lower_bound == len(residue):
                break
    rank = dim - len(residue) + tracker.exact()
    return dim, rank, "pass" if rank == dim else "fail"


def first_dividing_unit(instance: GroupInstance, f: PluckerMonomial) -> PluckerMonomial | None:
    """The first degree-one basis element that divides f, by scanning them all.

    This is the divisor test extraction once ran: enumerate the whole
    degree-one basis, then keep the first unit whose factors f contains.
    """
    return next((unit for unit in _units(instance) if unit.divides(f)), None)


@functools.cache
def _units(instance: GroupInstance) -> tuple[PluckerMonomial, ...]:
    return tuple(degree_one_basis(instance))


def _b_piece_degree(instance: GroupInstance, rows) -> int | None:
    """Degree j if the rows, re-sorted, form a degree-j basis tableau."""
    unit_boxes = shape_from_weight(instance, 1).boxes
    boxes = sum(len(r) for r in rows)
    if boxes == 0 or boxes % unit_boxes:
        return None
    j = boxes // unit_boxes
    shape = shape_from_weight(instance, j)
    ordered = tuple(sorted(rows, key=lambda r: (-len(r), r)))
    if tuple(len(r) for r in ordered) != shape.row_lengths():
        return None
    if not (first_violation(ordered) is None
            and b_pairs_admissible(ordered, shape.paired_rows, instance.n)
            and not any(b_weight(ordered, instance.n))):
        return None
    return j


def _split_units(instance: GroupInstance, units, degree: int, d: int, memo: dict):
    """Partition the units into valid pieces of degree <= d, trying every subset."""
    if degree <= d:
        rows = tuple(r for unit in units for r in unit)
        return [rows] if _b_piece_degree(instance, rows) == degree else None
    key = (units, degree)
    if key not in memo:
        memo[key] = None
        for j in range(1, min(d, degree - 1) + 1):
            for size in range(1, len(units)):
                for idx in itertools.combinations(range(len(units)), size):
                    rows = tuple(r for i in idx for r in units[i])
                    if _b_piece_degree(instance, rows) != j:
                        continue
                    rest = tuple(u for i, u in enumerate(units) if i not in idx)
                    sub = _split_units(instance, rest, degree - j, d, memo)
                    if sub is not None:
                        memo[key] = [rows] + sub
                        return memo[key]
    return memo[key]


def unit_split_count(instance: GroupInstance, k: int, d: int) -> tuple[int, int, str]:
    """(dim, rank, verdict) of a type-B check by exhaustive subset search.

    Each basis tableau's units (intact row pairs and spin rows) are split
    by trying every subset of them as a piece, validated by rebuilding a
    tableau from its rows; rank counts the elements that split.
    """
    basis = list(enumerate_standard_b(instance, k))
    paired = shape_from_weight(instance, k).paired_rows
    memo: dict = {}
    rank = sum(
        _split_units(instance, _b_units(rows, paired), k, d, memo) is not None
        for rows in basis
    )
    return len(basis), rank, "pass" if rank == len(basis) else "fail"


def seeded_matrices_randint(n: int, width: int, count: int = 10, seed: int = 0):
    """The check matrices as first written: one ``randint`` call per entry."""
    rng = random.Random(seed)
    return [
        [[rng.randint(-9, 9) for _ in range(width)] for _ in range(n)]
        for _ in range(count)
    ]


def int_det_bareiss(rows: list[list[int]]) -> int:
    """Determinant by fraction-free elimination at every size."""
    size = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign, prev = 1, 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = pivot
    return sign * m[size - 1][size - 1] if size else 1


def _gauss_jordan(rows, width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over Fraction, pivoting in the first ``width`` columns only."""
    a = [[Fraction(v) for v in row] for row in rows]
    height = len(a)
    pivot_cols: list[int] = []
    for col in range(width):
        row = len(pivot_cols)
        pivot_row = next((r for r in range(row, height) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(height):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivot_cols.append(col)
    return a, pivot_cols


def rank_fraction(rows) -> int:
    """Rank over Q by Gauss-Jordan on Fraction entries."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def solve_gauss_jordan(rows, rhs) -> list[Fraction] | None:
    """rows @ x = rhs by Gauss-Jordan over Fraction, free variables zero, or None.

    This is the solver the package ran before its single fraction-free
    echelon (it took the matrix by columns then): eliminate the
    coefficient columns of the augmented rows, then any zero row with a
    nonzero right-hand side proves the system inconsistent.
    """
    width = len(rows[0]) if rows else 0
    a, pivot_cols = _gauss_jordan([[*row, b] for row, b in zip(rows, rhs)], width)
    if any(a[r][width] != 0 for r in range(len(pivot_cols), len(a))):
        return None
    x = [Fraction(0)] * width
    for r, col in enumerate(pivot_cols):
        x[col] = a[r][width]
    return x


def canonical_rows_keysort(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical arrangement through one key function: longer first, then lex."""
    return tuple(sorted((tuple(r) for r in rows), key=lambda r: (-len(r), r)))


def counter_divides(divisor, rows) -> bool:
    """Sub-multiset test through Counters."""
    mine, theirs = Counter(divisor), Counter(rows)
    return all(theirs[f] >= c for f, c in mine.items())


def counter_quotient(rows, divisor) -> tuple[tuple[int, ...], ...] | None:
    """The rows left once divisor's are removed, canonically arranged, or None."""
    left = Counter(rows)
    left.subtract(Counter(divisor))
    if any(c < 0 for c in left.values()):
        return None
    return canonical_rows_keysort(f for f, c in left.items() for _ in range(c))


def column_loop(rows) -> int | None:
    """The tableau column loop: a longer lower row, or a larger upper entry."""
    for idx, (upper, lower) in enumerate(zip(rows, rows[1:])):
        if len(lower) > len(upper):
            return idx
        if any(upper[j] > lower[j] for j in range(len(lower))):
            return idx
    return None


def shared_prefix_loop(rows) -> int | None:
    """The straightening column loop: the shared prefix only, no length test."""
    for idx in range(len(rows) - 1):
        upper, lower = rows[idx], rows[idx + 1]
        shared = min(len(upper), len(lower))
        if any(upper[t] > lower[t] for t in range(shared)):
            return idx
    return None
