"""Spin (type B) tableaux: row operations, admissible pairs, enumeration.

Entries run over 1..2n and the value pairs {t, 2n+1-t} are opposites: a
row may not contain both, and the torus fixes a tableau exactly when
opposite values appear equally often.  Consecutive row pairs in the
paired prefix must be admissible, i.e. linked by a chain of the
entry-lowering operations s_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .tableau_a import check_rows, first_violation, row_content
from .weights import FAMILY_B, GroupInstance, ShapeB, shape_from_weight


def s_op(i: int, row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Apply the lowering operation s_i to one row.

    For i < n the operation fires only when both i+1 and 2n+1-i are
    present, replacing them by i and 2n-i; for i = n it turns n+1 into n.
    Rows without the required entries are returned unchanged.
    """
    if not 1 <= i <= n:
        raise ValueError(f"operation index {i} outside 1..{n}")
    if i == n:
        if n + 1 in row:
            return tuple(sorted(n if e == n + 1 else e for e in row))
        return row
    hi = 2 * n + 1 - i
    if i + 1 in row and hi in row:
        replaced = [i if e == i + 1 else (hi - 1 if e == hi else e) for e in row]
        return tuple(sorted(replaced))
    return row


@lru_cache(maxsize=None)
def _reachable(start: tuple[int, ...], n: int) -> frozenset[tuple[int, ...]]:
    # Every s_i strictly lowers the entry multiset when it acts, so this
    # closure is finite and small.
    seen = {start}
    frontier = [start]
    while frontier:
        row = frontier.pop()
        for i in range(1, n + 1):
            nxt = s_op(i, row, n)
            if nxt != row and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def is_admissible(r: tuple[int, ...], r2: tuple[int, ...], n: int) -> bool:
    """Whether the tableau pair (r, r2) is admissible.

    Equal rows always are.  Otherwise the chain of s_i moves runs from
    the lower row r2 down to the upper row r (the moves only lower
    entries, and in a standard tableau the upper row is the smaller one).
    """
    r, r2 = tuple(r), tuple(r2)
    if len(r) != len(r2):
        raise ValueError("admissibility compares rows of equal length")
    if r == r2:
        return True
    return r in _reachable(r2, n)


@dataclass(frozen=True)
class TableauB:
    """Type-B tableau: rows in fixed order with a paired prefix.

    The first 2*paired_prefix rows form consecutive admissible pairs;
    the trailing spin_rows rows are exempt.  Row order is significant
    (unlike type A, rows are not re-sorted).
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    paired_prefix: int
    spin_rows: int

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if 2 * self.paired_prefix + self.spin_rows != len(rows):
            raise ValueError("paired and spin rows must tile the tableau")
        top = 2 * self.n
        check_rows(rows, top)
        for row in rows:
            for e in row:
                if top + 1 - e in row:
                    raise ValueError(f"row {row} holds both {e} and {top + 1 - e}")

    @property
    def boxes(self) -> int:
        return sum(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        return row_content(self.rows, 2 * self.n)

    def is_standard(self) -> bool:
        """Strictly increasing rows, columns non-decreasing in row order."""
        return first_violation(self.rows) is None

    def paired(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [
            (self.rows[2 * i], self.rows[2 * i + 1])
            for i in range(self.paired_prefix)
        ]

    def is_admissible_tableau(self) -> bool:
        return all(is_admissible(a, b, self.n) for a, b in self.paired())


def half_weight(t: TableauB) -> tuple[int, ...]:
    """Twice the weight of a type-B tableau: c_j - c_{2n+1-j} for j = 1..n."""
    c = t.content()
    top = 2 * t.n
    return tuple(c[j] - c[top - 1 - j] for j in range(t.n))


def is_t_invariant_b(t: TableauB) -> bool:
    """Opposite entries t and 2n+1-t must appear equally often."""
    return not any(half_weight(t))


def _row_candidates(n: int, length: int) -> list[tuple[int, ...]]:
    """All valid rows of one length: strictly increasing, no opposite pair."""
    top = 2 * n
    out: list[tuple[int, ...]] = []

    def build(prefix: list[int], nxt: int) -> None:
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for e in range(nxt, top + 1):
            if top + 1 - e in prefix:
                continue
            prefix.append(e)
            build(prefix, e + 1)
            prefix.pop()

    build([], 1)
    return out


class _SearchB:
    """State of one `enumerate_standard_b` call: the rows placed so far.

    `above[(length, prev, paired)]` lists, in pool order, the candidate
    rows of a length that dominate `prev` entrywise and, for the second
    row of a pair, are admissible under `prev`; so each row is filtered
    once per call, not once per search node.  `counts` tallies the
    placed entries; the imbalance, the sum over opposite pairs of
    |c_t - c_opp|, is carried along the search and updated from the
    entries of each row placed.
    """

    __slots__ = ("n", "lengths", "paired", "spin", "zero_weight", "total",
                 "pools", "above", "counts", "rows")

    def __init__(self, n: int, shape: ShapeB, zero_weight: bool):
        self.n = n
        self.lengths = shape.row_lengths()
        self.paired = shape.paired_rows
        self.spin = shape.spin_part
        self.zero_weight = zero_weight
        self.total = sum(self.lengths)
        self.pools = {ell: _row_candidates(n, ell) for ell in set(self.lengths)}
        self.above: dict = {}
        self.counts = [0] * (2 * n)
        self.rows: list[tuple[int, ...]] = []

    def candidates(self, idx: int) -> list[tuple[int, ...]]:
        length = self.lengths[idx]
        if not idx:
            return self.pools[length]
        prev = self.rows[idx - 1]
        pair_row = idx % 2 == 1 and idx // 2 < self.paired
        key = (length, prev, pair_row)
        hit = self.above.get(key)
        if hit is None:
            if pair_row and len(prev) != length:
                raise ValueError("paired rows of unequal length")
            hit = self.above[key] = [
                cand for cand in self.pools[length]
                if all(c >= p for c, p in zip(cand, prev))
                and (not pair_row or is_admissible(prev, cand, self.n))
            ]
        return hit

    def place(self, idx: int, used: int, imbalance: int) -> Iterator[TableauB]:
        if idx == len(self.lengths):
            yield TableauB(self.n, tuple(self.rows), self.paired, self.spin)
            return
        length = self.lengths[idx]
        counts, rows = self.counts, self.rows
        top = 2 * self.n
        remaining = self.total - used - length
        for cand in self.candidates(idx):
            after = imbalance
            for e in cand:
                after += 1 if counts[e - 1] >= counts[top - e] else -1
                counts[e - 1] += 1
            if not self.zero_weight or after <= remaining:
                rows.append(cand)
                yield from self.place(idx + 1, used + length, after)
                rows.pop()
            for e in cand:
                counts[e - 1] -= 1


def enumerate_standard_b(
    instance: GroupInstance, degree: int, *, zero_weight: bool = False
) -> Iterator[TableauB]:
    """All standard admissible tableaux of the instance's shape at a degree.

    Rows are produced top to bottom, each ranging over the lexicographic
    candidates that dominate the previous row entrywise, with the
    admissibility check applied as soon as a paired row completes.  With
    `zero_weight`, a row is kept only while the imbalance it leaves can
    still be evened out by the boxes that remain, so the last row admits
    exactly the torus-invariant tableaux.
    """
    if instance.family != FAMILY_B:
        raise ValueError("type-B enumeration needs a type-B instance")
    shape = shape_from_weight(instance, degree)
    if not isinstance(shape, ShapeB):
        raise AssertionError("a type-B instance has a spin shape")
    if not shape.row_lengths():
        yield TableauB(instance.n, (), 0, 0)
        return
    yield from _SearchB(instance.n, shape, zero_weight).place(0, 0, 0)


def count_standard_b(instance: GroupInstance, degree: int, *, zero_weight=False) -> int:
    return sum(1 for _ in enumerate_standard_b(instance, degree, zero_weight=zero_weight))
