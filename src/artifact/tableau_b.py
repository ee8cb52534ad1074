"""Spin (type B) tableaux: row operations, admissible pairs, enumeration.

Entries run over 1..2n and the value pairs {t, 2n+1-t} are opposites: a
row may not contain both, and the torus fixes a tableau exactly when
opposite values appear equally often.  A tableau is a tuple of rows in
tableau order: the paired rows first, then the spin rows.  Consecutive
row pairs in the paired prefix must be admissible, i.e. linked by a
chain of the entry-lowering operations s_i.  Unlike type A, the order of
the rows is part of the tableau and is not the canonical order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from operator import add, le
from typing import Iterator, Sequence

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
        return tuple(sorted(n if e == n + 1 else e for e in row)) if n + 1 in row else row
    hi = 2 * n + 1 - i
    if i + 1 in row and hi in row:
        replaced = [i if e == i + 1 else (hi - 1 if e == hi else e) for e in row]
        return tuple(sorted(replaced))
    return row


@lru_cache(maxsize=None)
def _reachable(start: tuple[int, ...], n: int) -> frozenset[tuple[int, ...]]:
    # each s_i that acts lowers the entry multiset, so the closure is small
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
    return r == r2 or r in _reachable(r2, n)


@lru_cache(maxsize=None)
def _row_candidates(n: int, length: int) -> tuple[tuple[int, ...], ...]:
    """All valid rows of one length in lexicographic order: no opposite pair."""
    top = 2 * n
    return tuple(row for row in combinations(range(1, top + 1), length)
                 if not any(top + 1 - e in row for e in row))


@lru_cache(maxsize=None)
def _weight_caps(n: int, r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per first entry f, (lo, hi): each w_j within ±r, and 0 where it needs an entry below f."""
    return tuple((((0,) * (f - 1) + (-r,) * n)[:n], ((r,) * (2 * n + 1 - f) + (0,) * n)[:n])
                 for f in range(2 * n + 1))


class _SearchB:
    """One type-B search: the completion table of its states.

    A state (row index, previous row, w) fixes all that follows, where w
    is the weight of the rows placed so far, w_j = c_j - c_{2n+1-j}.
    `table[state]` holds how many tableaux complete it and, in pool
    order, the next states that complete.  A row is kept only while w
    can still reach zero: sum |w_j| fits in the boxes left, each |w_j| in
    the rows left (a row never holds both j and 2n+1-j), and no w_j needs
    an entry below the row's first, which every later row dominates.
    `above[(length, prev, paired)]` lists, in pool order, the candidate
    rows of a length that dominate `prev` entrywise and, for the second
    row of a pair, are admissible under `prev`; so each row is filtered
    once per search, not once per state.
    """

    __slots__ = ("n", "lengths", "paired", "above", "table", "root", "delta", "left", "caps")

    def __init__(self, instance: GroupInstance, degree: int):
        shape = shape_from_weight(instance, degree) if instance.family == FAMILY_B else None
        if not isinstance(shape, ShapeB):
            raise ValueError("type-B enumeration needs a type-B instance")
        n = self.n = instance.n
        self.lengths = shape.row_lengths()
        self.paired = shape.paired_rows
        self.above, self.table = {}, {}
        self.root = (0, (), (0,) * n)  # no row placed yet, zero weight
        top, rng = 2 * n, range(1, n + 1)
        self.delta = {row: tuple((j in row) - (top + 1 - j in row) for j in rng)
                      for ell in set(self.lengths) for row in _row_candidates(n, ell)}
        total = sum(self.lengths)
        self.left = [total - used for used in accumulate(self.lengths)]
        self.caps = [_weight_caps(n, r) for r in reversed(range(len(self.lengths)))]

    def candidates(self, idx: int, prev: tuple[int, ...]) -> Sequence[tuple[int, ...]]:
        length = self.lengths[idx]
        pair_row = idx % 2 == 1 and idx // 2 < self.paired
        key = (length, prev, pair_row)
        hit = self.above.get(key)
        if hit is None:
            if pair_row and len(prev) != length:
                raise ValueError("paired rows of unequal length")
            hit = self.above[key] = [
                cand for cand in _row_candidates(self.n, length)
                if all(c >= p for c, p in zip(cand, prev))
                and (not pair_row or is_admissible(prev, cand, self.n))
            ]
        return hit

    def count(self, state: tuple) -> int:
        """How many tableaux complete a state; records its table entry."""
        hit = self.table.get(state)
        if hit is not None:
            return hit[0]
        idx, prev, w = state
        live, total = [], 0
        if idx == len(self.lengths):
            total = 1
        else:
            left, caps, delta = self.left[idx], self.caps[idx], self.delta
            for cand in self.candidates(idx, prev):
                after = tuple(map(add, w, delta[cand]))
                lo, hi = caps[cand[0]]
                if (sum(map(abs, after)) <= left and all(map(le, lo, after))
                        and all(map(le, after, hi))):
                    nxt = (idx + 1, cand, after)
                    ways = self.count(nxt)
                    if ways:
                        live.append(nxt)
                        total += ways
        self.table[state] = (total, live)
        return total

    def walk(self, state: tuple, rows: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Yield the tableaux that complete a counted state, after the rows in `rows`."""
        if state[0] == len(self.lengths):
            yield tuple(rows)
        for nxt in self.table[state][1]:
            rows.append(nxt[1])
            yield from self.walk(nxt, rows)
            rows.pop()


def enumerate_standard_b(
    instance: GroupInstance, degree: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The zero-weight standard admissible tableaux of a degree, as row tuples.

    Rows are produced top to bottom, each ranging over the lexicographic
    candidates that dominate the previous row entrywise, with the
    admissibility check applied as soon as a paired row completes.  A row
    is kept only while the weight it leaves can still be evened out by
    the rows below it (see `_SearchB`).  The rows are walked only through
    states the table counts as completing, so the walk never dead-ends.
    Each tuple holds the rows in tableau order, paired prefix first: not
    the canonical order of type A.
    """
    search = _SearchB(instance, degree)
    search.count(search.root)
    yield from search.walk(search.root, [])


def count_standard_b(instance: GroupInstance, degree: int) -> int:
    """How many tableaux `enumerate_standard_b` yields, read off the table's root."""
    search = _SearchB(instance, degree)
    return search.count(search.root)
