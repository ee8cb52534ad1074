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
from itertools import accumulate, combinations
from operator import add, le
from typing import Iterator, Sequence

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

    def content(self) -> tuple[int, ...]:
        return row_content(self.rows, 2 * self.n)

    def is_standard(self) -> bool:
        """Strictly increasing rows, columns non-decreasing in row order."""
        return first_violation(self.rows) is None

    def paired(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        end = 2 * self.paired_prefix
        return list(zip(self.rows[0:end:2], self.rows[1:end:2]))

    def is_admissible_tableau(self) -> bool:
        return all(is_admissible(a, b, self.n) for a, b in self.paired())


def half_weight(t: TableauB) -> tuple[int, ...]:
    """Twice the weight of a type-B tableau: c_j - c_{2n+1-j} for j = 1..n."""
    c, top = t.content(), 2 * t.n
    return tuple(c[j] - c[top - 1 - j] for j in range(t.n))


def is_t_invariant_b(t: TableauB) -> bool:
    """Opposite entries t and 2n+1-t must appear equally often."""
    return not any(half_weight(t))


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
    """State of one type-B search: the rows placed so far and a memo.

    `above[(length, prev, paired)]` lists, in pool order, the candidate
    rows of a length that dominate `prev` entrywise and, for the second
    row of a pair, are admissible under `prev`; so each row is filtered
    once per call, not once per search node.  The search carries the
    weight w, w_j = c_j - c_{2n+1-j} (every row weighs zero without
    `zero_weight`), and keeps a row only while w can still reach zero:
    sum |w_j| fits in the boxes left, each |w_j| in the rows left (a row
    never holds both j and 2n+1-j), and no w_j needs an entry below the
    row's first, which every later row dominates.  A state (row index,
    row, w) fixes all that follows, so `memo` keeps how many tableaux a
    searched state completes to (when listing, only the zeros): a state
    that completes to none is not searched again.
    """

    __slots__ = ("n", "lengths", "paired", "spin", "above", "memo", "rows", "delta", "left", "caps")

    def __init__(self, instance: GroupInstance, degree: int, zero_weight: bool):
        shape = shape_from_weight(instance, degree) if instance.family == FAMILY_B else None
        if not isinstance(shape, ShapeB):
            raise ValueError("type-B enumeration needs a type-B instance")
        n = self.n = instance.n
        self.lengths = shape.row_lengths()
        self.paired, self.spin = shape.paired_rows, shape.spin_part
        self.above, self.memo, self.rows = {}, {}, []
        top, rng = 2 * n, range(1, n + 1)
        self.delta = {row: tuple(zero_weight * ((j in row) - (top + 1 - j in row)) for j in rng)
                      for ell in set(self.lengths) for row in _row_candidates(n, ell)}
        total = sum(self.lengths)
        self.left = [total - used for used in accumulate(self.lengths)]
        self.caps = [_weight_caps(n, r) for r in reversed(range(len(self.lengths)))]

    def candidates(self, idx: int) -> Sequence[tuple[int, ...]]:
        length = self.lengths[idx]
        if not idx:
            return _row_candidates(self.n, length)
        prev = self.rows[idx - 1]
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

    def steps(self, idx: int, w: tuple[int, ...]) -> Iterator[tuple]:
        """Place each row that may come at `idx` in turn; yield its state."""
        rows = self.rows
        left, caps, delta = self.left[idx], self.caps[idx], self.delta
        for cand in self.candidates(idx):
            after = tuple(map(add, w, delta[cand]))
            lo, hi = caps[cand[0]]
            if (sum(map(abs, after)) <= left and all(map(le, lo, after))
                    and all(map(le, after, hi))):
                rows.append(cand)
                yield idx, cand, after
                rows.pop()

    def place(self, idx: int, w: tuple[int, ...], listing: bool) -> Iterator[int]:
        """Return how many tableaux complete a state; when `listing`, yield 1
        at each with its rows in `rows`, else yield each known count at once.
        """
        if idx == len(self.lengths):
            yield 1
            return 1
        total, memo = 0, self.memo
        for state in self.steps(idx, w):
            got = memo.get(state)
            if got is None:
                got = yield from self.place(idx + 1, state[2], listing)
                if not (listing and got):
                    memo[state] = got
            elif got:
                yield got
            total += got
        return total


def enumerate_standard_b(
    instance: GroupInstance, degree: int, *, zero_weight: bool = False
) -> Iterator[TableauB]:
    """All standard admissible tableaux of the instance's shape at a degree.

    Rows are produced top to bottom, each ranging over the lexicographic
    candidates that dominate the previous row entrywise, with the
    admissibility check applied as soon as a paired row completes.  With
    `zero_weight`, a row is kept only while the weight it leaves can still
    be evened out by the rows below it (see `_SearchB`), so the last row
    admits exactly the torus-invariant tableaux.
    """
    search = _SearchB(instance, degree, zero_weight)
    for _ in search.place(0, (0,) * search.n, True):
        yield TableauB(search.n, tuple(search.rows), search.paired, search.spin)


def count_standard_b(instance: GroupInstance, degree: int, *, zero_weight=False) -> int:
    """How many tableaux `enumerate_standard_b` yields, building none of them."""
    search = _SearchB(instance, degree, zero_weight)
    return sum(search.place(0, (0,) * search.n, False))
