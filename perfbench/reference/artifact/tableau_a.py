"""Type-A Young tableaux with strictly increasing rows.

Standardness is decided on a canonical arrangement (rows sorted by
length descending, then lexicographically) so that "some arrangement is
standard" becomes a single deterministic test.  Enumeration fills the
diagram row by row and yields tableaux in lexicographic order of that
filling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .weights import ShapeA


def canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Sort rows into the canonical arrangement: longer first, then lex."""
    return tuple(sorted((tuple(r) for r in rows), key=lambda r: (-len(r), r)))


def rows_standard(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Column test on canonically arranged rows.

    Adjacent rows must compare entrywise (weakly) along their shared
    prefix; transitivity then gives non-decreasing columns everywhere.
    """
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            return False
        if any(upper[j] > lower[j] for j in range(len(lower))):
            return False
    return True


@dataclass(frozen=True)
class TableauA:
    """Rows of strictly increasing entries in 1..n, in any order."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if not row:
                raise ValueError("empty row")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row {row} is not strictly increasing")
            if row[0] < 1 or row[-1] > self.n:
                raise ValueError(f"row {row} leaves the range 1..{self.n}")

    def canonical(self) -> "TableauA":
        return TableauA(self.n, canonical_rows(self.rows))

    @property
    def boxes(self) -> int:
        return sum(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        """How often each of 1..n appears."""
        counts = [0] * self.n
        for row in self.rows:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)

    def is_t_invariant(self) -> bool:
        """All entries appear equally often (the torus fixes the monomial)."""
        c = self.content()
        return all(x == c[0] for x in c)

    def is_standard(self) -> bool:
        return rows_standard(canonical_rows(self.rows))

    def shape_columns(self) -> tuple[int, ...]:
        rows = canonical_rows(self.rows)
        if not rows:
            return ()
        return tuple(
            sum(1 for r in rows if len(r) > j) for j in range(len(rows[0]))
        )


def content_vector(
    shape: ShapeA | tuple[int, ...], n: int, content
) -> tuple[int, ...]:
    """Resolve the content argument; "uniform" splits the boxes evenly."""
    cols = shape.column_lengths if isinstance(shape, ShapeA) else tuple(shape)
    boxes = sum(cols)
    if content == "uniform":
        if boxes % n != 0:
            raise ValueError(f"{boxes} boxes cannot be spread uniformly over {n} values")
        return (boxes // n,) * n
    counts = tuple(int(c) for c in content)
    if len(counts) != n:
        raise ValueError(f"content has {len(counts)} entries, expected {n}")
    if sum(counts) != boxes:
        raise ValueError(f"content total {sum(counts)} != box count {boxes}")
    if any(c < 0 for c in counts):
        raise ValueError("content counts must be non-negative")
    return counts


def enumerate_standard(
    shape: ShapeA | tuple[int, ...], n: int, content="uniform"
) -> Iterator[TableauA]:
    """Yield every standard tableau of the shape with the given content.

    Rows are generated top to bottom in the canonical arrangement, each
    entry smallest first, so the stream is deterministic.  Two supply
    prunes keep deep shapes tractable: entries of every later row
    dominate the current row columnwise, so leftover values below the
    current row head are dead, and a value fits at most once per
    remaining row.
    """
    cols = shape.column_lengths if isinstance(shape, ShapeA) else tuple(shape)
    if not cols:
        if content == "uniform" or sum(content) == 0:
            yield TableauA(n, ())
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

    def place(idx: int, prev: tuple[int, ...] | None) -> Iterator[TableauA]:
        if idx == total_rows:
            yield TableauA(n, tuple(out))
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


def count_standard(shape, n: int, content="uniform") -> int:
    return sum(1 for _ in enumerate_standard(shape, n, content))
