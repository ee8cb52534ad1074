"""Type-A standard tableaux as canonical row tuples, and the row rules.

A type-A tableau is a multiset of strictly increasing rows over 1..n,
held as a plain tuple of rows (`Factors`) in the canonical arrangement:
rows sorted by length descending, then lexicographically.  That is also
the factor tuple of a Plücker monomial, so a zero-weight standard
tableau *is* a standard monomial and `plucker.PluckerMonomial` is the
only class that wraps one.  This module owns the row rules that those
monomials and type-B tableaux share: the canonical arrangement, the row
checks, the column test and the division of row multisets.
Standardness is decided on the canonical arrangement so that "some
arrangement is standard" becomes a single deterministic test.

Read transposed, a standard tableau is a semistandard Young tableau
(SSYT) whose rows are the columns here, so enumeration and counting work
value by value: the entries <= v fill a partition, and value v adds a
horizontal strip of content[v] boxes.  A memoized table records, for
each (v, partition), the strips that still complete the shape and how
many completions each has.  `count_standard` reads the Kostka number off
that table without building a tableau; `enumerate_standard` walks only
strips that complete and yields the row tuples, canonical and standard
by construction, in lexicographic order.
"""

from __future__ import annotations

from operator import ge, gt
from typing import Iterator

from .weights import ShapeA

Factors = tuple[tuple[int, ...], ...]


def canonical_rows(rows) -> Factors:
    """Sort rows into the canonical arrangement: longer first, then lex."""
    # the length sort is stable, so rows of one length keep their lex order
    return tuple(sorted(sorted(map(tuple, rows)), key=len, reverse=True))


def check_rows(rows, top: int) -> None:
    """Each row must be nonempty, strictly increasing and inside 1..top."""
    for row in rows:
        if not row:
            raise ValueError("empty row")
        if any(map(ge, row, row[1:])):
            raise ValueError(f"row {row} is not strictly increasing")
        if row[0] < 1 or row[-1] > top:
            raise ValueError(f"row {row} leaves the range 1..{top}")


def row_content(rows, top: int) -> tuple[int, ...]:
    """How often each of 1..top appears in the rows."""
    counts = [0] * top
    for row in rows:
        for e in row:
            counts[e - 1] += 1
    return tuple(counts)


def first_violation(rows) -> int | None:
    """Index of the first adjacent row pair that breaks the column test.

    A lower row may not be longer than the row above it, and along their
    shared prefix the upper row must be entrywise (weakly) smaller;
    transitivity then gives non-decreasing columns everywhere.
    """
    for idx in range(len(rows) - 1):
        upper, lower = rows[idx], rows[idx + 1]
        if len(lower) > len(upper) or any(map(gt, upper, lower)):
            return idx
    return None


def rows_standard(rows: Factors) -> bool:
    """Column test on canonically arranged rows."""
    return first_violation(rows) is None


def divide_rows(rows: tuple, divisor: tuple) -> tuple | None:
    """Quotient of two multisets sorted the same way, or None.

    A sub-multiset of a sorted sequence is a subsequence of it, so one
    greedy pass either matches every divisor item or proves it no divisor.
    """
    rest = []
    i = 0
    for row in rows:
        if i < len(divisor) and row == divisor[i]:
            i += 1
        else:
            rest.append(row)
    return tuple(rest) if i == len(divisor) else None


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


def _strips(
    mu: tuple[int, ...], lam: tuple[int, ...], size: int
) -> list[tuple[int, ...]]:
    """Every nu inside lam with nu/mu a horizontal strip of `size` boxes.

    A horizontal strip adds at most one box per column, which is exactly
    mu_j <= nu_j <= min(mu_{j-1}, lam_j) for every part j.
    """
    caps = [
        min(lam[j], mu[j - 1] if j else lam[0]) - mu[j] for j in range(len(lam))
    ]
    room = [0] * (len(lam) + 1)
    for j in range(len(lam) - 1, -1, -1):
        room[j] = room[j + 1] + caps[j]
    out: list[tuple[int, ...]] = []
    _add_strip(mu, caps, room, 0, size, [], out)
    return out


def _add_strip(mu, caps, room, j, left, added, out) -> None:
    if j == len(mu):
        out.append(tuple(m + a for m, a in zip(mu, added)))
        return
    # the parts after j must still be able to take what part j leaves
    for a in range(max(0, left - room[j + 1]), min(caps[j], left) + 1):
        added.append(a)
        _add_strip(mu, caps, room, j + 1, left - a, added, out)
        added.pop()


def _completions(v: int, mu: tuple[int, ...], lam, counts, table: dict) -> int:
    """How many ways values v+1..n complete mu to lam, one strip per value.

    Records in `table[(v, mu)]` the total and the strips that complete.
    """
    hit = table.get((v, mu))
    if hit is not None:
        return hit[0]
    if v == len(counts):
        entry = (1, [])  # the box count forces mu == lam here
    else:
        live = []
        total = 0
        for nu in _strips(mu, lam, counts[v]):
            ways = _completions(v + 1, nu, lam, counts, table)
            if ways:
                live.append(nu)
                total += ways
        entry = (total, live)
    table[(v, mu)] = entry
    return entry[0]


def _walk(v: int, mu, table: dict, rows: list[list[int]], out: list) -> None:
    """Fill the strips that complete, appending each finished filling to out.

    Only completing states are visited, so an empty strip list means every
    value is placed.
    """
    live = table[(v, mu)][1]
    if not live:
        out.append(tuple(map(tuple, rows)))
        return
    value = v + 1
    for nu in live:
        for lo, hi in zip(mu, nu):
            for i in range(lo, hi):
                rows[i].append(value)
        _walk(v + 1, nu, table, rows, out)
        for lo, hi in zip(mu, nu):
            for i in range(lo, hi):
                rows[i].pop()


def _strip_table(shape, n: int, content) -> tuple[tuple[int, ...], int, dict]:
    """Column lengths, the Kostka number K_{cols, content}, and its strip table."""
    cols = shape.column_lengths if isinstance(shape, ShapeA) else tuple(shape)
    counts = content_vector(cols, n, content)
    table: dict = {}
    return cols, _completions(0, (0,) * len(cols), cols, counts, table), table


def enumerate_standard(
    shape: ShapeA | tuple[int, ...], n: int, content="uniform"
) -> Iterator[Factors]:
    """Yield the rows of every standard tableau of the shape and content.

    Read transposed, a standard tableau of column lengths `cols` is a
    semistandard tableau of row shape `cols`: the boxes holding entries
    <= v form a partition, and each value adds a horizontal strip of as
    many boxes as the content asks for.  The strip table counts, for
    every partition reached, the ways the remaining values complete it,
    so the walk follows only strips that complete and never dead-ends.
    Row i of a filling is as long as the number of columns longer than
    i, and in a standard filling rows of one length ascend
    lexicographically, so each filling is already in the canonical
    arrangement.  The fillings are then sorted, which yields them in
    lexicographic order: the order of filling row by row, top to bottom,
    smallest entry first.
    """
    cols, total, table = _strip_table(shape, n, content)
    out: list[Factors] = []
    if total:
        _walk(0, (0,) * len(cols), table, [[] for _ in range(cols[0] if cols else 0)], out)
    out.sort()
    yield from out


def count_standard(shape: ShapeA | tuple[int, ...], n: int, content="uniform") -> int:
    """The number of standard tableaux, read off the strip table.

    This is the Kostka number K_{cols, content}; no tableau is built.
    """
    return _strip_table(shape, n, content)[1]
