"""Exact linear algebra over the integers and rationals.

Ranks are certified, never estimated: a dense elimination modulo a large
prime can only under-count, so full column rank mod p proves full rank
over Q, and any deficit is re-checked by fraction-free elimination on
the original integer entries.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

MOD_PRIME = (1 << 31) - 1


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix.

    Sizes 1 and 2 (nearly every Plücker minor) are read off in closed
    form; larger matrices go through fraction-free elimination.
    """
    size = len(rows)
    if size == 0:
        return 1
    if any(len(r) != size for r in rows):
        raise ValueError("matrix is not square")
    if size == 1:
        return int(rows[0][0])
    if size == 2:
        (a, b), (c, d) = rows
        return int(a) * int(d) - int(b) * int(c)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
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
    return sign * m[size - 1][size - 1]


def _rank_mod_p(dense: np.ndarray) -> int:
    """Row-reduce modulo MOD_PRIME; int64 products stay below 2**63."""
    m = dense % MOD_PRIME
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), MOD_PRIME - 2, MOD_PRIME)
        m[rank] = (m[rank] * inv) % MOD_PRIME
        below = m[rank + 1 :, col].copy()
        nz = np.nonzero(below)[0]
        if nz.size:
            m[rank + 1 + nz] = (
                m[rank + 1 + nz] - below[nz, None] * m[rank][None, :]
            ) % MOD_PRIME
        rank += 1
    return rank


def _rank_exact(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) rank over the integers, with pivoting."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    height, width = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(width):
        pivot_row = next((r for r in range(row, height) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, height):
            for c in range(col + 1, width):
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == height:
            break
    return rank


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix.

    The mod-p pass is a lower bound; when it already reaches the smaller
    dimension the exact rank is settled.  Otherwise (rare here) the
    Bareiss pass recomputes the rank exactly.
    """
    if not rows:
        return 0
    width = len(rows[0])
    dense = np.array([[v % MOD_PRIME for v in r] for r in rows], dtype=np.int64)
    rank_p = _rank_mod_p(dense)
    if rank_p == min(len(rows), width):
        return rank_p
    return _rank_exact(rows)


class RankTracker:
    """Incremental exact-rank oracle over Q for streamed integer rows.

    Keeps an echelon basis modulo MOD_PRIME for the fast path and the
    original integer rows for the exact recount.  ``add`` reports whether
    the row enlarged the mod-p span; the final rank is certified by
    ``exact()`` whenever the fast path did not already reach ``target``.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self._echelon: dict[int, np.ndarray] = {}
        self._rank_p = 0

    def add(self, row: list[int]) -> bool:
        self.rows.append(list(row))
        vec = np.array([v % MOD_PRIME for v in row], dtype=np.int64)
        for col in sorted(self._echelon):
            if vec[col]:
                vec = (vec - vec[col] * self._echelon[col]) % MOD_PRIME
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        inv = pow(int(vec[lead]), MOD_PRIME - 2, MOD_PRIME)
        self._echelon[lead] = (vec * inv) % MOD_PRIME
        self._rank_p += 1
        return True

    @property
    def rank_lower_bound(self) -> int:
        return self._rank_p

    def exact(self) -> int:
        if self._rank_p == min(len(self.rows), self.width):
            return self._rank_p
        return _rank_exact(self.rows)


def solve_rational(
    columns: list[list[int]], rhs: list[int]
) -> list[Fraction] | None:
    """One exact solution x of (columns as matrix) @ x = rhs, or None.

    Standard Gauss-Jordan over Fraction; free variables are set to zero.
    Column count is expected to be modest (certificate fallback only).
    """
    height = len(rhs)
    width = len(columns)
    a = [
        [Fraction(columns[j][i]) for j in range(width)] + [Fraction(rhs[i])]
        for i in range(height)
    ]
    pivot_cols: list[int] = []
    row = 0
    for col in range(width):
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
        row += 1
        if row == height:
            break
    for r in range(row, height):
        if a[r][width] != 0:
            return None
    x = [Fraction(0)] * width
    for r, col in enumerate(pivot_cols):
        x[col] = a[r][width]
    return x
