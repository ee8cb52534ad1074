"""Exact linear algebra over the integers and rationals, in pure Python.

Two eliminations do all of it.  One fraction-free (Bareiss) echelon on
the integer entries serves the determinant, the exact rank recount and
the exact solve.  One echelon modulo a large prime, kept incrementally
over Python int lists by :class:`RankTracker`, is the fast path: it can
only under-count, so full rank mod p proves full rank over Q, and any
deficit is recounted by the fraction-free echelon.  Every rank and
determinant is integer arithmetic; only the exact solve returns Fractions.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

MOD_PRIME = (1 << 31) - 1


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix.

    Returns the reduced rows, the pivot column of each leading row and
    the sign of the row permutation.  A column with no pivot below the
    rows already placed is skipped.  Every entry stays an integer minor
    of the input, so each division by the previous pivot is exact.
    """
    m = [list(map(int, r)) for r in rows]
    height, width = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(width):
        row = len(pivots)
        if row == height:
            break
        pivot_row = next((r for r in range(row, height) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            m[row], m[pivot_row] = m[pivot_row], m[row]
            sign = -sign
        pivot = m[row][col]
        for r in range(row + 1, height):
            for c in range(col + 1, width):
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = pivot
        pivots.append(col)
    return m, pivots, sign


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by the fraction-free echelon.

    ``plucker.MinorTable``, its only caller, reads 1 x 1 and 2 x 2 minors
    off in closed form and sends only the larger ones here.
    """
    size = len(rows)
    if size == 0:
        return 1
    if any(len(r) != size for r in rows):
        raise ValueError("matrix is not square")
    m, pivots, sign = _echelon(rows)
    return sign * m[-1][-1] if len(pivots) == size else 0


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by the fraction-free echelon."""
    return len(_echelon(rows)[1])


class RankTracker:
    """Incremental exact-rank oracle over Q for streamed integer rows.

    Keeps an echelon basis modulo MOD_PRIME for the fast path and the
    original integer rows for the exact recount.  ``add`` reports whether
    the row enlarged the mod-p span; ``exact()`` returns the mod-p rank
    when it is full and otherwise recounts the rows by ``_rank_exact``,
    looked up at call time.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        # (pivot column, row scaled to pivot 1), in increasing column order
        self._echelon: list[tuple[int, list[int]]] = []

    def add(self, row: list[int]) -> bool:
        self.rows.append(list(row))
        vec = [v % MOD_PRIME for v in row]
        for col, pivot in self._echelon:
            factor = vec[col] % MOD_PRIME
            if factor:
                # the pivot row is zero left of col, so only the tail changes;
                # entries are reduced once, after the last pivot
                vec[col:] = [v - factor * p for v, p in zip(vec[col:], pivot[col:])]
        vec = [v % MOD_PRIME for v in vec]
        lead = next((c for c, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        inv = pow(vec[lead], MOD_PRIME - 2, MOD_PRIME)
        insort(self._echelon, (lead, [v * inv % MOD_PRIME for v in vec]))
        return True

    @property
    def rank_lower_bound(self) -> int:
        return len(self._echelon)

    def exact(self) -> int:
        rank = len(self._echelon)
        if rank == min(len(self.rows), self.width):
            return rank
        return _rank_exact(self.rows)


def solve_rational(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """One exact solution x of rows @ x = rhs, or None if there is none.

    The augmented rows go through the fraction-free echelon; the system
    is inconsistent exactly when the rhs column takes a pivot.  Free
    variables are set to zero and the pivot variables back-substituted.
    """
    width = len(rows[0]) if rows else 0
    m, pivots, _ = _echelon([[*row, b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == width:
        return None
    x = [Fraction(0)] * width
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        rest = sum(m[r][c] * x[c] for c in pivots[r + 1 :])
        x[col] = (m[r][width] - rest) / Fraction(m[r][col])
    return x
