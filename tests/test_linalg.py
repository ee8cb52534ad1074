"""The fraction-free echelon behind ranks and solves, against Fraction oracles."""

import random
from fractions import Fraction

import pytest

from artifact import linalg
from artifact.linalg import MOD_PRIME, RankTracker, _echelon, _rank_exact, solve_rational
from oracles import exact_rank, rank_fraction, solve_gauss_jordan


def low_rank(rng, height, width, rank, zero_rows=0, zero_cols=0, span=3):
    """A random integer matrix of rank at most ``rank``, padded with zero lines."""
    a = [[rng.randint(-span, span) for _ in range(rank)] for _ in range(height)]
    b = [[rng.randint(-span, span) for _ in range(width)] for _ in range(rank)]
    rows = [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(width)] for i in range(height)]
    for _ in range(zero_cols):
        at = rng.randint(0, width)
        for row in rows:
            row.insert(at, 0)
        width += 1
    for _ in range(zero_rows):
        rows.insert(rng.randint(0, len(rows)), [0] * width)
    return rows


SHAPES = {
    "tall": (8, 3, 2, 0, 0),
    "wide": (3, 8, 2, 0, 0),
    "square": (5, 5, 3, 0, 0),
    "full": (4, 4, 4, 0, 0),
    "zero rows": (4, 5, 2, 3, 0),
    "zero columns": (5, 3, 2, 0, 3),
    "all zero": (3, 4, 0, 0, 0),
    "one row": (1, 6, 1, 0, 0),
    "one column": (6, 1, 1, 0, 0),
}


class TestRank:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_fraction_oracle(self, shape):
        rng = random.Random(shape)
        for _ in range(60):
            rows = low_rank(rng, *SHAPES[shape])
            expected = rank_fraction(rows)
            assert _rank_exact(rows) == expected, rows
            assert exact_rank(rows) == expected, rows

    def test_empty_matrix(self):
        assert _rank_exact([]) == 0
        assert exact_rank([]) == 0
        assert _rank_exact([[], []]) == 0

    def test_tracker_recounts_through_the_module_name(self, monkeypatch):
        # RankTracker.exact looks _rank_exact up at call time, so a wrapper
        # bound on the module sees every recount
        calls = []
        recount = linalg._rank_exact
        monkeypatch.setattr(linalg, "_rank_exact", lambda rows: calls.append(rows) or recount(rows))
        tracker = RankTracker(3)
        for row in ([1, 2, 3], [2, 4, 6], [0, 1, 1]):
            tracker.add(row)
        assert tracker.exact() == 2
        assert len(calls) == 1
        full = RankTracker(2)
        full.add([1, 0])
        full.add([0, 1])
        assert full.exact() == 2
        assert len(calls) == 1


class TestRankTracker:
    # entry ranges: small, straddling the prime, and far beyond it
    SPANS = (3, MOD_PRIME + 5, 10**30)

    def test_matches_the_exact_rank(self):
        rng = random.Random(11)
        entries = set()
        for trial in range(300):
            height, width = rng.randint(1, 7), rng.randint(1, 7)
            rank = rng.randint(0, min(height, width))
            rows = low_rank(rng, height, width, rank, span=self.SPANS[trial % len(self.SPANS)])
            entries.update(v for row in rows for v in row)
            tracker = RankTracker(width)
            grew = [tracker.add(row) for row in rows]
            expected = _rank_exact(rows)
            assert tracker.rank_lower_bound == sum(grew) == expected, rows
            assert tracker.exact() == expected, rows
        assert min(entries) < 0 and max(entries) >= MOD_PRIME

    def test_singular_mod_p_is_recounted(self):
        tracker = RankTracker(2)
        assert tracker.add([MOD_PRIME, 0]) is False
        assert tracker.add([0, 1]) is True
        assert tracker.rank_lower_bound == 1
        assert tracker.exact() == 2


class TestEchelon:
    def test_pivots_are_the_first_independent_columns(self):
        rows = [[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]]
        _, pivots, _ = _echelon(rows)
        assert pivots == [1, 3]

    def test_input_is_not_modified(self):
        rows = [[2, 1], [4, 3]]
        _echelon(rows)
        assert rows == [[2, 1], [4, 3]]


class TestSolve:
    def test_matches_gauss_jordan_on_random_systems(self):
        rng = random.Random(9)
        outcomes = set()
        for _ in range(1500):
            height, width = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) * (rng.random() < 0.7) for _ in range(width)] for _ in range(height)]
            if rng.random() < 0.5:
                x = [rng.randint(-2, 2) for _ in range(width)]
                rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            else:
                rhs = [rng.randint(-3, 3) for _ in range(height)]
            got = solve_rational(rows, rhs)
            assert got == solve_gauss_jordan(rows, rhs), (rows, rhs)
            if got is not None:
                assert [sum(a * b for a, b in zip(row, got)) for row in rows] == rhs
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_inconsistent_system(self):
        assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None
        assert solve_rational([[0, 0]], [1]) is None

    def test_free_variables_are_zero(self):
        assert solve_rational([[0, 2, 4]], [2]) == [0, 1, 0]
        assert solve_rational([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
        assert all(isinstance(v, Fraction) for v in solve_rational([[0, 2, 4]], [2]))

