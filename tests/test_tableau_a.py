"""Type-A tableaux: standardness, content, and exhaustive enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.plucker import PluckerMonomial
from artifact.tableau_a import (
    canonical_rows,
    check_rows,
    content_vector,
    count_standard,
    divide_rows,
    enumerate_standard,
    first_violation,
    row_content,
    rows_standard,
)
from artifact.weights import ShapeA, instance_by_label, shape_from_weight

from oracles import (
    canonical_rows_keysort,
    column_loop,
    counter_divides,
    counter_quotient,
    enumerate_standard_rowwise,
    grid_standard,
    naive_standard_tableaux,
    shared_prefix_loop,
)


class TestTableauBasics:
    """A type-A tableau is its row tuple, wrapped as a PluckerMonomial."""

    def test_rows_are_validated(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_rows(((1, 1),), 4)
        with pytest.raises(ValueError, match="range"):
            check_rows(((1, 5),), 4)
        with pytest.raises(ValueError, match="empty"):
            check_rows(((),), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            PluckerMonomial(4, ((2, 1),))

    def test_canonical_orders_rows_longest_first(self):
        m = PluckerMonomial(5, ((3,), (1, 2), (1, 4)))
        assert m.factors == canonical_rows(((3,), (1, 2), (1, 4))) == ((1, 2), (1, 4), (3,))

    def test_content_counts_every_entry(self):
        assert row_content(((1, 2), (3, 4)), 4) == (1, 1, 1, 1)
        assert row_content(((1, 2), (1, 2), (3, 4), (3, 4)), 4) == (2, 2, 2, 2)
        rows = ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))
        assert row_content(rows, 6) == (2, 2, 2, 2, 2, 2)
        # an index that never appears counts zero
        assert row_content(((1, 2), (1, 3)), 4) == (2, 1, 1, 0)

    def test_t_invariance_means_uniform_content(self):
        def invariant(rows, n):
            return len(set(row_content(rows, n))) == 1

        assert invariant(((1, 2), (3, 4)), 4)
        assert not invariant(((1, 2), (1, 3)), 4)
        assert invariant(((1, 3, 5), (2, 4, 6)), 6)
        # the empty tableau is invariant
        assert invariant((), 4)

    def test_standardness_on_the_canonical_arrangement(self):
        assert rows_standard(((1, 2), (3, 4)))
        assert rows_standard(((1, 3), (2, 4)))
        # second column reads 4 over 3
        assert not rows_standard(((1, 4), (2, 3)))
        assert not PluckerMonomial(4, ((2, 3), (1, 4))).is_standard
        # the empty tableau is standard
        assert rows_standard(())
        assert PluckerMonomial(4, ()).is_standard

    def test_shape_columns(self):
        m = PluckerMonomial(4, ((4,), (1, 3), (1, 2)))
        assert tuple(map(len, m.factors)) == (2, 2, 1)
        assert tuple(map(len, m.factors)) == ShapeA((3, 2)).row_lengths()


@settings(max_examples=300)
@given(st.data())
def test_standardness_agrees_with_grid_oracle(data):
    n = data.draw(st.integers(3, 6))
    pool = list(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in (1, 2, 3)
    ))
    rows = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    assert PluckerMonomial(n, rows).is_standard == rows_standard(canonical_rows(rows)) == grid_standard(rows)


def _row_multisets(n: int):
    """Row multisets over 1..n with row lengths 1-3, drawn to repeat rows."""
    pool = [
        row for r in (1, 2, 3) for row in itertools.combinations(range(1, n + 1), r)
    ]
    few = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    return few.flatmap(lambda distinct: st.lists(st.sampled_from(distinct), max_size=8))


class TestRowRules:
    """The shared row rules against the per-class code they replace."""

    @settings(max_examples=400)
    @given(st.data())
    def test_canonical_order_and_column_test(self, data):
        rows = data.draw(_row_multisets(data.draw(st.integers(3, 6))))
        canon = canonical_rows(rows)
        assert canon == canonical_rows_keysort(rows)
        # canonical rows never grow downwards, so the two old loops agree there
        assert first_violation(canon) == column_loop(canon) == shared_prefix_loop(canon)
        assert rows_standard(canon) == (column_loop(canon) is None)
        # in any other order the length test counts too
        assert first_violation(tuple(rows)) == column_loop(tuple(rows))

    @settings(max_examples=400)
    @given(st.data())
    def test_division(self, data):
        n = data.draw(st.integers(3, 6))
        rows = data.draw(_row_multisets(n))
        divisor = data.draw(st.one_of(
            st.lists(st.sampled_from(rows), max_size=len(rows)) if rows else st.just([]),
            _row_multisets(n),
        ))
        got = divide_rows(canonical_rows(rows), canonical_rows(divisor))
        assert (got is not None) == counter_divides(divisor, rows)
        assert got == counter_quotient(rows, divisor)

    def test_a_longer_lower_row_breaks_the_column_test(self):
        assert first_violation(((1,), (2, 3))) == 0
        assert first_violation(((1, 2), (1, 2), (1,), (2, 3))) == 2
        assert first_violation(((1, 2), (1, 2), (3,))) is None


class TestContentVector:
    def test_uniform_content_splits_boxes_evenly(self):
        assert content_vector((4, 4), 4, "uniform") == (2, 2, 2, 2)

    def test_uniform_needs_divisible_box_count(self):
        with pytest.raises(ValueError, match="uniformly"):
            content_vector((3, 3), 4, "uniform")

    def test_explicit_content_is_checked(self):
        assert content_vector((2, 2), 4, (2, 1, 1, 0)) == (2, 1, 1, 0)
        with pytest.raises(ValueError, match="total"):
            content_vector((2, 2), 4, (1, 1, 1, 0))
        with pytest.raises(ValueError, match="entries"):
            content_vector((2, 2), 4, (2, 2))
        with pytest.raises(ValueError, match="negative"):
            content_vector((2, 2), 4, (3, 2, -1, 0))


class TestEnumeration:
    def test_empty_shape_yields_the_empty_tableau(self):
        assert list(enumerate_standard(ShapeA(()), 4)) == [()]

    def test_two_row_three_column_basis(self):
        shape = shape_from_weight(instance_by_label("g36"), 1)
        out = list(enumerate_standard(shape, 6, "uniform"))
        assert out == [
            ((1, 2, 3), (4, 5, 6)),
            ((1, 2, 4), (3, 5, 6)),
            ((1, 2, 5), (3, 4, 6)),
            ((1, 3, 4), (2, 5, 6)),
            ((1, 3, 5), (2, 4, 6)),
        ]

    @pytest.mark.parametrize(
        "cols, n, expected",
        [
            ((4, 4), 4, 3),      # smallest Grassmannian unit
            ((8, 8), 4, 5),
            ((12, 12), 4, 7),
            ((5, 5), 5, 6),
            ((6, 6), 6, 15),
            ((6, 3), 3, 4),      # flag unit: three pairs over three singles
            ((12, 6), 3, 7),
            ((18, 9), 3, 10),
        ],
    )
    def test_frozen_uniform_counts(self, cols, n, expected):
        assert count_standard(ShapeA(cols), n, "uniform") == expected

    @pytest.mark.parametrize(
        "cols, n",
        [
            ((4, 4), 4),
            ((2, 2), 4),
            ((5, 5), 5),
            ((2, 2, 2), 6),
            ((4, 4, 4), 6),
            ((6, 3), 3),
            ((6, 6), 6),
        ],
    )
    def test_matches_naive_filter_oracle(self, cols, n):
        got = set(enumerate_standard(ShapeA(cols), n, "uniform"))
        assert got == naive_standard_tableaux(cols, n)

    def test_explicit_content_matches_oracle(self):
        cols, n, content = (2, 2), 4, (2, 1, 1, 0)
        got = set(enumerate_standard(ShapeA(cols), n, content))
        assert got == naive_standard_tableaux(cols, n, content)

    def test_content_total_must_match_boxes(self):
        with pytest.raises(ValueError):
            list(enumerate_standard(ShapeA((2, 2)), 4, (1, 1, 1, 0)))

    def test_no_duplicates_and_every_output_standard(self):
        shape = ShapeA((6, 3))
        seen = set()
        for rows in enumerate_standard(shape, 3, "uniform"):
            check_rows(rows, 3)
            assert rows_standard(rows)
            assert row_content(rows, 3) == (3, 3, 3)
            assert tuple(map(len, rows)) == shape.row_lengths()
            assert rows not in seen
            seen.add(rows)

    def test_deterministic_order(self):
        shape = ShapeA((4, 4))
        first = list(enumerate_standard(shape, 4, "uniform"))
        second = list(enumerate_standard(shape, 4, "uniform"))
        assert first == second
        assert first == sorted(first)

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 5), (2, 6), (3, 6)])
    def test_complementary_grassmannians_count_equal(self, r, n):
        # dimension symmetry between r columns and n-r columns
        for k in (1, 2):
            left = shape_from_weight(instance_by_label(f"g{r}{n}"), k)
            right = shape_from_weight(instance_by_label(f"g{n - r}{n}"), k)
            assert count_standard(left, n, "uniform") == count_standard(
                right, n, "uniform"
            )


# (label, k): Grassmannians g24-g28 to k=3, g36 to 4, g46 to 3, g37 to 2,
# and the flag instances to 2.
ROWWISE_GRID = (
    [(f"g2{n}", k) for n in range(4, 9) for k in (1, 2, 3)]
    + [("g36", k) for k in (1, 2, 3, 4)]
    + [("g46", k) for k in (1, 2, 3)]
    + [("g37", k) for k in (1, 2)]
    + [
        (label, k)
        for label in ("fl311", "fl411", "fl412", "fl421", "fl322", "fl511", "fl611")
        for k in (1, 2)
    ]
)


class TestStripWalk:
    @pytest.mark.parametrize("label, k", ROWWISE_GRID)
    def test_same_stream_as_the_rowwise_search(self, label, k):
        inst = instance_by_label(label)
        shape = shape_from_weight(inst, k)
        got = list(enumerate_standard(shape, inst.n, "uniform"))
        assert got == list(enumerate_standard_rowwise(shape, inst.n, "uniform"))
        assert count_standard(shape, inst.n, "uniform") == len(got)
        # basis monomials are built from these rows as they are
        for rows in got:
            assert canonical_rows(rows) == rows
            assert rows_standard(rows)

    def test_explicit_content_stream(self):
        cols, n, content = (2, 2), 4, (2, 1, 1, 0)
        got = list(enumerate_standard(ShapeA(cols), n, content))
        assert got == list(enumerate_standard_rowwise(ShapeA(cols), n, content))
        assert count_standard(ShapeA(cols), n, content) == len(got) == 1

    @pytest.mark.parametrize(
        "label, k, expected",
        [("g27", 4, 2661), ("g37", 3, 32425), ("g38", 2, 77371), ("g37", 4, 145041)],
    )
    def test_frozen_kostka_counts(self, label, k, expected):
        inst = instance_by_label(label)
        assert count_standard(shape_from_weight(inst, k), inst.n, "uniform") == expected

    def test_rowwise_search_agrees_on_g27_degree_four(self):
        shape = shape_from_weight(instance_by_label("g27"), 4)
        assert sum(1 for _ in enumerate_standard_rowwise(shape, 7, "uniform")) == 2661


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strip_walk_matches_rowwise_on_random_content(data):
    cols = tuple(sorted(
        data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)), reverse=True
    ))
    n = data.draw(st.integers(1, 5))
    boxes = sum(cols)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, boxes), min_size=n - 1, max_size=n - 1)
    ))
    content = tuple(b - a for a, b in zip([0] + cuts, cuts + [boxes]))
    expected = list(enumerate_standard_rowwise(cols, n, content))
    assert list(enumerate_standard(cols, n, content)) == expected
    assert count_standard(cols, n, content) == len(expected)
