"""Spin tableaux: row operations, admissibility, weights, enumeration."""

import pytest

from artifact.tableau_a import first_violation
from artifact.tableau_b import (
    _row_candidates,
    count_standard_b,
    enumerate_standard_b,
    is_admissible,
    s_op,
)
from artifact.weights import ShapeB, instance_by_label, shape_from_weight

from oracles import (
    b_pairs_admissible,
    b_weight,
    check_b_rows,
    enumerate_standard_b_imbalance,
    enumerate_standard_b_pool,
    naive_standard_b,
)

SPIN57 = ["spin5w1", "spin5w2", "spin7w1", "spin7w2", "spin7w3"]


class TestRowOperations:
    def test_last_index_lowers_the_middle_entry(self):
        assert s_op(3, (1, 4), 3) == (1, 3)

    def test_needs_both_entries_to_fire(self):
        # wants 2 and 6 together; 6 is absent
        assert s_op(1, (2, 4), 3) == (2, 4)

    def test_lowers_a_matched_pair(self):
        assert s_op(2, (3, 5), 3) == (2, 4)

    def test_result_is_sorted(self):
        assert s_op(1, (2, 6), 3) == (1, 5)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            s_op(0, (1,), 3)
        with pytest.raises(ValueError):
            s_op(4, (1,), 3)

    def test_fixed_rows_are_fixed_points(self):
        row = (1, 2)
        for i in range(1, 4):
            assert s_op(i, row, 3) == row


class TestAdmissibility:
    def test_reflexive(self):
        assert is_admissible((2, 5), (2, 5), 3)

    def test_single_step_chain(self):
        assert is_admissible((1, 3), (1, 4), 3)
        assert is_admissible((2, 4), (3, 5), 3)

    def test_longer_chain(self):
        assert is_admissible((1, 5), (2, 6), 3)

    def test_unreachable_pair(self):
        assert not is_admissible((1, 2), (5, 6), 3)

    def test_rank_changes_the_answer(self):
        # lowering 3 to 2 uses the last operation, which only exists at rank 2
        assert is_admissible((2,), (3,), 2)
        assert not is_admissible((2,), (3,), 3)
        assert is_admissible((3,), (4,), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_admissible((1,), (1, 2), 3)


class TestTableauValidation:
    """The row rules every listed tableau obeys, as the basis checks below apply them."""

    def test_opposite_entries_cannot_share_a_row(self):
        with pytest.raises(ValueError, match="holds both"):
            check_b_rows(((1, 4),), 2)
        assert (1, 4) not in _row_candidates(2, 2)

    def test_entries_bounded_by_twice_the_rank(self):
        with pytest.raises(ValueError, match="range"):
            check_b_rows(((5,),), 2)

    def test_rows_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_b_rows(((2, 2),), 3)

    def test_prefix_and_spin_rows_must_tile(self):
        with pytest.raises(ValueError, match="tile"):
            ShapeB((2,), spin_part=1, paired_rows=0)

    def test_standardness_checks_columns_in_row_order(self):
        assert first_violation(((1, 3), (2, 4))) is None
        assert first_violation(((2, 4), (1, 3))) is not None
        # a longer row below a shorter one is not allowed
        assert first_violation(((1,), (1, 2))) is not None
        # ... even when the rows above it are standard pairs and the
        # shared prefix compares fine
        assert first_violation(((1, 2), (1, 2), (1,), (2, 3))) is not None


class TestWeights:
    def test_invariant_spin_columns(self):
        assert not any(b_weight(((1,), (1,), (4,), (4,)), 2))
        assert not any(b_weight(((2,), (2,), (5,), (5,)), 3))

    def test_unbalanced_tableau_is_not_invariant(self):
        assert b_weight(((1, 2), (1, 2)), 3) == (2, 2, 0)

    def test_half_weight_subtracts_opposites(self):
        assert b_weight(((1, 2), (3, 4)), 2) == (0, 0)


class TestEnumeration:
    def test_smallest_spin_line_bundle_generators(self):
        inst = instance_by_label("spin5w1")
        out = list(enumerate_standard_b(inst, 1))
        assert out == [((1,), (1,), (4,), (4,)), ((2,), (2,), (3,), (3,))]

    def test_rank_three_vector_generators(self):
        inst = instance_by_label("spin7w1")
        out = list(enumerate_standard_b(inst, 1))
        assert out == [
            ((1,), (1,), (6,), (6,)),
            ((2,), (2,), (5,), (5,)),
            ((3,), (3,), (4,), (4,)),
        ]

    def test_rank_two_paired_generators(self):
        inst = instance_by_label("spin5w2")
        out = list(enumerate_standard_b(inst, 1))
        assert out == [((1, 2), (3, 4)), ((1, 3), (2, 4))]

    @pytest.mark.parametrize(
        "label, counts",
        [
            ("spin5w1", [2, 3, 4, 5]),
            ("spin5w2", [2, 3, 4, 5]),
            ("spin7w1", [3, 6, 10, 15]),
            ("spin7w2", [8, 33, 96, 225]),
            ("spin7w3", [8, 29, 72, 145]),
            ("spin9w4", [28, 281, 1520]),
        ],
    )
    def test_frozen_invariant_counts(self, label, counts):
        inst = instance_by_label(label)
        for k, expected in enumerate(counts, start=1):
            assert count_standard_b(inst, k) == expected
            listed = enumerate_standard_b(inst, k)
            assert sum(1 for _ in listed) == expected

    @pytest.mark.parametrize(
        "label, degree",
        [
            ("spin5w1", 1),
            ("spin5w1", 2),
            ("spin5w2", 1),
            ("spin5w2", 2),
            ("spin7w1", 2),
            ("spin7w2", 1),
            ("spin7w2", 2),
            ("spin7w3", 1),
            ("spin7w3", 2),
        ],
    )
    def test_matches_naive_filter_oracle(self, label, degree):
        inst = instance_by_label(label)
        got = {
            tuple(sorted(rows, key=lambda r: (-len(r), r)))
            for rows in enumerate_standard_b(inst, degree)
        }
        assert got == naive_standard_b(inst, degree)

    def test_every_output_is_standard_admissible_invariant(self):
        # the frozen-count grid: spin5w1 to spin7w3 up to k = 3, spin9w4 up to k = 2
        grid = [(label, k) for label in SPIN57 for k in (1, 2, 3)]
        grid += [("spin9w4", 1), ("spin9w4", 2)]
        for label, k in grid:
            inst = instance_by_label(label)
            n, shape = inst.n, shape_from_weight(inst, k)
            seen = set()
            for rows in enumerate_standard_b(inst, k):
                check_b_rows(rows, n)
                assert first_violation(rows) is None
                assert b_pairs_admissible(rows, shape.paired_rows, n)
                assert not any(b_weight(rows, n))
                assert len(rows) == 2 * shape.paired_rows + shape.spin_part
                assert rows not in seen
                seen.add(rows)

    def test_type_a_instance_rejected(self):
        with pytest.raises(ValueError, match="type-B"):
            list(enumerate_standard_b(instance_by_label("g24"), 1))

    def test_downward_reading_admits_two_unequal_pairs(self):
        # the reversed chain reading would reject exactly these two tableaux
        inst = instance_by_label("spin7w2")
        unequal = [
            rows for rows in enumerate_standard_b(inst, 1)
            if any(a != b for a, b in zip(rows[0::2], rows[1::2]))
        ]
        assert len(unequal) == 2

    @pytest.mark.parametrize(
        "label, degree",
        [(label, degree) for label in SPIN57 for degree in [1, 2, 3]]
        + [("spin7w2", 4), ("spin7w3", 4), ("spin9w2", 2), ("spin9w4", 2)],
    )
    def test_same_stream_as_the_whole_pool_filter(self, label, degree):
        inst = instance_by_label(label)
        got = list(enumerate_standard_b(inst, degree))
        assert got == list(enumerate_standard_b_pool(inst, degree))

    # the third field marks the zero-weight stream, the only one either search lists
    @pytest.mark.parametrize(
        "label, degree, zero_weight",
        [(label, degree, True) for label in SPIN57 for degree in [1, 2, 3, 4]]
        + [("spin9w2", 2, True), ("spin9w4", 2, True)],
    )
    def test_same_stream_as_the_imbalance_search(self, label, degree, zero_weight):
        inst = instance_by_label(label)
        got = list(enumerate_standard_b(inst, degree))
        assert got == list(enumerate_standard_b_imbalance(inst, degree))

    def test_dead_states_stay_inside_one_call(self):
        inst = instance_by_label("spin7w3")
        want = list(enumerate_standard_b_imbalance(inst, 2))
        assert list(enumerate_standard_b(inst, 2)) == want
        assert list(enumerate_standard_b(inst, 2)) == want
        # two live searches taken in turns do not share a table
        first = enumerate_standard_b(inst, 2)
        second = enumerate_standard_b(inst, 2)
        pairs = list(zip(first, second))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == want
