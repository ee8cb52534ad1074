"""Instances, descent lattice membership, and tableau shapes."""

from fractions import Fraction

import pytest

import artifact.weights as weights
from artifact.weights import (
    FAMILY_A,
    FAMILY_B,
    GroupInstance,
    ShapeA,
    ShapeB,
    cartan_matrix,
    catalog_instances,
    default_generation_degree,
    descent_ok,
    flag_label,
    instance_by_label,
    instance_from_entry,
    root_coordinates,
    shape_from_weight,
)


class TestGroupInstance:
    def test_weight_support_must_match_parabolic(self):
        with pytest.raises(ValueError, match="support"):
            GroupInstance(FAMILY_A, 4, (2,), (1, 1, 0), 4)

    def test_weight_length_must_match_rank(self):
        with pytest.raises(ValueError, match="coefficients"):
            GroupInstance(FAMILY_A, 4, (2,), (0, 1), 4)

    def test_rank_conventions(self):
        # SL_n has rank n-1; the spin family stores the rank directly
        assert GroupInstance(FAMILY_A, 6, (3,), (0, 0, 1, 0, 0), 2).rank == 5
        assert GroupInstance(FAMILY_B, 3, (3,), (0, 0, 1), 4).rank == 3

    def test_scaled_weight(self):
        inst = GroupInstance(FAMILY_A, 3, (1, 2), (1, 1), 3)
        assert inst.scaled_weight(2) == (6, 6)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_multiple_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            GroupInstance(FAMILY_A, 4, (2,), (0, 1, 0), bad)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            GroupInstance("C", 4, (2,), (0, 1, 0), 2)


class TestShapes:
    def test_columns_weakly_decreasing(self):
        with pytest.raises(ValueError):
            ShapeA((2, 3))
        with pytest.raises(ValueError):
            ShapeB((2, 4), 0, 1)

    def test_row_lengths_transpose(self):
        assert ShapeA((4, 4)).row_lengths() == (2, 2, 2, 2)
        assert ShapeA((6, 3)).row_lengths() == (2, 2, 2, 1, 1, 1)
        assert ShapeA(()).row_lengths() == ()

    def test_shape_b_tiling(self):
        shape = ShapeB((4, 4), 0, 2)
        assert shape.row_lengths() == (2, 2, 2, 2)
        with pytest.raises(ValueError, match="tile"):
            ShapeB((4, 4), 1, 2)

    def test_boxes(self):
        assert ShapeA((6, 3)).boxes == 9
        assert ShapeB((4, 4, 4), 4, 0).boxes == 12


class TestShapeFromWeight:
    def test_three_column_grassmannian_unit(self):
        inst = instance_by_label("g36")
        shape = shape_from_weight(inst, 1)
        assert isinstance(shape, ShapeA)
        assert shape.column_lengths == (2, 2, 2)

    def test_degree_zero_is_empty(self):
        assert shape_from_weight(instance_by_label("g24"), 0).column_lengths == ()
        assert shape_from_weight(instance_by_label("spin7w3"), 0).column_lengths == ()

    def test_spin_shape_without_paired_rows(self):
        shape = shape_from_weight(instance_by_label("spin7w3"), 1)
        assert isinstance(shape, ShapeB)
        assert shape.column_lengths == (4, 4, 4)
        assert shape.spin_part == 4
        assert shape.paired_rows == 0

    def test_spin_shape_with_paired_rows_only(self):
        shape = shape_from_weight(instance_by_label("spin7w2"), 1)
        assert shape.column_lengths == (4, 4)
        assert shape.spin_part == 0
        assert shape.paired_rows == 2

    def test_mixed_flag_shape(self):
        shape = shape_from_weight(instance_by_label("fl311"), 1)
        assert shape.column_lengths == (6, 3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            shape_from_weight(instance_by_label("g24"), -1)

    def test_zero_weight_has_no_shape(self):
        inst = GroupInstance(FAMILY_A, 4, (), (0, 0, 0), 1)
        with pytest.raises(ValueError, match="zero weight"):
            shape_from_weight(inst, 1)

    @pytest.mark.parametrize("label", ["g24", "g36", "fl311", "spin7w2", "spin7w3"])
    def test_columns_additive_in_degree(self, label):
        inst = instance_by_label(label)
        one = shape_from_weight(inst, 1).column_lengths
        two = shape_from_weight(inst, 2).column_lengths
        three = shape_from_weight(inst, 3).column_lengths
        assert two == tuple(2 * c for c in one)
        assert three == tuple(a + b for a, b in zip(one, two))


class TestDescent:
    def test_cartan_matrix_type_b_short_root(self):
        assert cartan_matrix(FAMILY_B, 3) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
        assert cartan_matrix(FAMILY_A, 3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

    def test_root_coordinates_exact(self):
        inst = GroupInstance(FAMILY_A, 3, (1,), (1, 0), 1)
        assert root_coordinates(inst) == (Fraction(2, 3), Fraction(1, 3))

    def test_type_a_root_lattice_membership(self):
        # 3 * (second fundamental weight) expands integrally for SL_6
        inst = GroupInstance(FAMILY_A, 6, (2,), (0, 1, 0, 0, 0), 3)
        assert descent_ok(inst)
        assert not descent_ok(
            GroupInstance(FAMILY_A, 6, (2,), (0, 1, 0, 0, 0), 1)
        )

    def test_type_b_rank_two_mixed_lattice(self):
        assert not descent_ok(GroupInstance(FAMILY_B, 2, (1,), (1, 0), 1))
        assert descent_ok(GroupInstance(FAMILY_B, 2, (1,), (1, 0), 2))

    def test_type_b_higher_rank_needs_doubled_lattice(self):
        assert descent_ok(GroupInstance(FAMILY_B, 3, (3,), (0, 0, 1), 4))
        assert not descent_ok(GroupInstance(FAMILY_B, 3, (1,), (1, 0, 0), 1))

    def test_every_catalog_case_descends(self):
        for inst in catalog_instances():
            assert descent_ok(inst), inst.label


class TestCatalog:
    def test_nine_cases_with_unique_labels(self):
        instances = catalog_instances()
        assert len(instances) == 9
        labels = [i.label for i in instances]
        assert len(set(labels)) == 9

    def test_expected_generation_degrees(self):
        degrees = {
            i.label: default_generation_degree(i) for i in catalog_instances()
        }
        assert degrees == {
            "g24": 1,
            "g25": 1,
            "g36": 2,
            "fl311": 1,
            "spin5w1": 1,
            "spin5w2": 1,
            "spin7w1": 1,
            "spin7w2": 3,
            "spin7w3": 1,
        }

    def test_catalog_is_read_once(self, monkeypatch):
        reads = []
        load = weights._load_catalog

        def counted_load():
            reads.append(1)
            return load()

        monkeypatch.setattr(weights, "_load_catalog", counted_load)
        weights.catalog_instances.cache_clear()
        try:
            assert instance_by_label("g24") == instance_by_label("g24")
            assert instance_by_label("g36").multiple == 2
            assert len(reads) == 1
        finally:
            weights.catalog_instances.cache_clear()

    def test_cached_catalog_is_immutable(self):
        instances = catalog_instances()
        assert isinstance(instances, tuple)
        assert catalog_instances() is instances
        with pytest.raises(AttributeError):
            instances[0].multiple = 1

    def test_instance_from_entry_round_trip(self):
        inst = instance_from_entry(
            {"family": "A", "n": 4, "parabolic": [2], "weight": [0, 1, 0],
             "multiple": 4, "label": "g24"}
        )
        assert inst == instance_by_label("g24")


class TestLabelResolution:
    def test_catalog_label_wins_over_pattern(self):
        # the shipped three-column case uses multiple 2, not the generic n
        inst = instance_by_label("g36")
        assert inst.multiple == 2

    def test_dynamic_grassmannian_label(self):
        inst = instance_by_label("g27")
        assert inst.family == FAMILY_A
        assert inst.n == 7
        assert inst.weight == (0, 1, 0, 0, 0, 0)
        assert inst.multiple == 7

    def test_dynamic_flag_label(self):
        inst = instance_by_label("fl612")
        assert inst.n == 6
        assert inst.weight == (1, 2, 0, 0, 0)
        assert inst.multiple == 6
        assert inst.parabolic == (1, 2)

    def test_two_digit_flag_labels(self):
        inst = instance_by_label("fl10_1_2")
        assert (inst.n, inst.weight[:3], inst.multiple) == (10, (1, 2, 0), 10)
        assert inst.parabolic == (1, 2)
        assert instance_by_label("fl3_10_1").weight == (10, 1)
        assert flag_label(10, 1, 2) == "fl10_1_2"
        assert flag_label(6, 1, 2) == "fl612"

    def test_dynamic_spin_labels(self):
        w1 = instance_by_label("spin9w1")
        assert (w1.family, w1.n, w1.multiple) == (FAMILY_B, 4, 2)
        w4 = instance_by_label("spin9w4")
        assert (w4.weight, w4.multiple) == ((0, 0, 0, 1), 4)

    @pytest.mark.parametrize(
        "label",
        [
            "g54", "g04", "g3_6", "g2_010", "g10_10", "spin4w1", "spin5w3", "fl211",
            "fl5_1_1", "fl10_01_1", "fl10_0_1", "fl2_1_10", "fl10_1", "nonsense",
        ],
    )
    def test_malformed_labels_rejected(self, label):
        with pytest.raises(ValueError):
            instance_by_label(label)
