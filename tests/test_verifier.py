"""Generation-degree certification, type-B splitting, duality, suites."""

import ast
import functools
import hashlib
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact
import artifact.verifier as verifier
from artifact.cli import main
from artifact.plucker import MinorTable, PluckerMonomial, eval_on_matrix, seeded_matrices
from artifact.tableau_a import canonical_rows, count_standard, enumerate_standard, rows_standard
from artifact.tableau_b import count_standard_b, enumerate_standard_b
from artifact.verifier import (
    _b_units,
    basis,
    basis_monomials,
    basis_size,
    check_duality,
    check_generation,
    check_typeB_factorization,
    factor_by_linear_algebra,
    run_instance_check,
    run_paper_suite,
    unit_splitter,
    validate_certificate,
)
from artifact.weights import FAMILY_B, GroupInstance, instance_by_label, shape_from_weight
from oracles import (
    full_product_rank,
    nearest_first_rank,
    split_residue,
    tuple_splitter,
    unit_split_count,
)

ORACLE_GRID = (
    [("g24", k, 1) for k in (2, 3, 4)]
    + [("g25", k, 1) for k in (2, 3)]
    + [("g26", k, 1) for k in (2, 3)]
    + [("g36", k, d) for k in (2, 3, 4) for d in (1, 2)]
    + [("fl311", k, 1) for k in (2, 3, 5)]
    + [("fl411", k, 1) for k in (2, 3)]
    + [("fl412", 2, 1), ("fl421", 2, 1), ("fl511", 2, 1), ("fl322", 3, 1)]
)

NEAREST_FIRST_GRID = (
    [("g36", k, 1) for k in (2, 3, 4)]
    + [("fl511", 3, 1), ("fl611", 2, 1), ("fl512", 2, 1), ("g27", 3, 1)]
    + [("g46", 4, d) for d in (1, 2, 3)]
)

UNIT_SPLIT_GRID = (
    [(label, k, 1) for label in ("spin5w1", "spin5w2") for k in (2, 3, 4, 5)]
    + [("spin7w1", k, 1) for k in (2, 3, 4)]
    + [("spin7w2", 2, 1), ("spin7w2", 3, 1), ("spin7w2", 3, 2)]
    + [("spin7w3", 2, 1), ("spin7w3", 2, 2), ("spin7w3", 3, 1)]
    + [("spin9w1", k, 1) for k in (2, 3)]
    + [("spin9w2", 2, 1)]
)


def residue_size(label: str, k: int, d: int) -> int:
    inst = instance_by_label(label)
    lower = {j: basis_monomials(inst, j) for j in range(1, min(d, k - 1) + 1)}
    return len(split_residue(basis_monomials(inst, k), k, lower))


class TestCheckGeneration:
    def test_quadratic_piece_generated_by_units(self):
        report = check_generation(instance_by_label("g24"), 2, 1)
        assert report.passed
        assert (report.dim, report.rank) == (5, 5)

    def test_degree_within_bound_is_trivially_generated(self):
        report = check_generation(instance_by_label("g24"), 1, 1)
        assert report.passed
        assert (report.dim, report.rank) == (3, 3)
        assert report.notes == ["degree within generator bound"]

    def test_cubic_grassmannian_misses_one_dimension(self):
        report = check_generation(instance_by_label("g36"), 2, 1)
        assert report.verdict == "fail"
        assert (report.dim, report.rank) == (16, 15)

    def test_allowing_quadratic_generators_closes_the_gap(self):
        inst = instance_by_label("g36")
        d1 = check_generation(inst, 2, 1)
        d2 = check_generation(inst, 2, 2)
        assert d2.passed
        assert d1.rank <= d2.rank

    def test_type_b_instance_rejected(self):
        with pytest.raises(ValueError, match="type B"):
            check_generation(instance_by_label("spin5w1"), 2, 1)

    def test_budget_guard_refuses_oversized_problems(self, monkeypatch):
        monkeypatch.setattr(verifier, "BUDGET_ENTRIES", 10)
        with pytest.raises(ValueError, match="budget"):
            check_generation(instance_by_label("g24"), 2, 1)

    def test_budget_guard_refuses_before_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a basis was enumerated before the budget guard")

        monkeypatch.setattr(verifier, "enumerate_standard", refuse)
        with pytest.raises(ValueError, match="1030330 products x 77371 basis elements"):
            check_generation(instance_by_label("g38"), 2, 1)

    def test_count_and_enumeration_must_agree(self, monkeypatch):
        count = verifier.count_standard
        monkeypatch.setattr(verifier, "count_standard", lambda *a: count(*a) + 1)
        with pytest.raises(AssertionError, match="disagrees with its count"):
            check_generation(instance_by_label("g24"), 2, 1)

    @pytest.mark.parametrize("label, k, d", ORACLE_GRID)
    def test_matches_the_full_product_oracle(self, label, k, d):
        inst = instance_by_label(label)
        report = check_generation(inst, k, d)
        assert (report.dim, report.rank, report.verdict) == full_product_rank(inst, k, d)

    @pytest.mark.parametrize("label, k, d", NEAREST_FIRST_GRID)
    def test_matches_the_nearest_first_oracle(self, label, k, d):
        inst = instance_by_label(label)
        report = check_generation(inst, k, d)
        assert (report.dim, report.rank, report.verdict) == nearest_first_rank(inst, k, d)

    def test_passes_straighten_only_a_few_products(self, monkeypatch):
        calls = []
        straighten = verifier.straighten
        monkeypatch.setattr(verifier, "straighten", lambda p: calls.append(p) or straighten(p))
        assert check_generation(instance_by_label("fl511"), 3, 1).passed
        assert len(calls) == 8
        calls.clear()
        assert check_generation(instance_by_label("fl611"), 2, 1).passed
        assert len(calls) <= 15

    @pytest.mark.parametrize(
        "label, k, d, count",
        [("fl511", 3, 1, 8), ("fl611", 2, 1, 15), ("fl512", 2, 1, 2), ("g36", 4, 1, 0)],
    )
    def test_neighbours_are_products_of_lower_basis_elements(self, label, k, d, count):
        inst = instance_by_label(label)
        lower = {j: [m.factors for m in basis_monomials(inst, j)] for j in range(1, d + 1)}
        split = unit_splitter(lower)
        residue = [m.factors for m in basis_monomials(inst, k) if split(m.factors, k) is None]
        neighbours = list(verifier._residue_neighbours(residue, lower, split, k))
        assert len(set(neighbours)) == len(neighbours) == count
        degree = {piece: j for j, pieces in lower.items() for piece in pieces}
        for product in neighbours:
            assert not rows_standard(product)
            pieces = split(product, k)
            assert canonical_rows(r for piece in pieces for r in piece) == product
            assert sum(degree[piece] for piece in pieces) == k

    @pytest.mark.parametrize(
        "label, k, d, size",
        [("fl511", 3, 1, 8), ("g36", 3, 1, 10), ("g36", 4, 1, 30), ("g26", 4, 1, 0)],
    )
    def test_residue_sizes(self, label, k, d, size):
        assert residue_size(label, k, d) == size

    def test_split_pieces_need_no_straightening(self, monkeypatch):
        def refuse(_):
            raise AssertionError("a split piece was straightened")

        monkeypatch.setattr(verifier, "straighten", refuse)
        report = check_generation(instance_by_label("g26"), 3, 1)
        assert report.passed
        assert (report.dim, report.rank) == (175, 175)

    def test_serialized_report_has_stable_keys(self):
        report = check_generation(instance_by_label("g24"), 2, 1)
        assert list(report.as_dict().keys()) == [
            "instance", "k", "d", "dim", "rank", "verdict",
        ]
        trivial = check_generation(instance_by_label("g24"), 1, 1)
        assert list(trivial.as_dict().keys()) == [
            "instance", "k", "d", "dim", "rank", "verdict", "notes",
        ]


class TestTypeBFactorization:
    def test_spin_vector_case_splits_in_degree_one(self):
        report = check_typeB_factorization(instance_by_label("spin7w3"), 2, 1)
        assert report.passed
        assert (report.dim, report.rank) == (29, 29)
        doubled = [[1, 3, 5]] * 4 + [[2, 4, 6]] * 4
        entry = next(w for w in report.witnesses if w["element"] == doubled)
        half = [[1, 3, 5], [1, 3, 5], [2, 4, 6], [2, 4, 6]]
        assert entry["parts"] == [half, half]

    @pytest.mark.parametrize("label", ["spin7w1", "spin7w3"])
    def test_every_piece_has_mirrored_content(self, label):
        inst = instance_by_label(label)
        report = check_typeB_factorization(inst, 2, 1)
        assert report.passed
        size = 2 * inst.n + 1
        for witness in report.witnesses:
            assert witness["parts"] is not None
            for part in witness["parts"]:
                content = Counter(t for row in part for t in row)
                assert all(content[t] == content[size - t] for t in content)

    def test_adjoint_case_needs_cubic_pieces(self):
        report = check_typeB_factorization(instance_by_label("spin7w2"), 4, 3)
        assert report.passed
        assert (report.dim, report.rank) == (225, 225)
        unit_boxes = shape_from_weight(instance_by_label("spin7w2"), 1).boxes
        assert max(
            sum(map(len, part)) for w in report.witnesses for part in w["parts"]
        ) <= 3 * unit_boxes
        keys = list(report.as_dict().keys())
        assert keys == [
            "instance", "k", "d", "dim", "rank", "verdict", "witnesses",
        ]

    def test_rank_two_pieces_are_degree_one_units(self):
        report = check_typeB_factorization(instance_by_label("spin5w1"), 3, 1)
        assert report.passed
        assert report.dim == 4
        units = ([[1], [1], [4], [4]], [[2], [2], [3], [3]])
        for witness in report.witnesses:
            for part in witness["parts"]:
                assert part in units

    @pytest.mark.parametrize("label, k, d", UNIT_SPLIT_GRID)
    def test_matches_the_subset_search_oracle(self, label, k, d):
        inst = instance_by_label(label)
        report = check_typeB_factorization(inst, k, d)
        assert (report.dim, report.rank, report.verdict) == unit_split_count(inst, k, d)

    @pytest.mark.parametrize("k, d", [(3, 2), (4, 3)])
    def test_witness_parts_are_lower_basis_elements(self, k, d):
        inst = instance_by_label("spin7w2")
        report = check_typeB_factorization(inst, k, d)
        # each lower basis element's units, keyed by its flattened rows
        paired = {j: shape_from_weight(inst, j).paired_rows for j in range(1, k + 1)}
        lower = {
            tuple(row for unit in units for row in unit): units
            for j in range(1, d + 1)
            for units in (_b_units(rows, paired[j]) for rows in enumerate_standard_b(inst, j))
        }
        element_units = {rows: _b_units(rows, paired[k]) for rows in enumerate_standard_b(inst, k)}
        split = [w for w in report.witnesses if w["parts"] is not None]
        assert len(split) == report.rank
        for witness in split:
            parts = [tuple(map(tuple, part)) for part in witness["parts"]]
            assert all(part in lower for part in parts)
            joined = Counter(unit for part in parts for unit in lower[part])
            assert joined == Counter(element_units[tuple(map(tuple, witness["element"]))])

    @pytest.mark.parametrize(
        "label, k, d, code, digest",
        [
            ("spin7w2", 4, 3, 0, "56e163ea4e524df46462446df0696b81760dc8224437d906553263e8fec62e08"),
            ("spin7w3", 4, 1, 0, "3a346d67f78aa87720687b4826cc9d066d9ffd701b39d9770adbb49cb4d29c25"),
            ("spin9w2", 3, 1, 1, "4bc7adb1744488b94a1f90d09d9c53f0c0376fe14a10e2cda4257dd4ad60bef0"),
        ],
    )
    def test_witness_json_is_pinned(self, capsys, label, k, d, code, digest):
        # the witness parts depend on which lower piece the splitter tries
        # first, so the verify output is pinned byte for byte
        assert main(["verify", label, "-k", str(k), "-d", str(d), "--format", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_type_a_instance_rejected(self):
        with pytest.raises(ValueError, match="type-B"):
            check_typeB_factorization(instance_by_label("g24"), 2, 1)


SPLITTER_GRID_A = (
    [("g26", 4, 1), ("fl511", 3, 1), ("g27", 3, 1), ("fl611", 2, 1)]
    + [("g36", k, d) for k in (3, 4) for d in (1, 2)]
)

SPLITTER_GRID_B = (
    [("spin7w2", k, d) for k in (2, 3, 4) for d in (1, 2, 3)]
    + [("spin7w3", k, 1) for k in (2, 3, 4)]
    + [("spin9w2", 2, 1)]
)


@functools.cache
def unit_basis(label: str, degree: int) -> tuple[tuple, ...]:
    """The degree's basis as splitter units: rows in type A, `_b_units` in type B."""
    inst = instance_by_label(label)
    if inst.family != FAMILY_B:
        return tuple(m.factors for m in basis_monomials(inst, degree))
    paired = shape_from_weight(inst, degree).paired_rows
    return tuple(_b_units(rows, paired) for rows in enumerate_standard_b(inst, degree))


def splitters(label: str, d: int):
    lower = {j: list(unit_basis(label, j)) for j in range(1, d + 1)}
    return unit_splitter(lower), tuple_splitter(lower)


class TestUnitSplitter:
    @pytest.mark.parametrize("label, k, d", SPLITTER_GRID_A)
    def test_type_a_splits_where_the_tuple_oracle_does(self, label, k, d):
        # the head rules differ in type A, so only whether a split exists is compared
        packed, oracle = splitters(label, d)
        basis = unit_basis(label, k)
        assert [packed(f, k) is None for f in basis] == [oracle(f, k) is None for f in basis]

    @pytest.mark.parametrize("label, k, d", SPLITTER_GRID_B)
    def test_type_b_pieces_match_the_tuple_oracle(self, label, k, d):
        packed, oracle = splitters(label, d)
        for units in unit_basis(label, k):
            assert packed(units, k) == oracle(units, k)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_products_of_top_degree_pieces_split_back(self, data):
        # a remainder of generator degree must itself be a basis element, so
        # the pieces multiplied are of the top generator degree d: peeling the
        # one that holds the head leaves a product of the same kind
        label, d = data.draw(
            st.sampled_from([("g36", 1), ("g36", 2), ("fl511", 1), ("spin7w2", 2), ("spin7w3", 1)])
        )
        pool = unit_basis(label, d)
        pieces = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
        units = [unit for piece in pieces for unit in piece]
        product = tuple(sorted(units)) if label.startswith("spin") else canonical_rows(units)
        k = d * len(pieces)
        split, _ = splitters(label, d)
        parts = split(product, k)
        assert parts is not None
        assert Counter(unit for part in parts for unit in part) == Counter(product)
        degree = {piece: j for j in range(1, d + 1) for piece in unit_basis(label, j)}
        assert sum(degree[part] for part in parts) == k

    def test_unit_outside_every_piece_never_splits(self):
        split, _ = splitters("g24", 1)
        a, _, b = unit_basis("g24", 1)
        assert split(canonical_rows(a + b), 2) == [a, b]
        # no degree-one basis element has the rows (1, 4) or (2, 3)
        assert split(canonical_rows(a + ((1, 3), (1, 4), (2, 3), (2, 4))), 2) is None

    def test_lane_overflow_is_refused(self):
        class Counted(tuple):
            # reports a length without holding the units
            def __len__(self):
                return self.reported

        split, _ = splitters("g24", 1)
        below, at = Counted(), Counted()
        below.reported, at.reported = 2**31 - 1, 2**31
        assert split(below, 2) is None
        with pytest.raises(ValueError, match="problem too large"):
            split(at, 2)


BASIS_PIECES = (
    [("g24", k) for k in range(4)]
    + [(label, k) for label in ("fl311", "g36", "spin5w1", "spin7w2", "spin7w3") for k in (1, 2, 3)]
    + [("spin9w4", 1), ("spin9w4", 2)]
)


class TestBasis:
    """One entry point lists and counts a basis of either family."""

    @pytest.mark.parametrize("label, k", BASIS_PIECES)
    def test_count_matches_the_listing_and_the_family_functions(self, label, k):
        inst = instance_by_label(label)
        rows = basis(inst, k)
        assert basis_size(inst, k) == len(rows)
        if inst.family == FAMILY_B:
            assert rows == list(enumerate_standard_b(inst, k))
            assert len(rows) == count_standard_b(inst, k)
        else:
            shape = shape_from_weight(inst, k)
            assert rows == list(enumerate_standard(shape, inst.n, "uniform"))
            assert len(rows) == count_standard(shape, inst.n, "uniform")

    def test_type_b_is_counted_as_type_b(self):
        # read as type A, these pieces give 1 and a ValueError
        assert basis_size(instance_by_label("spin7w3"), 2) == 29
        assert basis_size(instance_by_label("spin7w2"), 2) == 33


class TestDuality:
    def test_complementary_grassmannians_agree(self):
        out = check_duality(2, 5, 3)
        assert out["left"] == "g25"
        assert out["right"] == "g35"
        assert out["verdict"] == "pass"
        assert [row["k"] for row in out["degrees"]] == [1, 2, 3]
        for row in out["degrees"]:
            assert row["left"] == row["right"]
        assert out["degrees"][0]["left"] == 6
        assert out["degrees"][1]["left"] == 16

    def test_self_complementary_case(self):
        out = check_duality(2, 4, 2)
        assert out["left"] == out["right"] == "g24"
        assert out["verdict"] == "pass"


class TestRunInstanceCheck:
    def test_descent_gate_blocks_bad_multiples(self):
        inst = GroupInstance(FAMILY_B, 3, (3,), (0, 0, 1), 1)
        report = run_instance_check(inst, 2, 1)
        assert report.verdict == "fail"
        assert report.notes == ["scaled weight misses the descent lattice"]
        assert (report.dim, report.rank) == (0, 0)

    def test_dispatches_by_family(self):
        a = run_instance_check(instance_by_label("g24"), 2, 1)
        b = run_instance_check(instance_by_label("spin5w1"), 2, 1)
        assert a.passed and b.passed
        assert a.witnesses is None
        assert b.witnesses is not None


class TestPaperSuite:
    def test_default_catalog_all_pass(self):
        reports = run_paper_suite()
        assert [r.instance for r in reports] == [
            "g24", "g25", "g36", "fl311",
            "spin5w1", "spin5w2", "spin7w1", "spin7w2", "spin7w3",
        ]
        assert all(r.passed for r in reports)
        assert all(r.k == 2 for r in reports)

    def test_empty_manifest(self):
        assert run_paper_suite([]) == []

    def test_manifest_entries_override_degrees(self):
        entry = {
            "family": "A", "n": 4, "parabolic": [2], "weight": [0, 1, 0],
            "multiple": 4, "label": "g24", "k": 3, "genDegree": 1,
        }
        (report,) = run_paper_suite([entry])
        assert (report.instance, report.k, report.d) == ("g24", 3, 1)
        assert report.passed


class TestValidateCertificate:
    def _certificate(self):
        inst = instance_by_label("g24")
        f = basis_monomials(inst, 2)[1]
        return inst, f, factor_by_linear_algebra(inst, f)

    def test_honest_certificate_validates(self):
        inst, f, cert = self._certificate()
        assert validate_certificate(inst, f, cert)

    def test_shared_minor_table_matches_fresh_evaluation(self):
        inst, f, cert = self._certificate()
        monos = [f] + [m for _, g, h in cert for m in (g, h)]
        for matrix in seeded_matrices(f.n, f.n, 10, 0):
            table = MinorTable(matrix)
            assert [table.monomial(m) for m in monos] == [
                eval_on_matrix(m, matrix) for m in monos
            ]

    def test_corrupted_coefficient_is_caught(self):
        inst, f, cert = self._certificate()
        coeff, g, h = cert[0]
        for scale in (2, -1):
            bad = [(coeff * scale, g, h)] + cert[1:]
            assert not validate_certificate(inst, f, bad)

    def test_swapped_cofactor_is_caught(self):
        inst, f, cert = self._certificate()
        coeff, g, h = cert[0]
        other = next(m for m in basis_monomials(inst, 1) if m != h)
        assert not validate_certificate(inst, f, [(coeff, g, other)] + cert[1:])
        # a one-term certificate f = u * q, as the divide path writes them
        flag = instance_by_label("fl511")
        unit = basis_monomials(flag, 1)[3]
        q, q_other = basis_monomials(flag, 2)[5:7]
        assert validate_certificate(flag, unit * q, [(Fraction(1), unit, q)])
        assert not validate_certificate(flag, unit * q, [(Fraction(1), unit, q_other)])

    def test_fractional_coefficients_are_scaled(self, monkeypatch):
        # f = u * q split as 1/2 + 1/3 + 1/6 of itself: the evaluation
        # multiplies through by the lcm 6 and must still compare exactly
        flag = instance_by_label("fl511")
        unit = basis_monomials(flag, 1)[3]
        q = basis_monomials(flag, 2)[5]
        cert = [(Fraction(1, d), unit, q) for d in (2, 3, 6)]
        assert validate_certificate(flag, unit * q, cert)
        monkeypatch.setattr(verifier, "straighten", lambda p: 0)
        assert validate_certificate(flag, unit * q, cert)
        for bad in (cert[:2], [(Fraction(1, 2), unit, q)] * 2 + cert[1:2], [(Fraction(7, 6), unit, q)]):
            assert not validate_certificate(flag, unit * q, bad)

    def test_dropped_term_is_caught(self):
        inst = instance_by_label("g25")
        f = basis_monomials(inst, 2)[6]
        cert = factor_by_linear_algebra(inst, f)
        assert len(cert) >= 2
        assert validate_certificate(inst, f, cert)
        assert not validate_certificate(inst, f, cert[1:])

    def test_evaluation_alone_rejects_tampering(self, monkeypatch):
        # with the straightening half blinded, the minor table must still
        # reject a dropped term, a flipped sign, a swapped cofactor, no terms
        inst = instance_by_label("g25")
        f = basis_monomials(inst, 2)[6]
        cert = factor_by_linear_algebra(inst, f)
        coeff, g, h = cert[0]
        other = next(m for m in basis_monomials(inst, 1) if m != h)
        monkeypatch.setattr(verifier, "straighten", lambda p: 0)
        assert validate_certificate(inst, f, cert)
        for bad in (cert[1:], [(-coeff, g, h)] + cert[1:], [(coeff, g, other)] + cert[1:], []):
            assert not validate_certificate(inst, f, bad)

    def test_wrong_target_is_caught(self):
        inst, f, cert = self._certificate()
        other = basis_monomials(inst, 2)[0]
        assert not validate_certificate(inst, other, cert)

    def test_empty_certificate_never_matches_a_monomial(self):
        inst, f, _ = self._certificate()
        assert not validate_certificate(inst, f, [])


TRIPPED_CHECKS = textwrap.dedent(
    """
    import sys
    from fractions import Fraction
    from unittest import mock

    import artifact.extract as extract
    import artifact.graphs as graphs
    import artifact.plucker as plucker
    import artifact.verifier as verifier
    from artifact.extract import _validate_terms
    from artifact.graphs import LoopedMultigraph, two_factorize
    from artifact.plucker import PluckerMonomial, PluckerPoly, straighten
    from artifact.verifier import _residue_row
    from artifact.weights import instance_by_label

    assert False, "plain asserts are stripped under -O"
    mono = PluckerMonomial(4, ((1, 2), (3, 4)))
    half = PluckerPoly.from_monomial(mono, Fraction(1, 2))
    whole = PluckerPoly.from_monomial(mono)
    g24 = instance_by_label("g24")
    target = verifier.basis_monomials(g24, 2)[0]
    matchings = graphs.one_factorize_bipartite
    square = LoopedMultigraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    # only the linear-algebra checks see a broken straightening: the shared
    # certificate identity must still catch the empty extraction
    halved = mock.patch.object(
        verifier, "straighten", lambda poly: PluckerPoly.from_monomial(target, Fraction(1, 2))
    )
    off_piece = mock.patch.object(verifier, "straighten", lambda poly: whole)
    checks = {
        "integral row": lambda: _residue_row(half, {mono.factors}, {}),
        "in piece": lambda: _residue_row(whole, set(), {}),
        "extraction identity": lambda: _validate_terms(mono, []),
        "measure decrease": lambda: straighten(PluckerMonomial(4, ((1, 4), (2, 3)))),
        "2-regular factor": lambda: two_factorize(
            LoopedMultigraph(3, [(1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (1, 3)])
        ),
        "shuffle pool": lambda: plucker._shuffle_rewrite((2, 3), (2, 2)),
        "shuffle identity": lambda: plucker._shuffle_rewrite((1, 3), (1, 2)),
        "integral columns": lambda: halved(verifier.factor_by_linear_algebra)(g24, target),
        "linalg in piece": lambda: off_piece(verifier.factor_by_linear_algebra)(g24, target),
        "1-regular selection": lambda: extract.one_factor_selection(square),
    }
    plucker._pair_rewrite = lambda upper, lower: ((1, upper, lower),)
    plucker._sort_sign = lambda seq: (0, ())
    graphs.one_factorize_bipartite = lambda *a: [m[:-1] for m in matchings(*a)]
    # the square's edges in sorted order are no walk: every other one is (1, 2), (2, 3)
    extract.classify_two_regular = lambda g: [
        {"kind": "even_cycle", "vertices": [1, 2, 3, 4], "order": g.edges}
    ]
    for name, check in checks.items():
        try:
            check()
        except AssertionError:
            print(name)
    """
)


def test_invariant_checks_survive_optimized_mode():
    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", TRIPPED_CHECKS],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == [
        "integral row", "in piece", "extraction identity",
        "measure decrease", "2-regular factor", "shuffle pool", "shuffle identity",
        "integral columns", "linalg in piece", "1-regular selection",
    ]


def test_program_has_no_assert_statements():
    # checks that decide verdicts are explicit raises: `python -O` strips asserts
    package = Path(artifact.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
