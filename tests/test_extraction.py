"""Degree-one extraction: selections, merges, interchanges, certificates."""

import contextlib
import hashlib
import io
import json
import logging
from fractions import Fraction
from pathlib import Path

import pytest

import artifact.extract as extract
from artifact import cli
from artifact.extract import (
    ExtractionStuck,
    degree_one_basis,
    dividing_unit,
    extract_degree_one,
    iter_interchanges,
    merge_odd_cycles,
    one_factor_selection,
    rebalance_loops,
)
from artifact.graphs import (
    LoopedMultigraph,
    classify_two_regular,
    graph_from_monomial,
    monomial_from_graph,
)
from artifact.plucker import PluckerMonomial, PluckerPoly, straighten
from artifact.verifier import (
    basis_monomials,
    factor_by_linear_algebra,
    validate_certificate,
)
from artifact.weights import instance_by_label, shape_from_weight
from oracles import brute_two_regular_graphs, combo_to_poly, first_dividing_unit


def graph(n, *edges):
    return LoopedMultigraph(n, list(edges))


class TestOneFactorSelection:
    def test_even_cycle_takes_alternating_edges(self):
        out = one_factor_selection(graph(4, (1, 2), (2, 3), (3, 4), (1, 4)))
        assert out.edges in ([(1, 2), (3, 4)], [(1, 4), (2, 3)])

    def test_single_edge_and_lone_loop_rejected(self):
        with pytest.raises(ValueError, match="2-regular"):
            one_factor_selection(graph(4, (1, 2), (3, 3)))

    def test_one_loop_path_rejected(self):
        for g in (graph(3, (1, 1), (1, 2), (2, 3)), graph(2, (1, 1), (1, 2))):
            with pytest.raises(ValueError, match="2-regular"):
                one_factor_selection(g)

    def test_doubly_looped_vertex_keeps_one_loop(self):
        out = one_factor_selection(graph(1, (1, 1), (1, 1)))
        assert out.edges == [(1, 1)]

    def test_even_path_takes_loop_then_alternates(self):
        out = one_factor_selection(graph(3, (1, 1), (1, 2), (2, 3), (3, 3)))
        assert out.edges == [(1, 1), (2, 3)]

    def test_odd_path_keeps_both_end_loops(self):
        out = one_factor_selection(graph(2, (1, 1), (1, 2), (2, 2)))
        assert out.edges == [(1, 1), (2, 2)]

    def test_composite_graph_is_covered_once(self):
        g = graph(
            12,
            (1, 2), (2, 3), (3, 4), (1, 4),
            (5, 5), (5, 6), (6, 7), (7, 7),
            (8, 8), (8, 9), (9, 10), (10, 11), (11, 11),
            (12, 12), (12, 12),
        )
        out = one_factor_selection(g)
        assert out.edges == [
            (1, 2), (3, 4), (5, 5), (6, 7), (8, 8), (9, 10), (11, 11), (12, 12),
        ]
        assert out.is_regular(1)
        assert g.replace(out.edges).is_regular(1)

    def test_selection_and_rest_are_one_regular_on_the_census(self):
        # every odd-cycle-free 2-regular multigraph on at most 5 vertices
        count = 0
        for edges in brute_two_regular_graphs(5):
            g = LoopedMultigraph(5, list(edges))
            if any(c["kind"] == "odd_cycle" for c in classify_two_regular(g)):
                continue
            out = one_factor_selection(g)
            for part in (out, g.replace(out.edges)):
                assert part.degrees() == {v: d // 2 for v, d in g.degrees().items()}
            count += 1
        assert count == 701

    def test_odd_cycle_has_no_selection(self):
        with pytest.raises(ExtractionStuck):
            one_factor_selection(graph(3, (1, 2), (2, 3), (1, 3)))


class TestGraphDifference:
    def test_multiset_subtraction(self):
        g = graph(3, (1, 2), (1, 2), (3, 3))
        out = g.replace(graph(3, (1, 2)).edges)
        assert out.edges == [(1, 2), (3, 3)]

    def test_non_subgraph_rejected(self):
        with pytest.raises(ValueError, match="subgraph"):
            graph(3, (1, 2)).replace(graph(3, (2, 3)).edges)


class TestMergeOddCycles:
    def test_two_triangles_become_even_cycles(self):
        g = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        combo = merge_odd_cycles(g)
        assert [(c, t.edges) for c, t in combo] == [
            (Fraction(-1), [(1, 3), (1, 5), (2, 3), (2, 4), (4, 6), (5, 6)]),
            (Fraction(1), [(1, 3), (1, 4), (2, 3), (2, 5), (4, 6), (5, 6)]),
        ]
        assert straighten(combo_to_poly(combo)) == straighten(
            monomial_from_graph(g)
        )

    def test_final_triangle_opens_against_a_spare_loop(self):
        g = graph(4, (1, 2), (1, 3), (2, 3), (4, 4), (4, 4))
        combo = merge_odd_cycles(g)
        assert [(c, t.edges) for c, t in combo] == [
            (Fraction(-1), [(1, 1), (1, 3), (2, 3), (2, 4), (4, 4)]),
            (Fraction(1), [(1, 3), (1, 4), (2, 2), (2, 3), (4, 4)]),
        ]
        assert straighten(combo_to_poly(combo)) == straighten(
            monomial_from_graph(g)
        )

    def test_even_cycle_is_already_done(self):
        g = graph(4, (1, 2), (2, 3), (3, 4), (1, 4))
        assert merge_odd_cycles(g) == [(Fraction(1), g)]

    def test_lone_odd_cycle_without_loops_jams(self):
        with pytest.raises(ExtractionStuck, match="spare loop"):
            merge_odd_cycles(graph(3, (1, 2), (2, 3), (1, 3)))


class TestInterchanges:
    def test_downward_toy_has_exactly_one_move(self):
        g = graph(4, (1, 2), (3, 3), (4, 4))
        h = graph(4, (1, 3), (2, 4))
        moves = list(iter_interchanges(g, h, -1))
        assert [(a.edges, b.edges) for a, b in moves] == [
            ([(1, 3), (2, 4)], [(1, 2), (3, 3), (4, 4)]),
        ]

    def test_upward_toy_mirrors_back(self):
        g = graph(4, (1, 3), (2, 4))
        h = graph(4, (1, 2), (3, 3), (4, 4))
        moves = list(iter_interchanges(g, h, 1))
        assert [(a.edges, b.edges) for a, b in moves] == [
            ([(1, 2), (3, 3), (4, 4)], [(1, 3), (2, 4)]),
        ]

    def test_moves_preserve_the_product_multiset(self):
        g = graph(5, (1, 2), (2, 3), (4, 4), (5, 5))
        h = graph(5, (1, 4), (2, 5), (2, 4), (3, 5))
        before = sorted(g.edges + h.edges)
        moved = 0
        for g2, h2 in iter_interchanges(g, h, -1):
            assert sorted(g2.edges + h2.edges) == before
            moved += 1
        assert moved > 0

    def test_no_move_when_the_cofactor_cannot_trade(self):
        g = graph(4, (1, 2), (3, 3), (4, 4))
        h = graph(4, (1, 2), (1, 2))
        assert list(iter_interchanges(g, h, -1)) == []
        assert next(iter_interchanges(g, h, -1), None) is None

    def test_invalid_direction_rejected(self):
        g = graph(2, (1, 2))
        with pytest.raises(ValueError, match="direction"):
            list(iter_interchanges(g, g, 0))


class TestRebalanceLoops:
    def test_direct_move_reaches_the_target(self):
        g = graph(4, (1, 2), (3, 3), (4, 4))
        h = graph(4, (1, 3), (2, 4))
        out = rebalance_loops(g, h, 0)
        assert [(c, a.edges, b.edges) for c, a, b in out] == [
            (Fraction(1), [(1, 3), (2, 4)], [(1, 2), (3, 3), (4, 4)]),
        ]

    def test_already_balanced_is_identity(self):
        g = graph(4, (1, 2), (3, 4))
        h = graph(4, (1, 3), (2, 4))
        assert rebalance_loops(g, h, 0) == [(Fraction(1), g, h)]

    def test_odd_surplus_is_unreachable(self):
        g = graph(4, (1, 2), (3, 3), (4, 4))
        h = graph(4, (1, 3), (2, 4))
        with pytest.raises(ExtractionStuck, match="parity"):
            rebalance_loops(g, h, 1)

    def test_branches_preserve_the_product_value(self):
        g = graph(4, (1, 2), (3, 3), (4, 4))
        h = graph(4, (1, 4), (2, 3))
        out = rebalance_loops(g, h, 0)
        total = PluckerPoly(4)
        for coeff, a, b in out:
            assert not [e for e in a.edges if e[0] == e[1]]
            total = total + PluckerPoly.from_monomial(
                monomial_from_graph(a) * monomial_from_graph(b), coeff
            )
        assert straighten(total) == straighten(
            monomial_from_graph(g) * monomial_from_graph(h)
        )


class TestDegreeOneBasis:
    def test_grassmannian_units(self):
        inst = instance_by_label("g24")
        assert [m.factors for m in degree_one_basis(inst)] == [
            ((1, 2), (1, 2), (3, 4), (3, 4)),
            ((1, 2), (1, 3), (2, 4), (3, 4)),
            ((1, 3), (1, 3), (2, 4), (2, 4)),
        ]

    def test_cubic_grassmannian_units(self):
        inst = instance_by_label("g36")
        assert [m.factors for m in degree_one_basis(inst)] == [
            ((1, 2, 3), (4, 5, 6)),
            ((1, 2, 4), (3, 5, 6)),
            ((1, 2, 5), (3, 4, 6)),
            ((1, 3, 4), (2, 5, 6)),
            ((1, 3, 5), (2, 4, 6)),
        ]

    def test_flag_units_mix_pairs_and_singletons(self):
        inst = instance_by_label("fl311")
        units = degree_one_basis(inst)
        assert [m.factors for m in units] == [
            ((1, 2), (1, 2), (1, 2), (3,), (3,), (3,)),
            ((1, 2), (1, 2), (1, 3), (2,), (3,), (3,)),
            ((1, 2), (1, 3), (1, 3), (2,), (2,), (3,)),
            ((1, 3), (1, 3), (1, 3), (2,), (2,), (2,)),
        ]
        assert all(m.is_standard for m in units)


DIVISOR_GRID = (
    [("fl611", 2, 9), ("fl511", 3, 0)]
    + [("g26", k, 0) for k in (2, 3, 4)]
    + [("g27", 3, 0)]
    + [("g36", 2, 2), ("g36", 3, 0), ("g36", 4, 2)]
    + [("fl311", k, 0) for k in (2, 3, 4)]
    + [("fl411", 3, 0), ("fl412", 2, 0), ("fl421", 2, 0), ("fl322", 3, 0)]
)


class TestDividingUnit:
    @pytest.mark.parametrize("label, k, undivided", DIVISOR_GRID)
    def test_matches_the_basis_scan(self, label, k, undivided):
        inst = instance_by_label(label)
        found = [
            (dividing_unit(inst, f), first_dividing_unit(inst, f))
            for f in basis_monomials(inst, k)
        ]
        assert all(new == old for new, old in found)
        assert sum(new is None for new, _ in found) == undivided

    def test_first_unit_in_basis_order(self):
        # each product is divisible by both its factors (and u1 also divides
        # u2 * u2); the search returns the divisor listed first
        inst = instance_by_label("g24")
        u1, u2, u3 = degree_one_basis(inst)
        assert dividing_unit(inst, u2 * u1) == u1
        assert dividing_unit(inst, u3 * u2) == u2
        assert dividing_unit(inst, u2 * u2) == u1
        assert dividing_unit(inst, u3 * u3) == u3

    def test_no_basis_enumeration_on_the_divide_path(self, monkeypatch):
        import artifact.extract as extract
        import artifact.verifier as verifier

        def refuse(*args):
            raise AssertionError("the divide path enumerated the basis")

        inst = instance_by_label("fl511")
        f = basis_monomials(inst, 3)[0]
        monkeypatch.setattr(extract, "basis_monomials", refuse)
        monkeypatch.setattr(extract, "degree_one_basis", refuse)
        monkeypatch.setattr(verifier, "enumerate_standard", refuse)
        [(coeff, g, h)] = extract_degree_one(inst, f)
        assert coeff == 1 and g * h == f


class TestExtractDegreeOne:
    def test_divisible_monomial_takes_the_fast_path(self):
        inst = instance_by_label("g24")
        unit = PluckerMonomial(4, ((1, 2), (1, 2), (3, 4), (3, 4)))
        f = unit * unit
        assert extract_degree_one(inst, f) == [(Fraction(1), unit, unit)]

    def test_quadratic_grassmannian_basis_certifies(self):
        inst = instance_by_label("g25")
        monos = basis_monomials(inst, 2)
        assert len(monos) == 16
        for f in monos:
            cert = extract_degree_one(inst, f)
            assert validate_certificate(inst, f, cert, count=3)

    def test_flag_pipeline_covers_even_and_odd_degrees(self):
        inst = instance_by_label("fl311")
        for k, expected in ((2, 7), (3, 10)):
            monos = basis_monomials(inst, k)
            assert len(monos) == expected
            for f in monos:
                cert = extract_degree_one(inst, f)
                for coeff, g, h in cert:
                    assert g in set(degree_one_basis(inst))
                assert validate_certificate(inst, f, cert, count=3)

    def test_cubic_grassmannian_has_two_stuck_elements(self):
        inst = instance_by_label("g36")
        stuck = []
        for f in basis_monomials(inst, 2):
            try:
                cert = extract_degree_one(inst, f)
            except ValueError as exc:
                assert "not generated in degree one" in str(exc)
                stuck.append(f.factors)
                continue
            assert validate_certificate(inst, f, cert, count=3)
        assert stuck == [
            ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)),
            ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)),
        ]

    def test_type_b_instances_are_rejected(self):
        inst = instance_by_label("spin5w1")
        f = PluckerMonomial(5, ((1,), (1,), (4,), (4,)))
        with pytest.raises(ValueError, match="type-A"):
            extract_degree_one(inst, f)

    def test_rank_mismatch_rejected(self):
        inst = instance_by_label("g24")
        f = PluckerMonomial(5, ((1, 2), (1, 2), (3, 4), (3, 4)))
        with pytest.raises(ValueError, match="rank"):
            extract_degree_one(inst, f)

    def test_non_standard_input_rejected(self):
        inst = instance_by_label("g24")
        f = PluckerMonomial(4, ((1, 4), (1, 4), (2, 3), (2, 3)) * 2)
        with pytest.raises(ValueError, match="standard"):
            extract_degree_one(inst, f)

    def test_degree_one_input_rejected(self):
        inst = instance_by_label("g24")
        f = PluckerMonomial(4, ((1, 2), (1, 2), (3, 4), (3, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            extract_degree_one(inst, f)

    def test_non_invariant_content_rejected(self):
        inst = instance_by_label("g24")
        f = PluckerMonomial(4, ((1, 2),) * 4 + ((1, 3),) * 4)
        with pytest.raises(ValueError, match="torus"):
            extract_degree_one(inst, f)


class TestLinearAlgebraRoute:
    def test_every_quadratic_basis_element_factors(self):
        inst = instance_by_label("g24")
        monos = basis_monomials(inst, 2)
        assert len(monos) == 5
        for f in monos:
            cert = factor_by_linear_algebra(inst, f)
            assert validate_certificate(inst, f, cert, count=3)

    def test_certificate_expansion_hits_exactly_the_target(self):
        inst = instance_by_label("g24")
        f = basis_monomials(inst, 2)[1]
        cert = factor_by_linear_algebra(inst, f)
        total = PluckerPoly(4)
        for coeff, g, h in cert:
            total = total + PluckerPoly.from_monomial(g * h, coeff)
        assert straighten(total) == PluckerPoly(4, {f: Fraction(1)})

    def test_non_basis_monomial_rejected(self):
        inst = instance_by_label("g24")
        f = PluckerMonomial(4, ((1, 4), (1, 4), (2, 3), (2, 3)) * 2)
        with pytest.raises(ValueError, match="basis element"):
            factor_by_linear_algebra(inst, f)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


FIG1 = ((1, 2),) * 2 + ((1, 3),) * 5 + ((1, 4),) * 3 + ((2, 4),) * 7 + (
    (2, 5), *((3, 5),) * 5, *((5,),) * 4, *((6,),) * 10)
FIG4 = ((1, 2),) * 2 + ((1, 4),) * 3 + ((2, 4),) * 2 + ((2, 5),) + (
    (3, 5),) * 4 + ((3, 6),) + ((6,),) * 4

# per piece: the number of elements that no degree-one unit divides, and
# the sha256 of the list of their certificate digests in basis order, each
# the sha256 of [(str(coeff), str(g), str(h)), ...]
GRAPH_ROUTE_TERMS = {
    ("fl511", 2): (2, "937e77be1cd5e5fa6a144e801d4f5718665a737ec3aa2e2c18b3bf8e83b01010"),
    ("fl511", 4): (2, "9df00f29eb4095d5a3dc4b04684f3a22cb131a4abc40c053ed2da241c2e5e2ca"),
    ("fl512", 2): (2, "9673772829c60f987b7c936878f09399c7cd17a92afbd1652878d31c09dc67a3"),
    ("fl512", 4): (2, "5e4ec1b1c520eddfe24d71e734d394312433c318eaeb4e0b5065ccca847acde2"),
    ("fl513", 2): (2, "394f0bf428be2f75cfac02bf66d2854a4ddca8faa45fa206d8fbb3e47bf145e4"),
    ("fl711", 2): (49, "1b99fd022245926cd0aa08b09f1c9f02d7ec9ae04c88357f1142a7b39d35f067"),
}
# pieces with s even, or with k and s both odd: the parities that take no
# graph split
DIVIDED_PIECES = (
    [(label, k) for label in ("g24", "g25", "g26", "g27") for k in (2, 3, 4)]
    + [(label, k) for label in ("fl421", "fl521", "fl322") for k in (2, 3)]
    + [(label, 3) for label in ("fl311", "fl411", "fl412", "fl511", "fl312")]
    + [("fl311", 5), ("fl411", 5)]
)


class TestGraphRoute:
    """Pins of the graph route, which runs only when no unit divides f.

    It splits only pieces with k even and s odd (s is the unit's box
    count over n): a matching of one 2-factor plus (s-1)/2 more.  In the
    other parities every measured basis element divides, and an undivided
    one would go straight to linear algebra.
    """

    def test_fl611_certificates_match_the_benchmark_pool(self):
        pool_path = Path(__file__).resolve().parents[1] / "perfbench" / "factorize_pool.json"
        with open(pool_path, encoding="utf-8") as fh:
            entries = json.load(fh)["fl611.k2"]["monomials"]
        stuck = [(text, digest) for text, divisible, digest in entries if not divisible]
        assert len(stuck) == 9
        for text, digest in stuck:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["factorize", "fl611", text, "--format", "json"]) == 0
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, text

    @pytest.mark.parametrize("label, k", sorted(GRAPH_ROUTE_TERMS))
    def test_undivided_elements_take_the_graph_route(self, label, k, monkeypatch):
        inst = instance_by_label(label)
        stuck = [f for f in basis_monomials(inst, k) if dividing_unit(inst, f) is None]

        def refuse(*args):
            raise AssertionError("the graph route fell back to linear algebra")

        monkeypatch.setattr(extract, "factor_by_linear_algebra", refuse)
        got = []
        for f in stuck:
            terms = extract_degree_one(inst, f)
            assert validate_certificate(inst, f, terms, count=2)
            got.append(_digest([(str(c), str(g), str(h)) for c, g, h in terms]))
        assert (len(got), _digest(got)) == GRAPH_ROUTE_TERMS[label, k]

    def test_the_other_parities_divide(self):
        for label, k in DIVIDED_PIECES:
            inst = instance_by_label(label)
            s = shape_from_weight(inst, 1).boxes // inst.n
            assert s % 2 == 0 or k % 2 == 1, (label, k)
            for f in basis_monomials(inst, k):
                assert dividing_unit(inst, f) is not None, (label, k, f)

    @pytest.mark.parametrize("label, k", [("fl421", 2), ("fl411", 3)])
    def test_the_other_parities_go_to_linear_algebra(self, label, k, monkeypatch, caplog):
        inst = instance_by_label(label)
        f = basis_monomials(inst, k)[0]

        def refuse(*args):
            raise AssertionError("the graph split ran")

        monkeypatch.setattr(extract, "dividing_unit", lambda *args: None)
        monkeypatch.setattr(extract, "two_factorize", refuse)
        with caplog.at_level(logging.WARNING, logger="artifact.extract"):
            terms = extract_degree_one(inst, f)
        assert terms == factor_by_linear_algebra(inst, f)
        assert validate_certificate(inst, f, terms, count=2)
        assert "jammed" not in caplog.text

    def test_relation_step_on_the_walkthrough_pair(self, monkeypatch):
        g = graph_from_monomial(PluckerMonomial(6, FIG4))
        h = graph_from_monomial(PluckerMonomial(6, FIG1))
        built = []
        for name in ("edge_loop_relation", "edge_pair_relation"):
            relation = getattr(extract, name)
            monkeypatch.setattr(
                extract, name,
                lambda h, *args, relation=relation: built.append(args) or relation(h, *args),
            )
        out = rebalance_loops(g, h, 6)
        # the first relation both of whose branches can trade wins the
        # lookahead, and nothing after it is built
        assert built == [((1, 2), 5)]
        got = [(c, str(monomial_from_graph(a)), str(monomial_from_graph(b))) for c, a, b in out]
        assert got == [
            (
                Fraction(-1),
                "p[1,2]^2 p[1,4]^2 p[2,4]^3 p[3,5]^4 p[3,6] p[1] p[5] p[6]^4",
                "p[1,2] p[1,3]^5 p[1,4]^4 p[2,4]^6 p[2,5]^3 p[3,5]^5 p[5]^2 p[6]^10",
            ),
            (
                Fraction(1),
                "p[1,2]^2 p[1,4]^3 p[2,4]^2 p[3,5]^4 p[3,6] p[2] p[5] p[6]^4",
                "p[1,2] p[1,3]^5 p[1,4]^3 p[1,5] p[2,4]^7 p[2,5]^2 p[3,5]^5 p[5]^2 p[6]^10",
            ),
        ]
        assert all(len(a.loop_vertices()) == 6 for _, a, _ in out)
        total = PluckerPoly(6)
        for coeff, a, b in out:
            total = total + PluckerPoly.from_monomial(
                monomial_from_graph(a) * monomial_from_graph(b), coeff
            )
        assert straighten(total) == straighten(PluckerMonomial(6, FIG4 + FIG1))
