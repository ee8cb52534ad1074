"""Looped multigraphs: correspondence, factorizations, classification."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from artifact.graphs import (
    LoopedMultigraph,
    classify_two_regular,
    edge_loop_relation,
    edge_pair_relation,
    graph_from_monomial,
    monomial_from_graph,
    normalize_loops,
    one_factorize_bipartite,
    to_dot,
    two_factorize,
)
from artifact.plucker import PluckerMonomial, straighten

from oracles import (
    brute_classify,
    brute_two_regular_graphs,
    combo_to_poly,
    random_bipartite_regular,
    random_regular_union,
)


def graph(n, *edges):
    return LoopedMultigraph(n, list(edges))


class TestGraphBasics:
    def test_edges_are_normalized_and_sorted(self):
        g = graph(4, (3, 1), (2, 2), (1, 2))
        assert g.edges == [(1, 2), (1, 3), (2, 2)]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="range"):
            graph(3, (1, 4))

    def test_loops_count_one_toward_degree(self):
        g = graph(3, (1, 2), (2, 2), (3, 3), (3, 3))
        assert g.degrees() == {1: 1, 2: 2, 3: 2}

    def test_components_split_edges(self):
        g = graph(6, (1, 2), (2, 3), (4, 4), (5, 6))
        # edge indices, ascending, by smallest vertex
        assert g.components() == [[0, 1], [2], [3]]

    def test_regularity(self):
        assert graph(3, (1, 2), (2, 3), (1, 3)).is_regular(2)
        assert not graph(3, (1, 2), (2, 3)).is_regular(2)


class TestMonomialCorrespondence:
    def test_pairs_and_singletons_round_trip(self):
        m = PluckerMonomial(4, ((1, 2), (3, 4), (2,), (2,)))
        g = graph_from_monomial(m)
        assert g.edges == [(1, 2), (2, 2), (2, 2), (3, 4)]
        assert monomial_from_graph(g) == m

    def test_longer_tuples_have_no_graph_form(self):
        with pytest.raises(ValueError, match="graph form"):
            graph_from_monomial(PluckerMonomial(4, ((1, 2, 3),)))

    def test_five_regular_example_with_four_loops(self):
        m = PluckerMonomial(
            6,
            ((1, 2),) * 2 + ((1, 4),) * 3 + ((2, 4),) * 2
            + ((2, 5),) + ((3, 5),) * 4 + ((3, 6),) + ((6,),) * 4,
        )
        g = graph_from_monomial(m)
        assert g.is_regular(5)
        assert g.loop_vertices() == [6] * 4


class TestNormalizeLoops:
    def test_cross_vertex_pairing_then_classical_loops(self):
        g = graph(6, *([(5, 5)] * 4 + [(6, 6)] * 10))
        classical, provenance = normalize_loops(g)
        assert classical.edges == [(5, 6)] * 4 + [(6, 6)] * 3
        # classical degrees: loops now count twice
        deg = Counter()
        for a, b in classical.edges:
            deg[a] += 1
            deg[b] += 1
        assert deg == {5: 4, 6: 10}

    def test_provenance_reconstructs_the_original(self):
        g = graph(5, (1, 2), (1, 1), (1, 1), (3, 3), (4, 4), (2, 5))
        classical, provenance = normalize_loops(g)
        rebuilt: list[tuple[int, int]] = []
        for i, (a, b) in enumerate(classical.edges):
            tag, src = provenance[i]
            if tag == "edge":
                assert src == (a, b)
                rebuilt.append(src)
            else:
                u, w = src
                rebuilt.extend([(u, u), (w, w)])
        assert sorted(rebuilt) == g.edges

    def test_loopless_graph_is_unchanged(self):
        g = graph(4, (1, 2), (3, 4))
        classical, provenance = normalize_loops(g)
        assert classical.edges == g.edges
        assert all(tag == "edge" for tag, _ in provenance.values())

    def test_odd_loop_total_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            normalize_loops(graph(3, (1, 1)))


class TestTwoFactorize:
    def test_single_even_cycle_is_its_own_factor(self):
        cycle = graph(6, (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))
        factors = two_factorize(cycle)
        assert len(factors) == 1
        assert factors[0].edges == cycle.edges

    def test_doubled_cycle_splits_into_two_cycles(self):
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)] * 2
        factors = two_factorize(graph(5, *edges))
        assert len(factors) == 2
        for f in factors:
            comps = classify_two_regular(f)
            assert [c["kind"] for c in comps] == ["odd_cycle"]
        assert sorted(factors[0].edges + factors[1].edges) == sorted(edges)

    def test_loops_survive_the_round_trip(self):
        # 4-regular with loops: doubled path plus two loops at each end
        g = graph(
            3,
            (1, 1), (1, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 3), (3, 3),
        )
        factors = two_factorize(g)
        assert len(factors) == 2
        for f in factors:
            assert f.degrees() == {1: 2, 2: 2, 3: 2}
        total = Counter(factors[0].edges) + Counter(factors[1].edges)
        assert total == Counter(g.edges)

    def test_irregular_input_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            two_factorize(graph(3, (1, 2)))
        with pytest.raises(ValueError, match="regular"):
            two_factorize(graph(3, (1, 2), (2, 3), (1, 3), (1, 1)))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_unions_split_validly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        r = rng.randint(1, 3)
        edges = random_regular_union(rng, n, r)
        g = LoopedMultigraph(n, edges)
        factors = two_factorize(g)
        assert len(factors) == r
        merged: Counter = Counter()
        for f in factors:
            assert set(f.degrees().values()) == {2}
            merged.update(f.edges)
        assert merged == Counter(g.edges)


class TestOneFactorizeBipartite:
    def test_complete_bipartite_three_matchings(self):
        edges = [(l, r) for l in range(3) for r in range(3)]
        matchings = one_factorize_bipartite(3, 3, edges)
        assert len(matchings) == 3
        for m in matchings:
            assert sorted(l for l, _ in m) == [0, 1, 2]
            assert sorted(r for _, r in m) == [0, 1, 2]

    def test_union_of_two_cycles(self):
        edges = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 2), (3, 2), (3, 3), (2, 3)]
        matchings = one_factorize_bipartite(4, 4, edges)
        assert len(matchings) == 2
        assert Counter(matchings[0]) + Counter(matchings[1]) == Counter(edges)

    def test_irregular_graph_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            one_factorize_bipartite(2, 2, [(0, 0), (0, 1), (1, 1)])

    def test_unequal_sides_rejected(self):
        with pytest.raises(ValueError, match="equal"):
            one_factorize_bipartite(2, 3, [])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_regular_graphs_factor(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 8)
        k = rng.randint(1, 4)
        edges = random_bipartite_regular(rng, n, k)
        matchings = one_factorize_bipartite(n, n, edges)
        assert len(matchings) == k
        merged: Counter = Counter()
        for m in matchings:
            assert sorted(l for l, _ in m) == list(range(n))
            assert sorted(r for _, r in m) == list(range(n))
            merged.update(m)
        assert merged == Counter(edges)


class TestClassifyTwoRegular:
    def test_triangle_is_an_odd_cycle(self):
        out = classify_two_regular(graph(3, (1, 2), (2, 3), (1, 3)))
        assert [c["kind"] for c in out] == ["odd_cycle"]

    def test_loop_edge_loop_is_an_odd_path(self):
        out = classify_two_regular(graph(2, (1, 1), (1, 2), (2, 2)))
        assert [c["kind"] for c in out] == ["odd_path_loop_to_loop"]

    def test_two_loops_on_one_vertex(self):
        out = classify_two_regular(graph(1, (1, 1), (1, 1)))
        assert [c["kind"] for c in out] == ["vertex_with_two_loops"]

    def test_square_and_even_path(self):
        square = classify_two_regular(graph(4, (1, 2), (2, 3), (3, 4), (1, 4)))
        assert [c["kind"] for c in square] == ["even_cycle"]
        path = classify_two_regular(
            graph(3, (1, 1), (1, 2), (2, 3), (3, 3))
        )
        assert [c["kind"] for c in path] == ["even_path_loop_to_loop"]

    def test_mixed_graph_matches_the_brute_classifier(self):
        g = graph(
            8,
            (1, 2), (2, 3), (1, 3),
            (4, 4), (4, 5), (5, 6), (6, 6),
            (7, 7), (7, 7),
            (8, 8), (8, 8),
        )
        got = sorted(
            (tuple(sorted(set(c["vertices"]))), c["kind"])
            for c in classify_two_regular(g)
        )
        assert got == sorted(brute_classify(8, g.edges))

    def test_exhaustive_small_census(self):
        # every 2-regular multigraph on at most 4 labeled vertices
        count = 0
        for edges in brute_two_regular_graphs(4):
            g = LoopedMultigraph(4, list(edges))
            got = sorted(
                (tuple(sorted(set(c["vertices"]))), c["kind"])
                for c in classify_two_regular(g)
            )
            assert got == sorted(brute_classify(4, g.edges))
            count += 1
        assert count == 122

    def test_non_two_regular_rejected(self):
        with pytest.raises(ValueError, match="2-regular"):
            classify_two_regular(graph(3, (1, 2)))


class TestExchangeRelations:
    def test_edge_loop_exact_expansion(self):
        g = graph(4, (1, 3), (4, 4))
        combo = edge_loop_relation(g, (1, 3), 4)
        assert [(c, h.edges) for c, h in combo] == [
            (Fraction(1), [(1, 4), (3, 3)]),
            (Fraction(-1), [(1, 1), (3, 4)]),
        ]

    def test_edge_loop_signs_flip_below_the_edge(self):
        g = graph(4, (2, 4), (1, 1))
        combo = edge_loop_relation(g, (2, 4), 1)
        assert [(c, h.edges) for c, h in combo] == [
            (Fraction(-1), [(1, 2), (4, 4)]),
            (Fraction(1), [(1, 4), (2, 2)]),
        ]

    def test_edge_loop_requires_disjoint_loop(self):
        g = graph(4, (1, 3), (3, 3))
        with pytest.raises(ValueError):
            edge_loop_relation(g, (1, 3), 3)
        with pytest.raises(ValueError):
            edge_loop_relation(graph(4, (3, 3), (4, 4)), (3, 3), 4)

    @pytest.mark.parametrize("vertex", [1, 2, 5])
    def test_edge_loop_preserves_the_ring_value(self, vertex):
        g = graph(5, (3, 4), (1, 1), (2, 2), (5, 5), (1, 2))
        combo = edge_loop_relation(g, (3, 4), vertex)
        lhs = straighten(monomial_from_graph(g))
        assert straighten(combo_to_poly(combo)) == lhs

    @pytest.mark.parametrize(
        "e1, e2",
        [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))],
    )
    def test_edge_pair_preserves_the_ring_value(self, e1, e2):
        g = graph(5, e1, e2, (5, 5), (5, 5))
        combo = edge_pair_relation(g, e1, e2)
        assert len(combo) == 2
        lhs = straighten(monomial_from_graph(g))
        assert straighten(combo_to_poly(combo)) == lhs

    def test_edge_pair_exact_expansion(self):
        g = graph(4, (1, 2), (3, 4))
        combo = edge_pair_relation(g, (1, 2), (3, 4))
        assert [(c, h.edges) for c, h in combo] == [
            (Fraction(1), [(1, 3), (2, 4)]),
            (Fraction(-1), [(1, 4), (2, 3)]),
        ]

    def test_edge_pair_needs_four_distinct_vertices(self):
        g = graph(4, (1, 2), (2, 3))
        with pytest.raises(ValueError, match="four distinct"):
            edge_pair_relation(g, (1, 2), (2, 3))


class TestDotExport:
    def test_golden_output(self):
        g = graph(4, (1, 2), (3, 3), (3, 4))
        assert to_dot(g) == (
            "graph G {\n"
            "  1;\n"
            "  2;\n"
            "  3;\n"
            "  4;\n"
            "  1 -- 2;\n"
            "  3 -- 3;\n"
            "  3 -- 4;\n"
            "}\n"
        )

    def test_untouched_vertices_are_omitted(self):
        assert "2;" not in to_dot(graph(3, (1, 3)))
