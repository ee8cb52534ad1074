"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test certifies one headline capability of the package on exact
arithmetic; run with ``pytest -v`` to get one pass/fail line per
criterion.  Criterion 2 additionally records an expected negative: the
quadratic piece of the cubic Grassmannian case is checked against
degree-one generators, and an unexpected pass there is surfaced as a
warning (a finding to investigate), never silently absorbed.
"""

import itertools
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

from artifact.extract import extract_degree_one, iter_interchanges
from artifact.graphs import (
    LoopedMultigraph,
    classify_two_regular,
    edge_loop_relation,
    graph_from_monomial,
    monomial_from_graph,
    one_factorize_bipartite,
    two_factorize,
)
from artifact.plucker import (
    PluckerMonomial,
    eval_on_matrix,
    seeded_matrices,
    straighten,
)
from artifact.tableau_b import count_standard_b, enumerate_standard_b
from artifact.verifier import (
    basis_monomials,
    check_duality,
    check_generation,
    check_typeB_factorization,
    validate_certificate,
)
from artifact.weights import instance_by_label, shape_from_weight

from oracles import (
    brute_classify,
    brute_two_regular_graphs,
    random_bipartite_regular,
    random_regular_union,
)


def mono(n, *reps):
    factors = []
    for f, c in reps:
        factors.extend([tuple(f)] * c)
    return PluckerMonomial(n, tuple(factors))


def test_criterion_01_rank_two_grassmannians_generate_in_degree_one():
    start = time.perf_counter()
    cases = [("g24", 2), ("g24", 3), ("g25", 2), ("g25", 3),
             ("g26", 2), ("g26", 3), ("g27", 2)]
    dims = {}
    for label, k in cases:
        report = check_generation(instance_by_label(label), k, 1)
        assert report.passed, f"{label} k={k} rank {report.rank} of {report.dim}"
        dims[(label, k)] = report.dim
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert dims[("g24", 2)] == 5 and dims[("g27", 2)] == 260
    print(f"criterion 1: PASS — {len(cases)} generation checks in {elapsed:.1f}s")


def test_criterion_02_cubic_grassmannian_needs_quadratic_generators():
    inst = instance_by_label("g36")
    for k, dim in ((2, 16), (3, 40), (4, 85)):
        report = check_generation(inst, k, 2)
        assert report.passed and report.dim == dim
    recorded = check_generation(inst, 2, 1)
    if recorded.passed:
        warnings.warn(
            "FINDING: degree-one generators unexpectedly span the quadratic "
            "piece of g36; the recorded expectation is a rank-15 failure"
        )
        note = "recorded run unexpectedly passed (flagged as a finding)"
    else:
        assert (recorded.dim, recorded.rank) == (16, 15)
        note = "recorded degree-one run fails at rank 15 of 16 as expected"
    print(f"criterion 2: PASS — degree-two generation certified; {note}")


def test_criterion_03_flag_quotients_generate_with_certificates():
    for label in ("fl311", "fl411", "fl511", "fl421"):
        report = check_generation(instance_by_label(label), 2, 1)
        assert report.passed, label
    certified = 0
    for label, expected in (("fl311", 7), ("fl411", 33)):
        inst = instance_by_label(label)
        monos = basis_monomials(inst, 2)
        assert len(monos) == expected
        for f in monos:
            cert = extract_degree_one(inst, f)
            assert validate_certificate(inst, f, cert, count=3)
            certified += 1
    print(f"criterion 3: PASS — four flag bounds hold, {certified} certificates check out")


def test_criterion_04_interchange_walkthrough_reproduces_certificate():
    fig1 = mono(6, ((1, 2), 2), ((1, 3), 5), ((1, 4), 3), ((2, 4), 7),
                ((2, 5), 1), ((3, 5), 5), ((5,), 4), ((6,), 10))
    fig2 = mono(6, ((1, 2), 2), ((1, 3), 5), ((1, 4), 3), ((2, 4), 6),
                ((2, 5), 2), ((3, 5), 5), ((4,), 1), ((5,), 3), ((6,), 10))
    fig3 = mono(6, ((1, 2), 2), ((1, 3), 5), ((1, 4), 3), ((2, 4), 6),
                ((2, 5), 1), ((3, 5), 5), ((4, 5), 1), ((2,), 1),
                ((5,), 3), ((6,), 10))
    fig4 = mono(6, ((1, 2), 2), ((1, 4), 3), ((2, 4), 2), ((2, 5), 1),
                ((3, 5), 4), ((3, 6), 1), ((6,), 4))
    g_a = mono(6, ((1, 2), 2), ((1, 3), 1), ((1, 4), 2), ((2, 4), 2),
               ((2, 5), 1), ((3, 5), 4), ((4,), 1), ((6,), 5))
    g_b = mono(6, ((1, 2), 2), ((1, 4), 3), ((2, 4), 2), ((3, 5), 5),
               ((2,), 1), ((6,), 5))

    # one signed relation on the edge (2,4) against the loop at 5
    relation = edge_loop_relation(graph_from_monomial(fig1), (2, 4), 5)
    assert [(c, monomial_from_graph(t)) for c, t in relation] == [
        (Fraction(1), fig2),
        (Fraction(-1), fig3),
    ]

    # on each branch an upward interchange reaches the known generator
    candidate = graph_from_monomial(fig4)
    cofactors = {}
    for target, branch in ((g_a, fig2), (g_b, fig3)):
        for moved, rest in iter_interchanges(
            candidate, graph_from_monomial(branch), 1
        ):
            if monomial_from_graph(moved) == target:
                cofactors[target] = monomial_from_graph(rest)
                break
        assert target in cofactors
    assert g_a.is_standard and not g_b.is_standard

    terms = [
        (Fraction(1), g_a, cofactors[g_a]),
        (Fraction(-1), g_b, cofactors[g_b]),
    ]
    inst = instance_by_label("fl612")
    assert validate_certificate(inst, fig4 * fig1, terms, count=2)
    print("criterion 4: PASS — relation, both interchanges, and the certificate agree")


def test_criterion_05_spin_counts_and_unit_generators():
    linear = [k + 1 for k in range(1, 7)]
    triangular = [(k + 1) * (k + 2) // 2 for k in range(1, 7)]
    for label, expected in (
        ("spin5w1", linear), ("spin5w2", linear), ("spin7w1", triangular)
    ):
        inst = instance_by_label(label)
        got = [count_standard_b(inst, k) for k in range(1, 7)]
        assert got == expected, label
    units = {
        "spin5w1": [((1,), (1,), (4,), (4,)), ((2,), (2,), (3,), (3,))],
        "spin5w2": [((1, 2), (3, 4)), ((1, 3), (2, 4))],
        "spin7w1": [
            ((1,), (1,), (6,), (6,)),
            ((2,), (2,), (5,), (5,)),
            ((3,), (3,), (4,), (4,)),
        ],
    }
    for label, rows in units.items():
        inst = instance_by_label(label)
        got = list(enumerate_standard_b(inst, 1))
        assert got == rows, label
    print("criterion 5: PASS — spin dimension series and unit generators match")


def test_criterion_06_spin7_third_weight_splits_in_degree_one():
    inst = instance_by_label("spin7w3")
    dims = {}
    for k in (2, 3):
        report = check_typeB_factorization(inst, k, 1)
        assert report.passed
        assert all(w["parts"] is not None for w in report.witnesses)
        dims[k] = report.dim
    assert (dims[2], dims[3]) == (29, 72)
    print("criterion 6: PASS — all 101 basis tableaux split into degree-one pieces")


def test_criterion_07_spin7_adjoint_weight_splits_in_degree_three():
    inst = instance_by_label("spin7w2")
    for k, dim in ((2, 33), (3, 96), (4, 225)):
        report = check_typeB_factorization(inst, k, 3)
        assert report.passed and report.dim == dim
        unit_boxes = shape_from_weight(inst, 1).boxes
        assert max(
            sum(map(len, part)) for w in report.witnesses for part in w["parts"]
        ) <= 3 * unit_boxes
    print("criterion 7: PASS — splits exist with pieces of degree at most three")


def test_criterion_08_complementary_grassmannians_match():
    for r, n in ((1, 4), (2, 5), (1, 5), (2, 6), (3, 6)):
        out = check_duality(r, n, 3)
        assert out["verdict"] == "pass", (r, n)
        for row in out["degrees"]:
            assert row["left"] == row["right"]
    print("criterion 8: PASS — five dual pairs agree through degree three")


def test_criterion_09_randomized_graph_machinery_is_sound():
    rng = random.Random(90)
    for _ in range(200):
        n = rng.randint(3, 12)
        r = rng.randint(1, 4)
        g = LoopedMultigraph(n, random_regular_union(rng, n, r))
        factors = two_factorize(g)
        assert len(factors) == r
        merged: Counter = Counter()
        for f in factors:
            assert set(f.degrees().values()) == {2}
            merged.update(f.edges)
        assert merged == Counter(g.edges)

    rng = random.Random(91)
    for _ in range(200):
        n = rng.randint(2, 10)
        k = rng.randint(1, 5)
        edges = random_bipartite_regular(rng, n, k)
        matchings = one_factorize_bipartite(n, n, edges)
        assert len(matchings) == k
        merged = Counter()
        for m in matchings:
            assert sorted(l for l, _ in m) == list(range(n))
            assert sorted(r_ for _, r_ in m) == list(range(n))
            merged.update(m)
        assert merged == Counter(edges)

    census = 0
    for edges in brute_two_regular_graphs(6):
        g = LoopedMultigraph(6, list(edges))
        got = sorted(
            (tuple(sorted(set(c["vertices"]))), c["kind"])
            for c in classify_two_regular(g)
        )
        assert got == sorted(brute_classify(6, g.edges))
        census += 1
    assert census == 5777
    print("criterion 9: PASS — 400 random factorizations plus a 5777-graph census")


def test_criterion_10_randomized_straightening_is_exact():
    rng = random.Random(20260815)
    for case in range(500):
        if rng.random() < 0.5:
            r = rng.choice((2, 3))
            n = rng.randint(r + 1, 7)
            pool = list(itertools.combinations(range(1, n + 1), r))
            rows = r
        else:
            n = rng.randint(3, 6)
            pool = [
                c for w in (1, 2)
                for c in itertools.combinations(range(1, n + 1), w)
            ]
            rows = 2
        factors = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        product = PluckerMonomial(n, factors)
        result = straighten(product)
        assert all(m.is_standard for m, _ in result.items())
        for matrix in seeded_matrices(n, rows, 10, seed=case):
            lhs = eval_on_matrix(product, matrix)
            rhs = sum(
                (c * eval_on_matrix(m, matrix) for m, c in result.items()),
                Fraction(0),
            )
            assert lhs == rhs
    print("criterion 10: PASS — 500 random products straighten to standard form exactly")
