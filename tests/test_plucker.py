"""Monomial algebra, straightening, and the minor-evaluation oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.linalg import int_det
from artifact.plucker import (
    MinorTable,
    PluckerMonomial,
    PluckerPoly,
    eval_on_matrix,
    seeded_matrices,
    straighten,
)
from artifact.extract import dividing_unit
from artifact.tableau_a import canonical_rows, check_rows, enumerate_standard
from artifact.verifier import basis_monomials
from artifact.weights import instance_by_label, shape_from_weight
from oracles import (
    canonical_rows_keysort,
    counter_divides,
    counter_quotient,
    int_det_bareiss,
    seeded_matrices_randint,
)


def mono(n, *factors):
    return PluckerMonomial(n, tuple(tuple(f) for f in factors))


class TestMonomial:
    def test_factors_canonically_sorted(self):
        m = mono(5, (4, 5), (1,), (1, 3))
        assert m.factors == ((1, 3), (4, 5), (1,))

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            mono(4, (2, 2))
        with pytest.raises(ValueError, match="range"):
            mono(4, (0, 1))
        with pytest.raises(ValueError, match="empty"):
            mono(4, ())

    def test_str_groups_powers(self):
        assert str(mono(4, (1, 2), (1, 2), (3, 4))) == "p[1,2]^2 p[3,4]"
        assert str(PluckerMonomial(4, ())) == "1"

    def test_multiplication_merges_factors(self):
        prod = mono(4, (1, 2)) * mono(4, (3, 4))
        assert prod == mono(4, (1, 2), (3, 4))
        with pytest.raises(ValueError, match="rank"):
            mono(4, (1, 2)) * mono(5, (1, 2))

    def test_divides_and_quotient(self):
        f = mono(4, (1, 2), (1, 2), (3, 4))
        g = mono(4, (1, 2), (3, 4))
        assert g.divides(f)
        assert f.quotient(g) == mono(4, (1, 2))
        assert not f.divides(g)
        with pytest.raises(ValueError):
            g.quotient(f)

    def test_standard_flag(self):
        assert mono(4, (1, 3), (2, 4)).is_standard
        assert not mono(4, (1, 4), (2, 3)).is_standard


@settings(max_examples=300)
@given(st.data())
def test_divides_and_quotient_match_the_counter_oracle(data):
    n = data.draw(st.integers(3, 5))
    pool = [r for k in (1, 2, 3) for r in itertools.combinations(range(1, n + 1), k)]
    rows = data.draw(st.lists(st.sampled_from(pool[:6]), max_size=7))
    divisor = data.draw(st.lists(st.sampled_from(pool[:6]), max_size=4))
    f, g = PluckerMonomial(n, tuple(rows)), PluckerMonomial(n, tuple(divisor))
    assert f.factors == canonical_rows_keysort(rows)
    assert g.divides(f) == counter_divides(divisor, rows)
    expected = counter_quotient(rows, divisor)
    if expected is None:
        with pytest.raises(ValueError, match="non-divisor"):
            f.quotient(g)
    else:
        assert f.quotient(g).factors == expected


def test_row_errors_name_the_row():
    with pytest.raises(ValueError, match=r"^row \(1, 4\) leaves the range 1\.\.3$"):
        mono(3, (1, 4))


class TestPoly:
    def test_zero_coefficients_are_dropped(self):
        m = mono(4, (1, 2))
        p = PluckerPoly(4, {m: Fraction(0)})
        assert p.is_zero()
        q = PluckerPoly.from_monomial(m) + PluckerPoly.from_monomial(m, -1)
        assert q.is_zero()

    def test_arithmetic_is_exact(self):
        m1, m2 = mono(4, (1, 2)), mono(4, (3, 4))
        p = PluckerPoly(4, {m1: Fraction(1, 3), m2: Fraction(2, 3)})
        q = p + p + p
        assert q.terms == {m1: Fraction(1), m2: Fraction(2)}
        third = PluckerPoly.from_monomial(m1 * m2, Fraction(1, 3))
        assert (third + third + third).terms == {m1 * m2: Fraction(1)}

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PluckerPoly(4) + PluckerPoly(5)


class TestStraighten:
    def test_classic_quadratic_exchange(self):
        result = straighten(mono(4, (1, 4), (2, 3)))
        assert result.terms == {
            mono(4, (1, 3), (2, 4)): Fraction(1),
            mono(4, (1, 2), (3, 4)): Fraction(-1),
        }

    def test_pair_against_singleton(self):
        result = straighten(mono(3, (2, 3), (1,)))
        assert result.terms == {
            mono(3, (1, 3), (2,)): Fraction(1),
            mono(3, (1, 2), (3,)): Fraction(-1),
        }

    def test_standard_input_is_a_fixed_point(self):
        for m in [
            mono(5, (1, 3), (4, 5)),
            mono(5, (2, 4), (5,)),
            mono(6, (1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)),
        ]:
            assert straighten(m).terms == {m: Fraction(1)}

    def test_idempotent(self):
        p = straighten(mono(5, (1, 5), (2, 4), (3,)))
        assert straighten(p) == p

    def test_every_output_monomial_is_standard(self):
        p = straighten(mono(6, (1, 6), (2, 5), (3, 4)))
        assert not p.is_zero()
        for m in p.terms:
            assert m.is_standard

    def test_coefficients_cancel_across_terms(self):
        # straighten(x) plus straighten applied to the negated equal combination is zero
        lhs = straighten(mono(4, (1, 4), (2, 3)))
        negated = PluckerPoly(
            4,
            {
                mono(4, (1, 3), (2, 4)): Fraction(-1),
                mono(4, (1, 2), (3, 4)): Fraction(1),
            },
        )
        assert (lhs + straighten(negated)).is_zero()

    def test_mixed_profile_beyond_flag_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            straighten(mono(5, (1, 2, 3), (4, 5)))

    def test_triple_factor_rewrite_preserves_value(self):
        p = mono(5, (3, 5), (2, 4), (1,))
        out = straighten(p)
        for mat in seeded_matrices(5, 2, count=4, seed=7):
            assert eval_on_matrix(p, mat) == eval_on_matrix(out, mat)


@pytest.mark.parametrize("label", ["g24", "g25", "g26", "g36", "fl311", "fl411", "fl511"])
def test_trusted_monomials_are_canonical_and_checked(label):
    """Monomials built without re-sorting or re-checking hold valid rows.

    The grid covers every trusted site up to degree 3: basis elements,
    unit x cofactor products, dividing units and their quotients, and the
    terms of a seeded sample of straightened products.
    """

    def assert_valid(m: PluckerMonomial) -> None:
        assert m.factors == canonical_rows(m.factors)
        check_rows(m.factors, m.n)
        assert m == PluckerMonomial(m.n, m.factors)

    inst = instance_by_label(label)
    rng = random.Random(label)
    bases = {k: basis_monomials(inst, k) for k in range(4)}
    for k in range(1, 4):
        for f in bases[k]:
            assert_valid(f)
            unit = dividing_unit(inst, f) if k > 1 else None
            if unit is not None:
                assert_valid(unit)
                assert_valid(f.quotient(unit))
        products = [g * h for g in bases[1] for h in bases[k - 1]]
        for prod in products:
            assert_valid(prod)
        for prod in rng.sample(products, min(len(products), 200)):
            for term in straighten(prod).terms:
                assert_valid(term)


@pytest.mark.parametrize("label", ["g36", "g26", "fl511", "fl412"])
def test_straighten_commutes_with_fraction_scalars(label):
    inst = instance_by_label(label)
    units = [
        PluckerMonomial(inst.n, rows)
        for rows in enumerate_standard(shape_from_weight(inst, 1), inst.n, "uniform")
    ]
    rng = random.Random(label)
    scalars = [Fraction(-3), Fraction(5, 2), Fraction(-2, 3), Fraction(7, 6)]

    def product() -> PluckerMonomial:
        picks = [rng.choice(units) for _ in range(rng.randint(2, 3))]
        return PluckerMonomial(inst.n, tuple(r for unit in picks for r in unit.factors))

    def scale(poly: PluckerPoly, c: Fraction) -> PluckerPoly:
        return PluckerPoly(poly.n, {m: a * c for m, a in poly.items()})

    for _ in range(6):
        p, q = product(), product()
        plain = straighten(p)
        for c in scalars:
            scaled = straighten(PluckerPoly.from_monomial(p, c))
            assert scaled == scale(plain, c)
            assert all(type(coeff) is Fraction for _, coeff in scaled.items())
        # mixed denominators: the loop runs at their lcm
        mixed = PluckerPoly.from_monomial(p, scalars[1]) + PluckerPoly.from_monomial(q, scalars[2])
        assert straighten(mixed) == scale(plain, scalars[1]) + scale(straighten(q), scalars[2])


class TestEvaluation:
    def test_unit_minor(self):
        matrix = [[1, 0], [0, 1], [0, 0], [0, 0]]
        assert eval_on_matrix(mono(4, (1, 2)), matrix) == 1

    def test_quadratic_relation_vanishes_identically(self):
        rng = random.Random(5)
        rel = PluckerPoly(
            5,
            {
                mono(5, (1, 3), (4, 5)): Fraction(1),
                mono(5, (1, 4), (3, 5)): Fraction(-1),
                mono(5, (1, 5), (3, 4)): Fraction(1),
            },
        )
        for _ in range(25):
            matrix = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(5)]
            assert eval_on_matrix(rel, matrix) == 0

    def test_flag_relation_vanishes_identically(self):
        rng = random.Random(6)
        rel = PluckerPoly(
            4,
            {
                mono(4, (1, 3), (4,)): Fraction(1),
                mono(4, (1, 4), (3,)): Fraction(-1),
                mono(4, (3, 4), (1,)): Fraction(1),
            },
        )
        for _ in range(25):
            matrix = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(4)]
            assert eval_on_matrix(rel, matrix) == 0

    def test_tuple_wider_than_matrix_rejected(self):
        matrix = [[1, 0], [0, 1], [1, 1], [2, 1]]
        with pytest.raises(ValueError, match="columns"):
            eval_on_matrix(mono(4, (1, 2, 3)), matrix)
        table = MinorTable(matrix)
        assert table.monomial(mono(4, (1, 2), (3,))) == 1
        with pytest.raises(ValueError, match="columns"):
            table.monomial(mono(4, (1, 2), (1, 2, 3)))

    def test_table_reads_each_minor_once(self, monkeypatch):
        computed = []
        fill = MinorTable.__missing__

        def counted_fill(table, tup):
            computed.append(tup)
            return fill(table, tup)

        monkeypatch.setattr(MinorTable, "__missing__", counted_fill)
        table = MinorTable(seeded_matrices(5, 5, count=1, seed=2)[0])
        a, b = mono(5, (1, 2), (3, 4, 5), (2,)), mono(5, (1, 2), (1, 2), (2,))
        assert table.monomial(a) * table.monomial(b) == table.monomial(a * b)
        assert table.monomial(a) == table.monomial(a)
        # one computation per distinct minor, of every size
        assert sorted(computed) == [(1, 2), (2,), (3, 4, 5)]

    @pytest.mark.parametrize("n, seed", [(5, 0), (6, 1), (7, 2)])
    def test_table_matches_elimination_on_every_short_tuple(self, n, seed):
        matrices = seeded_matrices(n, 3, count=4, seed=seed)
        # repeated and zero rows make some minors of every size vanish
        singular = [list(row) for row in matrices[0]]
        singular[1], singular[3] = list(singular[0]), [0, 0, 0]
        for matrix in [*matrices, singular]:
            table = MinorTable(matrix)
            for t in (1, 2, 3):
                for tup in itertools.combinations(range(1, n + 1), t):
                    expected = int_det_bareiss([matrix[i - 1][:t] for i in tup])
                    assert table[tup] == expected, (matrix, tup)
                    assert table.monomial(PluckerMonomial(n, (tup,))) == expected

    def test_seeded_matrices_are_reproducible_and_bounded(self):
        a = seeded_matrices(5, 2, count=3, seed=11)
        b = seeded_matrices(5, 2, count=3, seed=11)
        c = seeded_matrices(5, 2, count=3, seed=12)
        assert a == b
        assert a != c
        assert len(a) == 3 and len(a[0]) == 5 and len(a[0][0]) == 2
        assert all(-9 <= x <= 9 for mat in a for row in mat for x in row)

    @pytest.mark.parametrize("n, width", [(5, 2), (6, 6), (7, 7)])
    def test_seeded_matrices_equal_the_randint_draw(self, n, width):
        for seed in [*range(300), 10**6 - 1, 2**31]:
            assert seeded_matrices(n, width, 10, seed) == seeded_matrices_randint(
                n, width, 10, seed
            ), seed

    def test_seeded_matrices_degenerate_sizes(self):
        for n, width, count in [(0, 3, 2), (3, 0, 2), (2, 2, 0)]:
            assert seeded_matrices(n, width, count, 5) == seeded_matrices_randint(
                n, width, count, 5
            )


class TestIntDet:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_matches_elimination(self, size):
        rng = random.Random(size)
        singular = 0
        for _ in range(300):
            rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if rng.random() < 0.3:
                # a multiple of another row, or a zero column
                if size > 1 and rng.random() < 0.5:
                    a, b = rng.sample(range(size), 2)
                    rows[a] = [rng.randint(-2, 2) * y for y in rows[b]]
                else:
                    col = rng.randrange(size)
                    for row in rows:
                        row[col] = 0
            singular += int_det_bareiss(rows) == 0
            assert int_det(rows) == int_det_bareiss(rows), rows
        assert singular >= 30

    def test_singular_and_empty(self):
        assert int_det([]) == 1
        assert int_det([[0]]) == 0
        assert int_det([[2, 4], [1, 2]]) == 0
        assert int_det([[0, 1], [1, 0]]) == -1

    @pytest.mark.parametrize(
        "rows", [[[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]]
    )
    def test_non_square_rejected(self, rows):
        with pytest.raises(ValueError, match="not square"):
            int_det(rows)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_straighten_preserves_evaluation(data):
    r = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(r + 1, 5))
    pool = list(itertools.combinations(range(1, n + 1), r))
    factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    m = PluckerMonomial(n, tuple(factors))
    out = straighten(m)
    for matrix in seeded_matrices(n, r, count=4, seed=3):
        assert eval_on_matrix(m, matrix) == eval_on_matrix(out, matrix)
    for result_mono in out.terms:
        assert result_mono.is_standard


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flag_straighten_preserves_evaluation(data):
    n = data.draw(st.integers(3, 5))
    pool = list(itertools.combinations(range(1, n + 1), 2)) + [
        (i,) for i in range(1, n + 1)
    ]
    factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    m = PluckerMonomial(n, tuple(factors))
    out = straighten(m)
    for matrix in seeded_matrices(n, 2, count=4, seed=4):
        assert eval_on_matrix(m, matrix) == eval_on_matrix(out, matrix)


class TestTableauBridge:
    """A type-A tableau's rows are the factors of its monomial."""

    def test_round_trip(self):
        inst = instance_by_label("g36")
        for rows in enumerate_standard(shape_from_weight(inst, 2), 6, "uniform"):
            m = PluckerMonomial(6, rows)
            assert m.factors == rows
            assert m.is_standard

    def test_known_invariant(self):
        m = PluckerMonomial(6, ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)))
        assert str(m) == "p[1,2,4] p[1,3,5] p[2,3,6] p[4,5,6]"

    def test_empty_tableau_is_the_constant(self):
        m = PluckerMonomial(4, ())
        assert str(m) == "1"
        assert eval_on_matrix(m, [[1, 0], [0, 1], [0, 0], [0, 0]]) == 1
