"""Exact certification of generation-degree bounds and factorizations.

Type-A instances are checked split first: a basis element of the target
graded piece that divides into lower-degree basis monomials is itself a
standard product, so it lies in the span with no algebra.  Only the
unsplit residue goes to linear algebra: non-standard products are
straightened, projected onto the residue coordinates and rank-tracked.
A pass is certified by the explicit splits plus a full modular rank on
the residue; a fail by an exact recount of the residue projection.
Type-B instances are checked combinatorially by splitting each basis
tableau into invariant row bundles of low degree.  The fast modular
rank is only ever used to certify success, never failure.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .extract import degree_one_basis
from .linalg import RankTracker, solve_rational
from .plucker import (
    Factors,
    PluckerMonomial,
    PluckerPoly,
    eval_on_matrix,
    monomial_from_tableau,
    seeded_matrices,
    straighten,
)
from .tableau_a import count_standard, enumerate_standard, rows_standard
from .tableau_b import TableauB, enumerate_standard_b, is_t_invariant_b
from .weights import (
    FAMILY_A,
    FAMILY_B,
    GroupInstance,
    ShapeB,
    catalog_instance,
    default_generation_degree,
    descent_ok,
    grassmannian,
    instance_from_entry,
    shape_from_weight,
)

CertTermList = list[tuple[Fraction, PluckerMonomial, PluckerMonomial]]

# largest product-matrix (rows x columns) a generation check will assemble
BUDGET_ENTRIES = 10**7


@dataclass
class GenerationReport:
    """Outcome of one generation-degree check.

    ``rank`` counts what was actually reached: the span of products for
    type A, the number of successfully split basis elements for type B.
    The verdict passes exactly when rank equals dim.  ``generators_used``
    and ``elapsed`` are bookkeeping only and stay out of the serialized
    report, which must be byte-stable across runs.
    """

    instance: str
    k: int
    d: int
    dim: int
    rank: int
    verdict: str
    witnesses: list | None = None
    notes: list[str] = field(default_factory=list)
    generators_used: list[tuple[int, int]] | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        out: dict = {
            "instance": self.instance,
            "k": self.k,
            "d": self.d,
            "dim": self.dim,
            "rank": self.rank,
            "verdict": self.verdict,
        }
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        if self.notes:
            out["notes"] = self.notes
        return out


@dataclass
class FactorCertificate:
    """f written as an exact combination of degree-one generators.

    Each term is (coefficient, generator, cofactor); the invariant is
    that the expansion sum c * g * h straighten-equals f.  Certificates
    produced by the extraction pipeline additionally have every
    generator standard, but hand-assembled ones need not.
    """

    instance: str
    monomial: PluckerMonomial
    terms: CertTermList


def _label(instance: GroupInstance) -> str:
    return instance.label or str(instance)


def _partitions(total: int, max_part: int) -> list[tuple[int, ...]]:
    """Integer partitions with bounded parts, non-increasing, lex order."""
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


def basis_monomials(instance: GroupInstance, degree: int) -> list[PluckerMonomial]:
    """Zero-weight standard basis of a type-A graded piece, as monomials."""
    if instance.family != FAMILY_A:
        raise ValueError("monomial bases exist for type A only")
    if degree == 0:
        return [PluckerMonomial(instance.n, ())]
    shape = shape_from_weight(instance, degree)
    return [
        monomial_from_tableau(t)
        for t in enumerate_standard(shape, instance.n, "uniform")
    ]


def _divide(factors: Factors, divisor: Factors) -> Factors | None:
    """Quotient of two canonically arranged row multisets, or None."""
    rest = []
    i = 0
    for row in factors:
        if i < len(divisor) and row == divisor[i]:
            i += 1
        else:
            rest.append(row)
    return tuple(rest) if i == len(divisor) else None


def split_residue(
    basis: list[PluckerMonomial], k: int, lower: dict[int, list[PluckerMonomial]]
) -> list[PluckerMonomial]:
    """The degree-k basis elements that are no product of lower ones.

    ``lower`` maps each generator degree j to the degree-j basis.  An
    element splits when a lower basis monomial divides it and the quotient
    splits in turn, down to a member of the generator bases.  The quotient
    of a standard zero-weight monomial by a standard zero-weight divisor is
    again one of degree k - j, since column lengths add up across degrees,
    so peeling divisors that hold the element's first row finds every
    split.  Returns the unsplit residue in basis order.
    """
    top = max(lower, default=0)
    members = {j: {m.factors for m in monos} for j, monos in lower.items()}
    by_head: dict[int, dict[tuple[int, ...], list[Factors]]] = {j: {} for j in lower}
    for j, monos in lower.items():
        for m in monos:
            by_head[j].setdefault(m.factors[0], []).append(m.factors)
    memo: dict[Factors, bool] = {}

    def splits(factors: Factors, degree: int) -> bool:
        if degree <= top:
            return factors in members.get(degree, ())
        hit = memo.get(factors)
        if hit is None:
            hit = any(
                (rest := _divide(factors, piece)) is not None
                and splits(rest, degree - j)
                for j, heads in by_head.items()
                for piece in heads.get(factors[0], ())
            )
            memo[factors] = hit
        return hit

    return [m for m in basis if not splits(m.factors, k)]


def _residue_row(
    poly: PluckerPoly, piece: set[Factors], index: dict[Factors, int]
) -> list[int]:
    """Coordinates of a straightened product on the residue elements."""
    row = [0] * len(index)
    for mono, coeff in poly.items():
        if coeff.denominator != 1:
            raise AssertionError("integral relations produce integral rows")
        if mono.factors not in piece:
            raise AssertionError("straightened product left the graded piece")
        pos = index.get(mono.factors)
        if pos is not None:
            row[pos] = int(coeff)
    return row


def check_generation(instance: GroupInstance, k: int, d: int) -> GenerationReport:
    """Does degree <= d generate the degree-k piece?  Exact, split first.

    A basis element that is a product of basis monomials of degree <= d
    is itself a standard product, so its coordinate row is a unit vector
    and it lies in the span with no algebra.  The remaining residue R is
    settled by linear algebra on the non-standard products only (the
    standard ones are those unit vectors, zero on R): each is straightened
    and projected onto R, nearest residue element first, and streamed
    through an incremental rank tracker that stops once the residue rank
    is full.  The span is the split unit vectors plus the projected rows,
    so a full modular residue rank certifies a pass, and a failing verdict
    is an exact recount of the projection.
    """
    if instance.family != FAMILY_A:
        raise ValueError("use check_typeB_factorization for type B")
    start = time.perf_counter()
    label = _label(instance)
    basis_k = basis_monomials(instance, k)
    dim = len(basis_k)
    if k <= d:
        return GenerationReport(
            label, k, d, dim, dim, "pass",
            notes=["degree within generator bound"],
            generators_used=[(k, dim)],
            elapsed=time.perf_counter() - start,
        )
    if dim == 0:
        return GenerationReport(
            label, k, d, 0, 0, "pass",
            notes=["empty piece"],
            generators_used=[],
            elapsed=time.perf_counter() - start,
        )
    lower = {j: basis_monomials(instance, j) for j in range(1, min(d, k - 1) + 1)}
    used = [(j, len(lower[j])) for j in sorted(lower)]
    schedule = _partitions(k, min(d, k - 1))
    est = 0
    for parts in schedule:
        rows = 1
        for j, c in Counter(parts).items():
            rows *= math.comb(len(lower[j]) + c - 1, c)
        est += rows
    if est * dim > BUDGET_ENTRIES:
        raise ValueError(
            f"{label} k={k} d={d}: about {est} products x {dim} basis elements "
            f"exceeds the budget of {BUDGET_ENTRIES} matrix entries"
        )
    residue = [m.factors for m in split_residue(basis_k, k, lower)]
    if residue:
        rank = dim - len(residue) + _residue_rank(instance.n, basis_k, residue, lower, schedule)
    else:
        rank = dim
    return GenerationReport(
        label, k, d, dim, rank, "pass" if rank == dim else "fail",
        generators_used=used,
        elapsed=time.perf_counter() - start,
    )


def _residue_rank(
    n: int,
    basis: list[PluckerMonomial],
    residue: list[Factors],
    lower: dict[int, list[PluckerMonomial]],
    schedule: list[tuple[int, ...]],
) -> int:
    """Exact rank of the non-standard products projected onto the residue."""
    products: set[Factors] = set()
    for parts in schedule:
        pools = [
            itertools.combinations_with_replacement([m.factors for m in lower[j]], c)
            for j, c in sorted(Counter(parts).items())
        ]
        for pick in itertools.product(*pools):
            rows = sorted(r for group in pick for piece in group for r in piece)
            # canonical arrangement: the stable sort keeps lex order per length
            products.add(tuple(sorted(rows, key=len, reverse=True)))
    targets = [Counter(r) for r in residue]

    def nearest(factors: Factors) -> int:
        """Fewest rows the product has outside some residue element."""
        rows = Counter(factors)
        shared = max(
            sum(min(c, rows.get(r, 0)) for r, c in t.items()) for t in targets
        )
        return len(factors) - shared

    piece = {m.factors for m in basis}
    index = {r: i for i, r in enumerate(residue)}
    tracker = RankTracker(len(residue))
    nonstandard = [f for f in products if not rows_standard(f)]
    for factors in sorted(nonstandard, key=lambda f: (nearest(f), f)):
        row = _residue_row(straighten(PluckerMonomial(n, factors)), piece, index)
        if any(row):
            tracker.add(row)
            if tracker.rank_lower_bound == len(residue):
                return len(residue)
    return tracker.exact()


def _b_units(t: TableauB) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Invariant building blocks: intact row pairs, then single spin rows."""
    units = [tuple(pair) for pair in t.paired()]
    units += [(row,) for row in t.rows[2 * t.paired_prefix :]]
    return tuple(sorted(units))


def _b_piece_degree(
    instance: GroupInstance, rows: tuple[tuple[int, ...], ...]
) -> int | None:
    """Degree j if the rows form a valid degree-j basis tableau, else None."""
    unit_boxes = shape_from_weight(instance, 1).boxes
    boxes = sum(len(r) for r in rows)
    if boxes == 0 or boxes % unit_boxes:
        return None
    j = boxes // unit_boxes
    shape = shape_from_weight(instance, j)
    assert isinstance(shape, ShapeB)
    ordered = tuple(sorted(rows, key=lambda r: (-len(r), r)))
    if tuple(len(r) for r in ordered) != shape.row_lengths():
        return None
    try:
        tab = TableauB(instance.n, ordered, shape.paired_rows, shape.spin_part)
    except ValueError:
        return None
    if not (tab.is_standard() and tab.is_admissible_tableau() and is_t_invariant_b(tab)):
        return None
    return j


def _split_b_units(
    instance: GroupInstance,
    units: tuple[tuple[tuple[int, ...], ...], ...],
    degree: int,
    d: int,
    memo: dict,
) -> list[tuple[tuple[int, ...], ...]] | None:
    """Partition the units into valid invariant pieces of degree <= d."""
    if degree <= d:
        if not units:
            return []
        rows = tuple(r for unit in units for r in unit)
        # the remainder must still stand on its own as a basis element
        return [rows] if _b_piece_degree(instance, rows) == degree else None
    key = (units, degree)
    if key in memo:
        return memo[key]
    result = None
    for j in range(1, min(d, degree - 1) + 1):
        tried: set[tuple] = set()
        for size in range(1, len(units)):
            for idx in itertools.combinations(range(len(units)), size):
                combo = tuple(units[i] for i in idx)
                if combo in tried:
                    continue
                tried.add(combo)
                rows = tuple(r for unit in combo for r in unit)
                if _b_piece_degree(instance, rows) != j:
                    continue
                rest = tuple(
                    units[i] for i in range(len(units)) if i not in set(idx)
                )
                sub = _split_b_units(instance, rest, degree - j, d, memo)
                if sub is not None:
                    result = [rows] + sub
                    break
            if result is not None:
                break
        if result is not None:
            break
    memo[key] = result
    return result


def check_typeB_factorization(instance: GroupInstance, k: int, d: int) -> GenerationReport:
    """Split every degree-k basis tableau into pieces of degree <= d.

    Each zero-weight standard admissible tableau either factors through
    its row bundles (intact pairs and spin rows) into valid lower-degree
    invariants, or counts against the verdict.  Witness splits are
    recorded per basis element.
    """
    if instance.family != FAMILY_B:
        raise ValueError("type-B factorization needs a type-B instance")
    start = time.perf_counter()
    label = _label(instance)
    unit_boxes = shape_from_weight(instance, 1).boxes
    basis = list(enumerate_standard_b(instance, k, zero_weight=True))
    dim = len(basis)
    witnesses: list[dict] = []
    ok = 0
    memo: dict = {}
    piece_degrees: Counter = Counter()
    for tab in basis:
        units = _b_units(tab)
        split = _split_b_units(instance, units, k, d, memo)
        entry: dict = {"element": [list(r) for r in tab.rows]}
        if split is not None:
            ok += 1
            entry["parts"] = [[list(r) for r in part] for part in split]
            for part in split:
                piece_degrees[sum(len(r) for r in part) // unit_boxes] += 1
        else:
            entry["parts"] = None
        witnesses.append(entry)
    verdict = "pass" if ok == dim else "fail"
    return GenerationReport(
        label, k, d, dim, ok, verdict,
        witnesses=witnesses,
        generators_used=sorted(piece_degrees.items()),
        elapsed=time.perf_counter() - start,
    )


def _grassmannian_side(r: int, n: int) -> GroupInstance:
    # a catalog entry under the label g<r><n> keeps its own multiple
    label = f"g{r}{n}"
    return catalog_instance(label) or grassmannian(r, n, label)


def check_duality(r: int, n: int, k_max: int) -> dict:
    """Compare invariant dimensions of complementary Grassmannians.

    Counts zero-weight standard tableaux for G(r, n) against G(n-r, n)
    in degrees 1..k_max; the pairing is expected to match exactly.
    """
    left, right = _grassmannian_side(r, n), _grassmannian_side(n - r, n)
    rows = []
    all_equal = True
    for k in range(1, k_max + 1):
        cl = count_standard(shape_from_weight(left, k), left.n, "uniform")
        cr = count_standard(shape_from_weight(right, k), right.n, "uniform")
        rows.append({"k": k, "left": cl, "right": cr})
        all_equal = all_equal and cl == cr
    return {
        "left": _label(left),
        "right": _label(right),
        "degrees": rows,
        "verdict": "pass" if all_equal else "fail",
    }


def run_instance_check(
    instance: GroupInstance, k: int, d: int
) -> GenerationReport:
    """Descent gate plus the family-appropriate generation check."""
    if not descent_ok(instance):
        return GenerationReport(
            _label(instance),
            k,
            d,
            0,
            0,
            "fail",
            notes=["scaled weight misses the descent lattice"],
        )
    if instance.family == FAMILY_A:
        return check_generation(instance, k, d)
    return check_typeB_factorization(instance, k, d)


def run_paper_suite(
    entries: list[dict] | None = None, jobs: int = 1
) -> list[GenerationReport]:
    """Run every manifest entry; defaults to the packaged catalog.

    Optional per-entry keys "k" (default 2) and "genDegree" (default the
    instance's expected generation degree) drive the check.  With
    ``jobs`` > 1 the checks run on a thread pool; the report order is
    the manifest order either way.
    """
    from .weights import _load_catalog

    raw = entries if entries is not None else _load_catalog()
    plan = []
    for entry in raw:
        instance = instance_from_entry(entry)
        k = int(entry.get("k", 2))
        d = int(entry.get("genDegree", default_generation_degree(instance)))
        plan.append((instance, k, d))
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda t: run_instance_check(*t), plan))
    return [run_instance_check(*t) for t in plan]


def factor_by_linear_algebra(
    instance: GroupInstance, f: PluckerMonomial
) -> CertTermList:
    """Exact fallback: solve f = sum c * g * h in basis coordinates.

    Unknowns range over (degree-one generator, degree k-1 basis element)
    pairs; a rational solve over the straightened product columns either
    yields a certificate or proves none exists.
    """
    unit_shape = shape_from_weight(instance, 1)
    boxes = sum(len(r) for r in f.factors)
    if boxes % unit_shape.boxes:
        raise ValueError("monomial size is not a multiple of the unit shape")
    k = boxes // unit_shape.boxes
    if k < 2:
        raise ValueError("degree must be at least 2")
    basis_k = basis_monomials(instance, k)
    index = {m: i for i, m in enumerate(basis_k)}
    units = degree_one_basis(instance)
    cofactors = basis_monomials(instance, k - 1)
    pairs = [(g, h) for g in units for h in cofactors]
    columns = []
    for g, h in pairs:
        col = [Fraction(0)] * len(basis_k)
        for mono, coeff in straighten(g * h).items():
            col[index[mono]] = coeff
        columns.append(col)
    rhs = [Fraction(0)] * len(basis_k)
    pos = index.get(f)
    if pos is None:
        raise ValueError("monomial is not a zero-weight standard basis element")
    rhs[pos] = Fraction(1)
    solution = solve_rational(columns, rhs)
    if solution is None:
        raise ValueError("monomial is not generated in degree one")
    return [
        (c, g, h) for c, (g, h) in zip(solution, pairs) if c != 0
    ]


def validate_certificate(
    instance: GroupInstance,
    f: PluckerMonomial,
    terms: CertTermList,
    *,
    count: int = 10,
    seed: int = 0,
) -> bool:
    """Certificate soundness: straightening identity plus matrix evaluation.

    Both routes are independent: the combination is straightened and
    compared against f in the standard basis, then both sides are
    evaluated exactly on seeded integer matrices.
    """
    total = PluckerPoly(f.n)
    for coeff, g, h in terms:
        total = total + PluckerPoly.from_monomial(g * h, coeff)
    if straighten(total) != straighten(PluckerPoly.from_monomial(f)):
        return False
    for matrix in seeded_matrices(f.n, f.n, count, seed):
        lhs = eval_on_matrix(f, matrix)
        rhs = sum(
            (coeff * eval_on_matrix(g, matrix) * eval_on_matrix(h, matrix)
             for coeff, g, h in terms),
            Fraction(0),
        )
        if lhs != rhs:
            return False
    return True
