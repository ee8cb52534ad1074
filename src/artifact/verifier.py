"""Exact certification of generation-degree bounds and factorizations.

Both families are checked split first, through one memoized splitter: a
basis element of the target graded piece that divides into lower-degree
basis elements is itself a product of them, so it lies in the span with
no algebra.  In type A the units of an element are its rows; the unsplit
residue goes to linear algebra, where non-standard products, those one
row exchange away from a residue element first, are straightened,
projected onto the residue coordinates and rank-tracked.
A pass is certified by the explicit splits plus a full modular rank on
the residue, a fail by an exact recount of the residue projection.  In
type B the units are intact row pairs and spin rows, and the check
counts the split elements.  The fast modular rank is only ever used to
certify success, never failure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator

from .linalg import RankTracker, solve_rational
from .plucker import (
    Factors,
    MinorTable,
    PluckerMonomial,
    PluckerPoly,
    seeded_matrices,
    straighten,
)
from .tableau_a import (
    canonical_rows,
    count_standard,
    divide_rows,
    enumerate_standard,
    rows_standard,
)
from .tableau_b import enumerate_standard_b
from .weights import (
    FAMILY_A,
    FAMILY_B,
    GroupInstance,
    default_generation_degree,
    descent_ok,
    grassmannian_label,
    instance_by_label,
    instance_from_entry,
    manifest_int,
    shape_from_weight,
)

CertTermList = list[tuple[Fraction, PluckerMonomial, PluckerMonomial]]

# largest product-matrix (rows x columns) a generation check will assemble
BUDGET_ENTRIES = 10**7
# bits per unit in a packed multiset code (unit_splitter)
_LANE = 32


@dataclass
class GenerationReport:
    """Outcome of one generation-degree check.

    ``rank`` counts what was actually reached: the span of products for
    type A, the number of successfully split basis elements for type B.
    The verdict passes exactly when rank equals dim.  The serialized
    report must be byte-stable across runs, so it holds no timings.
    """

    instance: str
    k: int
    d: int
    dim: int
    rank: int
    verdict: str
    witnesses: list | None = None
    notes: list[str] = field(default_factory=list)

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
    """Zero-weight standard basis of a type-A graded piece, as monomials.

    The strip walk yields canonical, checked rows, so each is ``trusted``.
    """
    if instance.family != FAMILY_A:
        raise ValueError("monomial bases exist for type A only")
    return [PluckerMonomial.trusted(instance.n, rows) for rows in _basis_rows(instance, degree)]


def _basis_rows(instance: GroupInstance, degree: int) -> list[Factors]:
    """Zero-weight standard basis of a type-A graded piece, as canonical rows."""
    shape = shape_from_weight(instance, degree)
    return list(enumerate_standard(shape, instance.n, "uniform"))


def basis_size(instance: GroupInstance, degree: int) -> int:
    """Size of ``basis_monomials(instance, degree)``, counted, not enumerated."""
    shape = shape_from_weight(instance, degree)
    return count_standard(shape, instance.n, "uniform")


def _head_lane(code: int) -> int:
    """Index of the lowest occupied lane of a packed multiset code."""
    return ((code & -code).bit_length() - 1) // _LANE


def unit_splitter(
    lower: dict[int, list[tuple]],
) -> Callable[[tuple, int], list[tuple] | None]:
    """Memoized division of unit multisets into lower basis pieces.

    ``lower`` maps each generator degree j to the unit tuples of the
    degree-j basis.  A multiset of units is packed into one integer: the
    i-th unit in ``sorted()`` order owns the 32-bit lane at bit 32 * i and
    a code adds one to its lane per copy.  With a guard bit on top of
    every lane, a piece divides a code when no lane borrows, and the
    quotient is the difference of the codes.  The returned
    ``split(units, degree)`` gives the pieces whose units multiply out to
    ``units`` (the piece holding the head unit first), or None.  The head
    is the smallest unit present, and a piece that divides the element
    must hold it, so only the pieces filed under that head are tried, by
    degree and then in basis order; a remainder of generator degree must
    itself be a lower basis element.  A unit no piece holds never splits.
    """
    top = max(lower, default=0)
    units_seen = {unit for pieces in lower.values() for piece in pieces for unit in piece}
    lane = {unit: 1 << (_LANE * i) for i, unit in enumerate(sorted(units_seen))}
    guard = sum(lane.values()) << (_LANE - 1)
    members: dict[int, dict[int, tuple]] = {j: {} for j in lower}
    by_head: dict[int, list[tuple[int, int, tuple]]] = {}
    for j, pieces in lower.items():
        for piece in pieces:
            code = sum(lane[unit] for unit in piece)
            members[j][code] = piece
            by_head.setdefault(_head_lane(code), []).append((j, code, piece))
    memo: dict[int, list[tuple] | None] = {}

    def divide(code: int, degree: int) -> list[tuple] | None:
        if degree <= top:
            piece = members.get(degree, {}).get(code)
            return None if piece is None else [piece]
        if code not in memo:
            memo[code] = next(
                (
                    [piece, *sub]
                    for j, p, piece in by_head.get(_head_lane(code), ())
                    if ((code | guard) - p) & guard == guard
                    and (sub := divide(code - p, degree - j)) is not None
                ),
                None,
            )
        return memo[code]

    def split(units: tuple, degree: int) -> list[tuple] | None:
        # a lane holds counts below its guard bit; more units could overflow one
        if len(units) >= 1 << (_LANE - 1):
            raise ValueError(f"problem too large: {len(units)} units overflow a {_LANE}-bit lane")
        try:
            code = sum(lane[unit] for unit in units)
        except KeyError:
            return None
        return divide(code, degree)

    return split


def _residue_row(
    poly: PluckerPoly, piece: Container[Factors], index: dict[Factors, int]
) -> list[int]:
    """Coordinates of a straightened product on the elements ``index`` numbers.

    Every term must lie in ``piece``: a residue row drops the terms off the
    residue, and a column of ``factor_by_linear_algebra`` keeps them all.
    """
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
    settled by linear algebra on non-standard products only (the standard
    ones are those unit vectors, zero on R): each is straightened,
    projected onto R and streamed through an incremental rank tracker
    that stops once the residue rank is full.  The products one exchange
    away from a residue element come first, then every product of the
    schedule.  The span is the split unit vectors plus the projected
    rows, so a full modular residue rank certifies a pass, and a failing
    verdict is an exact recount of the projection of every product.
    """
    if instance.family != FAMILY_A:
        raise ValueError("use check_typeB_factorization for type B")
    label = str(instance)
    dim = basis_size(instance, k)
    if k <= d:
        return GenerationReport(
            label, k, d, dim, dim, "pass",
            notes=["degree within generator bound"],
        )
    if dim == 0:
        return GenerationReport(
            label, k, d, 0, 0, "pass",
            notes=["empty piece"],
        )
    # the guard reads only counts, so an oversized problem is refused
    # before any basis is enumerated
    sizes = {j: basis_size(instance, j) for j in range(1, min(d, k - 1) + 1)}
    schedule = _partitions(k, min(d, k - 1))
    est = 0
    for parts in schedule:
        rows = 1
        for j, c in Counter(parts).items():
            rows *= math.comb(sizes[j] + c - 1, c)
        est += rows
    if est * dim > BUDGET_ENTRIES:
        raise ValueError(
            f"{label} k={k} d={d}: about {est} products x {dim} basis elements "
            f"exceeds the budget of {BUDGET_ENTRIES} matrix entries"
        )
    basis_k = _basis_rows(instance, k)
    lower = {j: _basis_rows(instance, j) for j in sizes}
    if len(basis_k) != dim or any(len(lower[j]) != c for j, c in sizes.items()):
        raise AssertionError("a basis enumeration disagrees with its count")
    # the units are rows: the quotient of a standard zero-weight monomial
    # by a standard zero-weight divisor is again one of lower degree, since
    # column lengths add up across degrees, so the splitter finds every split
    split = unit_splitter(lower)
    residue = [f for f in basis_k if split(f, k) is None]
    rank = dim - len(residue)
    if residue:
        candidates = itertools.chain(
            _residue_neighbours(residue, lower, split, k), _schedule_products(lower, schedule)
        )
        rank += _residue_rank(instance.n, set(basis_k), residue, candidates)
    return GenerationReport(label, k, d, dim, rank, "pass" if rank == dim else "fail")


def _residue_neighbours(
    residue: list[Factors],
    lower: dict[int, list[Factors]],
    split: Callable[[tuple, int], list[tuple] | None],
    k: int,
) -> Iterator[Factors]:
    """Non-standard products one row exchange away from a residue element.

    For a residue element r, two of its rows a and b give way to rows x
    and y of the same lengths with the same entries between them, both
    rows of lower basis elements.  Straightening such a product trades
    entries between x and y, so it tends to reach r.  The pair must hold
    every row of r that no lower basis element has, and a product is
    kept only when it is non-standard and ``split`` divides it into lower
    basis pieces, which makes it a genuine product.  Each is yielded once.
    """
    known = {row for pieces in lower.values() for piece in pieces for row in piece}
    # a row is strictly increasing, so its set of entries determines it
    by_entries = {frozenset(row): row for row in known}
    tried: set[Factors] = set()
    for r in residue:
        foreign = tuple(row for row in r if row not in known)
        if len(foreign) > 2:
            continue
        # the pair is the foreign rows plus rows of r that lower elements have
        base = divide_rows(r, foreign)
        for extra in itertools.combinations_with_replacement(
            dict.fromkeys(base), 2 - len(foreign)
        ):
            rest = divide_rows(base, extra)
            if rest is None:
                continue
            a, b = canonical_rows(foreign + extra)
            pool, both = frozenset(a) | frozenset(b), frozenset(a) & frozenset(b)
            for pick in itertools.combinations(sorted(pool - both), len(a) - len(both)):
                x = by_entries.get(both.union(pick))
                y = by_entries.get(pool.difference(pick))
                # x = a or x = b gives r back
                if x is None or y is None or x in (a, b):
                    continue
                product = canonical_rows(rest + (x, y))
                if product in tried:
                    continue
                tried.add(product)
                if not rows_standard(product) and split(product, k) is not None:
                    yield product


def _schedule_products(
    lower: dict[int, list[Factors]], schedule: list[tuple[int, ...]]
) -> Iterator[Factors]:
    """Every product of lower basis elements over the schedule, in order."""
    for parts in schedule:
        pools = [
            itertools.combinations_with_replacement(lower[j], c)
            for j, c in sorted(Counter(parts).items())
        ]
        for pick in itertools.product(*pools):
            yield canonical_rows([r for group in pick for piece in group for r in piece])


def _residue_rank(
    n: int, piece: set[Factors], residue: list[Factors], candidates: Iterable[Factors]
) -> int:
    """Exact rank of the non-standard candidates projected onto the residue.

    Repeated and standard candidates are passed over.  The stream stops at
    full modular rank; otherwise every candidate has been added and the
    tracker recounts them exactly.
    """
    index = {r: i for i, r in enumerate(residue)}
    tracker = RankTracker(len(residue))
    seen: set[Factors] = set()
    for factors in candidates:
        if factors in seen or rows_standard(factors):
            continue
        seen.add(factors)
        row = _residue_row(straighten(PluckerMonomial.trusted(n, factors)), piece, index)
        if any(row):
            tracker.add(row)
            if tracker.rank_lower_bound == len(residue):
                return len(residue)
    return tracker.exact()


def _b_units(rows, paired: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Invariant building blocks: the first `paired` row pairs, then single spin rows."""
    end = 2 * paired
    units = list(zip(rows[0:end:2], rows[1:end:2])) + [(row,) for row in rows[end:]]
    return tuple(sorted(units))


def check_typeB_factorization(instance: GroupInstance, k: int, d: int) -> GenerationReport:
    """Split every degree-k basis tableau into basis pieces of degree <= d.

    The units of a tableau are its intact row pairs and its spin rows.
    Each zero-weight standard admissible tableau either divides, unit by
    unit, into the units of lower-degree basis tableaux (through the same
    splitter as type A), or counts against the verdict, so ``rank`` is the
    number of split elements.  Witness splits are recorded per basis
    element, each part flattened to rows; for k <= d the one part is the
    whole element.
    """
    if instance.family != FAMILY_B:
        raise ValueError("type-B factorization needs a type-B instance")
    label = str(instance)
    basis = list(enumerate_standard_b(instance, k))
    paired = {j: shape_from_weight(instance, j).paired_rows for j in range(k + 1)}
    split = unit_splitter({
        j: [_b_units(rows, paired[j]) for rows in enumerate_standard_b(instance, j)]
        for j in (range(1, d + 1) if k > d else ())
    })
    witnesses: list[dict] = []
    ok = 0
    for rows in basis:
        units = _b_units(rows, paired[k])
        parts = [units] if k <= d else split(units, k)
        entry: dict = {"element": [list(r) for r in rows], "parts": None}
        if parts is not None:
            ok += 1
            entry["parts"] = [[list(r) for unit in part for r in unit] for part in parts]
        witnesses.append(entry)
    return GenerationReport(
        label, k, d, len(basis), ok, "pass" if ok == len(basis) else "fail",
        witnesses=witnesses,
    )


def check_duality(r: int, n: int, k_max: int) -> dict:
    """Compare invariant dimensions of complementary Grassmannians.

    Counts zero-weight standard tableaux for G(r, n) against G(n-r, n)
    in degrees 1..k_max; the pairing is expected to match exactly.  A
    catalog entry under the label g<r><n> keeps its own multiple.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    # instance_by_label reads no minus sign, so a negative side is refused here
    if not 1 <= r < n:
        raise ValueError(f"bad Grassmannian label {grassmannian_label(r, n)!r}")
    left, right = (instance_by_label(grassmannian_label(a, n)) for a in (r, n - r))
    rows = []
    all_equal = True
    for k in range(1, k_max + 1):
        cl, cr = basis_size(left, k), basis_size(right, k)
        rows.append({"k": k, "left": cl, "right": cr})
        all_equal = all_equal and cl == cr
    return {
        "left": str(left),
        "right": str(right),
        "degrees": rows,
        "verdict": "pass" if all_equal else "fail",
    }


def run_instance_check(
    instance: GroupInstance, k: int, d: int
) -> GenerationReport:
    """Descent gate plus the family-appropriate generation check.

    A negative generation degree is bad input (``ValueError``); d = 0
    is a real bound, which every nonempty degree-k piece fails.
    """
    if d < 0:
        raise ValueError("generation degree must be non-negative")
    if not descent_ok(instance):
        return GenerationReport(
            str(instance),
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


def run_paper_suite(entries: list[dict] | None = None) -> list[GenerationReport]:
    """Run every manifest entry, in order; defaults to the packaged catalog.

    Optional per-entry integer keys "k" (default 2) and "genDegree"
    (default the instance's expected generation degree) drive the check.
    """
    from .weights import _load_catalog

    raw = entries if entries is not None else _load_catalog()
    reports = []
    for entry in raw:
        instance = instance_from_entry(entry)
        k = manifest_int(entry, "k", 2)
        d = manifest_int(entry, "genDegree", default_generation_degree(instance))
        reports.append(run_instance_check(instance, k, d))
    return reports


def monomial_degree(instance: GroupInstance, f: PluckerMonomial) -> int:
    """f's degree k: its box count over the unit shape's."""
    unit_boxes = shape_from_weight(instance, 1).boxes
    boxes = sum(len(r) for r in f.factors)
    if unit_boxes == 0 or boxes % unit_boxes:
        raise ValueError("monomial size is not a multiple of the unit shape")
    return boxes // unit_boxes


def factor_by_linear_algebra(
    instance: GroupInstance, f: PluckerMonomial
) -> CertTermList:
    """Exact fallback: solve f = sum c * g * h in basis coordinates.

    Unknowns range over (degree-one generator, degree k-1 basis element)
    pairs; an exact solve over the integer coordinates of the straightened
    products either yields a certificate or proves none exists.
    """
    k = monomial_degree(instance, f)
    if k < 2:
        raise ValueError("degree must be at least 2")
    index = {m.factors: i for i, m in enumerate(basis_monomials(instance, k))}
    pos = index.get(f.factors)
    if pos is None or f.n != instance.n:
        raise ValueError("monomial is not a zero-weight standard basis element")
    units, cofactors = basis_monomials(instance, 1), basis_monomials(instance, k - 1)
    pairs = [(g, h) for g in units for h in cofactors]
    columns = [_residue_row(straighten(g * h), index.keys(), index) for g, h in pairs]
    rows = [[column[i] for column in columns] for i in range(len(index))]
    rhs = [int(i == pos) for i in range(len(index))]
    solution = solve_rational(rows, rhs)
    if solution is None:
        raise ValueError("monomial is not generated in degree one")
    return [
        (c, g, h) for c, (g, h) in zip(solution, pairs) if c != 0
    ]


def straightens_to(f: PluckerMonomial, terms: CertTermList) -> bool:
    """The certificate identity: does sum c * g * h straighten to straighten(f)?"""
    total = sum((PluckerPoly.from_monomial(g * h, c) for c, g, h in terms), PluckerPoly(f.n))
    return straighten(total) == straighten(f)


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
    evaluated exactly on seeded integer matrices.  On each matrix f and
    every g and h are evaluated apart, never their products, through one
    table of minors, so a minor shared by several factors is computed once.
    The evaluation compares integers: with D the lcm of the coefficient
    denominators, f * D must equal the sum of each (coeff * D) * g * h.
    """
    if not straightens_to(f, terms):
        return False
    scale = math.lcm(*(coeff.denominator for coeff, _, _ in terms))
    scaled = [(coeff.numerator * (scale // coeff.denominator), g, h) for coeff, g, h in terms]
    for matrix in seeded_matrices(f.n, f.n, count, seed):
        minors = MinorTable(matrix)
        rhs = sum(c * minors.monomial(g) * minors.monomial(h) for c, g, h in scaled)
        if minors.monomial(f) * scale != rhs:
            return False
    return True
