"""Dominant weights, descent criteria, and tableau shapes.

A :class:`GroupInstance` pins down one torus quotient: the group family
(type A special linear or type B spin), the marked parabolic, the
fundamental-weight coefficients, and the bundle multiple.  Shapes of the
index tableaux and the lattice-membership descent test are derived here,
with all rational arithmetic exact.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .linalg import solve_rational

FAMILY_A = "A"
FAMILY_B = "B"


@dataclass(frozen=True)
class GroupInstance:
    """One concrete (group, parabolic, weight, multiple) configuration.

    For family "A" the group is SL_n acting through the quotient of the
    (partial) flag variety marked by ``parabolic``; for family "B" it is
    Spin_{2n+1} with ``n`` the rank.  ``weight`` lists the coefficients
    a_1, a_2, ... of the fundamental weights; ``multiple`` is the tensor
    power m so the line bundle carries m times the weight.
    """

    family: str
    n: int
    parabolic: tuple[int, ...]
    weight: tuple[int, ...]
    multiple: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_A, FAMILY_B):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("need rank/matrix size of at least 2")
        if self.multiple < 1:
            raise ValueError("bundle multiple must be positive")
        object.__setattr__(self, "parabolic", tuple(sorted(self.parabolic)))
        object.__setattr__(self, "weight", tuple(self.weight))
        if len(self.weight) != self.rank:
            raise ValueError(
                f"weight has {len(self.weight)} coefficients, expected {self.rank}"
            )
        support = tuple(i + 1 for i, a in enumerate(self.weight) if a > 0)
        if support != self.parabolic:
            raise ValueError(
                f"weight support {support} does not match parabolic {self.parabolic}"
            )

    @property
    def rank(self) -> int:
        # Family A means SL_n, whose rank is n-1; family B stores the rank directly.
        return self.n - 1 if self.family == FAMILY_A else self.n

    def scaled_weight(self, k: int = 1) -> tuple[int, ...]:
        """Coefficients of k*m*lambda in the fundamental-weight basis."""
        return tuple(k * self.multiple * a for a in self.weight)

    def __str__(self) -> str:
        return self.label or f"{self.family}{self.n}:{self.weight}x{self.multiple}"


@dataclass(frozen=True)
class ShapeA:
    """Young-diagram shape for type A, stored as column lengths."""

    column_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.column_lengths)
        if any(c <= 0 for c in cols):
            raise ValueError("column lengths must be positive")
        if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
            raise ValueError("column lengths must be weakly decreasing")
        object.__setattr__(self, "column_lengths", cols)

    @property
    def boxes(self) -> int:
        return sum(self.column_lengths)

    def row_lengths(self) -> tuple[int, ...]:
        """Lengths of the rows, top to bottom (weakly decreasing)."""
        cols = self.column_lengths
        if not cols:
            return ()
        return tuple(
            sum(1 for c in cols if c > i) for i in range(cols[0])
        )


@dataclass(frozen=True)
class ShapeB(ShapeA):
    """Type-B shape: column lengths plus the spin-row bookkeeping.

    ``spin_part`` is the scaled coefficient of the last fundamental
    weight; the first ``paired_rows`` pairs of rows are subject to the
    admissibility condition, the trailing ``spin_part`` rows are not.
    """

    spin_part: int
    paired_rows: int

    def __post_init__(self) -> None:
        super().__post_init__()
        rows = self.column_lengths[0] if self.column_lengths else 0
        if 2 * self.paired_rows + self.spin_part != rows:
            raise ValueError("paired rows and spin rows must tile the row count")


@functools.cache
def shape_from_weight(instance: GroupInstance, degree: int) -> ShapeA | ShapeB:
    """Shape of the tableaux indexing sections at the given degree.

    Type A uses column lengths a_i + ... + a_{rank}; type B uses
    p_i = 2(a_i + ... + a_{n-1}) + a_n with the spin rows split off.
    The weight actually used is degree * multiple * weight.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    b = instance.scaled_weight(degree)
    if degree == 0:
        if instance.family == FAMILY_A:
            return ShapeA(())
        return ShapeB((), 0, 0)
    if all(a == 0 for a in b):
        raise ValueError("zero weight has no shape (only k=0 is empty)")
    if instance.family == FAMILY_A:
        cols = []
        for i in range(len(b)):
            c = sum(b[i:])
            if c == 0:
                break
            cols.append(c)
        return ShapeA(tuple(cols))
    nrank = instance.rank
    cols = []
    for i in range(nrank):
        c = 2 * sum(b[i : nrank - 1]) + b[nrank - 1]
        if c == 0:
            break
        cols.append(c)
    spin = b[nrank - 1]
    return ShapeB(tuple(cols), spin, (cols[0] - spin) // 2)


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix M with M[i][j] = <alpha_{j+1}, alpha_{i+1}^vee>.

    Column j holds the fundamental-weight coordinates of the simple root
    alpha_{j+1}.  In type B the last simple root is short, which puts the
    -2 entry in the bottom row.
    """
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2
        if i + 1 < rank:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    if family == FAMILY_B and rank >= 2:
        m[rank - 1][rank - 2] = -2
    return m


def root_coordinates(instance: GroupInstance) -> tuple[Fraction, ...]:
    """Coordinates of m*lambda in the simple-root basis, exact."""
    cartan = cartan_matrix(instance.family, instance.rank)
    return tuple(solve_rational(cartan, list(instance.scaled_weight(1))))


def descent_ok(instance: GroupInstance) -> bool:
    """Whether the multiplied weight lies in the lattice required for descent.

    Type A asks for the root lattice; type B rank 2 asks for
    Z alpha_1 + 2Z alpha_2, and higher type B ranks ask for twice the
    root lattice.
    """
    coords = root_coordinates(instance)
    if instance.family == FAMILY_A:
        return all(c.denominator == 1 for c in coords)
    if instance.rank == 2:
        return (
            coords[0].denominator == 1
            and coords[1].denominator == 1
            and coords[1].numerator % 2 == 0
        )
    return all(c.denominator == 1 and c.numerator % 2 == 0 for c in coords)


def default_generation_degree(instance: GroupInstance) -> int:
    """Generation-degree bound to verify for an instance by default.

    The three-column Grassmannian on six letters needs degree 2 and the
    rank-3 spin case marked at the second node needs degree 3; everything
    else in the catalog is generated in degree 1.
    """
    if instance.family == FAMILY_A:
        if instance.parabolic == (3,) and instance.n == 6:
            return 2
        return 1
    if instance.rank >= 3 and instance.parabolic == (2,):
        return 3
    return 1


def _load_catalog() -> list[dict]:
    text = resources.files("artifact.data").joinpath("catalog.json").read_text()
    return json.loads(text)


_REQUIRED = object()


def manifest_int(entry: dict, key: str, default=_REQUIRED) -> int:
    """An integer field of a manifest entry; a bool, float, string or null is refused."""
    value = entry.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"manifest entry has no {key!r}")
    if type(value) is not int:  # JSON true/false load as bool, not int
        raise ValueError(f"manifest key {key!r} must be an integer, not {value!r}")
    return value


def _manifest_ints(entry: dict, key: str) -> tuple[int, ...]:
    value = entry.get(key, _REQUIRED)
    if value is _REQUIRED:
        raise ValueError(f"manifest entry has no {key!r}")
    if not isinstance(value, list) or any(type(a) is not int for a in value):
        raise ValueError(f"manifest key {key!r} must be a list of integers, not {value!r}")
    return tuple(value)


def instance_from_entry(entry: dict) -> GroupInstance:
    """Build a GroupInstance from one manifest dictionary; ValueError names a bad key."""
    if not isinstance(entry, dict):
        raise ValueError(f"manifest entry must be a JSON object, not {entry!r}")
    if "family" not in entry:
        raise ValueError("manifest entry has no 'family'")
    return GroupInstance(
        family=entry["family"],
        n=manifest_int(entry, "n"),
        parabolic=_manifest_ints(entry, "parabolic"),
        weight=_manifest_ints(entry, "weight"),
        multiple=manifest_int(entry, "multiple"),
        label=str(entry.get("label", "")),
    )


@functools.cache
def catalog_instances() -> tuple[GroupInstance, ...]:
    """The packaged nine-case manifest, in file order, read once per process."""
    return tuple(instance_from_entry(e) for e in _load_catalog())


_GRASSMANN = re.compile(r"^g(\d)(\d)$|^g(\d+)_(\d+)$")
_FLAG = re.compile(r"^fl(\d)(\d)(\d)$|^fl(\d+)_(\d+)_(\d+)$")
_SPIN = re.compile(r"^spin(\d+)w(\d)$")


def grassmannian_label(r: int, n: int) -> str:
    """g<r><n>, or g<r>_<n> once r or n has two digits."""
    return f"g{r}{n}" if r < 10 and n < 10 else f"g{r}_{n}"


def flag_label(n: int, r1: int, r2: int) -> str:
    """fl<n><r1><r2>, or fl<n>_<r1>_<r2> once any part has two digits."""
    return f"fl{n}{r1}{r2}" if max(n, r1, r2) < 10 else f"fl{n}_{r1}_{r2}"


def instance_by_label(label: str) -> GroupInstance:
    """Resolve a label like g26, g2_10, fl411, fl10_1_1 or spin7w2 to an instance.

    Catalog labels win; other well-formed labels are built on the fly so
    the CLI can address cases beyond the shipped manifest.
    """
    for inst in catalog_instances():
        if inst.label == label:
            return inst
    m = _GRASSMANN.match(label)
    if m:
        r, n = (int(g) for g in m.groups() if g is not None)
        if not 1 <= r < n or grassmannian_label(r, n) != label:
            raise ValueError(f"bad Grassmannian label {label!r}")
        # G(r, n) with bundle multiple n
        weight = tuple(1 if i + 1 == r else 0 for i in range(n - 1))
        return GroupInstance(FAMILY_A, n, (r,), weight, n, label)
    m = _FLAG.match(label)
    if m:
        n, r1, r2 = (int(g) for g in m.groups() if g is not None)
        if n < 3 or r1 < 1 or r2 < 1 or flag_label(n, r1, r2) != label:
            raise ValueError(f"bad flag label {label!r}")
        weight = tuple([r1, r2] + [0] * (n - 3))
        return GroupInstance(FAMILY_A, n, (1, 2), weight, n, label)
    m = _SPIN.match(label)
    if m:
        odd, idx = int(m.group(1)), int(m.group(2))
        if odd % 2 == 0 or odd < 5:
            raise ValueError(f"bad spin label {label!r}")
        rank = (odd - 1) // 2
        if not 1 <= idx <= rank:
            raise ValueError(f"bad spin label {label!r}")
        weight = tuple(1 if i + 1 == idx else 0 for i in range(rank))
        multiple = 4 if (idx == rank and rank >= 3) else 2
        return GroupInstance(FAMILY_B, rank, (idx,), weight, multiple, label)
    raise ValueError(f"unknown instance label {label!r}")
