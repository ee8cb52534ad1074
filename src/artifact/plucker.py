"""Exact Plücker-coordinate algebra: monomials, straightening, evaluation.

Monomials are multisets of strictly increasing index tuples, canonically
arranged longest-first then lexicographic.  ``straighten`` rewrites any
polynomial into the standard-monomial basis using quadratic exchange
relations in their multi-element shuffle form; every rewrite strictly
lowers the concatenated-rows measure, which is checked per step.  An
evaluation oracle on integer matrices keeps the algebra honest.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from operator import neg
from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import int_det
from .tableau_a import Factors, canonical_rows, check_rows, divide_rows, first_violation


@dataclass(frozen=True)
class PluckerMonomial:
    """Product of Plücker coordinates, canonically arranged and checked.

    The constructor sorts and checks rows from outside the program
    (``formats.parse_poly``, ``graphs.monomial_from_graph``).  Rows the
    program builds canonical and checked come in through ``trusted``.
    """

    n: int
    factors: Factors

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", canonical_rows(self.factors))
        check_rows(self.factors, self.n)

    @classmethod
    def trusted(cls, n: int, rows: Factors) -> "PluckerMonomial":
        """Wrap rows that are already canonical and pass ``check_rows``."""
        mono = object.__new__(cls)
        mono.__dict__.update(n=n, factors=rows)
        return mono

    @property
    def is_standard(self) -> bool:
        return first_violation(self.factors) is None

    def __mul__(self, other: "PluckerMonomial") -> "PluckerMonomial":
        if self.n != other.n:
            raise ValueError("cannot multiply monomials of different rank")
        return PluckerMonomial.trusted(self.n, canonical_rows(self.factors + other.factors))

    def divides(self, other: "PluckerMonomial") -> bool:
        """Sub-multiset test on factors."""
        return divide_rows(other.factors, self.factors) is not None

    def quotient(self, other: "PluckerMonomial") -> "PluckerMonomial":
        """Remove the factors of ``other`` (which must divide self)."""
        rows = divide_rows(self.factors, other.factors)
        if rows is None:
            raise ValueError("quotient by a non-divisor")
        return PluckerMonomial.trusted(self.n, rows)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for row, group in itertools.groupby(self.factors):
            power = len(list(group))
            body = "p[" + ",".join(map(str, row)) + "]"
            parts.append(body if power == 1 else f"{body}^{power}")
        return " ".join(parts)


class PluckerPoly:
    """Exact linear combination of Plücker monomials of one rank."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[PluckerMonomial, Fraction] | None = None):
        self.n = n
        data: dict[PluckerMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if mono.n != n:
                    raise ValueError("rank mismatch inside polynomial")
                c = Fraction(coeff)
                if c:
                    data[mono] = c
        self._terms = data

    @classmethod
    def from_monomial(cls, mono: PluckerMonomial, coeff=1) -> "PluckerPoly":
        return cls(mono.n, {mono: Fraction(coeff)})

    @property
    def terms(self) -> dict[PluckerMonomial, Fraction]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PluckerPoly") -> "PluckerPoly":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            data[mono] = data.get(mono, Fraction(0)) + coeff
        return PluckerPoly(self.n, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PluckerPoly)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "PluckerPoly(0)"
        bits = [f"{c} * {m}" for m, c in sorted(self._terms.items(), key=lambda kv: _measure(kv[0].factors))]
        return "PluckerPoly(" + " + ".join(bits) + ")"


def _measure(factors: Factors) -> tuple[int, ...]:
    """Concatenation of the canonically arranged rows; the rewrite order."""
    return tuple(itertools.chain.from_iterable(factors))


def _heap_key(factors: Factors) -> tuple[int, ...]:
    """The measure negated entrywise, so the min-heap pops the largest first.

    A rewrite keeps the row lengths, so a monomial and its rewrites have
    measures of one length, whose order negation exactly reverses.
    """
    return tuple(map(neg, itertools.chain.from_iterable(factors)))


def _sort_sign(seq: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``seq``; 0 on repeated entries."""
    arr = list(seq)
    sign = 1
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[i] == arr[j]:
                return 0, ()
            if arr[i] > arr[j]:
                sign = -sign
    return sign, tuple(sorted(arr))


_REWRITE_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}


def _pair_rewrite(upper: tuple[int, ...], lower: tuple[int, ...]) -> tuple:
    """Expansion of a violating adjacent pair into strictly smaller pairs.

    Uniform lengths use the shuffle relation built from the first
    violating column; the two-against-one flag case uses the three-term
    identity.  Returns ((coeff, row1, row2), ...) with integer signs.
    """
    key = (upper, lower)
    cached = _REWRITE_CACHE.get(key)
    if cached is not None:
        return cached
    if len(upper) == len(lower):
        terms = _shuffle_rewrite(upper, lower)
    elif len(upper) == 2 and len(lower) == 1:
        (i, j), (k,) = upper, lower
        if k >= i:
            raise ValueError("pair/singleton rows do not violate")
        # p_ij p_k = p_kj p_i - p_ki p_j for k < i < j
        terms = ((1, (k, j), (i,)), (-1, (k, i), (j,)))
    else:
        raise ValueError(
            f"unsupported tuple-length profile: {len(upper)} against {len(lower)}"
        )
    _REWRITE_CACHE[key] = terms
    return terms


def _shuffle_rewrite(upper: tuple[int, ...], lower: tuple[int, ...]) -> tuple:
    r = len(upper)
    t = next(i for i in range(r) if upper[i] > lower[i])
    gamma = upper[:t]
    delta = lower[t + 1 :]
    pool = sorted(lower[: t + 1] + upper[t:])
    if len(set(pool)) != r + 1:
        raise AssertionError("shuffle pool must have distinct entries")
    take = r - t
    identity_sign = None
    raw: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for idx in itertools.combinations(range(r + 1), take):
        s1 = tuple(pool[i] for i in idx)
        s2 = tuple(pool[i] for i in range(r + 1) if i not in idx)
        shuffle_sign = -1 if (sum(idx) - take * (take - 1) // 2) % 2 else 1
        sx, x = _sort_sign(gamma + s1)
        sy, y = _sort_sign(s2 + delta)
        coeff = shuffle_sign * sx * sy
        if coeff == 0:
            continue
        if x == upper and y == lower:
            identity_sign = coeff
            continue
        raw.append((coeff, x, y))
    if identity_sign is None:
        raise AssertionError("identity term missing from shuffle")
    return tuple((-c * identity_sign, x, y) for c, x, y in raw)


def _validate_profile(factors: Factors) -> None:
    lengths = {len(r) for r in factors}
    if len(lengths) > 1 and lengths != {1, 2}:
        raise ValueError(f"unsupported tuple-length profile {sorted(lengths)}")


def straighten(p: PluckerPoly | PluckerMonomial) -> PluckerPoly:
    """Rewrite into the standard basis; exact and terminating.

    Non-standard monomials are processed largest-measure first so that
    coefficients coalesce before further rewriting.  Each relation step
    replaces two rows by strictly measure-smaller rows (checked, also
    under ``python -O``), which bounds the whole loop.  The relations
    have integer signs, so the loop runs on integers: the input scaled
    by the lcm of its denominators, divided back out at the end.
    """
    if isinstance(p, PluckerMonomial):
        p = PluckerPoly.from_monomial(p)
    scale = math.lcm(*(coeff.denominator for _, coeff in p.items()))
    out: dict[Factors, int] = {}
    pending: dict[Factors, int] = {}
    heap: list[tuple[tuple[int, ...], Factors]] = []
    for mono, coeff in p.items():
        _validate_profile(mono.factors)
        scaled = coeff.numerator * (scale // coeff.denominator)
        pending[mono.factors] = pending.get(mono.factors, 0) + scaled
        heapq.heappush(heap, (_heap_key(mono.factors), mono.factors))
    while heap:
        key, fac = heapq.heappop(heap)
        coeff = pending.pop(fac, None)
        if not coeff:
            continue
        idx = first_violation(fac)
        if idx is None:
            out[fac] = out.get(fac, 0) + coeff
            continue
        upper, lower = fac[idx], fac[idx + 1]
        rest = fac[:idx] + fac[idx + 2 :]
        for sign, row1, row2 in _pair_rewrite(upper, lower):
            nxt = canonical_rows(rest + (row1, row2))
            nxt_key = _heap_key(nxt)
            if not nxt_key > key:
                raise AssertionError("rewrite must lower the measure")
            seen = nxt in pending
            pending[nxt] = pending.get(nxt, 0) + sign * coeff
            if not seen:
                heapq.heappush(heap, (nxt_key, nxt))
    return PluckerPoly(
        p.n, {PluckerMonomial.trusted(p.n, fac): Fraction(c, scale) for fac, c in out.items() if c}
    )


class MinorTable(dict):
    """The minors of one integer matrix that Plücker coordinates read.

    A length-t tuple evaluates as the t x t minor on those rows and the
    first t columns; singletons therefore read the first column.  The
    table is a dict of minors that fills itself on a miss, so each is
    computed once, however many monomials share it.  Minors of size 1
    and 2 are read off the rows, larger ones go through ``int_det``; a
    tuple wider than the matrix is checked here and raises.
    """

    __slots__ = ("rows", "width")

    def __init__(self, matrix) -> None:
        self.rows = [list(map(int, row)) for row in matrix]
        self.width = len(self.rows[0]) if self.rows else 0

    def __missing__(self, tup: tuple[int, ...]) -> int:
        t = len(tup)
        if t > self.width:
            raise ValueError(f"tuple {tup} needs {t} columns, matrix has {self.width}")
        if t == 1:
            minor = self.rows[tup[0] - 1][0]
        elif t == 2:
            r, s = self.rows[tup[0] - 1], self.rows[tup[1] - 1]
            minor = r[0] * s[1] - r[1] * s[0]
        else:
            minor = int_det([self.rows[i - 1][:t] for i in tup])
        self[tup] = minor
        return minor

    def monomial(self, mono: PluckerMonomial) -> int:
        """Product of the minors of the monomial's factors."""
        return math.prod(map(self.__getitem__, mono.factors))


def eval_on_matrix(p: PluckerPoly | PluckerMonomial, matrix) -> Fraction:
    """Value of the polynomial at the point given by an integer matrix."""
    minors = MinorTable(matrix)
    if isinstance(p, PluckerMonomial):
        return Fraction(minors.monomial(p))
    return sum((coeff * minors.monomial(mono) for mono, coeff in p.items()), Fraction(0))


def seeded_matrices(n: int, width: int, count: int = 10, seed: int = 0) -> list[list[list[int]]]:
    """Deterministic random integer matrices with entries in [-9, 9].

    Each entry is drawn the way ``random.Random(seed).randint(-9, 9)``
    draws it, without its per-call overhead: five random bits, redrawn
    while they are 19 or more, minus 9.  The matrices for every seed are
    therefore exactly those of the ``randint`` comprehension.
    """
    bits = random.Random(seed).getrandbits
    need = count * n * width
    entries: list[int] = []
    while len(entries) < need:
        r = bits(5)
        if r < 19:
            entries.append(r - 9)
    rows = [entries[i * width : (i + 1) * width] for i in range(count * n)]
    return [rows[i * n : (i + 1) * n] for i in range(count)]

