"""Independent re-check of a factorization certificate by exact evaluation.

A Pluecker coordinate p[i1,...,it] is the t x t minor of an integer matrix
on rows i1..it and its first t columns.  A certificate f = sum c * g * h is
an identity of such minors exactly when it holds at every matrix, so it is
checked here at a few integer matrices with entries drawn from a wide range
(Schwartz-Zippel: a false identity of degree D survives one draw with
probability at most D / range).  The matrices come from a random stream the
caller owns, and nothing in this file imports the program under test, so
the check shares no code with the program's straightening or evaluation.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

ENTRY_RANGE = 10**6
MATRICES = 3

_ATOM = re.compile(r"p\[([0-9]+(?:,[0-9]+)*)\](?:\^([0-9]+))?")

Monomial = list[tuple[tuple[int, ...], int]]


def parse_monomial(text: str, n: int) -> Monomial:
    """'p[1,2]^3 p[4]' -> [((1, 2), 3), ((4,), 1)]; raises ValueError."""
    if text == "1":
        return []
    out: Monomial = []
    for token in text.split(" "):
        m = _ATOM.fullmatch(token)
        if m is None:
            raise ValueError(f"bad factor {token!r}")
        row = tuple(int(x) for x in m.group(1).split(","))
        if any(a >= b for a, b in zip(row, row[1:])) or row[0] < 1 or row[-1] > n:
            raise ValueError(f"bad index tuple {row} for n={n}")
        out.append((row, int(m.group(2) or 1)))
    return out


def _det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
        prev = m[col][col]
    return sign * m[-1][-1] if size else 1


def _value(mono: Monomial, matrix: list[list[int]], minors: dict) -> int:
    value = 1
    for row, power in mono:
        minor = minors.get(row)
        if minor is None:
            minor = _det([matrix[i - 1][: len(row)] for i in row])
            minors[row] = minor
        value *= minor**power
    return value


def _boxes(mono: Monomial) -> int:
    return sum(len(row) * power for row, power in mono)


def _uniform_content(mono: Monomial, n: int) -> bool:
    counts = [0] * n
    for row, power in mono:
        for i in row:
            counts[i - 1] += power
    return len(set(counts)) == 1


def check_certificate(
    payload: dict, n: int, k: int, monomial: str, rng: random.Random
) -> list[str]:
    """Problems found in one `factorize --format json` payload; [] if sound.

    Checks that the payload answers the question asked, that every
    generator is a torus-invariant monomial of degree one (a k-th of the
    boxes of f, uniform content), and that sum c * g * h equals f at
    MATRICES random integer matrices.
    """
    problems = []
    if payload.get("monomial") != monomial:
        problems.append("certificate names another monomial")
    if payload.get("verified") is not True:
        problems.append("certificate not marked verified")
    f = parse_monomial(monomial, n)
    terms = []
    for term in payload.get("terms", []):
        g = parse_monomial(term["generator"], n)
        h = parse_monomial(term["cofactor"], n)
        if _boxes(g) * k != _boxes(f) or not _uniform_content(g, n):
            problems.append(f"generator {term['generator']} is not degree one")
        terms.append((Fraction(term["coeff"]), g, h))
    if not terms:
        problems.append("certificate has no terms")
    for _ in range(MATRICES):
        matrix = [
            [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)]
            for _ in range(n)
        ]
        minors: dict = {}
        lhs = _value(f, matrix, minors)
        rhs = sum(
            (c * _value(g, matrix, minors) * _value(h, matrix, minors) for c, g, h in terms),
            Fraction(0),
        )
        if lhs != rhs:
            problems.append("sum c * g * h differs from f at a random matrix")
            break
    return problems
