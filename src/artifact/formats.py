"""Stable text, JSON and CSV forms for every object the CLI touches.

All serialization is deterministic: dict keys are emitted in a fixed
order, floats never appear, and fractions are printed as num/den so a
byte-for-byte comparison of two runs is meaningful.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from .plucker import PluckerMonomial, PluckerPoly
from .tableau_a import Factors
from .verifier import CertTermList, GenerationReport


def format_coeff(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: PluckerPoly) -> str:
    """One signed term per line, ordered by the canonical factor tuples."""
    if p.is_zero():
        return "0"
    lines = []
    for mono, coeff in sorted(p.items(), key=lambda kv: kv[0].factors):
        sign = "-" if coeff < 0 else "+"
        lines.append(f"{sign}{format_coeff(abs(coeff))} * {mono}")
    return "\n".join(lines)


_ATOM = re.compile(r"p\[\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\](?:\^([0-9]+))?")


def _strip_comments(text: str) -> str:
    return " ".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_poly(text: str, n: int) -> PluckerPoly:
    """Read a polynomial like ``2 * p[1,4] p[2,3] - p[1,2] p[3,4]``.

    Coefficients are optional integers or fractions followed by ``*``;
    factors juxtapose and accept ``^`` powers; ``#`` starts a comment.
    A bare ``0`` is the zero polynomial, as ``format_poly`` prints it.
    """
    src = _strip_comments(text)
    if src.strip() == "0":
        return PluckerPoly(n)
    src = src.replace("-", "+-")
    total: dict[PluckerMonomial, Fraction] = {}
    for chunk in src.split("+"):
        if not chunk.strip():
            continue
        m = re.match(r"\s*(-)?\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(.*)$", chunk, re.S)
        if m is None:
            raise AssertionError("the term pattern matches any text")
        try:
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk.strip()!r}") from None
        if m.group(1):
            coeff = -coeff
        body = m.group(3)
        factors: list[tuple[int, ...]] = []
        consumed = _ATOM.sub("", body)
        if consumed.strip():
            raise ValueError(f"cannot parse term {chunk.strip()!r}")
        for atom in _ATOM.finditer(body):
            row = tuple(int(x) for x in atom.group(1).split(","))
            power = int(atom.group(2) or 1)
            factors.extend([row] * power)
        if not factors:
            raise ValueError(f"term {chunk.strip()!r} has no factors")
        mono = PluckerMonomial(n, tuple(factors))
        total[mono] = total.get(mono, Fraction(0)) + coeff
    if not total:
        raise ValueError("empty polynomial")
    return PluckerPoly(n, total)


def parse_monomial(text: str, n: int) -> PluckerMonomial:
    poly = parse_poly(text, n)
    items = list(poly.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError("expected a single monomial with coefficient 1")
    return items[0][0]


def tableau_text(rows: Factors, header: tuple[str, ...] = ()) -> str:
    """The header lines, then the rows as comma-separated lines."""
    return "\n".join([*header, *(",".join(map(str, row)) for row in rows)])


def certificate_json(
    instance: str, monomial: PluckerMonomial, terms: CertTermList, verified: bool
) -> dict:
    """f written as sum c * g * h over degree-one generators g, plus the verdict."""
    return {
        "instance": instance,
        "monomial": str(monomial),
        "terms": [
            {
                "coeff": format_coeff(c),
                "generator": str(g),
                "cofactor": str(h),
            }
            for c, g, h in terms
        ],
        "verified": verified,
    }


REPORT_COLUMNS = ("instance", "k", "d", "dim", "rank", "verdict")


def _aligned(header: tuple[str, ...], rows: list[list[str]]) -> list[str]:
    """Header and rows in left-justified columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in (header, *rows)]


def _csv(header: tuple[str, ...], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _report_rows(reports: list[GenerationReport]) -> list[list[str]]:
    return [[str(r.as_dict()[c]) for c in REPORT_COLUMNS] for r in reports]


def reports_table(reports: list[GenerationReport]) -> str:
    return "\n".join(_aligned(REPORT_COLUMNS, _report_rows(reports)))


def reports_csv(reports: list[GenerationReport]) -> str:
    return _csv(REPORT_COLUMNS, _report_rows(reports))


def reports_json_text(reports: list[GenerationReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)


def duality_table(result: dict) -> str:
    rows = [[str(d["k"]), str(d["left"]), str(d["right"])] for d in result["degrees"]]
    return "\n".join([*_aligned(("k", "left", "right"), rows), f"verdict: {result['verdict']}"])


def duality_csv(result: dict) -> str:
    rows = [[d["k"], d["left"], d["right"], result["verdict"]] for d in result["degrees"]]
    return _csv(("k", "left", "right", "verdict"), rows)


def load_manifest(path: str) -> list[dict]:
    """Manifest file: JSON array of instance entries (plus optional k/genDegree)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("manifest must be a JSON array")
    return data
