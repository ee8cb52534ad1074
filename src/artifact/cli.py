"""Command-line front end.

Six subcommands: enumerate the invariant basis, straighten a polynomial,
factorize an invariant monomial into degree-one generators, verify one
generation bound, compare dual Grassmannian dimensions, and run the full
packaged suite.  Exit codes: 0 on success or an all-pass verdict, 1 when
a verification fails, 2 on usage or configuration errors or a problem
too large to run (out of stack or memory), 3 when an internal check
fails or any other exception escapes.  Output is
deterministic byte for byte for a fixed command line.  The parser is
built once per process, on the first call, and shared by every later
``main`` call: parsing keeps no state between calls, so ``main`` can be
called repeatedly in one process with the same bytes and exit codes as
separate runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .extract import extract_degree_one
from .formats import (
    certificate_json,
    duality_csv,
    duality_table,
    format_coeff,
    format_poly,
    load_manifest,
    parse_monomial,
    parse_poly,
    reports_csv,
    reports_json_text,
    reports_table,
    tableau_text,
)
from .graphs import graph_from_monomial, to_dot
from .plucker import straighten
from .verifier import (
    basis,
    basis_size,
    check_duality,
    run_instance_check,
    run_paper_suite,
    validate_certificate,
)
from .weights import FAMILY_B, default_generation_degree, instance_by_label


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "table", "csv"),
        default="table",
        help="output format (default: table)",
    )
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="invariant-theory workbench: bases, straightening, certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate", parents=[common], help="list the invariant standard basis"
    )
    p.add_argument("instance", nargs="?", help="instance label, e.g. g24 or spin5w2")
    p.add_argument("--instance", dest="instance_opt", help=argparse.SUPPRESS)
    p.add_argument("-k", "--k", "--degree", dest="degree", type=int, default=1)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser(
        "straighten", parents=[common], help="rewrite into the standard basis"
    )
    p.add_argument("-n", "--rank", type=int, required=True, help="index range 1..n")
    p.add_argument("expression", nargs="?", help="polynomial, e.g. 'p[1,4] p[2,3]'")
    p.add_argument("--input", metavar="PATH", help="read the polynomial from a file")

    p = sub.add_parser(
        "factorize",
        parents=[common],
        help="write an invariant monomial over degree-one generators",
    )
    p.add_argument("instance", nargs="?")
    p.add_argument("--instance", dest="instance_opt", help=argparse.SUPPRESS)
    p.add_argument("monomial", nargs="?", help="invariant standard monomial, e.g. 'p[1,2]^4 p[3,4]^4'")
    p.add_argument("--input", metavar="PATH", help="read the monomial from a file")
    p.add_argument(
        "--emit-dot",
        metavar="PATH",
        help="also write the monomial's multigraph in DOT form",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed for evaluation matrices"
    )

    p = sub.add_parser(
        "verify", parents=[common], help="check one generation-degree bound"
    )
    p.add_argument("instance", nargs="?")
    p.add_argument("--instance", dest="instance_opt", help=argparse.SUPPRESS)
    p.add_argument("-k", "--k", "--degree", dest="degree", type=int, default=2)
    p.add_argument("-d", "--gen-degree", type=int, default=None)

    p = sub.add_parser(
        "duality", parents=[common], help="compare dual Grassmannian dimensions"
    )
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--k-max", type=int, default=3)

    p = sub.add_parser(
        "suite", parents=[common], help="run every manifest entry"
    )
    p.add_argument("--manifest", help="JSON manifest path (default: packaged catalog)")
    return parser


def _pick(primary, alternate, what: str) -> str:
    """One value from a positional/flag pair; both set must agree."""
    if primary is not None and alternate is not None and primary != alternate:
        raise ValueError(f"{what} given twice with different values")
    value = alternate if alternate is not None else primary
    if value is None:
        raise ValueError(f"missing {what}")
    return value


def _read_text(path: str | None, given: str | None, article: str, what: str) -> str:
    """The text given on the command line or read from ``--input``, not both."""
    if path is not None and given is not None:
        raise ValueError(f"give {article} {what} or --input, not both")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    if given is None:
        raise ValueError(f"missing {what}")
    return given


def _cmd_enumerate(args) -> int:
    label = _pick(args.instance, args.instance_opt, "instance label")
    instance = instance_by_label(label)
    if args.count_only:
        print(basis_size(instance, args.degree))
        return 0
    tableaux = basis(instance, args.degree)
    if args.format == "json":
        payload = {
            "instance": label,
            "degree": args.degree,
            "count": len(tableaux),
            "tableaux": [[list(row) for row in t] for t in tableaux],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("index,rows")
        for i, t in enumerate(tableaux):
            cells = "|".join(",".join(map(str, row)) for row in t)
            print(f'{i},"{cells}"')
    else:
        header = (f"type: B, n: {instance.n}",) if instance.family == FAMILY_B else ()
        print(f"# instance: {label}, degree: {args.degree}, count: {len(tableaux)}")
        for t in tableaux:
            print()
            print(tableau_text(t, header))
    return 0


def _cmd_straighten(args) -> int:
    text = _read_text(args.input, args.expression, "an", "expression")
    poly = parse_poly(text, args.rank)
    result = straighten(poly)
    if args.format == "json":
        payload = {
            "input": text.strip(),
            "terms": [
                {"coeff": format_coeff(c), "monomial": str(m)}
                for m, c in sorted(result.items(), key=lambda kv: kv[0].factors)
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("coeff,monomial")
        for m, c in sorted(result.items(), key=lambda kv: kv[0].factors):
            print(f'{format_coeff(c)},"{m}"')
    else:
        print(format_poly(result))
    return 0


def _cmd_factorize(args) -> int:
    label = _pick(args.instance, args.instance_opt, "instance label")
    instance = instance_by_label(label)
    mono = parse_monomial(_read_text(args.input, args.monomial, "a", "monomial"), instance.n)
    terms = extract_degree_one(instance, mono)
    ok = validate_certificate(instance, mono, terms, seed=args.seed)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph_from_monomial(mono)))
    if args.format == "json":
        print(json.dumps(certificate_json(label, mono, terms, ok), indent=2))
    elif args.format == "csv":
        print("coeff,generator,cofactor")
        for c, g, h in terms:
            print(f'{format_coeff(c)},"{g}","{h}"')
    else:
        print(f"# {label}: {mono}")
        for c, g, h in terms:
            sign = "-" if c < 0 else "+"
            print(f"{sign}{format_coeff(abs(c))} * [{g}] * [{h}]")
        print(f"verified: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    instance = instance_by_label(_pick(args.instance, args.instance_opt, "instance label"))
    d = args.gen_degree
    if d is None:
        d = default_generation_degree(instance)
    report = run_instance_check(instance, args.degree, d)
    _print_reports([report], args.format)
    return 0 if report.passed else 1


def _cmd_duality(args) -> int:
    result = check_duality(args.r, args.n, args.k_max)
    if args.format == "json":
        print(json.dumps(result, indent=2))
    elif args.format == "csv":
        print(duality_csv(result))
    else:
        print(duality_table(result))
    return 0 if result["verdict"] == "pass" else 1


def _cmd_suite(args) -> int:
    entries = load_manifest(args.manifest) if args.manifest else None
    reports = run_paper_suite(entries)
    _print_reports(reports, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _print_reports(reports, fmt: str) -> None:
    if fmt == "json":
        print(reports_json_text(reports))
    elif fmt == "csv":
        print(reports_csv(reports))
    else:
        print(reports_table(reports))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "straighten": _cmd_straighten,
        "factorize": _cmd_factorize,
        "verify": _cmd_verify,
        "duality": _cmd_duality,
        "suite": _cmd_suite,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # the strip table recurses once per value (_completions) and once per
        # part (_add_strip), so a huge n runs out of stack, or of memory
        print(f"error: problem too large: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an explicit internal check failed: a bug, not a failed verification
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # any other escape is a bug too, never a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
