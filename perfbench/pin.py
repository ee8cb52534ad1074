"""Re-pin the stdout digests and the factorize pool from the current program.

    python3 perfbench/pin.py

Writes perfbench/pins.json (sha256 of each generation/enumeration op's
stdout) and perfbench/factorize_pool.json (every zero-weight standard
basis monomial of the factorize pieces, whether a degree-one basis
monomial divides it, and the sha256 of its `factorize --format json`
stdout).  It refuses to write if any answer differs from the hand-pinned
CASES in workloads.py, if a certificate fails the independent re-check,
or if a stdout depends on `--seed`.  Stdout is meant to stay byte-identical
across changes, so re-pin only for a deliberate output change and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from artifact import cli  # noqa: E402
from artifact.extract import degree_one_basis  # noqa: E402
from artifact.verifier import basis_monomials  # noqa: E402
from artifact.weights import instance_by_label  # noqa: E402

from certcheck import check_certificate  # noqa: E402
from workloads import CASES, FACTORIZE_PIECES, parse_answer, sha256  # noqa: E402


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main() -> int:
    digests = {}
    for op_id, (argv, code, answer) in CASES.items():
        got_code, out = run(argv)
        if (got_code, parse_answer(argv, out)) != (code, answer):
            sys.exit(f"{op_id}: got exit {got_code}, {parse_answer(argv, out)}")
        digests[op_id] = sha256(out)
    pool = {}
    rng = random.Random("perfbench-pin")
    for label, k, _ in FACTORIZE_PIECES:
        inst = instance_by_label(label)
        units = degree_one_basis(inst)
        entries = []
        for mono in basis_monomials(inst, k):
            text = str(mono)
            runs = [run(["factorize", label, text, "--seed", s, "--format", "json"]) for s in ("0", "98765")]
            if runs[0] != runs[1] or runs[0][0] != 0:
                sys.exit(f"{label} {text}: exit code or stdout depends on --seed")
            problems = check_certificate(json.loads(runs[0][1]), inst.n, k, text, rng)
            if problems:
                sys.exit(f"{label} {text}: {problems}")
            divisible = any(u.divides(mono) for u in units)
            entries.append([text, divisible, sha256(runs[0][1])])
        pool[f"{label}.k{k}"] = {"n": inst.n, "monomials": entries}
        print(f"{label} k={k}: {len(entries)} monomials, "
              f"{sum(not e[1] for e in entries)} not divisible by a degree-one unit")
    with open(HERE / "pins.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    with open(HERE / "factorize_pool.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (key, piece) in enumerate(pool.items()):
            fh.write(f' "{key}": {{"n": {piece["n"]}, "monomials": [\n')
            fh.write(",\n".join("  " + json.dumps(e) for e in piece["monomials"]))
            fh.write("\n ]}" + (",\n" if i + 1 < len(pool) else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
