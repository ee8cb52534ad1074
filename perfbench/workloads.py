"""The three workloads: op lists built from a seed, pinned answers, checks.

An op is one `artifact` command line, run in-process through
`artifact.cli.main`.  Every op carries what its output must be: the exit
code, the parsed answer and the sha256 of its stdout for `generation` and
`enumeration`; the pinned stdout digest plus an independent exact
re-check of the certificate for `factorize`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from certcheck import check_certificate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("generation", "factorize", "enumeration")

# Relative to the checkout root, which is the worker's working directory.
SUITE_MANIFEST = "perfbench/suite_manifest.json"

# Pinned (exit code, answer) per case.  For `verify` and `suite` the answer
# is the table rows (instance, k, d, dim, rank, verdict); for `duality` it
# is (k, left, right) per degree plus the verdict.  Sources:
#   dims: g24/g25/g36/fl311 at k=2 and g36 at k=3,4 from
#     tests/test_acceptance.py (criteria 1-3) and the README library
#     example; spin dims from tests/test_tableau_b.py frozen counts and
#     tests/test_verifier.py; fl511 k=3 (536) and g26 k=4 (369) from the
#     ROADMAP measurements; duality k<=3 equality from criterion 8.
#   d column of the suite: the README catalog table.
#   ranks of pass verdicts equal dim by definition of a pass.
#   the two fail ranks (g36 k=3 -> 35, k=4 -> 70), spin7w3 k=4 (145) and
#     duality counts 15/65/175/369: observed when the benchmark was pinned;
#     no older record of them exists.
CASES = {
    "gen.suite": (
        ["suite", "--manifest", SUITE_MANIFEST],
        0,
        [
            ["g24", 2, 1, 5, 5, "pass"],
            ["g25", 2, 1, 16, 16, "pass"],
            ["g36", 2, 2, 16, 16, "pass"],
            ["fl311", 2, 1, 7, 7, "pass"],
            ["spin5w1", 2, 1, 3, 3, "pass"],
            ["spin5w2", 2, 1, 3, 3, "pass"],
            ["spin7w1", 2, 1, 6, 6, "pass"],
            ["spin7w2", 2, 3, 33, 33, "pass"],
            ["spin7w3", 2, 1, 29, 29, "pass"],
        ],
    ),
    "gen.g26.k4.d1": (["verify", "g26", "-k", "4", "-d", "1"], 0, [["g26", 4, 1, 369, 369, "pass"]]),
    "gen.fl511.k3.d1": (["verify", "fl511", "-k", "3", "-d", "1"], 0, [["fl511", 3, 1, 536, 536, "pass"]]),
    "gen.g36.k3.d1": (["verify", "g36", "-k", "3", "-d", "1"], 1, [["g36", 3, 1, 40, 35, "fail"]]),
    "gen.g36.k4.d1": (["verify", "g36", "-k", "4", "-d", "1"], 1, [["g36", 4, 1, 85, 70, "fail"]]),
    "gen.g36.k4.d2": (["verify", "g36", "-k", "4", "-d", "2"], 0, [["g36", 4, 2, 85, 85, "pass"]]),
    "enum.duality.2.6.k4": (
        ["duality", "2", "6", "--k-max", "4"],
        0,
        [[1, 15, 15], [2, 65, 65], [3, 175, 175], [4, 369, 369], "pass"],
    ),
    "enum.spin7w2.k4.d3": (["verify", "spin7w2", "-k", "4", "-d", "3"], 0, [["spin7w2", 4, 3, 225, 225, "pass"]]),
    "enum.spin7w3.k4.d1": (["verify", "spin7w3", "-k", "4", "-d", "1"], 0, [["spin7w3", 4, 1, 145, 145, "pass"]]),
}

# factorize pools: every zero-weight standard basis monomial of these
# graded pieces, split by whether a degree-one basis monomial divides it.
# The last field is how many divisible ones the seed draws.  An fl511 op
# takes about half as long as an fl611 one, so the two pieces form two
# latency clusters; drawing more fl611 ops puts the median op inside a
# cluster instead of in the gap between them, where it would jump.
FACTORIZE_PIECES = (("fl611", 2, 200), ("fl511", 3, 100))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load(name: str):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def _factorize_op(label: str, k: int, n: int, index: int, entry: list, seed: int) -> dict:
    mono, _, digest = entry
    return {
        "id": f"fact.{label}.{index}",
        "argv": ["factorize", label, mono, "--seed", str(seed), "--format", "json"],
        "n": n,
        "k": k,
        "mono": mono,
        "sha256": digest,
    }


def factorize_pool_ops() -> list[dict]:
    """One factorize op per pool monomial, in pool order, each with --seed 0."""
    pool = _load("factorize_pool.json")
    return [
        _factorize_op(label, k, pool[f"{label}.k{k}"]["n"], i, entry, 0)
        for label, k, _ in FACTORIZE_PIECES
        for i, entry in enumerate(pool[f"{label}.k{k}"]["monomials"])
    ]


def build_ops(workload: str, seed: int) -> list[dict]:
    """The resolved op list of one run; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "factorize":
        pool = _load("factorize_pool.json")
        picks = []
        for label, k, sample in FACTORIZE_PIECES:
            piece = pool[f"{label}.k{k}"]
            divisible = [i for i, (_, div, _) in enumerate(piece["monomials"]) if div]
            chosen = [i for i, (_, div, _) in enumerate(piece["monomials"]) if not div]
            chosen += rng.sample(divisible, sample)
            picks += [(label, k, piece["n"], i, piece["monomials"][i]) for i in chosen]
        rng.shuffle(picks)
        return [_factorize_op(*pick, rng.randrange(10**6)) for pick in picks]
    prefix = {"generation": "gen.", "enumeration": "enum."}[workload]
    digests = _load("pins.json")
    ops = [
        {"id": op_id, "argv": argv, "exit": code, "answer": answer, "sha256": digests[op_id]}
        for op_id, (argv, code, answer) in CASES.items()
        if op_id.startswith(prefix)
    ]
    # generation keeps the CASES order: its small ops share cold caches with
    # whichever op fills them first, so a seeded order moved op_p50_ms by
    # 21% (quartile spread over 10 seeds) against 13% with one fixed order
    if workload == "enumeration":
        rng.shuffle(ops)
    return ops


def parse_answer(argv: list[str], stdout: str):
    """The answer a table-format report states, in the form CASES pins."""
    lines = stdout.splitlines()
    if argv[0] == "duality":
        rows = [[int(x) for x in line.split()] for line in lines[1:-1]]
        return rows + [lines[-1].removeprefix("verdict: ")]
    rows = []
    for line in lines[1:]:
        label, k, d, dim, rank, verdict = line.split()
        rows.append([label, int(k), int(d), int(dim), int(rank), verdict])
    return rows


def check_op(op: dict, result: dict, rng: random.Random) -> list[str]:
    """Every way one op's output differs from what it must be."""
    if result["exc"] is not None:
        return [f"raised {result['exc']}"]
    stdout = result["out"]
    problems = []
    if sha256(stdout) != op["sha256"]:
        problems.append("stdout differs from the pinned bytes")
    if op["argv"][0] == "factorize":
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']}, expected 0")
        try:
            payload = json.loads(stdout)
            problems += check_certificate(payload, op["n"], op["k"], op["mono"], rng)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"unreadable certificate: {exc!r}")
        return problems
    if result["rc"] != op["exit"]:
        problems.append(f"exit code {result['rc']}, expected {op['exit']}")
    try:
        answer = parse_answer(op["argv"], stdout)
    except (ValueError, IndexError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if answer != op["answer"]:
        problems.append(f"answer {answer}, expected {op['answer']}")
    return problems
