"""Pin the reference copy's own times: perfbench/reference_times.json.

    python3 perfbench/calibrate.py [--reps 3]

The untraced benchmark reports every time at reference speed: the
program's CPU time over the frozen reference copy's CPU time on the same
op, run at the same time on one CPU, times the reference copy's time
pinned here.  This script measures those pinned times once.  It runs the
reference copy side by side with itself, through the same harness as a
benchmark run, on every generation and enumeration op and on every
monomial of the factorize pool, and records each op's median CPU time and
the median set-up CPU time.

The pinned times only fix the scale of the reported figures; they are
never re-measured for a program change.  Re-pin only together with a
deliberate replacement of perfbench/reference/, and say so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import HERE, OUT, REFERENCE, RUN_LIMIT_S, side_by_side
from workloads import build_ops, factorize_pool_ops

SETUP_PAIRS = 15
CHUNK = 400  # factorize ops per worker pair, to stay inside the run limit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    sides = ((REFERENCE, False), (REFERENCE, False))
    side_by_side(sides, [], 0, time.perf_counter() + RUN_LIMIT_S)  # compiles bytecode
    setup = []
    for j in range(SETUP_PAIRS):
        pair = side_by_side(sides, [], j, time.perf_counter() + RUN_LIMIT_S)
        setup += [r["setup_cpu_s"] for r in pair]
    batches = [build_ops("generation", 1), build_ops("enumeration", 1)]
    pool = factorize_pool_ops()
    batches += [pool[i:i + CHUNK] for i in range(0, len(pool), CHUNK)]
    samples: dict[str, list[float]] = {}
    for rep in range(args.reps):
        for ops in batches:
            reports = side_by_side(sides, ops, rep, time.perf_counter() + RUN_LIMIT_S)
            for report in reports:
                for op, result in zip(ops, report["ops"], strict=True):
                    if result["exc"] is not None:
                        sys.exit(f"reference copy raised on {op['id']}: {result['exc']}")
                    samples.setdefault(op["id"], []).append(result["cpu_s"])
        print(f"repetition {rep + 1} of {args.reps} done", file=sys.stderr)
    pinned = {
        "setup_s": round(statistics.median(setup), 6),
        "ops": {op_id: round(statistics.median(times), 6) for op_id, times in samples.items()},
    }
    with open(HERE / "reference_times.json", "w", encoding="utf-8") as fh:
        fh.write('{\n "setup_s": %r,\n "ops": {\n' % pinned["setup_s"])
        fh.write(",\n".join(f"  {json.dumps(k)}: {v!r}" for k, v in pinned["ops"].items()))
        fh.write("\n }\n}\n")
    print(f"pinned set-up {pinned['setup_s']:.4f} s and {len(pinned['ops'])} op times")
    return 0


if __name__ == "__main__":
    sys.exit(main())
