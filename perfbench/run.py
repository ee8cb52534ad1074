"""Benchmark entry point: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload generation --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --selftest

Run from the checkout root.  Each repetition of the op list runs in fresh
worker interpreters (perfbench/worker.py), since a CLI user pays for the
import and cold module caches on every call.  Repetitions continue while
the next one fits in --seconds (at least one).

With --trace 0 a repetition runs two workers side by side: the program
under test (src/) and the frozen reference copy (perfbench/reference/).
Both are pinned to one CPU and run each op at the same time, so both see
the same machine speed.  Each time is reported at reference speed: the
program's CPU time divided by the reference copy's on the same op, times
the reference copy's time pinned in perfbench/reference_times.json.  The
last stdout line carries the end-to-end metrics (medians over
repetitions).  With --trace 1 the two workers are the program untraced
and traced, run the same way, and the line carries the per-layer metrics
(in CPU seconds) of the traced repetition with the median CPU time.

Metric names and units come from BENCHMARK.json.  The resolved op list,
every raw sample and every failed check of a run go to
perfbench/out/<workload>-seed<seed>-trace<t>.json, the spans of the
reported traced repetition to perfbench/out/spans-<workload>-seed<seed>.json.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_ops, check_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROGRAM = "src"
REFERENCE = "perfbench/reference"
SETUP_PAIRS = 5  # set-up-only worker pairs per run, besides one per repetition
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Worker:
    """One worker interpreter over a line protocol; see worker.py."""

    def __init__(self, source: str, trace: bool, deadline: float, cpu: int | None):
        self.source = source
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), source] + (["--trace"] if trace else []),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )

    def wait_ready(self) -> None:
        """Set-up time: the CPU time the worker used until it was ready."""
        ready = self._readline().split()
        if len(ready) != 2 or ready[0] != b"ready":
            self.close(kill=True)
            raise BenchError(f"worker for {self.source} failed during set-up")
        self.setup_cpu_s = float(ready[1])

    def _readline(self) -> bytes:
        if not select.select([self.proc.stdout], [], [], max(0.0, self.deadline - time.perf_counter()))[0]:
            self.close(kill=True)
            raise BenchError("worker ran past the run limit")
        return self.proc.stdout.readline()

    def send(self, request: dict) -> None:
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # reported by answer() as a missing answer

    def answer(self) -> dict:
        line = self._readline()
        if not line:
            self.close(kill=True)
            raise BenchError(f"worker for {self.source} exited with code {self.proc.returncode}")
        return json.loads(line)

    def close(self, kill: bool = False) -> None:
        """Wait for the worker to exit (it does once stdin closes), or kill it."""
        if not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=0 if kill else max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def shared_cpu() -> int | None:
    """The CPU both workers of a pair share, or None if affinity is unavailable."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def side_by_side(sides: tuple[tuple[str, bool], tuple[str, bool]], ops: list[dict], rep: int,
                 deadline: float, spans: str | None = None) -> list[dict]:
    """Run the op list once on a fresh worker for each of two sides.

    Both workers are pinned to one CPU and get each op at the same moment,
    so the scheduler switches between them every few milliseconds and both
    see the same machine speed; their CPU times are what compares.  Which
    side is started and sent each op first alternates with the op and the
    repetition.  Returns one report per side: set-up CPU time, per-op
    results, peak RSS and, when traced, the per-layer metrics.
    """
    order = [rep % 2, (rep + 1) % 2]
    cpu = shared_cpu()
    workers: dict[int, Worker] = {}
    try:
        for k in order:
            workers[k] = Worker(*sides[k], deadline, cpu)
        for k in order:
            workers[k].wait_ready()
        results: list[list[dict]] = [[], []]
        for i, op in enumerate(ops):
            turn = order[i % 2:] + order[:i % 2]
            for k in turn:
                workers[k].send({"op": i, "argv": op["argv"]})
            for k in turn:
                results[k].append(workers[k].answer())
        reports = []
        for k in (0, 1):
            workers[k].send({"end": True, "spans": spans if sides[k][1] else None})
            end = workers[k].answer()
            workers[k].close()
            reports.append(dict(end, setup_cpu_s=workers[k].setup_cpu_s, ops=results[k]))
    except BaseException:
        for worker in workers.values():
            worker.close(kill=True)
        raise
    for worker in workers.values():
        if worker.proc.returncode != 0:
            raise BenchError(f"worker for {worker.source} exited with code {worker.proc.returncode}")
    return reports


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def reference_times() -> dict:
    with open(HERE / "reference_times.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, ops: list[dict]) -> dict:
    """Repeat the op list on fresh workers for about `seconds`; one run record."""
    start = time.perf_counter()
    stop = start + seconds
    deadline = start + RUN_LIMIT_S
    check_rng = random.Random(f"perfbench-check-{seed}")
    failures: list[dict] = []
    attempted = 0

    def checked(report: dict, rep: int, traced: bool) -> dict:
        nonlocal attempted
        attempted += len(ops)
        for op, result in zip(ops, report["ops"], strict=True):
            problems = check_op(op, result, check_rng)
            if problems:
                failures.append({"rep": rep, "traced": traced, "op": op["id"], "problems": problems})
        return report

    def next_fits(durations: list[float]) -> bool:
        return not durations or time.perf_counter() + statistics.median(durations) <= stop

    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops]}
    durations: list[float] = []
    if not trace:
        pinned = reference_times()
        pinned_ops = [pinned["ops"][op["id"]] for op in ops]
        sides = ((PROGRAM, False), (REFERENCE, False))
        side_by_side(sides, [], 0, deadline)  # uncounted: compiles bytecode on a fresh checkout
        pairs = [side_by_side(sides, [], j, deadline) for j in range(SETUP_PAIRS)]
        reps = []
        while next_fits(durations):
            began = time.perf_counter()
            prog, ref = side_by_side(sides, ops, len(reps), deadline)
            for op, result in zip(ops, ref["ops"]):
                if result["exc"] is not None:
                    raise BenchError(f"reference copy raised on {op['id']}: {result['exc'][-300:]}")
            reps.append((checked(prog, len(reps), False), ref))
            pairs.append((prog, ref))
            durations.append(time.perf_counter() - began)

        def lat(report: dict, i: int) -> float:
            return report["ops"][i]["cpu_s"]

        def total(report: dict) -> float:
            return sum(op["cpu_s"] for op in report["ops"])

        # each op's time at reference speed is its median over the
        # repetitions of program / reference, times the pinned reference
        # time; the percentiles are taken across the op list
        per_op = [pinned_ops[i] * statistics.median(lat(p, i) / lat(r, i) for p, r in reps)
                  for i in range(len(ops))]
        metrics = {
            "setup_s": pinned["setup_s"] * statistics.median(p["setup_cpu_s"] / r["setup_cpu_s"] for p, r in pairs),
            "wall_s": sum(pinned_ops) * statistics.median(total(p) / total(r) for p, r in reps),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p95_ms": 1000 * p95(per_op),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p, _ in reps),
        }
        record["raw"] = {
            "setup_cpu_s": statistics.median(p["setup_cpu_s"] for p, _ in pairs),
            "program_cpu_s": statistics.median(total(p) for p, _ in reps),
            "reference_cpu_s": statistics.median(total(r) for _, r in reps),
        }
        # [program, reference] CPU seconds of each set-up pair and of each op
        record["samples"] = {
            "setup_s": [[p["setup_cpu_s"], r["setup_cpu_s"]] for p, r in pairs],
            "reps": [{"peak_rss_mb": p["peak_rss_mb"],
                      "cpu_s": [[lat(p, i), lat(r, i)] for i in range(len(ops))]} for p, r in reps],
        }
    else:
        sides = ((PROGRAM, False), (PROGRAM, True))
        plain, traced = [], []
        while next_fits(durations):
            began = time.perf_counter()
            spans = OUT / f"spans-{workload}-seed{seed}-rep{len(traced)}.json.gz"
            untraced_rep, traced_rep = side_by_side(sides, ops, len(traced), deadline, str(spans))
            plain.append(checked(untraced_rep, len(plain), False))
            traced.append(checked(traced_rep, len(traced), True))
            durations.append(time.perf_counter() - began)
        cpu = [r["layers"]["trace.wall_s"] for r in traced]
        order = sorted(range(len(traced)), key=cpu.__getitem__)
        chosen = order[(len(order) - 1) // 2]
        for i in range(len(traced)):
            spans = OUT / f"spans-{workload}-seed{seed}-rep{i}.json.gz"
            if i == chosen:
                spans.replace(OUT / f"spans-{workload}-seed{seed}.json.gz")
            else:
                spans.unlink()
        metrics = dict(traced[chosen]["layers"])
        untraced_cpu = [sum(op["cpu_s"] for op in p["ops"]) for p in plain]
        # traced over untraced CPU time of the same ops, run at the same time
        metrics["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(cpu, untraced_cpu)) - 1
        record["samples"] = {"untraced_cpu_s": untraced_cpu, "traced_cpu_s": cpu, "reported_rep": chosen}
    record.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures, elapsed_s=time.perf_counter() - start)
    record["fail_rate"] = record["failed"] / record["attempted"]
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The contract's last line: declared metrics only, with their units."""
    units = declared_metrics(trace)
    missing = set(units) - set(record["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def summarize(record: dict, line: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(record['ops'])} ops per repetition, {record['attempted']} attempted, "
          f"{record['failed']} failed (fail_rate {record['fail_rate']:g})")
    for name, metric in line["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if "raw" in record:
        raw = record["raw"]
        print(f"times above are at reference speed; op latency: median of {len(record['samples']['reps'])} "
              f"repetitions for each of {len(record['ops'])} ops; set-up pairs: {len(record['samples']['setup_s'])}")
        print(f"raw CPU-time medians on this machine: set-up {raw['setup_cpu_s']:.4g} s, "
              f"op list {raw['program_cpu_s']:.4g} s (reference copy {raw['reference_cpu_s']:.4g} s)")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure['op']} (rep {failure['rep']}): {'; '.join(failure['problems'])[:300]}")


def selftest() -> int:
    """One-op slice of each workload, untraced and traced, against the contract."""
    for workload in WORKLOADS:
        ops = build_ops(workload, 1)[:1]
        for trace in (False, True):
            record = measure(workload, 1, 1, trace, ops)
            line = result_line(record, trace)
            summarize(record, line)
            if not line["correct"]:
                raise BenchError(f"{workload} slice failed its checks")
            if not all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                raise BenchError("non-numeric metric")
            if trace:
                metrics = record["metrics"]
                parts = sum(v for k, v in metrics.items() if k.endswith(".self_s")) + metrics["unattributed_s"]
                if abs(parts - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
                    raise BenchError(f"{workload}: self times add up to {parts}, not {metrics['trace.wall_s']}")
    print("selftest ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        trace = bool(args.trace)
        lines = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            record = measure(workload, args.seed, args.seconds, trace, build_ops(workload, args.seed))
            lines[workload] = result_line(record, trace)
            summarize(record, lines[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
