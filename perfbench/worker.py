"""One fresh interpreter: set a copy of the program up, then run ops on request.

    python3 perfbench/worker.py <source dir> [--trace]
    (spawned by run.py from the checkout root)

<source dir> is `src` for the program under test or `perfbench/reference`
for the frozen reference copy; `artifact` is imported from there and from
nowhere else.  Prints `ready` once `import artifact`, the CLI import and
the first `instance_by_label` (which loads the catalog) have finished.
It prints the CPU time the process has used so far on the same line.
Then reads one JSON request per stdin line and answers each with one JSON
line:

- {"op": i, "argv": [...]} runs the op through `artifact.cli.main` with
  stdout and stderr captured, and answers its exit code, stdout,
  exception, latency and CPU time;
- {"end": true, "spans": path or null} answers the process's peak RSS
  and, when traced, the per-layer metrics over all ops run (in CPU
  seconds), writes the spans to `path`, and exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def set_up(source: Path):
    sys.path.insert(0, str(source))
    import artifact
    import artifact.cli
    from artifact.weights import instance_by_label

    if not Path(artifact.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"imported artifact from {artifact.__file__}, not {source}")
    instance_by_label("g24")
    return artifact.cli


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as stop:  # argparse rejects the command line
        rc = stop.code
    except Exception:  # an op that raises fails; the run goes on
        exc = traceback.format_exc()
    latency = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    return {"rc": rc, "out": out.getvalue(), "exc": exc, "latency_s": latency, "cpu_s": cpu}


def main() -> int:
    cli = set_up((ROOT / sys.argv[1]).resolve())
    print(f"ready {time.process_time()!r}", flush=True)  # CPU time since the process began
    tracer = None
    if "--trace" in sys.argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_total = 0.0
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            if tracer is not None:
                report["layers"] = tracer.summary(cpu_total)
                if request.get("spans"):
                    tracer.write_spans(request["spans"])
            print(json.dumps(report), flush=True)
            return 0
        if tracer is not None:
            tracer.op = request["op"]
        result = run_op(cli, request["argv"])
        cpu_total += result["cpu_s"]
        print(json.dumps(result), flush=True)
    return 1  # stdin closed before the end request


if __name__ == "__main__":
    sys.exit(main())
