"""Per-layer spans and counters, recorded by wrapping the program from outside.

`Tracer.install()` replaces each layer function named below in every
`artifact` module namespace that binds it (a name imported with `from .x
import f` is a second binding), and the two `RankTracker` methods on the
class.  Generator layers are timed across each `__next__`, because their
work happens while the caller iterates, not when they are called.

Each span is (name, start, end, parent span, op index) and stays in
memory until `write_spans`.  Start and end are the process's CPU time, so
a worker that shares its CPU with another still measures only its own
work.  A span's self time is its duration minus the time its child spans
cover, so the self times of all spans plus the time outside any span add
up to the traced ops' CPU time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# (module, function, kind): "call" spans the call, "gen" spans each
# __next__ of the returned generator.
SPANS = (
    ("cli", "main", "call"),
    ("weights", "instance_by_label", "call"),
    ("tableau_a", "enumerate_standard", "gen"),
    ("tableau_b", "enumerate_standard_b", "gen"),
    ("plucker", "straighten", "call"),
    ("plucker", "eval_on_matrix", "call"),
    ("plucker", "seeded_matrices", "call"),
    ("graphs", "two_factorize", "call"),
    ("graphs", "one_factorize_bipartite", "call"),
    ("extract", "extract_degree_one", "call"),
    ("extract", "degree_one_basis", "call"),
    ("verifier", "check_generation", "call"),
    ("verifier", "check_typeB_factorization", "call"),
    ("verifier", "validate_certificate", "call"),
    ("verifier", "check_duality", "call"),
)
METHODS = (("linalg", "RankTracker", "add"), ("linalg", "RankTracker", "exact"))
# Functions that only mark which extraction route ran; their time stays
# with the enclosing extract_degree_one span.
ROUTE_MARKERS = (("extract", "rebalance_loops", "graph"), ("verifier", "factor_by_linear_algebra", "linalg"))
CALL_COUNTS = (
    "tableau_a.enumerate_standard", "tableau_b.enumerate_standard_b",
    "plucker.straighten", "plucker.eval_on_matrix",
    "linalg.RankTracker.add", "linalg.RankTracker.exact",
    "graphs.two_factorize", "graphs.one_factorize_bipartite",
    "extract.extract_degree_one", "extract.degree_one_basis",
    "weights.instance_by_label",
)


def _rebind(original, replacement) -> None:
    """Point every artifact namespace binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "artifact" and not name.startswith("artifact."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _TracedIter:
    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer: "Tracer", name: str):
        self._it, self._tracer, self._name = it, tracer, name

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = next(self._it)
        finally:
            tracer.exit()
        tracer.counts[self._name + ".items"] += 1
        return item


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[list] = []  # [name, span index, start, child time]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.routes: list[set] = []
        self.op = -1

    def enter(self, name: str) -> None:
        self.stack.append([name, len(self.spans), time.process_time(), 0.0])
        self.spans.append(None)

    def exit(self) -> None:
        end = time.process_time()
        name, index, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][1]
        name_id = self.names.setdefault(name, len(self.names))
        self.spans[index] = (name_id, start, end, parent, self.op)

    def _call(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _gen(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return _TracedIter(fn(*args, **kwargs), self, name)

        return wrapper

    def install(self) -> None:
        import artifact.cli  # noqa: F401  (binds the CLI's names too)
        import artifact.formats as formats
        import artifact.linalg as linalg

        on_result = {
            "plucker.straighten": self._straightened,
            "linalg.RankTracker.add": self._rank_added,
        }
        for module, attr, kind in SPANS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules[f"artifact.{module}"], attr)
            if kind == "gen":
                traced = self._gen(name, original)
            else:
                traced = self._call(name, original, on_result.get(name))
            if name == "extract.extract_degree_one":
                traced = self._routed(traced)
            _rebind(original, traced)
        for attr, fn in list(vars(formats).items()):
            if callable(fn) and getattr(fn, "__module__", None) == formats.__name__ and not attr.startswith("_") and not isinstance(fn, type):
                _rebind(fn, self._call(f"formats.{attr}", fn))
        for module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"artifact.{module}"], cls_name)
            name = f"{module}.{cls_name}.{attr}"
            setattr(cls, attr, self._call(name, getattr(cls, attr), on_result.get(name)))
        for module, attr, route in ROUTE_MARKERS:
            original = getattr(sys.modules[f"artifact.{module}"], attr)
            _rebind(original, self._marker(route, original))
        bareiss = linalg._rank_exact

        def counted_rank_exact(rows):
            self.counts["linalg.bareiss_recounts"] += 1
            return bareiss(rows)

        linalg._rank_exact = counted_rank_exact

    def _straightened(self, poly) -> None:
        self.counts["plucker.straighten.terms_out"] += len(poly.terms)
        if self.stack and self.stack[-1][0] == "verifier.check_generation":
            self.counts["verifier.products"] += 1

    def _rank_added(self, raised: bool) -> None:
        self.counts["linalg.rank_rows_useful"] += bool(raised)

    def _routed(self, fn):
        """Count each extraction under the route whose marker fired in it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.routes.append(set())
            try:
                return fn(*args, **kwargs)
            finally:
                ran = self.routes.pop()
                route = "linalg" if "linalg" in ran else "graph" if "graph" in ran else "divide"
                self.counts[f"extract.route.{route}"] += 1

        return wrapper

    def _marker(self, route: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.routes:
                self.routes[-1].add(route)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the ops traced so far."""
        import artifact.plucker as plucker

        out: dict = {}
        for module, attr, _ in SPANS:
            out[f"{module}.{attr}.self_s"] = self.self_s[f"{module}.{attr}"]
        for module, cls_name, attr in METHODS:
            out[f"{module}.{cls_name}.{attr}.self_s"] = self.self_s[f"{module}.{cls_name}.{attr}"]
        out["formats.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith("formats."))
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
        out["tableau_a.tableaux"] = self.counts["tableau_a.enumerate_standard.items"]
        out["tableau_b.tableaux"] = self.counts["tableau_b.enumerate_standard_b.items"]
        out["plucker.straighten.terms_out"] = self.counts["plucker.straighten.terms_out"]
        out["plucker.rewrite_cache.entries"] = len(plucker._REWRITE_CACHE)
        added = self.counts["linalg.RankTracker.add.calls"]
        useful = self.counts["linalg.rank_rows_useful"]
        out["linalg.rank_rows_useful"] = useful
        out["linalg.rank_useful_ratio"] = useful / added if added else 0.0
        out["linalg.bareiss_recounts"] = self.counts["linalg.bareiss_recounts"]
        out["verifier.products"] = self.counts["verifier.products"]
        for route in ("divide", "graph", "linalg"):
            out[f"extract.route.{route}"] = self.counts[f"extract.route.{route}"]
        out["unattributed_s"] = wall_s - sum(self.self_s.values())
        out["trace.wall_s"] = wall_s
        return out

    def write_spans(self, path: str) -> None:
        """Spans as gzipped JSON: name table, then [name, start, end, parent, op] rows."""
        names = sorted(self.names, key=self.names.get)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": self.spans}, fh, separators=(",", ":"))

