"""The program names the benchmark binds from outside must keep resolving.

``perfbench/tracer.py`` wraps layer functions by module and name, and
``perfbench/pin.py`` imports a few more; a rename on the program side would
otherwise surface only in the benchmark's own self-test.  The tracer is
loaded by path and never installed, so nothing is rebound here.
"""

import importlib.util
from pathlib import Path

import pytest

from artifact.plucker import PluckerMonomial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
BOUND = (
    [(module, attr) for module, attr, _ in TRACER.SPANS + TRACER.ROUTE_MARKERS]
    + [("linalg", "_rank_exact"), ("plucker", "_REWRITE_CACHE")]
    + [("extract", "degree_one_basis"), ("verifier", "basis_monomials")]
)


@pytest.mark.parametrize("module, attr", BOUND)
def test_module_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"artifact.{module}"), attr)


@pytest.mark.parametrize("module, cls, attr", TRACER.METHODS)
def test_method_resolves(module, cls, attr):
    assert callable(getattr(getattr(importlib.import_module(f"artifact.{module}"), cls), attr))


def test_pin_divisibility_method_resolves():
    assert callable(PluckerMonomial.divides)
