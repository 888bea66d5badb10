"""The benchmark's traced run patches library names in place.

perfbench/tracing.py lists (module, attribute) lookup sites in ``WRAPPED``
and replaces each with a timing wrapper.  A renamed or deleted stage would
make ``perfbench/run.py --trace 1`` fail with an AttributeError, and a stage
that ``solve`` reached by another name would silently drop out of the trace.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from sobolev1d import solver
from sobolev1d.solver import ProblemSpec, solve
from sobolev1d.weights import parse_weight

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_traced_name_resolves():
    for module, attr, _span in _wrapped():
        target = getattr(importlib.import_module("sobolev1d." + module), attr)
        assert callable(target), (module, attr)


def test_solve_calls_its_stages_through_module_globals(monkeypatch):
    # every traced solver name except quad_numeric, pp_min_on_grid and
    # pp_positive_on_open01, which no solve calls, is reached through the
    # module global that the tracer patches; a first-order point mass
    # touches all of them (closed form, pp_equal)
    names = {attr for module, attr, _span in _wrapped() if module == "solver"}
    names -= {"solve", "quad_numeric", "pp_min_on_grid", "pp_positive_on_open01"}
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
    solve(ProblemSpec(1, parse_weight("dirac:1/3")))
    assert called == names
