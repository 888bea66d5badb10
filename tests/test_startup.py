"""Start-up cost: a process loads only the modules its work runs.

``import sobolev1d`` and the solving subcommands leave the oracles and the
quadrature module unloaded, and no process loads ``dataclasses``; the
package still offers every public name, resolving the lazy ones on first
access.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobolev1d

LAZY = ("sobolev1d.oracles", "sobolev1d.quadrature")


# runs ARGV as ``python -m sobolev1d.cli`` does, then lists sys.modules
CHILD = """
import runpy, sys
argv = sys.argv[1:]
if argv:
    sys.argv = ["sobolev", *argv]
    try:
        runpy.run_module("sobolev1d.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import sobolev1d
sys.stderr.write("\\n".join(sys.modules))
"""


def _run_python(script: str, *argv) -> subprocess.CompletedProcess:
    """``python -c SCRIPT ARGV`` in a fresh interpreter that finds ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SOBOLEV_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported(*argv) -> set:
    """sys.modules of a fresh interpreter after ``python -m sobolev1d.cli
    ARGV``, or after ``import sobolev1d`` alone."""
    return set(_run_python(CHILD, *argv).stderr.split("\n"))


def test_import_loads_no_oracle_or_quadrature():
    loaded = _imported()
    assert "sobolev1d.solver" in loaded
    assert not loaded & set(LAZY)


@pytest.mark.parametrize(
    "argv",
    [
        ("constant", "--k", "2", "--weight", "chi:1/4,3/4"),
        ("minimizer", "--k", "1", "--weight", "pw:[0,1/2]=1;[1/2,1]=x", "--samples", "5"),
        ("sweep", "--k", "1", "--param", "power", "--start", "0", "--stop", "1/2",
         "--step", "1/4"),
    ],
    ids=lambda argv: argv[0],
)
def test_solving_subcommands_load_no_oracle_or_quadrature(argv):
    loaded = _imported(*argv)
    assert "sobolev1d.solver" in loaded
    assert not loaded & set(LAZY)


def test_no_dataclasses_or_inspect_beyond_a_bare_interpreter():
    # the value records are built without dataclasses (and the inspect module
    # it loads); compared with a bare interpreter, whose site may load either
    bare = _run_python("import sys; sys.stderr.write('\\n'.join(sys.modules))")
    heavy = {"dataclasses", "inspect"} - set(bare.stderr.split("\n"))
    assert not _imported() & heavy
    assert not _imported("constant", "--k", "2", "--weight", "poly:1") & heavy


def test_verify_loads_the_oracles_only():
    loaded = _imported("verify", "--k", "2", "--weight", "poly:1 + x")
    assert "sobolev1d.oracles" in loaded
    assert "sobolev1d.quadrature" not in loaded  # no oracle integrates numerically


def test_every_public_name_resolves():
    for name in sobolev1d.__all__:
        assert getattr(sobolev1d, name) is not None, name
    namespace = {}
    exec("from sobolev1d import *", namespace)
    assert set(sobolev1d.__all__) <= set(namespace)
    from sobolev1d import oracles, quadrature

    assert sobolev1d.galerkin_lambda is oracles.galerkin_lambda
    assert sobolev1d.quad_numeric is quadrature.quad_numeric
    assert sobolev1d.oracles is oracles and sobolev1d.quadrature is quadrature
    with pytest.raises(AttributeError):
        sobolev1d.no_such_name


def test_tracer_names_resolve_on_first_access():
    # perfbench/tracing.py patches these lookup sites; each resolves before
    # the module defining it is loaded, to that module's object, in a fresh
    # interpreter (here other tests have loaded and patched modules)
    script = """
import sys
from sobolev1d import cli, solver
assert "sobolev1d.oracles" not in sys.modules
assert "sobolev1d.quadrature" not in sys.modules
first = cli.galerkin_lambda
from sobolev1d import oracles, polynomials
assert first is oracles.galerkin_lambda
assert cli.sign_iteration is oracles.sign_iteration
assert cli.max_principle_check is oracles.max_principle_check
assert "sobolev1d.quadrature" not in sys.modules
first = solver.quad_numeric
from sobolev1d import quadrature
assert first is quadrature.quad_numeric
assert oracles.quad_numeric is quadrature.quad_numeric
assert solver.pp_min_on_grid is polynomials.pp_min_on_grid
for module in (cli, solver, oracles):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(module)
"""
    _run_python(script)
