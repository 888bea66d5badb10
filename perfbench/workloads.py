"""Operations of the four workloads, their warm-up and their gate.

In-process operations look every library entry point up as a module attribute
at call time (``solver.solve``, not a name bound at import), so the traced run
sees them through the wrappers that :mod:`tracing` installs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import gate
from inputs import EXACT, Op, Rho

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BOOTSTRAP = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 120
SIGN_GRID = 199


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SOBOLEV_CONFIG", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """One Python child, waited for; killed if it outlives the timeout."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# -- operations ---------------------------------------------------------------


def do_solve(op: Op) -> dict:
    from sobolev1d import solver, weights

    rho = weights.parse_weight(op.rho.dsl)
    s = solver.solve(solver.ProblemSpec(op.k, rho, op.mode))
    return {"mu": s.mu, "u": s.u}


def do_verify(op: Op) -> dict:
    from sobolev1d import oracles, solver, weights

    rho = weights.parse_weight(op.rho.dsl)
    spec = solver.ProblemSpec(op.k, rho)
    s = solver.solve(spec)
    gal = oracles.galerkin_lambda(spec, oracles.GalerkinConfig(op.galerkin_degree))
    sign_definite = None
    if op.k <= 2:
        report = oracles.sign_iteration(spec, n=SIGN_GRID, seed=op.sign_seed)
        sign_definite = report.sign_definite
    try:
        oracles.max_principle_check(op.k, rho, n=SIGN_GRID)
        mp = "pass"
    except oracles.PositivityViolatedError:
        mp = "fail"
    except weights.UnsupportedWeightError:
        mp = "skipped"
    return {
        "mu": s.mu,
        "u": s.u,
        "lambda_sq": gal.details["lambda_sq_exact"],
        "sign_definite": sign_definite,
        "mp": mp,
    }


def do_cli(op: Op, spans_path: str | None = None) -> dict:
    if spans_path is None:
        argv = ["-m", "sobolev1d.cli", *op.argv]
    else:
        argv = [str(BOOTSTRAP), spans_path, *op.argv]
    proc = run_child(argv)
    return {"returncode": proc.returncode, "stdout": proc.stdout}


def run_op(op: Op) -> dict:
    if op.action == "solve":
        return do_solve(op)
    if op.action == "verify":
        return do_verify(op)
    return do_cli(op)


def warm_up(workload: str) -> None:
    """Touch every code path once on small inputs before timing."""
    if workload == "cli":
        proc = run_child(["-m", "sobolev1d.cli", "constant", "--k", "1", "--weight", "poly:1"])
        if proc.returncode != 0:
            raise RuntimeError(f"CLI warm-up failed: {proc.stderr.strip()}")
        return
    from sobolev1d import oracles, solver, weights

    for dsl in ("poly:1 + x", "pw:[0,1/2]=1;[1/2,1]=x", "chi:1/4,3/4", "dirac:1/3"):
        spec = solver.ProblemSpec(2, weights.parse_weight(dsl))
        solver.solve(spec)
        if workload == "verify":
            oracles.galerkin_lambda(spec, oracles.GalerkinConfig(4))
    solver.solve(solver.ProblemSpec(1, weights.parse_weight("pow:1/2"), "float"))
    if workload == "verify":
        spec = solver.ProblemSpec(2, weights.parse_weight("poly:1 + x"))
        oracles.sign_iteration(spec, n=SIGN_GRID, seed=0)
        oracles.max_principle_check(2, spec.rho, n=SIGN_GRID)


# -- gate -------------------------------------------------------------------------


class References:
    """Exact mu per (weight, k), each gate-checked once and then reused."""

    def __init__(self):
        self.cache: dict[tuple[str, int], F] = {}

    def mu(self, rho: Rho, k: int) -> F:
        key = (rho.dsl, k)
        if key not in self.cache:
            if rho.kind == "pow":
                self.cache[key] = gate.pow_mu(k, rho.alpha)
            else:
                result = do_solve(Op("reference", "solve", k, rho, EXACT))
                gate.check_exact(k, rho, result["mu"], result["u"])
                self.cache[key] = result["mu"]
        return self.cache[key]


def check(op: Op, result: dict, refs: References, perturb=None) -> None:
    """Raise gate.GateError unless the operation's output is correct.

    ``perturb`` maps the returned mu to a wrong one; the self-test uses it to
    show the gate rejects a mu that is off by one part in 10^6.
    """
    if op.action == "cli":
        parsed = gate.parse_cli(op, result["returncode"], result["stdout"])
        mu = parsed["mu"]
        if mu is None:
            return
        if perturb is not None:
            mu = [perturb(m) for m in mu] if isinstance(mu, list) else perturb(mu)
        if op.argv[0] == "sweep":
            reference = [refs.mu(rho, op.k) for _value, rho, _mode in op.sweep]
        else:
            reference = refs.mu(op.rho, op.k)
        gate.check_cli(op, mu, reference)
        return
    mu = result["mu"] if perturb is None else perturb(result["mu"])
    if op.mode == EXACT:
        gate.check_exact(op.k, op.rho, mu, result["u"])
        refs.cache.setdefault((op.rho.dsl, op.k), mu)
    else:
        gate.check_close(mu, refs.mu(op.rho, op.k))
    if op.action == "verify":
        gate.check_verify(op.rho, mu, result["lambda_sq"], result["sign_definite"], result["mp"])


def perturb_mu(mu):
    """mu times (1 + 10^-6), exactly for rationals."""
    if isinstance(mu, F):
        return mu * F(1_000_001, 1_000_000)
    return mu * (1 + 1e-6)
