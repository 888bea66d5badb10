"""Command-line front end.

    sobolev constant  --k 1 --weight poly:1
    sobolev minimizer --k 1 --weight dirac:1/2 --samples 201
    sobolev verify    --k 2 --weight poly:1
    sobolev sweep     --k 1 --param dirac --start 1/10 --stop 9/10 --step 1/10

``constant`` and ``verify`` emit JSON on stdout; ``minimizer`` and ``sweep``
emit CSV (comma separator, dot decimal point, LF line endings).  Exact
rationals are serialized as strings "p/q" so nothing is lost to binary
floating point.  Exit codes: 0 success, 2 input error, 3 solver error,
4 verification disagreement.

A config file named by the SOBOLEV_CONFIG environment variable may supply
``key=value`` defaults for mode, samples, galerkin_degree and grid; explicit
flags win over the file, the file wins over built-in defaults.

Every input is capped so that a run ends in bounded time and memory; a value
outside its range exits with code 2.  ``--k`` lies in 1..60,
``galerkin_degree`` in 0..512, ``samples`` in 2..100000, ``grid`` in
9..100000, a sweep has at most 1000 rows, a weight polynomial's degree
and every ``^`` exponent are at most 256 (``weights.MAX_DEGREE``), and the
bit lengths of weight rationals are capped (``weights.MAX_LITERAL_BITS``,
``weights.MAX_POLY_BITS``).

An exact mu past the float range is printed by ``constant`` with a null
``mu_float``; ``verify`` and ``sweep``, which need its float, exit 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .polynomials import pp_grid_values_exact
from .scalars import EXACT, FLOAT, ModeMismatchError, parse_rational
from .solver import ProblemSpec, SolverError, float_mu, solve
from .weights import (
    DiracWeight,
    IndicatorWeight,
    PolyWeight,
    PowerWeight,
    UnsupportedWeightError,
    WeightDomainError,
    WeightSyntaxError,
    format_weight,
    parse_weight,
)

_DEFAULTS = {"mode": None, "samples": 201, "galerkin_degree": 16, "grid": 199}
_CONFIG_KEYS = set(_DEFAULTS)
# caps that keep every run's time and memory bounded, each set from a
# measured time budget (README); with all at their caps, verify took 10 s
MAX_POINTS = 100_000  # minimizer samples and finite-difference grid nodes
MAX_K = 60  # constant takes 0.3-0.8 s for every weight kind at k = 60
MAX_GALERKIN_DEGREE = 512
MAX_SWEEP_ROWS = 1000

EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DISAGREE = 4

# only verify runs the oracles, so only verify loads them
_ORACLE_NAMES = ("galerkin_lambda", "sign_iteration", "max_principle_check")


def __getattr__(name):
    # perfbench/tracing.py patches these names here; cmd_verify calls them
    # as oracles.<name>, where the same patch reaches them
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _oracle_errors() -> tuple:
    """The oracles' solver errors besides ArithmeticErrors (such as
    IllConditionedError), once loaded: before that none was raised."""
    oracles = sys.modules.get(f"{__package__}.oracles")
    return (oracles.PositivityViolatedError,) if oracles else ()


def _load_config() -> dict:
    path = os.environ.get("SOBOLEV_CONFIG")
    if not path:
        return {}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"line {lineno}: unknown key {key!r}")
                values[key] = raw.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev",
        description="Sharp constants for weighted L1 -> H^k_0 inequalities on (0,1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_weight=True):
        p.add_argument("--k", type=int, required=True, help="derivative order k >= 1")
        if need_weight:
            p.add_argument("--weight", required=True, help="weight DSL text")
        p.add_argument("--mode", choices=["exact", "float"])
        p.add_argument("--samples", type=int)
        p.add_argument("--galerkin-degree", dest="galerkin_degree", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=["json", "csv"])

    common(sub.add_parser("constant", help="sharp constant and eigenvalue"))
    common(sub.add_parser("minimizer", help="sampled extremizer as CSV"))
    common(sub.add_parser("verify", help="pipeline vs independent oracles"))
    sweep = sub.add_parser("sweep", help="parameter family sweep as CSV")
    common(sweep, need_weight=False)
    sweep.add_argument(
        "--param",
        required=True,
        choices=["dirac", "indicator", "power"],
        help="family parameter: point-mass location, indicator half-width, "
        "or power exponent",
    )
    sweep.add_argument("--start", required=True, help="first parameter value")
    sweep.add_argument("--stop", required=True, help="last parameter value")
    sweep.add_argument("--step", required=True, help="parameter increment")
    sweep.add_argument("--center", default="1/2", help="indicator family center")
    return parser


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    fileconf = _load_config()
    for key, raw in fileconf.items():
        if key == "mode":
            if raw not in ("exact", "float"):
                raise ValueError(f"config mode must be exact or float, got {raw!r}")
            cfg[key] = raw
        else:
            cfg[key] = int(raw)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["samples"] < 2:
        raise ValueError("samples must be >= 2")
    if cfg["samples"] > MAX_POINTS:
        raise ValueError(f"samples must be <= {MAX_POINTS}")
    if args.k > MAX_K:
        raise ValueError(f"k must be <= {MAX_K}")
    if cfg["galerkin_degree"] < 0:
        raise ValueError("galerkin degree must be >= 0")
    if cfg["galerkin_degree"] > MAX_GALERKIN_DEGREE:
        raise ValueError(f"galerkin degree must be <= {MAX_GALERKIN_DEGREE}")
    if cfg["grid"] < 9:
        raise ValueError("grid must be >= 9")
    if cfg["grid"] > MAX_POINTS:
        raise ValueError(f"grid must be <= {MAX_POINTS}")
    return cfg


def _resolve_mode(cfg, rho) -> str:
    if cfg["mode"] is not None:
        return EXACT if cfg["mode"] == "exact" else FLOAT
    return EXACT if rho.exact_capable else FLOAT


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _require_format(args, expected: str):
    if args.format is not None and args.format != expected:
        raise ValueError(f"{args.command} output is {expected} only")


def _settings_and_solution(args, output_format: str):
    """The merged settings, and the solution for args.k and args.weight, in
    the order every single-weight command checks them.  parse_weight and
    solve are this module's globals, looked up at each call."""
    cfg = _merge_config(args)
    _require_format(args, output_format)
    rho = parse_weight(args.weight)
    return cfg, solve(ProblemSpec(args.k, rho, _resolve_mode(cfg, rho)))


def _float_mu(mu) -> float | None:
    """float(mu), or None for an exact mu past the float range."""
    try:
        return float(mu)
    except OverflowError:
        return None


def _solution_json(solution) -> dict:
    diags = solution.diagnostics
    return {
        "k": solution.spec.k,
        "weight": format_weight(solution.spec.rho),
        "mode": solution.spec.mode,
        "mu_exact": solution.mu_string(),
        "mu_float": _float_mu(solution.mu),
        "lambda": solution.lam,
        "method": solution.method,
        "outside_theorem_scope": solution.spec.rho.outside_theorem_scope,
        "diagnostics": {
            "boundary_residual": diags.boundary_residual,
            "normalization_residual": diags.normalization_residual,
            "min_interior_value": diags.min_interior_value,
            "positivity_certified": diags.positivity_certified,
            "closed_form_mu_checked": diags.closed_form_mu_checked,
            "pointload_candidate_deviation": diags.pointload_candidate_deviation,
        },
    }


def _fmt(value: float) -> str:
    if value == 0.0:
        value = 0.0  # avoid the "-0" rendering
    return f"{value:.17g}"


def cmd_constant(args) -> int:
    _, solution = _settings_and_solution(args, "json")
    _emit(json.dumps(_solution_json(solution), allow_nan=False) + "\n", args.out)
    return 0


def cmd_minimizer(args) -> int:
    cfg, solution = _settings_and_solution(args, "csv")
    n = cfg["samples"]

    def column(rep, eval_float):
        # exact representations are evaluated at the exact rational sample
        # points, so boundary rows print as exact zeros
        if getattr(rep, "mode", None) == EXACT:
            return pp_grid_values_exact(rep, n - 1)
        return [eval_float(i / (n - 1)) for i in range(n)]

    u = column(solution.u, solution.eval_u)
    u_k = column(solution.u_k, solution.eval_u_k)
    lines = ["x,u,u_k"]
    for i in range(n):
        lines.append(f"{_fmt(i / (n - 1))},{_fmt(u[i])},{_fmt(u_k[i])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from . import oracles

    cfg, solution = _settings_and_solution(args, "json")
    spec, rho = solution.spec, solution.spec.rho
    mu = float_mu(solution.mu)

    # Galerkin lower bound; exact arithmetic whenever the load vector is exact
    degree = cfg["galerkin_degree"]
    if isinstance(rho, PolyWeight):
        degree = max(degree, rho.poly.degree + spec.k)
    gal = oracles.galerkin_lambda(spec, oracles.GalerkinConfig(degree, EXACT))
    gal_sq = gal.details["lambda_sq"]
    # exact gaps; in float mode mu_q is the exact value of the rounded mu
    mu_q, lam_sq = Fraction(solution.mu), gal.details["lambda_sq_exact"]
    gap = float(1 / mu_q - lam_sq)
    rel_gap = float(1 - mu_q * lam_sq)
    gal_ok = rel_gap >= -1e-10  # a valid lower bound never overshoots
    if isinstance(rho, PolyWeight):
        gal_ok = gal_ok and abs(rel_gap) <= 1e-8  # minimizer lies in the span

    sign_section = None
    sign_ok = True
    if spec.k in (1, 2):
        report = oracles.sign_iteration(spec, n=cfg["grid"])
        mu_h = report.details["mu_h"]
        sign_ok = bool(
            report.sign_definite and abs(mu_h - mu) / mu <= 0.05
        )
        sign_section = {
            "grid": cfg["grid"],
            "mu_h": mu_h,
            "sign_definite": report.sign_definite,
            "within_5pct": abs(mu_h - mu) / mu <= 0.05,
        }

    mp_section = "skipped"
    mp_ok = True
    try:
        oracles.max_principle_check(spec.k, rho, n=cfg["grid"])
        mp_section = "pass"
    except oracles.PositivityViolatedError:
        mp_section = "fail"
        mp_ok = False
    except UnsupportedWeightError:
        mp_section = "skipped"

    verdict = "agree" if (gal_ok and sign_ok and mp_ok) else "disagree"
    doc = {
        "k": spec.k,
        "weight": format_weight(rho),
        "pipeline_mu": mu,
        "pipeline_mu_exact": solution.mu_string(),
        "galerkin": {
            "N": degree,
            "lambda_sq": gal_sq,
            "gap": gap,
            "relative_gap": rel_gap,
        },
        "sign_iteration": sign_section,
        "max_principle": mp_section,
        "verdict": verdict,
    }
    _emit(json.dumps(doc, allow_nan=False) + "\n", args.out)
    return 0 if verdict == "agree" else EXIT_DISAGREE


def _sweep_values(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = (start, stop) if start <= stop else (stop, start)
    rows = (hi - lo) // step + 1
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep has {rows} rows, at most {MAX_SWEEP_ROWS}")
    return [lo + i * step for i in range(rows)]


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    _require_format(args, "csv")
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    step = parse_rational(args.step)
    center = parse_rational(args.center)
    rows = []
    for value in _sweep_values(start, stop, step):
        if args.param == "dirac":
            rho = DiracWeight(value)
        elif args.param == "indicator":
            rho = IndicatorWeight(center - value, center + value)
        else:
            rho = PowerWeight(value)
        mode = _resolve_mode(cfg, rho)
        solution = solve(ProblemSpec(args.k, rho, mode))
        rows.append((value, float_mu(solution.mu), solution.lam))
    lines = ["param,mu,lambda"]
    for value, mu, lam in rows:
        lines.append(f"{_fmt(float(value))},{_fmt(mu)},{_fmt(lam)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "constant": cmd_constant,
    "minimizer": cmd_minimizer,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        WeightSyntaxError,
        WeightDomainError,
        UnsupportedWeightError,
        ModeMismatchError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, ArithmeticError, *_oracle_errors()) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
