"""sobolev1d benchmark: seeded closed-loop workloads, gated on every operation.

    python3 perfbench/run.py --workload solve-lowk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10            # every workload
    python3 perfbench/run.py --workload all --seconds 10 --trace 1  # per-module metrics
    python3 perfbench/run.py --selftest                             # gate rejects a wrong mu

Run from the repository root; the package is loaded from ``src`` (it need not
be installed).  One client runs one operation at a time and starts the next
when it returns; a run repeats whole rounds of its workload's cells until
``--seconds`` have passed, then checks every output outside the timed region.
The last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-module metrics with ``--trace 1``.  The lines before it
state every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import inputs
import tracing
import workloads
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-lowk", "solve-highk", "verify", "cli")
SETUPS = 7  # set-ups per run; setup_s is their median
P90_MIN_SAMPLES = 100  # so that at least 10 samples lie beyond the 90th percentile
START_SAMPLES = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "polynomials.certificate_ms": "ms",
    "polynomials.sturm_chain_calls": "count",
    "polynomials.sturm_chain_len_total": "count",
    "polynomials.certified_ratio": "ratio",
    "polynomials.grid_scan_ms": "ms",
    "polynomials.pp_equal_ms": "ms",
    "weights.parse_ms": "ms",
    "weights.moments_ms": "ms",
    "weights.iterated_integral_ms": "ms",
    "solver.seed_solve_ms": "ms",
    "solver.assemble_uk_ms": "ms",
    "solver.compute_mu_ms": "ms",
    "solver.assemble_u_self_ms": "ms",
    "solver.solve_self_ms": "ms",
    "solver.mu_bits_total": "bits",
    "solver.pieces_total": "count",
    "solver.boundary_residual_errors": "count",
    "closed_forms.closed_form_ms": "ms",
    "closed_forms.series_profile_ms": "ms",
    "quadrature.quad_ms": "ms",
    "quadrature.quad_calls": "count",
    "quadrature.intervals_total": "count",
    "quadrature.failures": "count",
    "oracles.galerkin_ms": "ms",
    "oracles.gram_entry_calls": "count",
    "oracles.load_vector_ms": "ms",
    "oracles.sign_iteration_ms": "ms",
    "oracles.sign_iterations_total": "count",
    "oracles.max_principle_ms": "ms",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.constant_ms": "ms",
    "cli.minimizer_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.sweep_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check that the gate rejects a perturbed mu")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- timing ---------------------------------------------------------------------


class Record:
    """One operation; ``seconds`` is its raw time, ``scaled`` that time at the
    reference machine speed (see speed.py)."""

    __slots__ = ("op", "slot", "result", "error", "seconds", "scaled")

    def __init__(self, op, slot, result, error, seconds, scaled):
        self.op, self.slot, self.result, self.error = op, slot, result, error
        self.seconds, self.scaled = seconds, scaled


def timed_loop(rounds, runner, speed, seconds=None, max_rounds=None):
    """Run whole rounds until ``seconds`` have passed or ``max_rounds`` ran.

    An operation that raises is recorded as failed and the loop goes on.  The
    speed kernel runs between operations, outside their timed region.
    """
    records = []
    done = 0
    start = time.perf_counter()
    before = speed.sample()
    while True:
        for slot, op in enumerate(rounds[done % len(rounds)]):
            t0 = time.perf_counter()
            try:
                result, error = runner(op), None
            except Exception as exc:  # counted in failed, never fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t0
            after = speed.sample()
            records.append(Record(op, slot, result, error, took, speed.scale(took, (before + after) / 2)))
            before = after
        done += 1
        elapsed = time.perf_counter() - start
        if max_rounds is not None:
            if done >= max_rounds:
                break
        elif elapsed >= seconds:
            break
    return records, elapsed, done


def child_seconds(code: str) -> float:
    proc = workloads.run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def import_seconds(module: str) -> float:
    """Time of ``import module`` in a fresh interpreter, measured inside it."""
    return child_seconds(
        f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )


def python_start_seconds() -> float:
    t0 = time.perf_counter()
    proc = workloads.run_child(["-c", "pass"])
    if proc.returncode != 0:
        raise RuntimeError("bare interpreter start failed")
    return time.perf_counter() - t0


def setup(workload: str, seed: int, speed: Speed):
    """Import + input generation + warm-up, SETUPS times.

    Returns the rounds and the median set-up time, raw and scaled like an
    operation by the speed kernel runs around each set-up.
    """
    module = "sobolev1d.cli" if workload == "cli" else "sobolev1d"
    raw, scaled = [], []
    before = speed.sample()
    for _ in range(SETUPS):
        t_import = import_seconds(module)
        t0 = time.perf_counter()
        rounds = inputs.rounds_for(workload, seed)
        workloads.warm_up(workload)
        raw.append(t_import + time.perf_counter() - t0)
        after = speed.sample()
        scaled.append(speed.scale(raw[-1], (before + after) / 2))
        before = after
    return rounds, statistics.median(raw), statistics.median(scaled)


def median_round_seconds(records, failed=frozenset(), scaled=True):
    """One round at every slot's median latency; a failed operation is +inf.

    Steadier than elapsed time on a machine whose speed drifts during a run.
    """
    by_slot = {}
    for rec in records:
        t = math.inf if id(rec) in failed else (rec.scaled if scaled else rec.seconds)
        by_slot.setdefault(rec.slot, []).append(t)
    return sum(statistics.median(v) for v in by_slot.values())


def percentile(values, q):
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def gate_all(records, refs):
    """Gate every record; returns a list of (record, reason) failures."""
    failures = []
    for rec in records:
        if rec.error is not None:
            failures.append((rec, rec.error))
            continue
        try:
            workloads.check(rec.op, rec.result, refs)
        except Exception as exc:  # a malformed output is a failed operation
            failures.append((rec, f"{type(exc).__name__}: {exc}"))
    return failures


def probe_known_failures(seed: int) -> dict:
    """Float k = 6 solves, outside the timed loop: error type -> count."""
    counts = {}
    for op in inputs.probe_ops(seed):
        try:
            workloads.do_solve(op)
            name = "ok"
        except Exception as exc:
            name = type(exc).__name__
        counts[name] = counts.get(name, 0) + 1
    return counts


# -- reporting --------------------------------------------------------------------


def fmt_metric(name, value, unit, note):
    return f"  {name:34s} {value:14.6g} {unit:6s} {note}"


def emit(correct, attempted, failed, metrics, units):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )


def report_failures(failures):
    for rec, reason in failures[:10]:
        print(f"  FAILED {rec.op.cell} {rec.op.rho.dsl if rec.op.rho else ' '.join(rec.op.argv)}: {reason}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more failures")


def run_untraced(args):
    speed = Speed.for_workload(args.workload)
    rounds, setup_raw, setup_s = setup(args.workload, args.seed, speed)
    records, elapsed, done = timed_loop(rounds, workloads.run_op, speed, seconds=args.seconds)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    failures = gate_all(records, workloads.References())
    failed = len(failures)
    n = len(records)
    failed_recs = {id(rec) for rec, _ in failures}

    def latencies_ms(scaled):
        return [
            math.inf if id(r) in failed_recs else 1000.0 * (r.scaled if scaled else r.seconds)
            for r in records
        ]

    latencies = latencies_ms(True)
    slots = len(rounds[0])
    raw = {
        "ops_per_s": slots / median_round_seconds(records, failed_recs, scaled=False),
        "latency_p50_ms": statistics.median(latencies_ms(False)),
    }
    metrics = {
        "ops_per_s": slots / median_round_seconds(records, failed_recs),
        "latency_p50_ms": statistics.median(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload} seed={args.seed} rounds={done} ops={n} elapsed_s={elapsed:.3f}")
    print(
        f"  speed kernel median {1000 * statistics.median(speed.samples):.3f} ms over {len(speed.samples)} samples: "
        "each operation and set-up is scaled by the kernel runs around it"
    )
    print(fmt_metric("ops_per_s", metrics["ops_per_s"], "1/s", f"n={n} ops in {done} rounds, median per slot; raw {raw['ops_per_s']:.4g}"))
    print(fmt_metric("latency_p50_ms", metrics["latency_p50_ms"], "ms", f"n={n}; raw {raw['latency_p50_ms']:.4g}"))
    if n >= P90_MIN_SAMPLES:
        print(fmt_metric("latency_p90_ms", percentile(latencies, 0.9), "ms", f"n={n}"))
    else:
        print(f"  {'latency_p90_ms':34s} {'omitted':>14s} {'':6s} n={n} < {P90_MIN_SAMPLES}")
    print(fmt_metric("failed_ratio", failed / n, "ratio", f"n={n} ({failed} failed)"))
    print(fmt_metric("setup_s", setup_s, "s", f"n={SETUPS} set-ups, median; raw {setup_raw:.4g}"))
    print(fmt_metric("peak_rss_mb", peak_rss_mb, "MB", "largest child" if args.workload == "cli" else "this process"))
    if args.workload == "solve-lowk":
        probe = probe_known_failures(args.seed)
        print(f"  known seed failures, outside the timed loop: float k=6 solves {probe}")
    report_failures(failures)
    emit(failed == 0, n, failed, metrics, END_TO_END)


def run_traced(args):
    speed = Speed.for_workload(args.workload)
    rounds, _raw, _scaled = setup(args.workload, args.seed, speed)
    plain, _elapsed, done = timed_loop(rounds, workloads.run_op, speed, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    counter = itertools.count()

    if args.workload == "cli":
        tmp = tempfile.TemporaryDirectory(dir=HERE, prefix=".spans-")

        def runner(op):
            op_id = next(counter)
            path = str(Path(tmp.name) / f"{op_id}.json")
            result = workloads.do_cli(op, spans_path=path)
            if Path(path).is_file():
                spans, errors = tracing.load_spans(path)
                offset = len(tracer.spans)
                for s in spans:
                    s.op = op_id
                    s.parent = s.parent + offset if s.parent >= 0 else -1
                tracer.spans.extend(spans)
                for key, count in errors.items():
                    tracer.errors[key] = tracer.errors.get(key, 0) + count
            return result

        restore = tmp.cleanup
    else:
        restore = tracer.install()

        def runner(op):
            tracer.op = next(counter)
            return workloads.run_op(op)

    try:
        traced, _elapsed, _done = timed_loop(rounds, runner, speed, max_rounds=done)
    finally:
        restore()

    failures = gate_all(plain + traced, workloads.References())
    n = len(traced)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(tracing.summarise(tracer.spans, n))
    probe = probe_known_failures(args.seed)
    metrics["solver.boundary_residual_errors"] = probe.get("BoundaryResidualError", 0)
    starts = [python_start_seconds() for _ in range(START_SAMPLES)]
    imports = [import_seconds("sobolev1d.cli") for _ in range(START_SAMPLES)]
    metrics["cli.python_start_ms"] = 1000.0 * statistics.median(starts)
    metrics["cli.import_ms"] = 1000.0 * statistics.median(imports)
    for command in inputs.CLI_COMMANDS:
        times = [s.end - s.start for s in tracer.spans if s.name == f"cli.{command}"]
        metrics[f"cli.{command}_ms"] = 1000.0 * statistics.fmean(times) if times else 0.0
    plain_s, traced_s = median_round_seconds(plain), median_round_seconds(traced)
    slots = len(rounds[0])
    metrics["trace.overhead_ms"] = 1000.0 * (traced_s - plain_s) / slots
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    f = speed.factor
    for name, unit in PER_LAYER.items():
        if unit == "ms":
            metrics[name] /= f

    cover = tracing.check_nesting(tracer.spans)
    nesting_ok = cover <= 1.0 + 1e-9
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{args.workload}-{args.seed}.json")

    print(f"{args.workload} seed={args.seed} traced rounds={done} ops={n} spans={len(tracer.spans)}")
    print(f"  speed kernel factor {f:.4f}: ms values below are raw / factor")
    notes = {
        "polynomials.certified_ratio": "certified / attempted",
        "cli.python_start_ms": f"median of {START_SAMPLES} interpreters",
        "cli.import_ms": f"median of {START_SAMPLES} interpreters",
        "trace.overhead_pct": "",
    }
    for command in inputs.CLI_COMMANDS:
        notes[f"cli.{command}_ms"] = "mean per call"
    for name, unit in PER_LAYER.items():
        print(fmt_metric(name, metrics[name], unit, notes.get(name, f"per op, n={n}")))
    print(f"  solve spans: descendant self time / duration <= {cover:.6f} ({'ok' if nesting_ok else 'VIOLATED'})")
    print(f"  library errors seen by the wrappers: {tracer.errors or 'none'}")
    print(f"  probe (float k=6, outside the loop): {probe}")
    report_failures(failures)
    emit(not failures and nesting_ok, len(plain) + n, len(failures), metrics, PER_LAYER)


def run_all(args):
    """Every workload in its own process, one after another."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        doc = json.loads(lines[-1])
        ok = ok and doc["correct"]
        rows.append((workload, doc))
    print()
    print(f"{'workload':12s} {'correct':>7s} {'attempted':>9s} {'failed':>6s}")
    for workload, doc in rows:
        print(f"{workload:12s} {str(doc['correct']):>7s} {doc['attempted']:9d} {doc['failed']:6d}")
    return 0 if ok else 1


def run_selftest():
    """Gate each sample operation as returned, then with mu off by 1e-6."""
    refs = workloads.References()
    ops = list(inputs.rounds_for("solve-lowk", 1)[0])
    ops.append(inputs.rounds_for("solve-highk", 1)[0][0])
    ops.extend(inputs.rounds_for("verify", 1)[0][:4])
    ops.extend(op for op in inputs.rounds_for("cli", 1)[0] if op.argv[0] != "minimizer")
    clean = wrong = 0
    for op in ops:
        result = workloads.run_op(op)
        try:
            workloads.check(op, result, refs)
        except gate.GateError as exc:
            clean += 1
            print(f"  unexpected rejection {op.cell}: {exc}")
        try:
            workloads.check(op, result, refs, perturb=workloads.perturb_mu)
            print(f"  NOT rejected with mu * (1 + 1e-6): {op.cell}")
        except gate.GateError:
            wrong += 1
    n = len(ops)
    print(f"selftest: failed_ratio as returned {clean}/{n}, with mu * (1 + 1e-6) {wrong}/{n}")
    return 0 if clean == 0 and wrong == n else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sobolev1d" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'sobolev1d'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sobolev1d  # noqa: F401  (loaded once, before any set-up is timed)

    if args.selftest:
        return run_selftest()
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
