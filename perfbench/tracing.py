"""Span recorder and per-module timing wrappers for the traced run.

The wrappers replace module-level names where the library looks them up:
``solver`` and ``oracles`` import ``pp_positive_on_open01``, ``quad_numeric``
and others by name, so those bindings are patched in ``sobolev1d.solver`` and
``sobolev1d.oracles``, not only in the defining module.  Every call becomes a
span (name, start, end, parent, operation id) kept in memory; :func:`summarise`
turns the spans into per-operation layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

# (module, attribute, span name).  The same span name may be installed at
# several lookup sites; the name says which layer did the work.
WRAPPED = (
    ("weights", "parse_weight", "weights.parse"),
    ("cli", "parse_weight", "weights.parse"),
    ("solver", "solve", "solver.solve"),
    ("cli", "solve", "solver.solve"),
    ("solver", "moments", "weights.moments"),
    ("solver", "iterated_integral", "weights.iterated_integral"),
    ("solver", "build_matrix", "solver.seed_solve"),
    ("solver", "solve_seeds", "solver.seed_solve"),
    ("solver", "assemble_uk", "solver.assemble_uk"),
    ("solver", "compute_mu", "solver.compute_mu"),
    ("solver", "assemble_u", "solver.assemble_u"),
    ("solver", "pp_min_on_grid", "polynomials.grid_scan"),
    ("solver", "pp_positive_on_open01", "polynomials.certificate"),
    ("oracles", "pp_positive_on_open01", "polynomials.certificate"),
    ("solver", "pp_equal", "polynomials.pp_equal"),
    ("polynomials", "sturm_chain", "polynomials.sturm_chain"),
    ("solver", "closed_form", "closed_forms.closed_form"),
    ("closed_forms", "pointload_series_profile", "closed_forms.series_profile"),
    ("solver", "quad_numeric", "quadrature.quad"),
    ("oracles", "quad_numeric", "quadrature.quad"),
    ("oracles", "galerkin_lambda", "oracles.galerkin"),
    ("cli", "galerkin_lambda", "oracles.galerkin"),
    ("oracles", "gram_entry", "oracles.gram_entry"),
    ("oracles", "load_vector", "oracles.load_vector"),
    ("oracles", "sign_iteration", "oracles.sign_iteration"),
    ("cli", "sign_iteration", "oracles.sign_iteration"),
    ("oracles", "max_principle_check", "oracles.max_principle"),
    ("cli", "max_principle_check", "oracles.max_principle"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    ok: bool = True
    value: object = None  # a size read off the result, see _size


def _size(name: str, result):
    """The count a span contributes besides its time."""
    if name == "polynomials.sturm_chain":
        return len(result)
    if name == "polynomials.certificate":
        return int(bool(result))
    if name == "quadrature.quad":
        return result.intervals
    if name == "oracles.sign_iteration":
        return result.details["iterations"]
    if name == "solver.solve":
        mu = result.mu
        bits = mu.numerator.bit_length() + mu.denominator.bit_length() if isinstance(mu, Fraction) else 0
        pieces = len(getattr(result.u, "pieces", ()))
        return [bits, pieces]
    return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.errors: dict[str, int] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.ok = False
                key = f"{name}:{type(exc).__name__}"
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            span.value = _size(name, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Patch every lookup site in WRAPPED; returns a function undoing it."""
        saved = []
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(f"sobolev1d.{module}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

        def restore():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

        return restore

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "errors": self.errors}, fh
            )


def load_spans(path) -> tuple[list[Span], dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(**s) for s in doc["spans"]], doc["errors"]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the part covered by direct children, per span."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_nesting(spans: list[Span]) -> float:
    """Largest (sum of descendant self times) / duration over solve spans.

    Must be <= 1: children of a sequential call stack cannot cover more than
    their parent.
    """
    selfs = self_times(spans)
    covered = [0.0] * len(spans)
    # spans are appended in start order, so children follow their parents;
    # walking backwards folds each subtree into its root
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i].parent
        if p >= 0:
            covered[p] += covered[i] + selfs[i]
    worst = 0.0
    for i, s in enumerate(spans):
        if s.name == "solver.solve" and s.end > s.start:
            worst = max(worst, covered[i] / (s.end - s.start))
    return worst


def summarise(spans: list[Span], ops: int) -> dict:
    """Per-layer metrics: inclusive ms per operation unless named _self_ms."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, int] = {}
    failures: dict[str, int] = {}
    bits = pieces = 0
    for s, self_s in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        if not s.ok:
            failures[s.name] = failures.get(s.name, 0) + 1
        if s.name == "solver.solve":
            if s.value:
                bits += s.value[0]
                pieces += s.value[1]
        elif isinstance(s.value, int):
            values[s.name] = values.get(s.name, 0) + s.value

    n = max(ops, 1)

    def ms(name, table=total):
        return 1000.0 * table.get(name, 0.0) / n

    cert_calls = calls.get("polynomials.certificate", 0)
    return {
        "polynomials.certificate_ms": ms("polynomials.certificate"),
        "polynomials.sturm_chain_calls": calls.get("polynomials.sturm_chain", 0) / n,
        "polynomials.sturm_chain_len_total": values.get("polynomials.sturm_chain", 0) / n,
        "polynomials.certified_ratio": (
            values.get("polynomials.certificate", 0) / cert_calls if cert_calls else 0.0
        ),
        "polynomials.grid_scan_ms": ms("polynomials.grid_scan"),
        "polynomials.pp_equal_ms": ms("polynomials.pp_equal"),
        "weights.parse_ms": ms("weights.parse"),
        "weights.moments_ms": ms("weights.moments"),
        "weights.iterated_integral_ms": ms("weights.iterated_integral"),
        "solver.seed_solve_ms": ms("solver.seed_solve"),
        "solver.assemble_uk_ms": ms("solver.assemble_uk"),
        "solver.compute_mu_ms": ms("solver.compute_mu"),
        "solver.assemble_u_self_ms": ms("solver.assemble_u", own),
        "solver.solve_self_ms": ms("solver.solve", own),
        "solver.mu_bits_total": bits / n,
        "solver.pieces_total": pieces / n,
        "closed_forms.closed_form_ms": ms("closed_forms.closed_form"),
        "closed_forms.series_profile_ms": ms("closed_forms.series_profile"),
        "quadrature.quad_ms": ms("quadrature.quad"),
        "quadrature.quad_calls": calls.get("quadrature.quad", 0) / n,
        "quadrature.intervals_total": values.get("quadrature.quad", 0) / n,
        "quadrature.failures": failures.get("quadrature.quad", 0) / n,
        "oracles.galerkin_ms": ms("oracles.galerkin"),
        "oracles.gram_entry_calls": calls.get("oracles.gram_entry", 0) / n,
        "oracles.load_vector_ms": ms("oracles.load_vector"),
        "oracles.sign_iteration_ms": ms("oracles.sign_iteration"),
        "oracles.sign_iterations_total": values.get("oracles.sign_iteration", 0) / n,
        "oracles.max_principle_ms": ms("oracles.max_principle"),
    }
