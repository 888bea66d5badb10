"""Adaptive Gauss-Legendre quadrature with declared endpoint singularities.

A fixed 15-point Gauss rule is applied per interval; the error indicator for
an interval compares its one-shot value against the sum over its two halves
(Richardson-style), and the returned value always uses the refined sum.  The
worst interval is bisected until the total indicator drops below the
requested absolute tolerance.

Integrable endpoint singularities of type (t - a)^(-alpha), alpha < 1, must
be declared by the caller; the rule then starts from a geometrically graded
mesh toward that endpoint so the remaining adaptive work is routine.  Gauss
nodes are interior, so the integrand is never evaluated at the singular
point itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .scalars import record

# 15-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(15)
_NODES = [
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
]
_WEIGHTS = [
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
]


class QuadratureNonConvergence(ArithmeticError):
    """Adaptive subdivision cannot reach the tolerance.

    Usually means the integrand has an undeclared singularity (or needs the
    exact integration path instead).
    """

    def __init__(self, value: float, error: float, intervals: int, reason: str = ""):
        detail = reason or f"stalled at error {error:.3e} after {intervals} intervals"
        super().__init__(f"quadrature did not converge: {detail}")
        self.value = value
        self.error = error
        self.intervals = intervals


@record
class QuadratureResult:
    value: float
    error: float
    intervals: int


def _gauss(f: Callable[[float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(w * f(mid + half * x) for x, w in zip(_NODES, _WEIGHTS))


def _cell(f, a, b):
    coarse = _gauss(f, a, b)
    m = 0.5 * (a + b)
    fine = _gauss(f, a, m) + _gauss(f, m, b)
    if not (math.isfinite(fine) and math.isfinite(coarse)):
        raise QuadratureNonConvergence(
            float("nan"), float("inf"), 0,
            f"integrand is non-finite inside [{a!r}, {b!r}]",
        )
    return fine, abs(fine - coarse)


# Innermost graded cell when the tail-sized one underflows to 0, as it does
# at endpoint 0 for alpha >= ~0.96.  Its Gauss nodes stay above 1e-303, where
# t^(-alpha) <= 1e303 is finite for every alpha < 1.
_MIN_CELL = 1e-300


def _graded_cuts(a: float, b: float, alpha: float, tol: float, from_left: bool) -> list[float]:
    # innermost cell sized so the singular tail integral is far below tol,
    # but never below what the float grid near the endpoint can resolve
    alpha = min(max(alpha, 0.0), 0.999)
    target = max(tol, 1e-300) * (1.0 - alpha) / 8.0
    endpoint = a if from_left else b
    resolvable = 1e-12 * abs(endpoint)
    delta = min((b - a) / 4.0, max(target ** (1.0 / (1.0 - alpha)), resolvable))
    if delta <= 0.0:
        delta = _MIN_CELL
    cuts = []
    h = delta
    while h < (b - a) / 2.0:
        cuts.append(a + h if from_left else b - h)
        h *= 4.0
    return cuts


def quad_numeric(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    singular_left: float | None = None,
    singular_right: float | None = None,
    max_intervals: int = 4000,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``singular_left`` / ``singular_right`` declare an integrable endpoint
    singularity by its strength alpha in (t - endpoint)^(-alpha), 0 <= alpha < 1.
    Raises :class:`QuadratureNonConvergence` when the interval budget runs out.
    """
    if not a < b:
        raise ValueError("need a < b")
    cuts = {a, b}
    if singular_left is not None:
        cuts.update(_graded_cuts(a, b, singular_left, tol, from_left=True))
    if singular_right is not None:
        cuts.update(_graded_cuts(a, b, singular_right, tol, from_left=False))
    edges = sorted(cuts)

    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err = _cell(f, lo, hi)
        heap.append((-err, counter, lo, hi, val, err))
        total += val
        total_err += err
        counter += 1
    heapq.heapify(heap)

    while total_err > tol:
        if len(heap) >= max_intervals:
            raise QuadratureNonConvergence(total, total_err, len(heap))
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # the worst cell has no representable midpoint: the float grid is
            # exhausted and the requested tolerance is out of reach
            raise QuadratureNonConvergence(total, total_err, len(heap))
        total -= val
        total_err -= err
        for xa, xb in ((lo, mid), (mid, hi)):
            v, e = _cell(f, xa, xb)
            heapq.heappush(heap, (-e, counter, xa, xb, v, e))
            total += v
            total_err += e
            counter += 1
    # re-sum once to shed the incremental-update rounding drift
    total = sum(item[4] for item in heap)
    total_err = sum(item[5] for item in heap)
    return QuadratureResult(total, total_err, len(heap))
