"""Independent verification of the pipeline's sharp constants.

Three unrelated routes, none of which shares arithmetic with the solver:

* ``galerkin_lambda`` -- a dual-norm lower bound.  Because the extremizer is
  sign-definite, the absolute value can be dropped and the reciprocal sharp
  constant becomes the norm of the linear functional p -> integral p rho over
  trial spaces spanned by x^k (1-x)^k x^i.  With G the stiffness Gram matrix
  of k-th derivatives and r the load vector, the squared bound is r^T G^-1 r,
  non-decreasing in the trial degree.  An incremental LDL^T factorization
  yields the whole monotone history for the price of one solve.

* ``sign_iteration`` -- Picard iteration on the finite-difference analogue
  of the nonlinear eigenproblem (-1)^k u^(2k) = mu rho sign(u): freeze the
  sign vector, solve the clamped linear problem, renormalize, re-read the
  signs.  Exercises the sign-definiteness claim from arbitrary starts.

* ``max_principle_check`` -- the positivity of the clamped polyharmonic
  problem with non-negative load, checked exactly (Bernstein certificate
  with Sturm fallback) for polynomial loads at any order, or on a grid for
  orders 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Optional

import numpy as np

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    bridge_poly,
    from_polynomial,
    monomial,
    pp_mul,
    pp_positive_on_open01,
)
from .quadrature import quad_numeric
from .scalars import EXACT
from .solver import ProblemSpec, gaussian_solve
from .weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    PiecewiseWeight,
    PolyWeight,
    PowerWeight,
    UnsupportedWeightError,
    Weight,
    as_piecewise,
    eval_weight,
)


class IllConditionedError(ArithmeticError):
    """Float factorization of the Gram matrix broke down; lower the degree
    or switch to exact mode."""


class PositivityViolatedError(AssertionError):
    """The clamped polyharmonic solution dipped non-positive: a solver bug,
    since positivity is guaranteed for non-negative loads."""

    def __init__(self, point: float, value: float):
        super().__init__(f"solution is {value:.3e} at x = {point:.6f}")
        self.point = point
        self.value = value


@dataclass(frozen=True)
class GalerkinConfig:
    """Trial space x^k (1-x)^k x^i for i = 0..degree (clamped by construction)."""

    degree: int
    mode: str = EXACT

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")


@dataclass
class OracleReport:
    method: str
    lambda_estimate: Optional[float] = None
    history: list = field(default_factory=list)
    sign_definite: Optional[bool] = None
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Galerkin dual-norm oracle
# ---------------------------------------------------------------------------


def _beta_int(m: int, n: int) -> Fraction:
    """integral over (0,1) of x^m (1-x)^n = m! n! / (m+n+1)!."""
    return Fraction(factorial(m) * factorial(n), factorial(m + n + 1))


def gram_entry(k: int, i: int, j: int) -> Fraction:
    """integral of d^k[x^(k+i)(1-x)^k] * d^k[x^(k+j)(1-x)^k], in closed form.

    Expand each k-th derivative by the product rule; every resulting term is
    a Beta integral with exact factorial value.
    """
    total = Fraction(0)
    for a in range(k + 1):
        if a > k + i:
            continue
        ca = (
            Fraction(comb(k, a))
            * Fraction(factorial(k + i), factorial(k + i - a))
            * Fraction(factorial(k), factorial(a)) * (-1) ** (k - a)
        )
        for b in range(k + 1):
            if b > k + j:
                continue
            cb = (
                Fraction(comb(k, b))
                * Fraction(factorial(k + j), factorial(k + j - b))
                * Fraction(factorial(k), factorial(b)) * (-1) ** (k - b)
            )
            total += ca * cb * _beta_int(2 * k + i + j - a - b, a + b)
    return total


def _basis_poly(k: int, i: int) -> Polynomial:
    return bridge_poly(k) * monomial(i)


def load_vector(rho: Weight, k: int, degree: int, mode: str) -> list:
    """r_i = integral of x^k (1-x)^k x^i rho, exact where the weight allows.

    Exact values exist for every supported kind (point masses by sifting,
    power and boundary weights through monomial moments); float mode keeps
    the quadrature route for the non-polynomial kinds as an independent path.
    """
    out = []
    for i in range(degree + 1):
        phi = _basis_poly(k, i)
        if isinstance(rho, DiracWeight):
            out.append(phi(rho.a))
        elif isinstance(rho, (PolyWeight, PiecewiseWeight, IndicatorWeight)):
            pp = as_piecewise(rho)
            out.append(pp_mul(from_polynomial(phi), pp).integrate01())
        elif isinstance(rho, (PowerWeight, HardyWeight)):
            alpha = rho.alpha if isinstance(rho, PowerWeight) else Fraction(rho.order)
            if mode == EXACT:
                # integral of x^(n - alpha) = 1/(n + 1 - alpha); n >= k >= alpha
                val = Fraction(0)
                for n, c in enumerate(phi.coeffs):
                    if c:
                        val += c / (n + 1 - alpha)
                out.append(val)
            else:
                af = float(alpha)
                out.append(
                    quad_numeric(
                        lambda x: phi.eval_float(x) * x ** (-af),
                        0.0,
                        1.0,
                        tol=1e-13,
                        singular_left=af if af > 0 else None,
                    ).value
                )
        else:
            raise UnsupportedWeightError(f"no load vector for {rho.kind}")
    return out


def galerkin_lambda(spec: ProblemSpec, cfg: GalerkinConfig) -> OracleReport:
    """Monotone lower bounds on the squared sharp constant by trial degree.

    The partial sums of the LDL^T-transformed load give the value on every
    nested trial space at once, so the recorded history is monotone by
    construction; in exact mode each entry is an exact rational.
    """
    k, N = spec.k, cfg.degree
    exact = cfg.mode == EXACT
    G = [[gram_entry(k, i, j) for j in range(N + 1)] for i in range(N + 1)]
    r = load_vector(spec.rho, k, N, cfg.mode)
    if not exact:
        G = [[float(x) for x in row] for row in G]
        r = [float(x) for x in r]

    # incremental LDL^T: lambda_n^2 = sum_{m <= n} w_m^2 / d_m with w = L^-1 r
    L = [[None] * (N + 1) for _ in range(N + 1)]
    d = [None] * (N + 1)
    w = [None] * (N + 1)
    history = []
    partial = Fraction(0) if exact else 0.0
    for i in range(N + 1):
        for j in range(i):
            s = G[i][j]
            for m in range(j):
                s -= L[i][m] * L[j][m] * d[m]
            L[i][j] = s / d[j]
        s = G[i][i]
        for m in range(i):
            s -= L[i][m] ** 2 * d[m]
        d[i] = s
        if exact:
            if d[i] <= 0:
                raise ArithmeticError("Gram matrix is not positive definite")
        elif not (d[i] > 0) or not math.isfinite(d[i]):
            raise IllConditionedError(
                f"float LDL pivot {d[i]!r} at degree {i}; lower the degree "
                f"or use exact mode"
            )
        s = r[i]
        for m in range(i):
            s -= L[i][m] * w[m]
        w[i] = s
        partial += w[i] ** 2 / d[i]
        history.append((i, partial))

    lam_sq = history[-1][1]
    report = OracleReport(
        method="galerkin",
        lambda_estimate=math.sqrt(float(lam_sq)),
        history=[(n, float(v)) for n, v in history],
        details={
            "degree": N,
            "lambda_sq": float(lam_sq),
            "lambda_sq_exact": lam_sq if exact else None,
            "mode": cfg.mode,
        },
    )
    return report


# ---------------------------------------------------------------------------
# Finite-difference sign iteration
# ---------------------------------------------------------------------------


def _fd_operator(k: int, n: int) -> np.ndarray:
    """Dense (-1)^k D^(2k) with clamped closures on n interior nodes."""
    h = 1.0 / (n + 1)
    A = np.zeros((n, n))
    if k == 1:
        for i in range(n):
            A[i, i] = 2.0
            if i > 0:
                A[i, i - 1] = -1.0
            if i < n - 1:
                A[i, i + 1] = -1.0
        return A / h**2
    if k == 2:
        for i in range(n):
            A[i, i] = 6.0
            if i > 0:
                A[i, i - 1] = -4.0
            if i < n - 1:
                A[i, i + 1] = -4.0
            if i > 1:
                A[i, i - 2] = 1.0
            if i < n - 2:
                A[i, i + 2] = 1.0
        # eliminate ghosts via the reflected clamped condition u'(0)=u'(1)=0
        A[0, 0] = 7.0
        A[n - 1, n - 1] = 7.0
        return A / h**4
    raise ValueError("finite-difference stencils cover k = 1 and 2 only")


def _weight_on_grid(rho: Weight, x: np.ndarray, h: float) -> np.ndarray:
    if isinstance(rho, DiracWeight):
        # nearest-node sifting with linear interpolation correction
        a = float(rho.a)
        vals = np.zeros_like(x)
        j = int(np.floor(a / h)) - 1  # index into interior nodes x[j] = (j+1) h
        theta = (a - (j + 1) * h) / h
        if 0 <= j < len(x):
            vals[j] = (1.0 - theta) / h
        if 0 <= j + 1 < len(x):
            vals[j + 1] = theta / h
        return vals
    return np.array([eval_weight(rho, xi) for xi in x])


def _kth_difference_energy(k: int, u: np.ndarray, h: float) -> float:
    full = np.concatenate([[0.0], u, [0.0]])
    if k == 1:
        d = np.diff(full) / h  # midpoint values of u'
        return float(np.sum(d * d) * h)
    ext = np.concatenate([[full[1]], full, [full[-2]]])  # clamped ghost reflection
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h**2
    wts = np.full(len(d2), h)
    wts[0] = wts[-1] = h / 2.0  # trapezoid ends
    return float(np.sum(d2 * d2 * wts))


def sign_iteration(
    spec: ProblemSpec,
    n: int = 199,
    max_iter: int = 60,
    tol: float = 0.0,
    initial_signs: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
) -> OracleReport:
    """Picard iteration on the discrete nonlinear eigenproblem.

    Freezes a sign pattern, solves the clamped 2k-order problem with load
    rho * signs, renormalizes to unit discrete weighted mass, and updates the
    signs from the solution; stops when the pattern repeats.  Non-convergence
    is reported, not raised (it is evidence about sign stability).
    """
    k = spec.k
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    A = _fd_operator(k, n)
    rho_vec = _weight_on_grid(spec.rho, x, h)
    if initial_signs is not None:
        signs = np.where(np.asarray(initial_signs) >= 0, 1.0, -1.0)
    elif seed is not None:
        rng = np.random.default_rng(seed)
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        signs = np.ones(n)

    history = []
    converged = False
    mu_h = float("nan")
    u = np.zeros(n)
    prev_mu = None
    for it in range(max_iter):
        u = np.linalg.solve(A, rho_vec * signs)
        mass = float(np.sum(np.abs(u) * rho_vec) * h)  # trapezoid: ends vanish
        if mass <= 0:
            raise ZeroDivisionError("discrete weighted mass vanished")
        u = u / mass
        mu_h = _kth_difference_energy(k, u, h)
        history.append((it, mu_h))
        new_signs = np.where(u >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs):
            converged = True
            break
        if tol > 0 and prev_mu is not None and abs(mu_h - prev_mu) <= tol * abs(mu_h):
            break
        prev_mu = mu_h
        signs = new_signs

    sign_definite = bool(np.all(signs == signs[0]))
    return OracleReport(
        method="sign_iteration",
        lambda_estimate=1.0 / math.sqrt(mu_h) if mu_h > 0 else None,
        history=history,
        sign_definite=sign_definite,
        details={
            "grid": n,
            "mu_h": mu_h,
            "iterations": len(history),
            "converged": converged,
            "solution": u,
        },
    )


# ---------------------------------------------------------------------------
# Maximum-principle checker
# ---------------------------------------------------------------------------


def _solve_clamped_bvp_exact(k: int, load: PiecewisePolynomial) -> PiecewisePolynomial:
    """Exact solution of (-1)^k w^(2k) = f with clamped data, f piecewise
    polynomial.

    Particular solution: 2k-fold antiderivative of (-1)^k f (all derivatives
    vanish at 0).  Homogeneous correction: sum c_i x^i over i = k..2k-1 (the
    lower coefficients stay zero because of the left boundary conditions),
    with the c_i fixed by the k right boundary conditions.
    """
    sign = Fraction((-1) ** k)
    particular = load.scale(sign)
    for _ in range(2 * k):
        particular = particular.antiderivative()
    # right-boundary conditions: w^(j)(1) = 0 for j = 0..k-1
    rows = []
    rhs = []
    d = particular
    for j in range(k):
        rows.append(
            [
                Fraction(factorial(i), factorial(i - j))  # d^j/dx^j x^i at x = 1
                for i in range(k, 2 * k)
            ]
        )
        rhs.append(-d.pieces[-1](Fraction(1)))
        d = d.derivative()
    coeffs = gaussian_solve(rows, rhs)
    correction = Polynomial(
        [Fraction(0)] * k + [Fraction(c) for c in coeffs], EXACT
    )
    return particular.add_polynomial(correction)


def max_principle_check(
    k: int, f: Weight, n: int = 199, route: str = "auto"
) -> OracleReport:
    """Assert strict interior positivity of the clamped 2k-order problem.

    Polynomial-type loads of any order are solved exactly and certified
    (Bernstein certificate with Sturm fallback); orders 1 and 2 additionally
    admit the grid route for any evaluable load (``route="grid"`` forces it).
    Raises :class:`PositivityViolatedError` on failure.
    """
    if route not in ("auto", "exact", "grid"):
        raise ValueError(f"unknown route {route!r}")
    if route != "grid" and isinstance(
        f, (PolyWeight, PiecewiseWeight, IndicatorWeight)
    ):
        load = as_piecewise(f)
        if load.mode == EXACT:
            w = _solve_clamped_bvp_exact(k, load)
            ok = pp_positive_on_open01(w)
            if not ok:
                worst = min(
                    (w.eval_float(i / 512), i / 512) for i in range(1, 512)
                )
                raise PositivityViolatedError(worst[1], worst[0])
            return OracleReport(
                method="max_principle",
                sign_definite=True,
                details={"route": "exact", "order": k, "solution": w},
            )
    if route == "exact":
        raise UnsupportedWeightError("exact route needs a piecewise-polynomial load")
    if k not in (1, 2):
        raise UnsupportedWeightError(
            "grid route covers orders 1 and 2; higher orders need an exact "
            "polynomial load"
        )
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    A = _fd_operator(k, n)
    rhs = _weight_on_grid(f, x, h)
    w = np.linalg.solve(A, rhs)
    i_min = int(np.argmin(w))
    if w[i_min] <= 0:
        raise PositivityViolatedError(float(x[i_min]), float(w[i_min]))
    return OracleReport(
        method="max_principle",
        sign_definite=True,
        details={"route": "grid", "order": k, "grid": n, "min_value": float(w[i_min])},
    )
