"""Constructive pipeline for the sharp weighted L^1 -> H^k_0 constant.

The sign-definite minimizer of

    integral |u| rho dx  <=  Lambda * || u^(k) ||_2,    u in H^k_0(0, 1)

solves (-1)^k u^(2k) = mu rho with clamped boundary data, so u^(k) is a
degree-(k-1) polynomial plus the k-th iterated integral of rho, with the k
unknown derivative seeds u^(2k-1-j)(0) fixed by the boundary conditions at 1.
Those conditions form the k x k falling-factorial system

    A s = b,    A[m][j] = (k+m)! / (k+m-j)!,
    b[m] = (-1)^(k+1) * integral (1-t)^(k+m) rho(t) dt,

whose matrix depends only on k and is invertible (Vandermonde-type).  Seeds
are stored mu-normalized (s = A^(-1) b), so the whole pipeline stays linear
until the single division

    1/mu = integral v^2,   v = u^(k)/mu,

after which u = mu * (k-fold antiderivative of v) and Lambda = mu^(-1/2).

Everything is exact rational arithmetic for weights with piecewise-polynomial
structure (including point masses); power weights x^(-alpha) run in float
mode with adaptive quadrature.  Known closed forms are computed alongside and
compared; a mismatch in mu is an internal error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Optional, Sequence

from . import closed_forms
from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    from_polynomial,
    pp_equal,
    pp_grid_values,
    pp_min_on_grid,
    pp_mul,
    pp_positive_on_open01,
)
from .quadrature import quad_numeric
from .scalars import EXACT, FLOAT, ModeMismatchError, Scalar, format_rational
from .weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    MomentVector,
    PolyWeight,
    PowerLawTerm,
    UnsupportedWeightError,
    Weight,
    as_piecewise,
    eval_weight,
    iterated_integral,
    moments,
)


class SolverError(RuntimeError):
    """Base class for pipeline failures."""


class ZeroWeightError(SolverError):
    """The weight has no mass, so no finite sharp constant exists."""


class SingularMatrixError(SolverError):
    """The seed system lost its pivot; must not happen for a valid order."""


class BoundaryResidualError(SolverError):
    """Float-mode boundary residual exceeded 1e-8: conditioning failure."""


class ClosedFormMismatchError(SolverError):
    """Pipeline and closed-form answers disagree: internal inconsistency."""


@dataclass(frozen=True)
class ProblemSpec:
    """Order k, weight rho, and the arithmetic mode of the computation."""

    k: int
    rho: Weight
    mode: str = EXACT

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"derivative order must be a positive integer, got {self.k}")
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == EXACT and not self.rho.exact_capable:
            raise ModeMismatchError(
                f"{self.rho.kind} weights have no exact pipeline; use float mode"
            )


@dataclass(frozen=True)
class LinearSystem:
    matrix: tuple  # k rows of k falling-factorial entries
    moments: MomentVector


@dataclass(frozen=True)
class DerivativeSeeds:
    """s[j] = u^(2k-1-j)(0) / mu for j = 0..k-1, satisfying A s = b."""

    k: int
    values: tuple


@dataclass
class SolveDiagnostics:
    boundary_residual: float = 0.0
    normalization_residual: float = 0.0
    min_interior_value: float = float("nan")
    positivity_certified: Optional[bool] = None
    closed_form_mu_checked: bool = False
    pointload_candidate_deviation: Optional[float] = None


@dataclass(frozen=True)
class ExtremalSolution:
    spec: ProblemSpec
    mu: Scalar
    lam: float
    seeds: Optional[DerivativeSeeds]
    u: object  # PiecewisePolynomial | PolyPlusPower | HardyExtremizer
    u_k: object  # same family: representation of the k-th derivative
    diagnostics: SolveDiagnostics
    method: str  # "pipeline" or "closed_form"

    @property
    def mu_exact(self) -> Optional[Fraction]:
        return self.mu if isinstance(self.mu, Fraction) else None

    def mu_string(self) -> Optional[str]:
        return format_rational(self.mu) if isinstance(self.mu, Fraction) else None

    def eval_u(self, x: float) -> float:
        u = self.u
        if isinstance(u, PiecewisePolynomial):
            return u.eval_float(x)
        return float(u(x))

    def eval_u_k(self, x: float) -> float:
        v = self.u_k
        if isinstance(v, PiecewisePolynomial):
            return v.eval_float(x)
        if isinstance(v, closed_forms.HardyExtremizer):
            return v.derivative(x)
        return float(v(x))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def build_matrix(k: int) -> tuple:
    """Falling-factorial matrix A[m][j] = (k+m)!/(k+m-j)!, exact integers.

    Built and structure-checked once per k; the tuple is immutable, so every
    solve of that order shares it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = []
    for m in range(k):
        row = []
        for j in range(k):
            row.append(Fraction(factorial(k + m), factorial(k + m - j)))
        rows.append(tuple(row))
    matrix = tuple(rows)
    _check_vandermonde_structure(matrix, k)
    return matrix


def _check_vandermonde_structure(matrix, k: int):
    # column j is a degree-j polynomial in the row index, so its (j+1)-th
    # finite difference down the column vanishes identically
    for j in range(k):
        col = [matrix[m][j] for m in range(k)]
        for _ in range(j + 1):
            col = [b - a for a, b in zip(col, col[1:])]
        if any(c != 0 for c in col):
            raise SingularMatrixError(f"column {j} broke the falling-factorial pattern")


def gaussian_solve(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list:
    """Dense linear solve with partial pivoting; exact over Fractions."""
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise SingularMatrixError("zero pivot in seed system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            if f == 0:
                continue
            for c in range(col, n + 1):
                aug[r][c] -= f * aug[col][c]
    out = [rhs[0] * 0] * n
    for r in range(n - 1, -1, -1):
        s = aug[r][n]
        for c in range(r + 1, n):
            s -= aug[r][c] * out[c]
        out[r] = s / aug[r][r]
    return out


def solve_seeds(system: LinearSystem) -> DerivativeSeeds:
    """s = A^(-1) b: by finite differences for exact b and the falling-factorial
    matrix, otherwise by :func:`gaussian_solve`."""
    k = system.moments.k
    b = system.moments.values
    if all(isinstance(v, Fraction) for v in b) and system.matrix == build_matrix(k):
        values = _difference_solve(k, b)
    else:
        values = gaussian_solve(system.matrix, list(b))
    return DerivativeSeeds(k, tuple(values))


def _difference_solve(k: int, b: Sequence[Fraction]) -> list:
    """Exact solve of sum_j (k+m)!/(k+m-j)! s_j = b_m, m = 0..k-1, in O(k^2).

    b_m = f(k+m) for f(x) = sum_j perm(x, j) s_j, and the forward difference
    of perm(x, j) is j perm(x, j-1).  So d_i = (Delta^i b)_0 =
    sum_{j >= i} perm(j, i) perm(k, j-i) s_j, an upper triangular system;
    in t_j = j! s_j it reads t_i = d_i - sum_{j > i} C(k, j-i) t_j.  With b
    over one denominator D every step is integer arithmetic.
    """
    den = math.lcm(*(v.denominator for v in b))
    d = [v.numerator * (den // v.denominator) for v in b]
    for i in range(1, k):
        # after pass i, d[i] holds the i-th difference at 0
        for m in range(k - 1, i - 1, -1):
            d[m] -= d[m - 1]
    binom = [comb(k, j) for j in range(k)]
    t = [0] * k
    for i in range(k - 1, -1, -1):
        t[i] = d[i] - sum(binom[j - i] * t[j] for j in range(i + 1, k))
    return [Fraction(t[i], den * factorial(i)) for i in range(k)]


@dataclass(frozen=True)
class PolyPlusPower:
    """poly(x) + term(x): float-mode function shapes for power weights."""

    poly: Polynomial
    term: PowerLawTerm

    def __call__(self, x: float) -> float:
        return self.poly.eval_float(x) + self.term(x)

    def antiderivative(self) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.antiderivative(), self.term.antiderivative())

    def derivative(self) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.derivative(), self.term.derivative())

    def scale(self, c: float) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.scale(c), self.term.scale(c))


def _seed_polynomial(seeds: DerivativeSeeds, mode: str) -> Polynomial:
    """sum_j s[j] x^(k-1-j)/(k-1-j)!, the polynomial part of u^(k)/mu."""
    k = seeds.k
    coeffs = [0] * k
    for j, s in enumerate(seeds.values):
        power = k - 1 - j
        if mode == EXACT:
            coeffs[power] = s / Fraction(factorial(power))
        else:
            coeffs[power] = float(s) / factorial(power)
    return Polynomial(coeffs, mode)


def assemble_uk(spec: ProblemSpec, seeds: DerivativeSeeds, iterated):
    """v = u^(k)/mu: seed polynomial plus (-1)^k times the iterated integral."""
    sign = (-1) ** spec.k
    poly_part = _seed_polynomial(seeds, spec.mode)
    if isinstance(iterated, PowerLawTerm):
        term = iterated.scale(float(sign))
        term = PowerLawTerm(float(term.coefficient), float(term.exponent))
        return PolyPlusPower(poly_part.to_float(), term)
    pp = iterated if spec.mode == EXACT else iterated.to_float()
    if spec.mode == EXACT:
        signed = pp.scale(Fraction(sign))
    else:
        signed = pp.scale(float(sign))
    return signed.add_polynomial(poly_part)


def compute_mu(v) -> Scalar:
    """mu = 1 / integral of v^2, exact for piecewise-polynomial v."""
    if isinstance(v, PiecewisePolynomial):
        energy = v.square_integral01()
        if energy == 0:
            raise ZeroWeightError("weight has no mass: v vanishes identically")
        if v.mode == EXACT:
            return Fraction(1) / energy
        return 1.0 / energy
    # power-weight route: numeric quadrature of the squared profile; the
    # integrand is continuous but has a fractional-power term at 0, so a
    # graded start mesh (generic strength 1/2) keeps the refinement local
    result = quad_numeric(
        lambda x: v(x) ** 2, 0.0, 1.0, tol=1e-13, singular_left=0.5
    )
    if result.value <= 0:
        raise ZeroWeightError("weight has no mass: v vanishes identically")
    return 1.0 / result.value


def assemble_u(spec: ProblemSpec, seeds: DerivativeSeeds, mu: Scalar, v):
    """u = mu * (k-fold antiderivative of v), plus residual diagnostics."""
    k = spec.k
    if isinstance(v, PiecewisePolynomial):
        anti = v
        for _ in range(k):
            anti = anti.antiderivative()
        u = anti.scale(mu)
        diags = _pp_diagnostics(spec, u, mu)
        return u, diags
    anti = v
    for _ in range(k):
        anti = anti.antiderivative()
    u = anti.scale(float(mu))
    diags = _power_diagnostics(spec, u, mu)
    return u, diags


def _pp_diagnostics(spec: ProblemSpec, u: PiecewisePolynomial, mu) -> SolveDiagnostics:
    k = spec.k
    diags = SolveDiagnostics()
    residual = 0.0
    d = u
    for j in range(k):
        residual = max(residual, abs(float(d.pieces[-1](d.breakpoints[-1]))))
        d = d.derivative()
    diags.boundary_residual = residual
    if spec.mode == FLOAT and residual > 1e-8:
        raise BoundaryResidualError(
            f"boundary residual {residual:.3e} exceeds 1e-8"
        )
    # normalization: integral of u rho must be 1 (point mass: u(a) = 1)
    if isinstance(spec.rho, DiracWeight):
        a = spec.rho.a if spec.mode == EXACT else float(spec.rho.a)
        norm = u(a)
    else:
        rho_pp = as_piecewise(spec.rho)
        if spec.mode == FLOAT:
            rho_pp = rho_pp.to_float()
        norm = pp_mul(u, rho_pp).integrate01()
    diags.normalization_residual = abs(float(norm) - 1.0)
    diags.min_interior_value = pp_min_on_grid(u)
    if spec.mode == EXACT:
        diags.positivity_certified = pp_positive_on_open01(u)
    return diags


def _power_diagnostics(spec: ProblemSpec, u: PolyPlusPower, mu) -> SolveDiagnostics:
    k = spec.k
    alpha = float(spec.rho.alpha)
    diags = SolveDiagnostics()
    residual = 0.0
    d = u
    for j in range(k):
        residual = max(residual, abs(d(1.0)))
        d = d.derivative()
    diags.boundary_residual = residual
    if residual > 1e-8:
        raise BoundaryResidualError(f"boundary residual {residual:.3e} exceeds 1e-8")
    norm = quad_numeric(
        lambda x: u(x) * eval_weight(spec.rho, x),
        0.0,
        1.0,
        tol=1e-12,
        singular_left=alpha,
    ).value
    diags.normalization_residual = abs(norm - 1.0)
    diags.min_interior_value = min(u(i / 4096) for i in range(1, 4096))
    return diags


# ---------------------------------------------------------------------------
# Closed forms and the full solve
# ---------------------------------------------------------------------------


def _hardy_solution(spec: ProblemSpec) -> ExtremalSolution:
    if spec.k != 1:
        raise UnsupportedWeightError(
            "the boundary weight 1/x^k is only supported for k = 1"
        )
    profile = closed_forms.HardyExtremizer()
    assert closed_forms.HardyExtremizer.weighted_integral() == 1
    assert closed_forms.HardyExtremizer.energy() == 1
    diags = SolveDiagnostics(
        boundary_residual=0.0,
        normalization_residual=0.0,
        min_interior_value=min(profile(i / 4096) for i in range(1, 4096)),
        positivity_certified=True,  # -x ln x > 0 on (0, 1) since ln x < 0
    )
    mu = Fraction(1) if spec.mode == EXACT else 1.0
    return ExtremalSolution(
        spec=spec,
        mu=mu,
        lam=1.0,
        seeds=None,
        u=profile,
        u_k=profile,  # eval_u_k dispatches to the derivative
        diagnostics=diags,
        method="closed_form",
    )


def closed_form(spec: ProblemSpec) -> Optional[ExtremalSolution]:
    """Bullet-case solution, or None when no closed form is known.

    Covered: constant weights (any k), first-order normalized indicators,
    point masses (any k), and the first-order boundary weight 1/x.  The
    point-mass profile for k >= 2 comes from the series candidate, which is
    known to be defective; its mu is still exact and the pipeline result is
    authoritative for the profile itself (see README).
    """
    rho = spec.rho
    k = spec.k
    if isinstance(rho, HardyWeight):
        return _hardy_solution(spec)
    if isinstance(rho, PolyWeight) and rho.poly.degree == 0:
        c = rho.poly.coeffs[0]
        if c == 0:
            raise ZeroWeightError("constant weight 0 has no sharp constant")
        mu = closed_forms.uniform_mu(k) / c**2
        base = closed_forms.uniform_minimizer(k)
        if isinstance(c, Fraction):
            u = from_polynomial(base.scale(Fraction(1) / c))
        else:
            u = from_polynomial(base.to_float().scale(1.0 / c))
    elif isinstance(rho, IndicatorWeight) and k == 1:
        mu = closed_forms.indicator_mu(rho.a, rho.b)
        u = None
    elif isinstance(rho, DiracWeight):
        mu = closed_forms.dirac_mu(k, rho.a)
        profile = closed_forms.pointload_series_profile(k, rho.a)
        peak = profile(rho.a)
        u = profile.scale(Fraction(1) / peak)  # rescale to u(a) = 1
    else:
        return None
    if spec.mode == FLOAT:
        mu_out: Scalar = float(mu)
        u_out = u.to_float() if u is not None else None
    else:
        mu_out = mu
        u_out = u
    u_k = None
    if u_out is not None:
        u_k = u_out.derivative()
        for _ in range(k - 1):
            u_k = u_k.derivative()
    return ExtremalSolution(
        spec=spec,
        mu=mu_out,
        lam=1.0 / math.sqrt(float(mu_out)),
        seeds=None,
        u=u_out,
        u_k=u_k,
        diagnostics=SolveDiagnostics(),
        method="closed_form",
    )


def _grid_deviation(
    f: PiecewisePolynomial, g: PiecewisePolynomial, n: int = 512
) -> float:
    """max |f(i/n) - g(i/n)| over 0 <= i <= n, each sample as eval_float's."""
    pairs = zip(pp_grid_values(f, n), pp_grid_values(g, n))
    return max(abs(a - b) for a, b in pairs)


def _compare_with_closed_form(
    spec: ProblemSpec, solution: ExtremalSolution, reference: ExtremalSolution
):
    diags = solution.diagnostics
    if spec.mode == EXACT:
        if solution.mu != reference.mu:
            raise ClosedFormMismatchError(
                f"pipeline mu {solution.mu} != closed form {reference.mu}"
            )
    else:
        rel = abs(float(solution.mu) - float(reference.mu)) / abs(float(reference.mu))
        if rel > 1e-10:
            raise ClosedFormMismatchError(
                f"pipeline mu off closed form by relative {rel:.3e}"
            )
    diags.closed_form_mu_checked = True
    if reference.u is None:
        return
    if isinstance(spec.rho, DiracWeight):
        # The series profile is only trustworthy at k = 1; for k >= 2 record
        # its deviation from the authoritative pipeline extremizer instead of
        # failing (its one-sided derivatives disagree at the mass point).
        diags.pointload_candidate_deviation = _grid_deviation(solution.u, reference.u)
        if spec.k == 1 and spec.mode == EXACT:
            if not pp_equal(solution.u, reference.u):
                raise ClosedFormMismatchError(
                    "first-order point-mass extremizers disagree"
                )
        return
    if spec.mode == EXACT:
        if not pp_equal(solution.u, reference.u):
            raise ClosedFormMismatchError("pipeline extremizer != closed form")
    else:
        dev = _grid_deviation(solution.u, reference.u)
        if dev > 1e-9:
            raise ClosedFormMismatchError(f"extremizers deviate by {dev:.3e}")


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Run the full pipeline and cross-check against closed forms."""
    if isinstance(spec.rho, HardyWeight):
        return _hardy_solution(spec)

    b = moments(spec.rho, spec.k)
    if all(v == 0 for v in b.values):
        raise ZeroWeightError("weight has no mass")
    if spec.mode == FLOAT:
        b = b.to_float()
    matrix = build_matrix(spec.k)
    if spec.mode == FLOAT:
        matrix = tuple(tuple(float(x) for x in row) for row in matrix)
    seeds = solve_seeds(LinearSystem(matrix, b))
    iterated = iterated_integral(spec.rho, spec.k)
    v = assemble_uk(spec, seeds, iterated)
    mu = compute_mu(v)
    u, diags = assemble_u(spec, seeds, mu, v)
    u_k = v.scale(mu if isinstance(v, PiecewisePolynomial) else float(mu))
    solution = ExtremalSolution(
        spec=spec,
        mu=mu,
        lam=1.0 / math.sqrt(float(mu)),
        seeds=seeds,
        u=u,
        u_k=u_k,
        diagnostics=diags,
        method="pipeline",
    )
    reference = closed_form(spec)
    if reference is not None:
        _compare_with_closed_form(spec, solution, reference)
    return solution
