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

Every stage is exact rational arithmetic.  A piecewise-polynomial weight
(point masses included) gives a piecewise-polynomial u; x^(-alpha) with
rational alpha gives u = polynomial + c x^(2k-alpha), whose integrals are
exact too, so no quadrature runs.  Float mode rounds mu, u and u^(k) of the
same exact result at output.  Known closed forms are computed alongside and
compared exactly; a mismatch is an internal error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import Optional, Sequence

from . import closed_forms
from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    derivatives_at_one,
    from_polynomial,
    integer_form,
    integrate_product,
    kfold_antiderivative,
    kth_derivative,
    pp_equal,
    pp_grid_values,
    pp_grid_values_exact,
    pp_integrate_product,
    # uncalled, but perfbench/tracing.py patches this name to time the grid scan
    pp_min_on_grid,  # noqa: F401
    pp_positive_on_open01,
)
from .scalars import EXACT, FLOAT, ModeMismatchError, Scalar, format_rational, record
from .weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    MomentVector,
    PolyWeight,
    PowerLawTerm,
    PowerWeight,
    UnsupportedWeightError,
    Weight,
    as_piecewise,
    iterated_integral,
    moments,
)


def __getattr__(name):
    # uncalled here, but perfbench/tracing.py patches this name to count
    # quadrature; resolved on first access, so a solve does not load the
    # quadrature module
    if name == "quad_numeric":
        from .quadrature import quad_numeric

        return quad_numeric
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Base class for pipeline failures."""


class ZeroWeightError(SolverError):
    """The weight has no mass, so no finite sharp constant exists."""


class SingularMatrixError(SolverError):
    """The seed system lost its pivot; must not happen for a valid order."""


class BoundaryResidualError(SolverError):
    """An exact u^(j)(1), j < k, is not 0: internal inconsistency."""


class ClosedFormMismatchError(SolverError):
    """Pipeline and closed-form answers disagree: internal inconsistency."""


@record
class ProblemSpec:
    """Order k, weight rho, and the output mode: exact, or rounded to floats.

    Power weights are float mode only (u is no piecewise polynomial);
    weights with float coefficients are rejected in both modes.
    """

    k: int
    rho: Weight
    mode: str = EXACT

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"derivative order must be a positive integer, got {self.k}")
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.rho, PowerWeight):
            if self.mode == EXACT:
                raise ModeMismatchError("power weights are solved in float mode")
        elif not self.rho.exact_capable:
            raise ModeMismatchError(
                "weights with float coefficients have no exact pipeline"
            )


@record
class LinearSystem:
    matrix: tuple  # k rows of k falling-factorial entries
    moments: MomentVector


@record
class DerivativeSeeds:
    """s[j] = u^(2k-1-j)(0) / mu for j = 0..k-1, satisfying A s = b."""

    k: int
    values: tuple


@record(frozen=False)
class SolveDiagnostics:
    boundary_residual: float = 0.0
    normalization_residual: float = 0.0
    # float grid minimum, only where no positivity certificate runs
    min_interior_value: Optional[float] = None
    positivity_certified: Optional[bool] = None
    closed_form_mu_checked: bool = False
    pointload_candidate_deviation: Optional[float] = None


@record
class ExtremalSolution:
    spec: ProblemSpec
    mu: Scalar
    lam: float
    seeds: Optional[DerivativeSeeds]
    # PiecewisePolynomial | PolyPlusPower | HardyExtremizer; in float mode
    # the exact result's to_float()
    u: object
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
    """Falling-factorial matrix A[m][j] = (k+m)!/(k+m-j)!, exact integers
    held as Fractions, so that :func:`gaussian_solve` on it stays exact.

    Built and structure-checked in ints once per k; the tuple is immutable,
    so every solve of that order shares it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = [[perm(k + m, j) for j in range(k)] for m in range(k)]
    _check_vandermonde_structure(rows, k)
    return tuple(tuple(Fraction(a) for a in row) for row in rows)


def _check_vandermonde_structure(matrix, k: int):
    # column j is a degree-j polynomial in the row index, so its (j+1)-th
    # finite difference down the column vanishes identically; the last
    # column has no (j+1)-th difference left in k rows, so its entries are
    # compared with (k+m)!/(m+1)! directly
    for j in range(k - 1):
        col = [matrix[m][j] for m in range(k)]
        for _ in range(j + 1):
            col = [b - a for a, b in zip(col, col[1:])]
        if any(c != 0 for c in col):
            raise SingularMatrixError(f"column {j} broke the falling-factorial pattern")
    if any(matrix[m][k - 1] != perm(k + m, k - 1) for m in range(k)):
        raise SingularMatrixError(f"column {k - 1} broke the falling-factorial pattern")


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
    d, den = integer_form(b)
    for i in range(1, k):
        # after pass i, d[i] holds the i-th difference at 0
        for m in range(k - 1, i - 1, -1):
            d[m] -= d[m - 1]
    binom = [comb(k, j) for j in range(k)]
    t = [0] * k
    for i in range(k - 1, -1, -1):
        t[i] = d[i] - sum(binom[j - i] * t[j] for j in range(i + 1, k))
    return [Fraction(t[i], den * factorial(i)) for i in range(k)]


@record
class PolyPlusPower:
    """poly(x) + c x^e for a power weight: every integral the pipeline needs
    is a sum of 1/(e + 1) terms, so it is exact; pointwise values are floats."""

    poly: Polynomial
    term: PowerLawTerm

    def __call__(self, x: float) -> float:
        return self.poly.eval_float(x) + self.term(x)

    def antiderivative(self) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.antiderivative(), self.term.antiderivative())

    def scale(self, c) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.scale(c), self.term.scale(c))

    def to_float(self) -> "PolyPlusPower":
        term = PowerLawTerm(float(self.term.coefficient), float(self.term.exponent))
        return PolyPlusPower(self.poly.to_float(), term)

    def square_integral01(self) -> Fraction:
        """integral of (p + c x^e)^2 = integral p^2 + 2c sum a_i/(i+e+1) + c^2/(2e+1)."""
        c, e = self.term.coefficient, self.term.exponent
        cross = sum(a / (i + e + 1) for i, a in enumerate(self.poly.coeffs))
        square = integrate_product(self.poly, self.poly, 0, 1)
        return square + 2 * c * cross + c * c / (2 * e + 1)

    def power_moment(self, alpha: Fraction) -> Fraction:
        """integral of (p + c x^e) x^(-alpha) = sum a_i/(i+1-alpha) + c/(e+1-alpha)."""
        c, e = self.term.coefficient, self.term.exponent
        poly_part = sum(a / (i + 1 - alpha) for i, a in enumerate(self.poly.coeffs))
        return poly_part + c / (e + 1 - alpha)

    def min_on_grid(self, n: int = 4096) -> float:
        """Float minimum over the interior grid points i/n, coefficients
        converted once."""
        coeffs = [float(a) for a in reversed(self.poly.coeffs)]
        c, e = float(self.term.coefficient), float(self.term.exponent)
        best = float("inf")
        for i in range(1, n):
            x = i / n
            acc = 0.0
            for a in coeffs:
                acc = acc * x + a
            acc += c * x**e
            if acc < best:
                best = acc
        return best


def _seed_polynomial(seeds: DerivativeSeeds) -> Polynomial:
    """sum_j s[j] x^(k-1-j)/(k-1-j)!, the polynomial part of u^(k)/mu."""
    coeffs = [0] * seeds.k
    for j, s in enumerate(seeds.values):
        power = seeds.k - 1 - j
        coeffs[power] = s / Fraction(factorial(power))
    return Polynomial(coeffs, EXACT)


def assemble_uk(spec: ProblemSpec, seeds: DerivativeSeeds, iterated):
    """v = u^(k)/mu: seed polynomial plus (-1)^k times the iterated integral."""
    sign = Fraction((-1) ** spec.k)
    poly_part = _seed_polynomial(seeds)
    if isinstance(iterated, PowerLawTerm):
        return PolyPlusPower(poly_part, iterated.scale(sign))
    return iterated.scale(sign).add_polynomial(poly_part)


def sharp_constant(mu: Fraction) -> float:
    """Lambda = mu^(-1/2) from mu's numerator and denominator, also for mu
    past the float range, where float(mu) overflows.

    With t = floor((bits(p) - bits(q)) / 2), mu / 4^t lies in [1/2, 4).  A
    power of two passes through correctly rounded division and square root
    unchanged, so wherever float(mu) and the result are normal floats this
    equals 1 / sqrt(float(mu)) bit for bit.
    """
    p, q = mu.numerator, mu.denominator
    t = (p.bit_length() - q.bit_length()) // 2
    scaled = p / (q << 2 * t) if t >= 0 else (p << -2 * t) / q
    return math.ldexp(1.0 / math.sqrt(scaled), -t)


def float_mu(mu) -> float:
    """float(mu), or an OverflowError naming mu's size for an exact mu past
    the float range."""
    try:
        return float(mu)
    except OverflowError:
        exponent = int((mu.numerator.bit_length() - mu.denominator.bit_length()) * 0.30103)
        raise OverflowError(
            f"mu (about 10^{exponent}) overflows a float; "
            f"`constant --mode exact` prints it as mu_exact"
        ) from None


def compute_mu(v) -> Fraction:
    """mu = 1 / integral of v^2, exact."""
    energy = v.square_integral01()
    if energy == 0:
        raise ZeroWeightError("weight has no mass: v vanishes identically")
    return Fraction(1) / energy


def assemble_u(spec: ProblemSpec, seeds: DerivativeSeeds, mu: Fraction, v):
    """u = mu * (k-fold antiderivative of v), plus residual diagnostics.

    A piecewise v takes one integer pass of kfold_antiderivative; the power
    term of a PolyPlusPower integrates step by step."""
    if isinstance(v, PolyPlusPower):
        anti = v
        for _ in range(spec.k):
            anti = anti.antiderivative()
    else:
        anti = kfold_antiderivative(v, spec.k)
    u = anti.scale(mu)
    return u, _diagnostics(spec, u)


def _derivatives_at_one(u, k: int) -> list:
    """u^(j)(1) for j < k from the last piece, or from the polynomial part
    plus c x^e, whose j-th derivative at 1 is the same falling factorial
    c e(e-1)...(e-j+1)."""
    if isinstance(u, PiecewisePolynomial):
        return derivatives_at_one(u.pieces[-1], k)
    values = derivatives_at_one(u.poly, k)
    c, e = u.term.coefficient, u.term.exponent
    for j in range(k):
        values[j] += c
        c *= e - j
    return values


def _diagnostics(spec: ProblemSpec, u) -> SolveDiagnostics:
    """Exact boundary and normalization residuals and, for a piecewise
    polynomial, the positivity certificate.  A power-weight extremizer has
    no certificate; it reports the float minimum over the interior grid
    instead."""
    rho = spec.rho
    diags = SolveDiagnostics()
    for j, value in enumerate(_derivatives_at_one(u, spec.k)):
        if value != 0:
            raise BoundaryResidualError(f"u^({j})(1) = {value}, not 0")
    # normalization: integral of u rho must be 1 (point mass: u(a) = 1)
    if isinstance(rho, DiracWeight):
        norm = u(rho.a)
    elif isinstance(u, PolyPlusPower):
        norm = u.power_moment(rho.alpha)
    else:
        norm = pp_integrate_product(u, as_piecewise(rho))
    diags.normalization_residual = abs(float(norm) - 1.0)
    if isinstance(u, PolyPlusPower):
        diags.min_interior_value = u.min_on_grid()
    else:
        diags.positivity_certified = pp_positive_on_open01(u)
    return diags


# ---------------------------------------------------------------------------
# Closed forms and the full solve
# ---------------------------------------------------------------------------


def _round_at_output(solution: ExtremalSolution) -> ExtremalSolution:
    """Float mode is the exact result rounded: mu to a float, u and u_k to
    float coefficients.  Exact mode returns the solution unchanged."""
    if solution.spec.mode == EXACT:
        return solution

    def rounded(f):
        return f.to_float() if isinstance(f, (PiecewisePolynomial, PolyPlusPower)) else f

    return ExtremalSolution(
        solution.spec,
        float_mu(solution.mu),
        solution.lam,
        solution.seeds,
        rounded(solution.u),
        rounded(solution.u_k),
        solution.diagnostics,
        solution.method,
    )


def _hardy_solution(spec: ProblemSpec) -> ExtremalSolution:
    if spec.k != 1:
        raise UnsupportedWeightError(
            "the boundary weight 1/x^k is only supported for k = 1"
        )
    profile = closed_forms.HardyExtremizer()
    assert closed_forms.HardyExtremizer.weighted_integral() == 1
    assert closed_forms.HardyExtremizer.energy() == 1
    # -x ln x > 0 on (0, 1) since ln x < 0
    diags = SolveDiagnostics(positivity_certified=True)
    return _round_at_output(
        ExtremalSolution(
            spec=spec,
            mu=Fraction(1),
            lam=1.0,
            seeds=None,
            u=profile,
            u_k=profile,  # eval_u_k dispatches to the derivative
            diagnostics=diags,
            method="closed_form",
        )
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
        u = from_polynomial(closed_forms.uniform_minimizer(k).scale(Fraction(1) / c))
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
    u_k = None if u is None else kth_derivative(u, k)
    return _round_at_output(
        ExtremalSolution(
            spec=spec,
            mu=mu,
            lam=sharp_constant(mu),
            seeds=None,
            u=u,
            u_k=u_k,
            diagnostics=SolveDiagnostics(),
            method="closed_form",
        )
    )


def _grid_deviation(
    f: PiecewisePolynomial, g: PiecewisePolynomial, n: int = 512
) -> Optional[float]:
    """max |f(i/n) - g(i/n)| over 0 <= i <= n, each sample as eval_float's.

    Where a coefficient overflows a float (a point mass near an end at high
    k) the samples are the floats of the exact values instead, and where
    those overflow too, or the maximum does, there is no deviation to report.
    """
    for values in (pp_grid_values, pp_grid_values_exact):
        try:
            deviation = max(abs(a - b) for a, b in zip(values(f, n), values(g, n)))
        except OverflowError:
            continue
        return deviation if math.isfinite(deviation) else None
    return None


def _compare_with_closed_form(
    spec: ProblemSpec, solution: ExtremalSolution, reference: ExtremalSolution
):
    diags = solution.diagnostics
    if solution.mu != reference.mu:
        raise ClosedFormMismatchError(
            f"pipeline mu {solution.mu} != closed form {reference.mu}"
        )
    diags.closed_form_mu_checked = True
    if reference.u is None:
        return
    if isinstance(spec.rho, DiracWeight):
        # The series profile is only trustworthy at k = 1, where the two
        # must be equal, and equal canonical pieces sample to the same
        # floats, so their deviation is 0.0 without a grid.  For k >= 2
        # record its deviation from the authoritative pipeline extremizer
        # instead of failing (its one-sided derivatives disagree at the mass
        # point).
        if spec.k > 1:
            diags.pointload_candidate_deviation = _grid_deviation(solution.u, reference.u)
        elif pp_equal(solution.u, reference.u):
            diags.pointload_candidate_deviation = 0.0
        else:
            raise ClosedFormMismatchError("first-order point-mass extremizers disagree")
        return
    if not pp_equal(solution.u, reference.u):
        raise ClosedFormMismatchError("pipeline extremizer != closed form")


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Run the exact pipeline, cross-check it against closed forms and, in
    float mode, round the result at output."""
    if isinstance(spec.rho, HardyWeight):
        return _hardy_solution(spec)

    b = moments(spec.rho, spec.k)
    if all(v == 0 for v in b.values):
        raise ZeroWeightError("weight has no mass")
    seeds = solve_seeds(LinearSystem(build_matrix(spec.k), b))
    iterated = iterated_integral(spec.rho, spec.k)
    v = assemble_uk(spec, seeds, iterated)
    mu = compute_mu(v)
    u, diags = assemble_u(spec, seeds, mu, v)
    solution = ExtremalSolution(
        spec=spec,
        mu=mu,
        lam=sharp_constant(mu),
        seeds=seeds,
        u=u,
        u_k=v.scale(mu),
        diagnostics=diags,
        method="pipeline",
    )
    if spec.rho.exact_capable:  # power weights have no closed form
        reference = closed_form(ProblemSpec(spec.k, spec.rho, EXACT))
        if reference is not None:
            _compare_with_closed_form(spec, solution, reference)
    return _round_at_output(solution)
