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
are stored mu-normalized (s = A^(-1) b): v = u^(k)/mu, and its k-fold
antiderivative w = u/mu solves (-1)^k w^(2k) = rho with clamped ends, so
k integrations by parts give 1/mu = integral v^2 = integral w rho, a linear
functional of w; then u = mu w and Lambda = mu^(-1/2).  The normalization
integral u rho = 1 holds by construction (normalization_residual is 0).
mu is checked by the exact boundary check u^(j)(1) = 0, j < k, which
raises, by the exact closed-form cross-check, and in the tests by the
energy identity integral (u^(k))^2 = mu.  u > 0 on (0, 1) is certified by
Boggio's theorem, whose hypotheses are checked on u's integer numerators.

Every stage is exact rational arithmetic.  A piecewise-polynomial weight
(point masses included) gives a piecewise-polynomial u; x^(-alpha) with
rational alpha gives u = polynomial + c x^(2k-alpha), whose integrals are
exact too, so no quadrature runs.  Float mode rounds mu of the same exact
result at output and keeps u and u^(k) exact, so a float sampled from a
piecewise u is the rounding of its exact value.  Each solve of a weight
with a known closed form compares mu with it exactly, and u too where the
closed-form profile is the extremizer; a mismatch is an internal error.
A point mass at k >= 2 is checked by its mu alone, and its series
profile's deviation from u is computed when that diagnostic is first read.
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
    exact_polynomial,
    from_polynomial,
    integer_difference,
    kfold_antiderivative,
    kth_derivative,
    pp_equal,
    pp_grid_values_exact,
    pp_integrate_product,
    # uncalled, but perfbench/tracing.py patches this name to time the grid scan
    pp_min_on_grid,  # noqa: F401
    # uncalled (extremizers are certified by Boggio's theorem), but
    # perfbench/tracing.py patches this name to time the certificate
    pp_positive_on_open01,  # noqa: F401
    strip_root,
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
    """The seed matrix broke its falling-factorial pattern; must not happen."""


class BoundaryResidualError(SolverError):
    """An exact u^(j)(1), j < k, is not 0: internal inconsistency."""


class ClosedFormMismatchError(SolverError):
    """Pipeline and closed-form answers disagree: internal inconsistency."""


@record
class ProblemSpec:
    """Order k, weight rho, and the output mode: exact, or rounded to floats.

    Power weights are float mode only (u is no piecewise polynomial).
    """

    k: int
    rho: Weight
    mode: str = EXACT

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"derivative order must be a positive integer, got {self.k}")
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.rho, PowerWeight) and self.mode == EXACT:
            raise ModeMismatchError("power weights are solved in float mode")


@record
class LinearSystem:
    matrix: tuple  # k rows of k falling-factorial entries
    moments: MomentVector


@record
class DerivativeSeeds:
    """s_j = u^(2k-1-j)(0) / mu = nums[j] / (den j!) for j = 0..k-1, with A s = b;
    ``values``, the s_j as Fractions, is built only when read."""

    k: int
    nums: tuple
    den: int

    @property
    def values(self) -> tuple:
        return tuple(Fraction(t, self.den * factorial(j)) for j, t in enumerate(self.nums))


@record(frozen=False)
class SolveDiagnostics:
    boundary_residual: float = 0.0
    normalization_residual: float = 0.0
    # no solve sets it: every kind has a positivity certificate; kept as a
    # JSON key of `constant`, where it reads null
    min_interior_value: Optional[float] = None
    positivity_certified: Optional[bool] = None
    closed_form_mu_checked: bool = False
    # (u, spec) until first read after a point-mass solve at k >= 2
    pointload_candidate_deviation: Optional[float] = None


def _read_deviation(diags: SolveDiagnostics) -> Optional[float]:
    """pointload_candidate_deviation, computed on first read where a
    point-mass solve at k >= 2 left (exact u, spec) in its place; the float
    then replaces the pair, dropping u."""
    state = diags.__dict__
    value = state["pointload_candidate_deviation"]
    if isinstance(value, tuple):
        u, spec = value
        reference = closed_form(ProblemSpec(spec.k, spec.rho, EXACT))
        value = state["pointload_candidate_deviation"] = _grid_deviation(u, reference.u)
    return value


# installed after @record, which takes the class attribute None as the
# field's default and writes fields straight into the instance __dict__
SolveDiagnostics.pointload_candidate_deviation = property(
    _read_deviation,
    lambda diags, value: diags.__dict__.update(pointload_candidate_deviation=value),
)


@record
class ExtremalSolution:
    spec: ProblemSpec
    mu: Scalar
    lam: float
    seeds: Optional[DerivativeSeeds]
    # PiecewisePolynomial | PolyPlusPower | HardyExtremizer, exact in both
    # modes
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
        """u(x); for a piecewise u, the rounding of the exact value."""
        u = self.u
        if isinstance(u, PiecewisePolynomial):
            return float(u(Fraction(x)))
        return float(u(x))

    def eval_u_k(self, x: float) -> float:
        """u^(k)(x); for a piecewise u, the rounding of the exact value."""
        v = self.u_k
        if isinstance(v, PiecewisePolynomial):
            return float(v(Fraction(x)))
        if isinstance(v, closed_forms.HardyExtremizer):
            return v.derivative(x)
        return float(v(x))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def build_matrix(k: int) -> tuple:
    """Falling-factorial matrix A[m][j] = (k+m)!/(k+m-j)!, exact ints.

    Built and structure-checked once per k; the tuple is immutable, so
    every solve of that order shares it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = [[perm(k + m, j) for j in range(k)] for m in range(k)]
    _check_vandermonde_structure(rows, k)
    return tuple(tuple(row) for row in rows)


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


def solve_seeds(system: LinearSystem) -> DerivativeSeeds:
    """s = A^(-1) b by finite differences, for A = build_matrix(k) and an
    exact b; another matrix raises ValueError, a float b ModeMismatchError."""
    b = system.moments
    if system.matrix != build_matrix(b.k):
        raise ValueError("the seed system's matrix is not build_matrix(k)")
    if not all(type(v) is int for v in (*b.nums, b.den)):
        raise ModeMismatchError("the seed system's right-hand side is not exact")
    return DerivativeSeeds(b.k, tuple(_difference_solve(b.k, b.nums)), b.den)


def _difference_solve(k: int, b: Sequence[int]) -> list:
    """Integers t_j = j! D s_j for sum_j (k+m)!/(k+m-j)! s_j = b_m / D,
    m = 0..k-1, from the integer numerators b over D, in O(k^2).

    f(x) = sum_j perm(x, j) D s_j has f(k+m) = b_m, and the forward
    difference of perm(x, j) is j perm(x, j-1).  So d_i = (Delta^i b)_0 =
    sum_{j >= i} perm(j, i) perm(k, j-i) D s_j, an upper triangular system;
    in t_j it reads t_i = d_i - sum_{j > i} C(k, j-i) t_j, all in integers.
    """
    d = list(b)
    for i in range(1, k):
        # after pass i, d[i] holds the i-th difference at 0
        for m in range(k - 1, i - 1, -1):
            d[m] -= d[m - 1]
    binom = [comb(k, j) for j in range(k)]
    t = [0] * k
    for i in range(k - 1, -1, -1):
        t[i] = d[i] - sum(binom[j - i] * t[j] for j in range(i + 1, k))
    return t


@record
class PolyPlusPower:
    """poly(x) + c x^e for a power weight: every integral the pipeline needs
    is a sum of 1/(e + 1) terms, and positivity is certified from poly, c
    and e (see _diagnostics), all exact; pointwise values are floats."""

    poly: Polynomial
    term: PowerLawTerm

    def __call__(self, x: float) -> float:
        return self.poly.eval_float(x) + self.term(x)

    def scale(self, c) -> "PolyPlusPower":
        return PolyPlusPower(self.poly.scale(c), self.term.scale(c))

    def power_moment(self, alpha: Fraction) -> Fraction:
        """integral of (p + c x^e) x^(-alpha) = sum a_i/(i+1-alpha) + c/(e+1-alpha).

        With alpha = s/t, a_i = n_i/d and the gaps g_i = (i+1)t - s, the
        sum is t sum n_i (L/g_i) over d L for L = lcm of the gaps, and the
        last term is c t e_d / (c_d ((e_n + e_d) t - s e_d)): integers over
        one denominator, and one Fraction.
        """
        c, e = self.term.coefficient, self.term.exponent
        s, t = alpha.numerator, alpha.denominator
        nums, den = self.poly.nums, self.poly.den
        gaps = [(i + 1) * t - s for i in range(len(nums))]
        scale = math.lcm(*gaps)
        top = t * sum(a * (scale // g) for a, g in zip(nums, gaps))
        tail_top = c.numerator * e.denominator * t
        tail_den = c.denominator * ((e.numerator + e.denominator) * t - s * e.denominator)
        return Fraction(top * tail_den + tail_top * den * scale, den * scale * tail_den)


def _seed_polynomial(seeds: DerivativeSeeds) -> Polynomial:
    """sum_j s_j x^(k-1-j)/(k-1-j)!, the polynomial part of u^(k)/mu, in
    integers over one denominator: with s_j = t_j/(D j!),
    s_j/(k-1-j)! = t_j C(k-1, j)/(D (k-1)!)."""
    n = seeds.k - 1
    coeffs = [t * comb(n, j) for j, t in enumerate(seeds.nums)]
    return exact_polynomial(coeffs[::-1], seeds.den * factorial(n))


def assemble_uk(spec: ProblemSpec, seeds: DerivativeSeeds, iterated):
    """v = u^(k)/mu: seed polynomial P plus (-1)^k times the iterated
    integral I, one pass over I's pieces: P - I at odd k, I + P at even k."""
    poly_part = _seed_polynomial(seeds)
    if isinstance(iterated, PowerLawTerm):
        return PolyPlusPower(poly_part, iterated.scale((-1) ** spec.k))
    if spec.k % 2:
        return iterated.map_pieces(lambda p: poly_part - p)
    return iterated.add_polynomial(poly_part)


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


def _assemble_w(v, k: int):
    """w = u/mu, the k-fold antiderivative of v, in one pass: one integer
    pass for a piecewise v or a power weight's polynomial part, and for c x^e
    the term c/((e+1)...(e+k)) x^(e+k), the rising product in integers:
    with e = r/d it is prod (r + id) / d^k."""
    if isinstance(v, PolyPlusPower):
        c, e = v.term.coefficient, v.term.exponent
        r, d = e.numerator, e.denominator
        rising = math.prod(r + i * d for i in range(1, k + 1))
        term = PowerLawTerm(c * Fraction(d**k, rising), e + k)
        return PolyPlusPower(kfold_antiderivative(v.poly, k), term)
    return kfold_antiderivative(v, k)


def compute_mu(w, rho: Weight) -> Fraction:
    """mu = 1 / integral of w rho for w = u/mu, exact: w(a) for a point
    mass, the power moment for x^(-alpha), else over the pieces of rho."""
    if isinstance(rho, DiracWeight):
        dual = w(rho.a)
    elif isinstance(w, PolyPlusPower):
        dual = w.power_moment(rho.alpha)
    else:
        dual = pp_integrate_product(w, as_piecewise(rho))
    if dual == 0:
        raise ZeroWeightError("weight has no mass: w vanishes identically")
    return Fraction(1) / dual


def assemble_u(spec: ProblemSpec, seeds: DerivativeSeeds, mu: Fraction, w):
    """u = mu w, plus its diagnostics."""
    u = w.scale(mu)
    return u, _diagnostics(spec, u)


def _diagnostics(spec: ProblemSpec, u) -> SolveDiagnostics:
    """The exact boundary check, which raises, and the positivity
    certificate.

    u^(j)(1) = 0 for j < k exactly when (x - 1)^k divides u's last piece:
    one :func:`strip_root` at 1 decides it.  A failed check, or
    u = P + c x^e, reads u^(j)(1) by :func:`derivatives_at_one`, as integers
    over a denominator; c x^e adds c e(e-1)...(e-j+1), stepped as an
    integer top over an integer bottom.  A Fraction is built only for the
    message.

    Positivity is certified by Boggio's theorem: the clamped Green's
    function G_k of (-1)^k d^2k/dx^2k is positive on (0, 1)^2 (Gazzola,
    Grunau & Sweers, LNM 1991, section 2.6), so u = lambda integral
    G_k(., y) rho(y) dy > 0 for lambda > 0 and rho >= 0, rho not 0, which
    every Weight certifies when it is built.  u is that integral when
    u^(j)(0) = u^(j)(1) = 0 for j < k and (-1)^k u^(2k) = lambda rho,
    checked exactly.  For u = P + c x^e: e = 2k - alpha makes every factor
    of e(e-1)...(e-2k+1) positive, deg P < 2k and (-1)^k c > 0, and P has
    no term below x^k (x^e adds nothing to u^(j)(0)); a piecewise u goes
    to :func:`_boggio_piecewise`.
    """
    k = spec.k
    piecewise = isinstance(u, PiecewisePolynomial)
    if not piecewise or strip_root(u.pieces[-1], 1)[1] < k:
        nums, den = derivatives_at_one(u.pieces[-1] if piecewise else u.poly, k)
        c, e = (Fraction(0), Fraction(0)) if piecewise else (u.term.coefficient, u.term.exponent)
        top, bottom = c.numerator, c.denominator
        for j, a in enumerate(nums):
            residual = a * bottom + top * den
            if residual:
                value = Fraction(residual, den * bottom)
                raise BoundaryResidualError(f"u^({j})(1) = {value}, not 0")
            top *= e.numerator - j * e.denominator
            bottom *= e.denominator
    if piecewise:
        certified = _boggio_piecewise(u, spec.rho, k)
    else:
        certified = (
            u.term.exponent == 2 * k - spec.rho.alpha
            and u.poly.degree < 2 * k
            and not any(u.poly.nums[:k])
            and (-1) ** k * u.term.coefficient > 0
        )
    return SolveDiagnostics(positivity_certified=certified)


def _boggio_piecewise(u: PiecewisePolynomial, rho: Weight, k: int) -> bool:
    """Boggio's hypotheses, bar the boundary check at 1, for a piecewise u
    and a piecewise-polynomial or point-mass rho, on u's integer numerators.

    (H1) u^(j)(0) = 0 for j < k: the first piece has no term below x^k.
    (H3) u's breakpoints are rho's, and on each piece (-1)^k u^(2k) =
    lambda rho with one lambda > 0: with u = N/D and rho = R/E there, the
    x^j numerator of u^(2k) is N_(j+2k) (j+2k)!/j!, and these are
    proportional to R; lambda is read off the top coefficients and compared
    across pieces by cross-multiplication.  A piece where rho is 0, and
    every piece for a point mass, has degree < 2k.
    (H4) at each interior breakpoint a = s/t, (t x - s)^2k divides the jump
    u_right - u_left, so u^(j) is continuous for j < 2k; for a point mass
    at a the jump is c (x - a)^(2k-1) with (-1)^k c > 0, so u^(2k-1)
    jumps by (-1)^k lambda, lambda > 0.
    """
    two_k, sign = 2 * k, (-1) ** k
    if isinstance(rho, DiracWeight):
        loads, cuts = None, (0, rho.a, 1)
    else:
        load = as_piecewise(rho)
        loads, cuts = load.pieces, load.breakpoints
    if u.breakpoints != cuts:
        return False
    pieces = [(p.nums, p.den) for p in u.pieces]
    if any(pieces[0][0][:k]):
        return False
    if loads is None:
        if any(len(nums) > two_k for nums, _ in pieces):
            return False
    else:
        lam = None  # (P, Q) with lambda = P/Q
        for (nums, den), load_piece in zip(pieces, loads):
            r, top = load_piece.nums, nums[two_k:]
            if len(top) != len(r):
                return False
            if not r:
                continue
            scaled = [c * perm(j + two_k, two_k) for j, c in enumerate(top)]
            if any(a * r[-1] != scaled[-1] * b for a, b in zip(scaled, r)):
                return False
            ratio = sign * scaled[-1] * load_piece.den, den * r[-1]
            if ratio[0] * ratio[1] <= 0 or (lam and ratio[0] * lam[1] != lam[0] * ratio[1]):
                return False
            lam = ratio
        if lam is None:
            return False
    for a, left, right in zip(cuts[1:], pieces, pieces[1:]):
        jump, _ = integer_difference(right, left)
        if loads is None:
            quotient = _power_quotient(jump, a, two_k - 1)
            if quotient is None or len(quotient) != 1 or sign * quotient[0] <= 0:
                return False
        elif _power_quotient(jump, a, two_k) is None:
            return False
    return True


def _power_quotient(g: list, a: Fraction, m: int) -> Optional[list]:
    """The quotient of the integer polynomial g by (t x - s)^m, a = s/t, or
    None when that power does not divide g.

    t x - s is primitive, so a quotient is integral (Gauss's lemma): long
    division from the top stops at the first coefficient that t^m does not
    divide, and the remainder must vanish.  With (H3), a jump of u has a
    quotient of degree at most deg rho, so this is O(k deg rho) products.
    """
    if not g:
        return []
    n = len(g) - 1 - m
    if n < 0:
        return None
    s, t = a.numerator, a.denominator
    divisor = [comb(m, r) * t**r * (-s) ** (m - r) for r in range(m + 1)]
    rem = list(g)
    quotient = [0] * (n + 1)
    for i in range(n, -1, -1):
        q, r = divmod(rem[i + m], divisor[-1])
        if r:
            return None
        quotient[i] = q
        for j, d in enumerate(divisor):
            rem[i + j] -= q * d
    return None if any(rem[:m]) else quotient


# ---------------------------------------------------------------------------
# Closed forms and the full solve
# ---------------------------------------------------------------------------


def _round_at_output(solution: ExtremalSolution) -> ExtremalSolution:
    """Float mode is the exact result with mu rounded to a float; u and u_k
    stay exact, and eval_u and eval_u_k round their values.  Exact mode
    returns the solution unchanged."""
    if solution.spec.mode == EXACT:
        return solution
    return ExtremalSolution(
        solution.spec,
        float_mu(solution.mu),
        solution.lam,
        solution.seeds,
        solution.u,
        solution.u_k,
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
    authoritative for the profile itself (see README).  `solve` calls this
    for a point mass only at k = 1; at k >= 2 it checks dirac_mu, and the
    first read of pointload_candidate_deviation builds this profile.
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
    """max |f(i/n) - g(i/n)| over 0 <= i <= n, each sample the float of the
    exact value, as ExtremalSolution.eval_u gives it.  Where a sample
    overflows a float (a point mass near an end at high k), or the maximum
    does, there is no deviation to report.
    """
    try:
        deviation = max(
            abs(a - b)
            for a, b in zip(pp_grid_values_exact(f, n), pp_grid_values_exact(g, n))
        )
    except OverflowError:
        return None
    return deviation if math.isfinite(deviation) else None


def _compare_with_closed_form(spec: ProblemSpec, solution: ExtremalSolution):
    """Compare mu, and u where the closed-form profile is the extremizer,
    exactly; a mismatch raises ClosedFormMismatchError.  A point mass at
    k >= 2 is checked against dirac_mu alone: its series profile is
    defective there, and its deviation from u is computed on first read."""
    rho, diags = spec.rho, solution.diagnostics
    deferred = isinstance(rho, DiracWeight) and spec.k > 1
    if deferred:
        reference, mu = None, closed_forms.dirac_mu(spec.k, rho.a)
    else:
        reference = closed_form(ProblemSpec(spec.k, rho, EXACT))
        if reference is None:
            return
        mu = reference.mu
    if solution.mu != mu:
        raise ClosedFormMismatchError(f"pipeline mu {solution.mu} != closed form {mu}")
    diags.closed_form_mu_checked = True
    if deferred:
        diags.pointload_candidate_deviation = (solution.u, spec)
    elif reference.u is None:
        return
    elif isinstance(rho, DiracWeight):
        # at k = 1 the series profile is the tent extremizer, and equal
        # canonical pieces sample to the same floats, so their deviation is
        # 0.0 without a grid
        if not pp_equal(solution.u, reference.u):
            raise ClosedFormMismatchError("first-order point-mass extremizers disagree")
        diags.pointload_candidate_deviation = 0.0
    elif not pp_equal(solution.u, reference.u):
        raise ClosedFormMismatchError("pipeline extremizer != closed form")


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Run the exact pipeline, cross-check it against closed forms and, in
    float mode, round the result at output."""
    if isinstance(spec.rho, HardyWeight):
        return _hardy_solution(spec)

    b = moments(spec.rho, spec.k)
    if not any(b.nums):
        raise ZeroWeightError("weight has no mass")
    seeds = solve_seeds(LinearSystem(build_matrix(spec.k), b))
    iterated = iterated_integral(spec.rho, spec.k)
    v = assemble_uk(spec, seeds, iterated)
    w = _assemble_w(v, spec.k)
    mu = compute_mu(w, spec.rho)
    u, diags = assemble_u(spec, seeds, mu, w)
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
        _compare_with_closed_form(spec, solution)
    return _round_at_output(solution)
