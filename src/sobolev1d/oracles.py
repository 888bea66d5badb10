"""Independent verification of the pipeline's sharp constants.

Three routes.  None runs the solver's seed system or reads its moment
vector b; each reaches its answer by its own equations.  They share
primitives with the solver: the Galerkin loads come from
``weights.monomial_moments``, whose per-piece integer loop the solver's
``moments`` runs on the mirrored weight, and the maximum-principle route
uses ``kfold_antiderivative``, ``derivatives_at_one`` (the boundary sums at
1) and the positivity certificate ``pp_positive_on_open01``.

* ``galerkin_lambda`` -- a dual-norm lower bound.  Because the extremizer is
  sign-definite, the absolute value can be dropped and the reciprocal sharp
  constant becomes the norm of the linear functional p -> integral p rho over
  trial spaces spanned by x^k (1-x)^k x^i.  With G the stiffness Gram matrix
  of k-th derivatives and r the load vector, the squared bound is r^T G^-1 r,
  non-decreasing in the trial degree.  The oracle spans the same spaces by
  k-fold antiderivatives of shifted Legendre polynomials, whose Gram matrix
  is diagonal (Shen's Legendre-Galerkin basis): the bound is a plain sum of
  squared loads, built from the monomial moments of rho in integer
  arithmetic, with no factorization; its Legendre coefficients depend on k
  and N alone, so a (k, N) table of them is built once and kept while it
  holds at most ``MAX_TABLE_INTEGERS`` integers (a larger one is consumed
  row by row).  ``gram_entry`` and ``load_vector`` give G and r of the
  monomial basis exactly, as a reference for that sum.

* ``sign_iteration`` -- Picard iteration on the finite-difference analogue
  of the nonlinear eigenproblem (-1)^k u^(2k) = mu rho sign(u): freeze the
  sign vector, solve the clamped linear problem, renormalize, re-read the
  signs.  Exercises the sign-definiteness claim from arbitrary starts.

* ``max_principle_check`` -- the positivity of the clamped polyharmonic
  problem with non-negative load, checked exactly (Bernstein certificate
  with Sturm fallback) for polynomial loads at any order, or on a grid for
  orders 1 and 2.  The exact solution is the 2k-fold antiderivative of the
  load plus x^k R(x), deg R < k, fixed by the clamped conditions at 1.

Both grid routes share one linear solver.  The clamped stencils for orders 1
and 2 are symmetric positive definite band matrices of half-bandwidth 1 or
2, so a banded LDL^T factorization, held in plain tuples, costs O(n) time
and memory; it is cached per (k, n), so every Picard step and every later
run on that grid reuses it.  A seeded random start pattern comes from a
pure-Python copy of numpy's default generator (PCG64 seeded through
SeedSequence), so no oracle imports numpy.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import NamedTuple, Optional, Sequence

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    derivatives_at_one,
    exact_polynomial,
    kfold_antiderivative,
    pp_positive_on_open01,
    pp_values_at,
    taylor_shift,
)
from .scalars import Fresh, record
from .solver import ProblemSpec
from .weights import (
    DiracWeight,
    IndicatorWeight,
    PiecewiseWeight,
    PolyWeight,
    PowerWeight,
    UnsupportedWeightError,
    Weight,
    as_piecewise,
    eval_weight,
    monomial_moments,
)


def __getattr__(name):
    # uncalled here, but perfbench/tracing.py patches this name to count
    # quadrature; resolved on first access, so no oracle loads the module
    if name == "quad_numeric":
        from .quadrature import quad_numeric

        return quad_numeric
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PositivityViolatedError(AssertionError):
    """The clamped polyharmonic solution dipped non-positive: a solver bug,
    since positivity is guaranteed for non-negative loads."""

    def __init__(self, point: float, value: float):
        super().__init__(f"solution is {value:.3e} at x = {point:.6f}")
        self.point = point
        self.value = value


@record
class GalerkinConfig:
    """Trial space x^k (1-x)^k x^i for i = 0..degree (clamped by construction)."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")


@record(frozen=False)
class OracleReport:
    method: str
    lambda_estimate: Optional[float] = None
    history: list = Fresh(list)
    sign_definite: Optional[bool] = None
    details: dict = Fresh(dict)


# ---------------------------------------------------------------------------
# Galerkin dual-norm oracle
# ---------------------------------------------------------------------------


def gram_entry(k: int, i: int, j: int) -> Fraction:
    """integral of d^k[x^(k+i)(1-x)^k] * d^k[x^(k+j)(1-x)^k], in closed form.

    Integrating by parts k times moves every derivative onto the first
    factor; the boundary terms vanish because both basis functions have
    zero derivatives of order < k at 0 and 1.  With
    phi_i = sum_m (-1)^m C(k, m) x^(k+i+m), each term of phi_i^(2k) times
    phi_j is a Beta integral:

        G_ij = (-1)^k sum_{m = max(0, k-i)}^{k} (-1)^m C(k, m)
               (k+i+m)! / (i+m-k)! * k! (i+j+m)! / (i+j+m+k+1)!

    The k + 1 terms are summed over a common integer denominator and reduced
    once, so an entry builds a single Fraction.
    """
    num, den = 0, 1
    for m in range(max(0, k - i), k + 1):
        a = comb(k, m) * perm(k + i + m, 2 * k)
        b = (k + 1) * comb(i + j + m + k + 1, k + 1)
        num = num * b + (a if (k + m) % 2 == 0 else -a) * den
        den *= b
    return Fraction(num, den)


def load_vector(rho: Weight, k: int, degree: int) -> list:
    """r_i = integral of x^k (1-x)^k x^i rho, exact for every weight kind.

    Expanding the basis function gives r_i = sum_m (-1)^m C(k, m) M_(k+i+m)
    with the monomial moments M_n = integral x^n rho, computed once for
    k <= n <= 2k + degree as integers over one denominator
    (:func:`weights.monomial_moments`), so each load is an integer sum and
    one Fraction.
    """
    moments, den = monomial_moments(rho, k, 2 * k + degree)
    signed = [comb(k, m) if m % 2 == 0 else -comb(k, m) for m in range(k + 1)]
    return [
        Fraction(sum(c * moments[i + m] for m, c in enumerate(signed)), den)
        for i in range(degree + 1)
    ]


# a (k, N) table is kept while it holds at most this many integers, about
# 0.2 MB at k = 60; (6, 24) holds 475 and (60, 512) 162,621, some 84 MB
MAX_TABLE_INTEGERS = 2048


def _legendre_rows(k: int, N: int):
    """Yield, for m = k..k+N, the tuple of the integers
    c_(m,j) = (-1)^(m+j) C(m, j) C(m+j, j) j! (m+k)!/(j+k)!, j = 0..m,
    stepped in j; they depend on k and m alone, not on the weight."""
    for m in range(k, k + N + 1):
        row = [(-1) ** m * perm(m + k, m)]
        for j in range(m):
            row.append(-row[-1] * (m - j) * (m + j + 1) // ((j + 1) * (j + k + 1)))
        yield tuple(row)


@lru_cache(maxsize=8)
def _legendre_table(k: int, N: int) -> tuple:
    return tuple(_legendre_rows(k, N))


def _legendre_history(rho: Weight, k: int, N: int) -> tuple:
    """Exact Lambda_n^2 for n = 0..N in the Legendre-antiderivative basis.

    phi_m, the k-fold antiderivative from 0 of the shifted Legendre
    polynomial P_m(x) = sum_j (-1)^(m+j) C(m, j) C(m+j, j) x^j, lies in
    H^k_0 for m >= k, and phi_k .. phi_(k+n) span x^k (1-x)^k P_n.  Their
    k-th derivatives are orthogonal with squared norms 1/(2m+1), so

        Lambda_n^2 = sum_{m=k}^{k+n} (2m+1) r_m^2,
        r_m = integral phi_m rho
            = sum_j (-1)^(m+j) C(m, j) C(m+j, j) j!/(j+k)! M_(j+k).

    With the moments over one integer denominator D, S_m = D (m+k)! r_m =
    sum_j c_(m,j) D M_(j+k) is an integer, with c_(m,j) from
    :func:`_legendre_rows`, and P_n = D^2 ((2k+n)!)^2 Lambda_n^2 obeys the
    integer recurrence P_n = (m+k)^2 P_(n-1) + (2m+1) S_m^2 with m = k + n.
    Each history entry is one correctly rounded int / int division, equal
    to the float of the reduced Fraction; only the last value is reduced.
    """
    a, den = monomial_moments(rho, k, 2 * k + N)  # a[j] = D M_(j+k)
    small = (N + 1) * (2 * k + N + 2) // 2 <= MAX_TABLE_INTEGERS
    rows = _legendre_table(k, N) if small else _legendre_rows(k, N)
    history = []
    p = 0
    scale = (den * factorial(2 * k - 1)) ** 2  # D^2 ((2k+n-1)!)^2 before step n
    for m, row in enumerate(rows, k):
        s = sum(map(operator.mul, row, a))
        p = p * (m + k) ** 2 + (2 * m + 1) * s * s
        scale *= (m + k) ** 2
        history.append(p / scale)
    return history, Fraction(p, scale)


def galerkin_lambda(spec: ProblemSpec, cfg: GalerkinConfig) -> OracleReport:
    """Monotone lower bounds on the squared sharp constant by trial degree.

    The value on every nested trial space x^k (1-x)^k x^i, i <= n, comes
    at once from the diagonal Legendre-antiderivative form, summed in
    integers, so the recorded history is monotone by construction and the
    last value is an exact rational, rounded once for ``lambda_sq``.
    """
    history, lam_sq = _legendre_history(spec.rho, spec.k, cfg.degree)
    return OracleReport(
        method="galerkin",
        lambda_estimate=math.sqrt(float(lam_sq)),
        history=list(enumerate(history)),
        details={
            "degree": cfg.degree,
            "lambda_sq": float(lam_sq),
            "lambda_sq_exact": lam_sq,
        },
    )


# ---------------------------------------------------------------------------
# Finite-difference sign iteration
# ---------------------------------------------------------------------------


class _BandedLDL(NamedTuple):
    """LDL^T of an integer clamped stencil: pivots ``d`` and the sub-diagonals
    ``l1[i] = L[i][i-1]``, ``l2[i] = L[i][i-2]`` of the unit lower factor,
    padded with two zeros; ``scale`` = h^(2k) restores the grid spacing."""

    d: tuple
    l1: tuple
    l2: tuple
    scale: float


@lru_cache(maxsize=8)  # at n = 100000 one factor holds about 10 MB
def _fd_factor(k: int, n: int) -> _BandedLDL:
    """Factor (-1)^k D^(2k) with clamped closures on n interior nodes.

    The stencils are [-1, 2, -1]/h^2 for k = 1 and [1, -4, 6, -4, 1]/h^4 for
    k = 2, where eliminating the ghosts via the reflected clamped condition
    u'(0) = u'(1) = 0 puts 7 in the two corner diagonal entries.  Both
    matrices are symmetric positive definite with half-bandwidth k, so the
    factorization needs no pivoting and fills in nothing outside the band.

    Pivot d_i is the ratio of the leading minors of orders i + 1 and i:
    i + 2 for k = 1, and (i+2)(i+3)(i^2+5i+7)/6 for k = 2 until the last
    corner adds 1 to the last pivot.  The multipliers have closed forms
    too, so every entry is one correctly rounded int / int division and no
    rounding error accumulates down the band.
    """
    rows = range(n)
    if k == 1:
        d = [(i + 2) / (i + 1) for i in rows]
        l1 = [-i / (i + 1) for i in rows]
        l2 = [0.0] * n
    elif k == 2:
        d = []
        for i in rows:
            num, den = (i + 3) * (i * i + 5 * i + 7), (i + 1) * (i * i + 3 * i + 3)
            if i == n - 1 and n >= 2:
                num += den  # the last corner is 7, one more than the interior 6
            d.append(num / den)
        l1 = [-2 * i * (i + 1) / (i * i + 3 * i + 3) for i in rows]
        l2 = [
            (i - 1) * (i * i - i + 1) / ((i + 1) * (i * i + i + 1)) if i else 0.0
            for i in rows
        ]
    else:
        raise ValueError("finite-difference stencils cover k = 1 and 2 only")
    return _BandedLDL(tuple(d), (*l1, 0.0, 0.0), (*l2, 0.0, 0.0), (1.0 / (n + 1)) ** (2 * k))


def _band_solve(factor: _BandedLDL, rhs: Sequence[float]) -> list:
    """Solve (-1)^k D^(2k) u = rhs by forward, diagonal and back substitution."""
    d, l1, l2, scale = factor
    z = []
    z1 = z2 = 0.0
    for i, r in enumerate(rhs):
        zi = scale * r - l1[i] * z1 - l2[i] * z2
        z.append(zi)
        z2, z1 = z1, zi
    u = [0.0] * len(z)
    u1 = u2 = 0.0
    for i in range(len(z) - 1, -1, -1):
        ui = z[i] / d[i] - l1[i + 1] * u1 - l2[i + 2] * u2
        u[i] = ui
        u2, u1 = u1, ui
    return u


def _weight_on_grid(rho: Weight, x: list, h: float) -> list:
    """rho at the increasing nodes x, equal bit for bit to eval_weight node
    by node; a point mass is spread over its two nearest nodes instead.

    An indicator's closed interval is cut out of x by bisection, and a
    polynomial or piecewise weight is sampled by polynomials.pp_values_at,
    which assigns nodes to pieces as piece_index does.
    """
    if isinstance(rho, DiracWeight):
        # nearest-node sifting with linear interpolation correction
        a = float(rho.a)
        vals = [0.0] * len(x)
        j = math.floor(a / h) - 1  # index into interior nodes x[j] = (j+1) h
        theta = (a - (j + 1) * h) / h
        if 0 <= j < len(x):
            vals[j] = (1.0 - theta) / h
        if 0 <= j + 1 < len(x):
            vals[j + 1] = theta / h
        return vals
    if isinstance(rho, IndicatorWeight):
        lo, hi = bisect_left(x, rho.a), bisect_right(x, rho.b)
        return [0.0] * lo + [float(rho.height)] * (hi - lo) + [0.0] * (len(x) - hi)
    if isinstance(rho, (PolyWeight, PiecewiseWeight)):
        return pp_values_at(as_piecewise(rho), x)
    if isinstance(rho, PowerWeight) and rho.alpha != 0:
        e = -float(rho.alpha)
        return [xi**e for xi in x]
    return [eval_weight(rho, xi) for xi in x]


def _kth_difference_energy(k: int, u: list, h: float) -> float:
    full = [0.0, *u, 0.0]
    if k == 1:
        d = [(b - a) / h for a, b in zip(full, full[1:])]  # midpoint values of u'
        return math.fsum(v * v for v in d) * h
    ext = [full[1], *full, full[-2]]  # clamped ghost reflection
    h2 = h * h
    d2 = [(c - 2.0 * b + a) / h2 for a, b, c in zip(ext, ext[1:], ext[2:])]
    terms = [v * v * h for v in d2]
    terms[0] *= 0.5  # trapezoid ends
    terms[-1] *= 0.5
    return math.fsum(terms)


# Picard steps per run; a run stops early only on a repeated sign pattern
MAX_PICARD_STEPS = 60


class _PicardRun(NamedTuple):
    history: list
    converged: bool
    mu_h: float
    u: list
    sign_definite: bool


def _picard(k, A, rho_vec, h, signs, max_iter) -> _PicardRun:
    """One Picard run from the sign pattern ``signs``; ``A`` is the factor
    from :func:`_fd_factor`, shared by every step."""
    history = []
    converged = False
    mu_h = float("nan")
    u = [0.0] * len(signs)
    for it in range(max_iter):
        u = _band_solve(A, [r * s for r, s in zip(rho_vec, signs)])
        # trapezoid: ends vanish
        mass = math.fsum(abs(v) * r for v, r in zip(u, rho_vec)) * h
        if mass <= 0:
            raise ZeroDivisionError("discrete weighted mass vanished")
        u = [v / mass for v in u]
        mu_h = _kth_difference_energy(k, u, h)
        history.append((it, mu_h))
        new_signs = [1.0 if v >= 0 else -1.0 for v in u]
        if new_signs == signs:
            converged = True
            break
        signs = new_signs
    return _PicardRun(history, converged, mu_h, u, len(set(signs)) == 1)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _random_signs(seed: int, n: int) -> list:
    """[1.0 if r < 0.5 else -1.0 for r in numpy.random.default_rng(seed).random(n)].

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of four
    and draws four 64-bit words from it; PCG64 takes them as the 128-bit
    initial state and stream, and each draw is one LCG step followed by the
    XSL-RR output (O'Neill, HMC-CS-2014-0905).  A double r = (x >> 11) 2^-53
    is below 1/2 exactly when the output x has its top bit clear, so no
    float is formed.  An integer seed is checked as default_rng checks it.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hc = 0x43B0D7E5

    def hashmix(v):
        nonlocal hc
        v = (v ^ hc) * (hc := hc * 0x931E8875 & _M32) & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(w))
    hc, out = 0x8B51F9DD, []  # generate_state(4, uint64), as 8 uint32 words
    for i in range(8):
        v = (pool[i % 4] ^ hc) * (hc := hc * 0x58F38DED & _M32) & _M32
        out.append(v ^ v >> 16)
    s0, s1, q0, q1 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    inc = (q0 << 64 | q1) << 1 & _M128 | 1
    # state = 0, step, add the initial state, step
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    signs = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        # the top bit of x rotated right by state >> 122
        signs.append(-1.0 if x >> ((state >> 122) - 1 & 63) & 1 else 1.0)
    return signs


def sign_iteration(
    spec: ProblemSpec,
    n: int = 199,
    initial_signs: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
) -> OracleReport:
    """Picard iteration on the discrete nonlinear eigenproblem.

    Freezes a sign pattern, solves the clamped 2k-order problem with load
    rho * signs, renormalizes to unit discrete weighted mass, and updates the
    signs from the solution; stops when the pattern repeats.  Non-convergence
    is reported, not raised (it is evidence about sign stability).  The
    banded operator is factored once per call, so each step costs O(n).

    A non-constant start can end on a sign-changing critical point that is
    not a minimizer (a two-lobe pattern with several times the energy).  The
    loop then runs once more from the constant pattern and the run with the
    lower final mu_h is reported; ``details`` keeps the first run's outcome
    (``start_sign_definite``, ``start_mu_h``, ``restarted``).  A sign-changing
    run with the lower energy is still reported as sign-indefinite.

    ``seed`` (a non-negative integer) draws the start pattern that
    ``numpy.random.default_rng(seed).random(n) < 0.5`` gives, bit for bit,
    without importing numpy (:func:`_random_signs`).  ``details["solution"]``
    is the final grid solution as a list of floats.

    A weight that vanishes at every node, such as an indicator narrower
    than the grid spacing, raises :class:`UnsupportedWeightError`: the grid
    cannot see it.
    """
    k = spec.k
    h = 1.0 / (n + 1)
    A = _fd_factor(k, n)
    rho_vec = _weight_on_grid(spec.rho, [(i + 1) * h for i in range(n)], h)
    if not any(rho_vec):
        raise UnsupportedWeightError(f"the weight vanishes at all {n} grid nodes")
    if initial_signs is not None:
        signs = [1.0 if s >= 0 else -1.0 for s in initial_signs]
    elif seed is not None:
        signs = _random_signs(seed, n)
    else:
        signs = [1.0] * n

    run = start = _picard(k, A, rho_vec, h, signs, MAX_PICARD_STEPS)
    restarted = not start.sign_definite and len(set(signs)) > 1
    if restarted:
        again = _picard(k, A, rho_vec, h, [1.0] * n, MAX_PICARD_STEPS)
        if not start.mu_h < again.mu_h:
            run = again
    mu_h = run.mu_h
    return OracleReport(
        method="sign_iteration",
        lambda_estimate=1.0 / math.sqrt(mu_h) if mu_h > 0 else None,
        history=run.history,
        sign_definite=run.sign_definite,
        details={
            "grid": n,
            "mu_h": mu_h,
            "iterations": len(run.history),
            "converged": run.converged,
            "solution": run.u,
            "restarted": restarted,
            "start_sign_definite": start.sign_definite,
            "start_mu_h": start.mu_h,
        },
    )


# ---------------------------------------------------------------------------
# Maximum-principle checker
# ---------------------------------------------------------------------------


def _solve_clamped_bvp_exact(k: int, load: PiecewisePolynomial) -> PiecewisePolynomial:
    """Exact solution of (-1)^k w^(2k) = f with clamped data, f piecewise
    polynomial.

    Particular solution: 2k-fold antiderivative of (-1)^k f (all derivatives
    vanish at 0).  Homogeneous correction: x^k R(x) with deg R < k (the
    lower coefficients stay zero because of the left boundary conditions),
    fixed by the k right boundary conditions, which read the particular
    solution's derivatives at 1 off its last piece.
    """
    particular = kfold_antiderivative(load.scale(Fraction((-1) ** k)), 2 * k)
    nums, den = derivatives_at_one(particular.pieces[-1], k)
    return particular.add_polynomial(_right_boundary_correction(k, nums, den))


def _right_boundary_correction(k: int, nums: Sequence[int], den: int) -> Polynomial:
    """H = x^k R(x), deg R < k, with H^(j)(1) = -nums[j]/den for j < k.

    In y = x - 1, H(1 + y) = (1 + y)^k R(1 + y) has the Taylor coefficients
    -nums[j]/(den j!) below y^k, so R(1 + y) is their series times
    (1 + y)^(-k) = sum_n (-1)^n C(k-1+n, n) y^n, cut below y^k; a Taylor
    shift by -1 gives R(x).  Everything is integer arithmetic over
    den (k-1)!.
    """
    top = factorial(k - 1)
    tau = [-c * (top // factorial(j)) for j, c in enumerate(nums)]
    series = [(-1) ** n * comb(k - 1 + n, n) for n in range(k)]
    r = [sum(tau[j] * series[n - j] for j in range(n + 1)) for n in range(k)]
    taylor_shift(r, -1)
    return exact_polynomial([0] * k + r, den * top)


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
        w = _solve_clamped_bvp_exact(k, load)
        ok = pp_positive_on_open01(w)
        if not ok:
            worst = min((w.eval_float(i / 512), i / 512) for i in range(1, 512))
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
    x = [(i + 1) * h for i in range(n)]
    w = _band_solve(_fd_factor(k, n), _weight_on_grid(f, x, h))
    w_min, i_min = min(zip(w, range(n)))
    if w_min <= 0:
        raise PositivityViolatedError(x[i_min], w_min)
    return OracleReport(
        method="max_principle",
        sign_definite=True,
        details={"route": "grid", "order": k, "grid": n, "min_value": w_min},
    )
