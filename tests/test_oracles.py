import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import frac_solve, random_fraction
from sobolev1d import oracles
from sobolev1d.oracles import (
    GalerkinConfig,
    galerkin_lambda,
    gram_entry,
    load_vector,
    max_principle_check,
    sign_iteration,
)
from sobolev1d.polynomials import (
    PiecewisePolynomial,
    Polynomial,
    bridge_poly,
    from_polynomial,
    kth_derivative,
    monomial,
    pp_mul,
)
from sobolev1d.scalars import EXACT, FLOAT
from sobolev1d.solver import ProblemSpec, solve
from sobolev1d.weights import (
    DiracWeight,
    PiecewiseWeight,
    PolyWeight,
    UnsupportedWeightError,
    as_piecewise,
    eval_weight,
    monomial_moments,
    parse_weight,
)


# -- Galerkin ---------------------------------------------------------------


def test_gram_closed_form_matches_direct_integration():
    # i, j run on both sides of k, where the lower limit max(0, k - i) of the
    # integration-by-parts sum switches
    for k in (1, 2, 3, 6, 12):
        degrees = sorted({0, 1, 2, 3, k - 1, k, k + 1, 14})
        derivs = {i: kth_derivative(bridge_poly(k) * monomial(i), k) for i in degrees}
        for i in degrees:
            for j in degrees:
                direct = (derivs[i] * derivs[j]).integrate(F(0), F(1))
                assert gram_entry(k, i, j) == direct


def test_load_vector_matches_direct_integration():
    weights = [
        "poly:1 + 1/3*x + 2/3*x^2",
        "pw:[0,1/3]=x^2;[1/3,2/3]=1/5;[2/3,1]=1-x",
        "chi:1/4,3/4",
        "dirac:2/7",
        "pow:1/2",
        "hardy:1",
    ]
    for dsl in weights:
        rho = parse_weight(dsl)
        for k in (1, 2, 3, 6):
            for N in (0, 3, 9):
                expected = []
                for i in range(N + 1):
                    phi = bridge_poly(k) * monomial(i)
                    if isinstance(rho, DiracWeight):
                        expected.append(phi(rho.a))
                    elif rho.kind in ("pow", "hardy"):
                        alpha = rho.alpha if rho.kind == "pow" else F(rho.order)
                        expected.append(
                            sum(c / (n + 1 - alpha) for n, c in enumerate(phi.coeffs) if c)
                        )
                    else:
                        pp = as_piecewise(rho)
                        expected.append(pp_mul(from_polynomial(phi), pp).integrate01())
                got = load_vector(rho, k, N)
                assert got == expected, (dsl, k, N)
                assert all(isinstance(v, F) for v in got)


def _ldl_reference_history(rho, k, N):
    """Exact Lambda_n^2, n = 0..N, by an LDL^T of the monomial-basis Gram
    matrix: the trial spaces x^k (1-x)^k x^i in their original basis."""
    G = [[gram_entry(k, i, j) for j in range(N + 1)] for i in range(N + 1)]
    r = load_vector(rho, k, N)
    L = [[F(0)] * (N + 1) for _ in range(N + 1)]
    d, w, out = [], [], []
    total = F(0)
    for i in range(N + 1):
        for j in range(i):
            s = G[i][j] - sum(L[i][m] * L[j][m] * d[m] for m in range(j))
            L[i][j] = s / d[j]
        d.append(G[i][i] - sum(L[i][m] ** 2 * d[m] for m in range(i)))
        w.append(r[i] - sum(L[i][m] * w[m] for m in range(i)))
        total += w[i] ** 2 / d[i]
        out.append(total)
    return out


def _seeded_weights(rng):
    def c():
        return F(rng.randint(1, 9), rng.randint(1, 6))

    a, b = sorted(F(v, 12) for v in rng.sample(range(1, 12), 2))
    return [
        f"poly:{c()} + {c()}*x + {c()}*x^2",
        f"pw:[0,{a}]={c()}*x^2;[{a},{b}]={c()};[{b},1]={c()} + {c()}*x",
        f"chi:{a},{b}",
        f"dirac:{F(rng.randint(1, 12), 13)}",
        f"pow:{F(rng.randint(1, 9), 10)}",
        "hardy:1",
    ]


def test_galerkin_exact_matches_monomial_ldl_history():
    # the Legendre-antiderivative basis spans the same nested trial spaces,
    # so every history entry and the exact value match the LDL^T route
    rng = random.Random(6006)
    degrees = (0, 1, 4, 12, 20, 24)
    for k in (1, 2, 3, 6, 12):
        for dsl in _seeded_weights(rng):
            rho = parse_weight(dsl)
            mode = FLOAT if rho.kind in ("pow", "hardy") else EXACT
            reference = _ldl_reference_history(rho, k, max(degrees))
            for N in degrees:
                report = galerkin_lambda(ProblemSpec(k, rho, mode), GalerkinConfig(N))
                assert report.details["lambda_sq_exact"] == reference[N], (dsl, k, N)
                assert type(report.details["lambda_sq_exact"]) is F
                assert report.history == [
                    (n, float(v)) for n, v in enumerate(reference[: N + 1])
                ], (dsl, k, N)


def _stepping_reference_history(rho, k, N):
    """Lambda_n^2, n = 0..N, by the loop that stepped each Legendre
    coefficient c_(m,j) in j inside every call."""
    a, den = monomial_moments(rho, k, 2 * k + N)
    history, p = [], 0
    scale = (den * math.factorial(2 * k - 1)) ** 2
    for m in range(k, k + N + 1):
        c = (-1) ** m * math.perm(m + k, m)
        s = c * a[0]
        for j in range(m):
            c = -c * (m - j) * (m + j + 1) // ((j + 1) * (j + k + 1))
            s += c * a[j + 1]
        p = p * (m + k) ** 2 + (2 * m + 1) * s * s
        scale *= (m + k) ** 2
        history.append(p / scale)
    return history, F(p, scale)


def test_galerkin_equals_the_stepping_loop_with_and_without_a_kept_table():
    # N = 64 is above the table budget at every k here, the rest below it;
    # descending and ascending N read tables that share a prefix
    rng = random.Random(2828)
    degrees = (64, 24, 12, 1, 0, 1, 12, 24, 64)
    for k in (1, 2, 3, 6, 12, 24):
        for dsl in _seeded_weights(rng):
            rho = parse_weight(dsl)
            mode = FLOAT if rho.kind in ("pow", "hardy") else EXACT
            for N in degrees:
                history, lam_sq = _stepping_reference_history(rho, k, N)
                report = galerkin_lambda(ProblemSpec(k, rho, mode), GalerkinConfig(N))
                assert report.details["lambda_sq_exact"] == lam_sq, (dsl, k, N)
                assert report.history == list(enumerate(history)), (dsl, k, N)
    def size(k, N):
        return (N + 1) * (2 * k + N + 2) // 2

    assert size(1, 64) > oracles.MAX_TABLE_INTEGERS >= size(24, 24)


def test_galerkin_tables_sharing_a_prefix_agree():
    rho = parse_weight("pw:[0,1/3]=1 + x;[1/3,1]=2")
    long = galerkin_lambda(ProblemSpec(6, rho), GalerkinConfig(24))
    short = galerkin_lambda(ProblemSpec(6, rho), GalerkinConfig(20))
    assert short.history == long.history[:21]
    assert short.details["lambda_sq_exact"] == _stepping_reference_history(rho, 6, 20)[1]


def test_galerkin_second_call_at_an_order_builds_no_row(monkeypatch):
    built = []
    rows = oracles._legendre_rows

    def spy(k, N):
        for row in rows(k, N):
            built.append(len(row))
            yield row

    monkeypatch.setattr(oracles, "_legendre_rows", spy)
    oracles._legendre_table.cache_clear()
    galerkin_lambda(ProblemSpec(6, parse_weight("chi:1/4,3/4")), GalerkinConfig(24))
    assert built == list(range(7, 32))
    built.clear()
    report = galerkin_lambda(ProblemSpec(6, parse_weight("poly:1 + x")), GalerkinConfig(24))
    assert built == []
    rho = parse_weight("poly:1 + x")
    assert report.details["lambda_sq_exact"] == _stepping_reference_history(rho, 6, 24)[1]


def test_galerkin_exact_builds_no_gram_matrix(monkeypatch):
    def refuse(k, i, j):
        raise AssertionError("exact Galerkin assembled a Gram entry")

    monkeypatch.setattr(oracles, "gram_entry", refuse)
    for dsl in ("poly:1 + x", "chi:1/4,3/4", "dirac:1/3", "pow:1/2"):
        rho = parse_weight(dsl)
        mode = FLOAT if rho.kind == "pow" else EXACT
        for k in (1, 3):
            report = galerkin_lambda(ProblemSpec(k, rho, mode), GalerkinConfig(12))
            assert report.details["lambda_sq_exact"] > 0


def test_galerkin_uniform_k1_degree0_exact():
    # G = [1/3], r = [1/6]: the one-dimensional value is already sharp
    report = galerkin_lambda(ProblemSpec(1, parse_weight("poly:1")), GalerkinConfig(0))
    assert report.details["lambda_sq_exact"] == F(1, 12)


def test_galerkin_uniform_k2_degree0_exact():
    report = galerkin_lambda(ProblemSpec(2, parse_weight("poly:1")), GalerkinConfig(0))
    assert report.details["lambda_sq_exact"] == F(1, 720)


def test_galerkin_exact_containment_polynomial_weights():
    # once the trial degree reaches deg(rho) + k the minimizer lies in the
    # span and the bound closes exactly
    rng = random.Random(2468)
    for k in (1, 2):
        for deg in (0, 1, 2, 3):
            coeffs = [abs(random_fraction(rng)) + F(1, 9) for _ in range(deg + 1)]
            w = PolyWeight(Polynomial(coeffs))
            mu = solve(ProblemSpec(k, w)).mu
            report = galerkin_lambda(ProblemSpec(k, w), GalerkinConfig(deg + k))
            assert report.details["lambda_sq_exact"] == 1 / mu
            # and strictly below at insufficient degree when deg > 0
            if deg:
                small = galerkin_lambda(ProblemSpec(k, w), GalerkinConfig(deg + k - 1))
                assert small.details["lambda_sq_exact"] <= 1 / mu


def test_galerkin_history_monotone_and_bounded():
    spec = ProblemSpec(1, parse_weight("chi:0,1/2"))
    mu = solve(spec).mu
    report = galerkin_lambda(spec, GalerkinConfig(14))
    values = [v for _, v in report.history]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))
    # the exact bound never overshoots the exact reciprocal eigenvalue
    assert report.details["lambda_sq_exact"] <= 1 / mu


def test_galerkin_dirac_midpoint_converges_slowly():
    # the tent extremizer has a kink, so polynomial trial spaces close the
    # gap only at rate O(1/N): at N = 12 the measured exact gap is
    # 28977349219/2641807540224 ~ 1.097e-2 (frozen value)
    spec = ProblemSpec(1, DiracWeight(F(1, 2)))
    report = galerkin_lambda(spec, GalerkinConfig(12))
    lam_sq = report.details["lambda_sq_exact"]
    gap = F(1, 4) - lam_sq
    assert float(gap) == pytest.approx(1.0969698429107666e-2, rel=1e-12)
    assert 0 < gap
    values = [v for _, v in report.history]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


def test_galerkin_dirac_sifting_load():
    # r_i = phi_i(a) exactly
    spec = ProblemSpec(1, DiracWeight(F(1, 2)))
    report = galerkin_lambda(spec, GalerkinConfig(0))
    # phi_0 = x(1-x): value 1/4 at the mass, stiffness 1/3: (1/4)^2 / (1/3)
    assert report.details["lambda_sq_exact"] == F(3, 16)


def test_galerkin_power_weight_cross_check():
    # pipeline mu for x^(-1/2) is exactly 9/2 (hand derivation); the exact
    # dual-norm bound at degree 64 sits 6.6e-9 below 1/mu
    spec = ProblemSpec(1, parse_weight("pow:1/2"), FLOAT)
    pipeline_mu = solve(spec).mu
    report = galerkin_lambda(spec, GalerkinConfig(64))
    lam_sq = float(report.details["lambda_sq_exact"])
    assert abs(pipeline_mu - 4.5) < 1e-9
    assert 0 < 1.0 / pipeline_mu - lam_sq < 1e-8


def test_galerkin_hardy_approaches_one():
    spec = ProblemSpec(1, parse_weight("hardy:1"))
    report = galerkin_lambda(spec, GalerkinConfig(24))
    lam_sq = report.details["lambda_sq_exact"]
    assert F(9, 10) < lam_sq < 1


SIX_KINDS = (
    "poly:1 + x^2",
    "pw:[0,1/3]=1+x;[1/3,1]=2-x",
    "chi:1/4,3/4",
    "dirac:1/3",
    "pow:1/2",
    "hardy:1",
)


def test_galerkin_lambda_sq_is_an_exact_fraction_for_every_kind():
    # one exact route for every kind and mode: lambda_sq is the exact
    # value rounded once, and no mode is reported
    for text in SIX_KINDS:
        rho = parse_weight(text)
        modes = (FLOAT,) if rho.kind == "pow" else (EXACT, FLOAT)
        for mode in modes:
            for k in (1, 2):
                report = galerkin_lambda(ProblemSpec(k, rho, mode), GalerkinConfig(6))
                lam_sq = report.details["lambda_sq_exact"]
                assert type(lam_sq) is F and lam_sq > 0, (text, mode, k)
                assert report.details == {
                    "degree": 6,
                    "lambda_sq": float(lam_sq),
                    "lambda_sq_exact": lam_sq,
                }


def test_float_galerkin_and_solves_run_no_quadrature(monkeypatch):
    from sobolev1d import quadrature, solver

    def refuse(*args, **kwargs):
        raise AssertionError("quad_numeric was called")

    for module in (quadrature, oracles, solver):
        monkeypatch.setattr(module, "quad_numeric", refuse)
    for text in SIX_KINDS:
        rho = parse_weight(text)
        for k in (1, 2):
            spec = ProblemSpec(k, rho, FLOAT)
            assert galerkin_lambda(spec, GalerkinConfig(6)).lambda_estimate > 0
            if text != "hardy:1" or k == 1:  # 1/x is served at order 1 only
                assert solve(spec).mu > 0


# -- sign iteration ---------------------------------------------------------


def test_sign_iteration_uniform_k1():
    report = sign_iteration(ProblemSpec(1, parse_weight("poly:1")), n=99)
    assert report.sign_definite
    assert report.details["converged"]
    assert abs(report.details["mu_h"] - 12.0) <= 12.0 * 0.02


def test_sign_iteration_uniform_k2():
    report = sign_iteration(ProblemSpec(2, parse_weight("poly:1")), n=199)
    assert report.sign_definite
    assert abs(report.details["mu_h"] - 720.0) <= 720.0 * 0.02


def _fraction_stencil_ldl(k, n):
    """Exact LDL^T of the clamped stencil (corners 7 for k = 2), as
    (d, l1, l2) with l1[i] = L[i][i-1] and l2[i] = L[i][i-2]; L has no fill
    outside the band, so only the band is eliminated."""
    band = (2, -1) if k == 1 else (6, -4, 1)
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for off, v in enumerate(band):
            if i + off < n:
                A[i][i + off] = A[i + off][i] = v
    if k == 2:
        A[0][0] = A[-1][-1] = 7
    L, d = {}, []
    for i in range(n):
        lo = max(0, i - k)
        for j in range(lo, i):
            s = F(A[i][j]) - sum(L[i, m] * L[j, m] * d[m] for m in range(lo, j))
            L[i, j] = s / d[j]
        d.append(A[i][i] - sum(L[i, m] ** 2 * d[m] for m in range(lo, i)))
    l1 = [L.get((i, i - 1), F(0)) for i in range(n)]
    l2 = [L.get((i, i - 2), F(0)) for i in range(n)]
    return d, l1, l2


def test_fd_factor_entries_are_the_rounded_exact_ldl():
    for k in (1, 2):
        for n in range(1, 61):
            d, l1, l2 = _fraction_stencil_ldl(k, n)
            factor = oracles._fd_factor(k, n)
            assert factor.d == tuple(float(x) for x in d), (k, n)
            assert factor.l1 == (*map(float, l1), 0.0, 0.0), (k, n)
            assert factor.l2 == (*map(float, l2), 0.0, 0.0), (k, n)
            assert oracles._fd_factor(k, n) is factor  # built once per (k, n)


def test_sign_iteration_k2_is_accurate_on_a_fine_grid():
    # a float pivot recurrence drifted to mu_h = 734.26 for poly:1 here
    cases = (("poly:1", F(720), 1e-6), ("chi:1/4,3/4", F(46080, 163), 1e-4))
    for text, mu, rel in cases:
        report = sign_iteration(ProblemSpec(2, parse_weight(text)), n=100000)
        assert abs(F(report.details["mu_h"]) - mu) <= rel * mu, text


def test_sign_iteration_adversarial_alternating():
    init = np.array([(-1.0) ** i for i in range(99)])
    report = sign_iteration(
        ProblemSpec(1, parse_weight("poly:1")), n=99, initial_signs=init
    )
    assert report.sign_definite
    assert report.details["converged"]


def test_sign_iteration_discrete_solution_converges_to_extremizer():
    # O(h^2): halving h should cut the max-norm error by at least 3x
    spec = ProblemSpec(2, parse_weight("poly:1"))
    s = solve(spec)
    errs = []
    for n in (49, 99, 199):
        report = sign_iteration(spec, n=n)
        u_h = report.details["solution"]
        xs = np.arange(1, n + 1) / (n + 1)
        exact = np.array([s.eval_u(x) for x in xs])
        errs.append(float(np.max(np.abs(u_h - exact))))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_sign_iteration_dirac():
    report = sign_iteration(ProblemSpec(1, DiracWeight(F(1, 2))), n=99)
    assert report.sign_definite
    assert abs(report.details["mu_h"] - 4.0) <= 4.0 * 0.02
    report = sign_iteration(ProblemSpec(2, DiracWeight(F(1, 2))), n=199)
    assert abs(report.details["mu_h"] - 192.0) <= 192.0 * 0.02


def test_sign_iteration_restarts_from_a_non_minimizing_critical_point():
    # this random start ends on a two-lobe fixed point with mu_h = 25.32,
    # about 4 mu; the constant start reaches the minimizer, mu_h = 6.3674
    # against the exact mu = 6.3672
    spec = ProblemSpec(1, parse_weight("poly:1 + 1/3*x + 2/3*x^2"))
    report = sign_iteration(spec, n=199, seed=236029492)
    assert report.details["restarted"]
    assert not report.details["start_sign_definite"]
    assert report.details["start_mu_h"] == pytest.approx(25.3247, rel=1e-4)
    assert report.sign_definite
    assert report.details["mu_h"] == pytest.approx(6.3674, rel=1e-4)
    constant = sign_iteration(spec, n=199)
    assert report.details["mu_h"] == constant.details["mu_h"]
    # a sign-definite run from a constant start is never restarted
    assert not constant.details["restarted"]


def test_random_signs_match_numpys_default_rng_bit_for_bit():
    fixed = [0, 1, 236029492, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 3]
    rng = random.Random(1106)
    seeds = fixed + [rng.randrange(2**31) for _ in range(200)]
    for seed in seeds:
        for n in (1, 2, 49, 99, 199, 1000):
            draws = np.random.default_rng(seed).random(n)
            expected = [1.0 if r < 0.5 else -1.0 for r in draws.tolist()]
            assert oracles._random_signs(seed, n) == expected, (seed, n)


@pytest.mark.parametrize(
    "seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)]
)
def test_sign_iteration_rejects_seeds_as_default_rng_does(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        sign_iteration(ProblemSpec(1, parse_weight("poly:1")), n=49, seed=seed)


def test_sign_iteration_takes_true_as_seed_1():
    spec = ProblemSpec(1, parse_weight("poly:1 + x"))
    assert sign_iteration(spec, n=99, seed=True) == sign_iteration(spec, n=99, seed=1)


def test_weight_on_grid_is_eval_weight_bit_for_bit():
    rng = random.Random(515)
    fixed = ("chi:1/4,3/4", "chi:0,1", "pow:0", "pow:999/1000", "pw:[0,1/2]=1;[1/2,1]=x")
    weights = [parse_weight(t) for t in fixed]  # nodes hit 1/4, 1/2 and 3/4 exactly
    for _ in range(8):
        weights.append(_random_nonneg_load(rng))
        weights.append(parse_weight(f"pow:{rng.randint(0, 19)}/20"))
    for rho in weights:
        for n in (9, 10, 99, 199, 1000, 4095):
            h = 1.0 / (n + 1)
            x = [(i + 1) * h for i in range(n)]
            got = oracles._weight_on_grid(rho, x, h)
            expected = [eval_weight(rho, xi) for xi in x]
            assert [v.hex() for v in got] == [v.hex() for v in expected], (rho, n)


def test_sign_iteration_keeps_a_lower_energy_sign_changing_run(monkeypatch):
    # a sign-changing fixed point below the constant start's energy would be
    # evidence against sign-definiteness, so it must not be replaced
    runs = iter([(3.0, False), (5.0, True)])

    def fake_picard(k, A, rho_vec, h, signs, max_iter):
        mu_h, sign_definite = next(runs)
        return oracles._PicardRun([(0, mu_h)], True, mu_h, np.zeros(len(signs)), sign_definite)

    monkeypatch.setattr(oracles, "_picard", fake_picard)
    report = sign_iteration(ProblemSpec(1, parse_weight("poly:1")), n=49, seed=1)
    assert report.details["restarted"]
    assert not report.sign_definite
    assert report.details["mu_h"] == 3.0


def test_sign_iteration_rejects_a_weight_with_no_mass_on_the_grid():
    # no node (i + 1)/200 lies in [331/1000, 332/1000]
    spec = ProblemSpec(1, parse_weight("chi:331/1000,332/1000"))
    with pytest.raises(UnsupportedWeightError, match="199 grid nodes"):
        sign_iteration(spec, n=199)
    assert sign_iteration(spec, n=999).details["converged"]


def test_sign_iteration_rejects_high_order():
    with pytest.raises(ValueError):
        sign_iteration(ProblemSpec(3, parse_weight("poly:1")), n=49)


def _dense_stencil(k, n):
    """h^(2k) times the clamped finite-difference operator, as a dense
    matrix: [-1, 2, -1] for k = 1; [1, -4, 6, -4, 1] with 7 in both corners
    for k = 2."""
    row = [2.0, -1.0] if k == 1 else [6.0, -4.0, 1.0]
    B = np.zeros((n, n))
    for i in range(n):
        for off, v in enumerate(row):
            if i + off < n:
                B[i, i + off] = B[i + off, i] = v
    if k == 2:
        B[0, 0] = B[-1, -1] = 7.0
    return B


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 49, 199])
def test_banded_solve_matches_dense_reference(k, n):
    # small n make the two corner rows overlap
    B = _dense_stencil(k, n)
    factor = oracles._fd_factor(k, n)
    L = np.eye(n)
    for i in range(1, n):
        L[i, i - 1] = factor.l1[i]
        if i >= 2:
            L[i, i - 2] = factor.l2[i]
    assert np.max(np.abs(L @ np.diag(factor.d) @ L.T - B)) <= 1e-12 * np.max(B)
    A = B * (n + 1) ** (2 * k)
    rng = random.Random(97 * n + k)
    for lo in (0.5, -1.0):  # a positive load and a sign-changing one
        rhs = [rng.uniform(lo, 1.5) for _ in range(n)]
        u = np.array(oracles._band_solve(factor, rhs))
        ref = np.linalg.solve(A, np.array(rhs))
        scale = np.max(np.abs(ref))
        # normwise backward error against the dense operator
        residual = np.max(np.abs(A @ u - rhs))
        assert residual <= 1e-12 * np.max(np.abs(A)) * scale
        # both solves are backward stable, so they differ by at most about
        # cond * eps, which exceeds 1e-12 for k = 2 from n = 49 on
        tol = max(1e-12, np.linalg.cond(B) * np.finfo(float).eps)
        assert np.max(np.abs(u - ref)) <= tol * scale


# -- maximum principle -------------------------------------------------------


def test_max_principle_k1_poisson():
    report = max_principle_check(1, parse_weight("poly:1"))
    w = report.details["solution"]
    # -w'' = 1 clamped: w = x(1-x)/2
    assert w.pieces[0] == Polynomial([0, F(1, 2), F(-1, 2)])


def test_max_principle_k2_beam():
    report = max_principle_check(2, parse_weight("poly:1"))
    w = report.details["solution"]
    expected = Polynomial([0, 0, F(1, 24)]) * Polynomial([1, -2, 1])
    assert w.pieces[0] == expected


def test_max_principle_random_loads_exact():
    rng = random.Random(321)
    for k in (1, 2, 3):
        for _ in range(10):
            q = Polynomial([random_fraction(rng) for _ in range(3)])
            load = q * q + Polynomial([F(1, 50)])
            report = max_principle_check(k, PolyWeight(load))
            assert report.sign_definite
            assert report.details["route"] == "exact"


def _clamped_solution_by_loop(k, load):
    """(-1)^k w^(2k) = load, clamped: 2k successive antiderivatives, then
    x^k..x^(2k-1) fixed by derivative rows at 1 and frac_solve."""
    particular = load.scale(F((-1) ** k))
    for _ in range(2 * k):
        particular = particular.antiderivative()
    rows, rhs, d = [], [], particular
    for j in range(k):
        rows.append([math.perm(i, j) for i in range(k, 2 * k)])
        rhs.append(-d.pieces[-1](F(1)))
        d = d.derivative()
    coeffs = frac_solve(rows, rhs)
    return particular.add_polynomial(Polynomial([0] * k + coeffs))


def _random_nonneg_load(rng):
    kind = rng.choice(("poly", "pw", "chi"))
    if kind == "chi":
        den = rng.randint(2, 12)
        a, b = sorted(rng.sample(range(den + 1), 2))
        return parse_weight(f"chi:{a}/{den},{b}/{den}")
    if kind == "poly":
        q = Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 3))])
        return PolyWeight(q * q + Polynomial([F(1, 50)]))
    cut = F(rng.randint(1, 6), 7)
    pieces = []
    for _ in range(2):
        q = Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 2))])
        pieces.append(q * q + Polynomial([random_fraction(rng, 0, 2)]))
    return PiecewiseWeight(PiecewisePolynomial([F(0), cut, F(1)], pieces))


def test_max_principle_solution_equals_the_successive_antiderivative_solve():
    rng = random.Random(6060)
    for k in (1, 2, 3, 4, 5, 6):
        for _ in range(4):
            rho = _random_nonneg_load(rng)
            if not any(p.coeffs for p in as_piecewise(rho).pieces):
                continue
            report = max_principle_check(k, rho)
            assert report.details["route"] == "exact"
            assert report.details["solution"] == _clamped_solution_by_loop(k, as_piecewise(rho))


def test_max_principle_grid_route():
    for k in (1, 2):
        for n in (99, 199):
            report = max_principle_check(
                k, parse_weight("chi:1/4,3/4"), n=n, route="grid"
            )
            assert report.sign_definite
            assert report.details["route"] == "grid"
            assert report.details["min_value"] > 0


def test_max_principle_grid_rejects_high_order():
    with pytest.raises(UnsupportedWeightError):
        max_principle_check(3, parse_weight("chi:1/4,3/4"), route="grid")
