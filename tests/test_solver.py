import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import frac_solve, random_fraction
from test_polynomials import power, random_certificate_input, sturm_reference
from sobolev1d.closed_forms import (
    HardyExtremizer,
    dirac_mu,
    indicator_mu,
    pointload_series_profile,
    uniform_mu,
)
from sobolev1d.polynomials import (
    PiecewisePolynomial,
    Polynomial,
    from_polynomial,
    integer_form,
    integrate_product,
    kth_derivative,
    pp_equal,
    pp_integrate_product,
    pp_mul,
    poly_divmod,
    pp_positive_on_open01,
)
from sobolev1d.quadrature import quad_numeric
from sobolev1d.scalars import EXACT, FLOAT, ModeMismatchError
from sobolev1d.solver import (
    BoundaryResidualError,
    ClosedFormMismatchError,
    DerivativeSeeds,
    LinearSystem,
    PolyPlusPower,
    ProblemSpec,
    SingularMatrixError,
    ZeroWeightError,
    _assemble_w,
    _check_vandermonde_structure,
    _diagnostics,
    _power_quotient,
    _seed_polynomial,
    assemble_u,
    assemble_uk,
    build_matrix,
    closed_form,
    compute_mu,
    sharp_constant,
    solve,
    solve_seeds,
)
from sobolev1d.weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    MomentVector,
    PiecewiseWeight,
    PolyWeight,
    PowerWeight,
    UnsupportedWeightError,
    as_piecewise,
    iterated_integral,
    moments,
    parse_weight,
    reflect_weight,
    scale_weight,
)


def falling_factorial(n, j):
    out = 1
    for i in range(j):
        out *= n - i
    return out


# -- seed system ------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 24, 60])
def test_build_matrix_is_falling_factorial(k):
    # the checked int rows, as the difference solve reads them
    A = build_matrix(k)
    for m in range(k):
        for j in range(k):
            assert A[m][j] == falling_factorial(k + m, j)
            assert type(A[m][j]) is int


def test_build_matrix_small_cases():
    assert [list(r) for r in build_matrix(1)] == [[1]]
    assert [list(r) for r in build_matrix(2)] == [[1, 2], [1, 3]]
    assert [list(r) for r in build_matrix(3)] == [[1, 3, 6], [1, 4, 12], [1, 5, 20]]


def test_vandermonde_check_catches_one_entry_off_by_one():
    # column j < k - 1 is caught by its (j+1)-th differences, which need
    # j + 2 rows; the last column is compared entry by entry
    k = 6
    rows = [[falling_factorial(k + m, j) for j in range(k)] for m in range(k)]
    _check_vandermonde_structure(rows, k)
    for m in range(k):
        for j in range(k):
            bad = [list(r) for r in rows]
            bad[m][j] += 1
            with pytest.raises(SingularMatrixError):
                _check_vandermonde_structure(bad, k)


def test_solve_seeds_uniform_k1():
    seeds = solve_seeds(LinearSystem(build_matrix(1), moments(parse_weight("poly:1"), 1)))
    assert seeds.values == (F(1, 2),)


def test_solve_seeds_uniform_k2():
    seeds = solve_seeds(LinearSystem(build_matrix(2), moments(parse_weight("poly:1"), 2)))
    assert seeds.values == (F(-1, 2), F(1, 12))


def test_seeds_match_known_extremizer_k2():
    # u = x^2(1-x)^2 has u'''(0) = -12, u''(0) = 2, so the seed ratio is -6
    seeds = solve_seeds(LinearSystem(build_matrix(2), moments(parse_weight("poly:1"), 2)))
    u = Polynomial([0, 0, 1]) * Polynomial([1, -2, 1])
    u3 = kth_derivative(u, 3)(F(0))
    u2 = kth_derivative(u, 2)(F(0))
    assert u3 / u2 == -6
    assert seeds.values[0] / seeds.values[1] == -6


def test_seeds_satisfy_system_exactly():
    rng = random.Random(99)
    for k in (1, 2, 3, 4):
        q = Polynomial([random_fraction(rng, 0, 2) + 1 for _ in range(3)])
        rho = parse_weight("poly:1")
        b = moments(rho, k)
        A = build_matrix(k)
        s = solve_seeds(LinearSystem(A, b))
        for m in range(k):
            assert sum(A[m][j] * s.values[j] for j in range(k)) == b.values[m]
        del q


def test_difference_solve_matches_gaussian_elimination():
    # A is invertible, so an exact zero residual pins the solution; plain
    # elimination over Fractions is the reference where it stays cheap
    rng = random.Random(4040)
    for k in range(1, 41):
        A = build_matrix(k)
        b = [random_fraction(rng, den_max=40) for _ in range(k)]
        nums, den = integer_form(b)
        s = solve_seeds(LinearSystem(A, MomentVector(k, tuple(nums), den))).values
        assert all(type(v) is F for v in s)
        assert [sum(a * v for a, v in zip(row, s)) for row in A] == b, k
        if k <= 16:
            assert list(s) == frac_solve(A, b), k


def test_solve_seeds_rejects_float_and_foreign_systems():
    # a float right-hand side is not exact
    b = MomentVector(3, (0.25, -1.5, 2.0), 1)
    with pytest.raises(ModeMismatchError, match="not exact"):
        solve_seeds(LinearSystem(build_matrix(3), b))
    # so is a float denominator
    with pytest.raises(ModeMismatchError, match="not exact"):
        solve_seeds(LinearSystem(build_matrix(3), MomentVector(3, (1, -6, 8), 4.0)))
    # a float copy of A(k) is A(k) entry for entry, so only b decides
    A = tuple(tuple(float(x) for x in row) for row in build_matrix(3))
    with pytest.raises(ModeMismatchError):
        solve_seeds(LinearSystem(A, b))
    # an exact matrix other than A(k) is not the seed system
    exact = MomentVector(2, (1, 1), 1)
    for M in (((F(2), F(0)), (F(1), F(1))), build_matrix(3), ((1, 2),)):
        with pytest.raises(ValueError, match="not build_matrix"):
            solve_seeds(LinearSystem(M, exact))


# -- u^(k)/mu assembly -------------------------------------------------------


def test_assemble_uk_uniform_k1():
    spec = ProblemSpec(1, parse_weight("poly:1"))
    seeds = solve_seeds(LinearSystem(build_matrix(1), moments(spec.rho, 1)))
    v = assemble_uk(spec, seeds, iterated_integral(spec.rho, 1))
    assert pp_equal(v, from_polynomial(Polynomial([F(1, 2), -1])))


def test_assemble_uk_uniform_k2():
    spec = ProblemSpec(2, parse_weight("poly:1"))
    seeds = solve_seeds(LinearSystem(build_matrix(2), moments(spec.rho, 2)))
    v = assemble_uk(spec, seeds, iterated_integral(spec.rho, 2))
    assert pp_equal(v, from_polynomial(Polynomial([F(1, 12), F(-1, 2), F(1, 2)])))


def test_assemble_uk_dirac_step():
    a = F(2, 5)
    spec = ProblemSpec(1, DiracWeight(a))
    seeds = solve_seeds(LinearSystem(build_matrix(1), moments(spec.rho, 1)))
    v = assemble_uk(spec, seeds, iterated_integral(spec.rho, 1))
    assert v(F(1, 5)) == 1 - a
    assert v(F(4, 5)) == -a


# -- mu ----------------------------------------------------------------------


def _v_and_w(spec):
    """v = u^(k)/mu and w = u/mu, its k-fold antiderivative, stage by stage."""
    k = spec.k
    seeds = solve_seeds(LinearSystem(build_matrix(k), moments(spec.rho, k)))
    v = assemble_uk(spec, seeds, iterated_integral(spec.rho, k))
    return seeds, v, _assemble_w(v, k)


def test_compute_mu_uniform():
    spec = ProblemSpec(1, parse_weight("poly:1"))
    _, v, w = _v_and_w(spec)
    assert compute_mu(w, spec.rho) == 12
    # the quadratic route: integral of (1/2 - x)^2 = 1/12
    assert v.square_integral01() == F(1, 12)

    spec = ProblemSpec(2, parse_weight("poly:1"))
    _, v, w = _v_and_w(spec)
    assert compute_mu(w, spec.rho) == 720
    assert pp_integrate_product(w, from_polynomial(Polynomial([1]))) == F(1, 720)
    assert pp_integrate_product(v, v) == F(1, 720)


def test_compute_mu_half_indicator():
    # independent route: v = 3/4 - 2x on [0,1/2], -1/4 after; squares
    # integrate to 7/96 + 1/32 = 5/48, so mu = 48/5
    spec = ProblemSpec(1, parse_weight("chi:0,1/2"))
    _, v, w = _v_and_w(spec)
    assert v(F(1, 4)) == F(1, 4)
    assert v(F(3, 4)) == F(-1, 4)
    assert v.square_integral01() == F(5, 48)
    # the dual route: the indicator's height 2 times the integral of w over
    # [0, 1/2]
    assert 2 * w.pieces[0].integrate(F(0), F(1, 2)) == F(5, 48)
    assert compute_mu(w, spec.rho) == F(48, 5)
    assert indicator_mu(F(0), F(1, 2)) == F(48, 5)


def test_compute_mu_point_mass_reads_w_at_the_mass():
    for k in (1, 2, 3):
        spec = ProblemSpec(k, DiracWeight(F(2, 7)))
        _, v, w = _v_and_w(spec)
        assert compute_mu(w, spec.rho) == 1 / w(F(2, 7)) == 1 / v.square_integral01()
        assert compute_mu(w, spec.rho) == dirac_mu(k, F(2, 7))


def test_seed_polynomial_equals_the_fraction_sum():
    rng = random.Random(170)
    for k in (1, 2, 3, 6, 12, 24):
        values = tuple(random_fraction(rng, -9, 9, 40) for _ in range(k))
        nums, den = integer_form(values)
        seeds = DerivativeSeeds(k, tuple(a * math.factorial(j) for j, a in enumerate(nums)), den)
        assert seeds.values == values
        got = _seed_polynomial(seeds)
        expected = [F(0)] * k
        for j, s in enumerate(values):
            expected[k - 1 - j] = s / math.factorial(k - 1 - j)
        assert got == Polynomial(expected), k


# -- full solves ---------------------------------------------------------


def test_solve_uniform_k1():
    s = solve(ProblemSpec(1, parse_weight("poly:1")))
    assert s.mu == 12
    assert abs(s.lam - 1.0 / math.sqrt(12.0)) < 1e-15
    assert pp_equal(s.u, from_polynomial(Polynomial([0, 6, -6])))
    assert s.method == "pipeline"
    assert s.diagnostics.closed_form_mu_checked


def test_solve_uniform_k2_minimizer():
    s = solve(ProblemSpec(2, parse_weight("poly:1")))
    expected = Polynomial([0, 0, 30]) * Polynomial([1, -2, 1])  # 30 x^2 (1-x)^2
    assert pp_equal(s.u, from_polynomial(expected))


def test_solve_tent_for_midpoint_mass():
    s = solve(ProblemSpec(1, DiracWeight(F(1, 2))))
    assert s.mu == 4
    assert s.eval_u(0.5) == 1.0
    # independent route: minimize the derivative energy of piecewise-linear
    # functions subject to u(mid) = 1.  With the P1 stiffness matrix K the
    # minimizer is K^-1 e_mid rescaled, and since the true tent is itself
    # piecewise linear on this grid, the discrete minimum is the exact mu.
    n = 101  # interior nodes, mid included
    h = 1.0 / (n + 1)
    K = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h
    e = np.zeros(n)
    mid = n // 2
    e[mid] = 1.0
    g = np.linalg.solve(K, e)
    u = g / g[mid]
    energy = float(u @ K @ u)
    assert abs(energy - 4.0) < 1e-10
    # and the discrete minimizer is the sampled tent
    xs = np.arange(1, n + 1) * h
    assert np.max(np.abs(u - np.array([s.eval_u(x) for x in xs]))) < 1e-10


def test_solve_matches_indicator_formula_random():
    rng = random.Random(4242)
    for _ in range(10):
        a = F(rng.randint(0, 40), 100)
        b = a + F(rng.randint(5, 50), 100)
        if b > 1:
            continue
        s = solve(ProblemSpec(1, IndicatorWeight(a, b)))
        assert s.mu == indicator_mu(a, b)


def test_solve_power_weight_matches_derived_value():
    # by hand: C0 = B(1/2, 2) = 4/3, v = 4/3 - 2 sqrt(x),
    # 1/mu = 16/9 - 32/9 + 2 = 2/9, so mu = 9/2 exactly
    s = solve(ProblemSpec(1, parse_weight("pow:1/2"), FLOAT))
    assert abs(s.mu - 4.5) < 1e-9
    assert s.diagnostics.boundary_residual < 1e-10
    assert s.diagnostics.normalization_residual < 1e-9
    # minimizer u = 6x - 6x^(3/2)
    for x in (0.1, 0.5, 0.9):
        assert abs(s.eval_u(x) - (6 * x - 6 * x**1.5)) < 1e-8


def test_solve_hardy():
    s = solve(ProblemSpec(1, parse_weight("hardy:1")))
    assert s.mu == 1
    assert s.lam == 1.0
    assert s.method == "closed_form"
    # u = -x ln x
    assert abs(s.eval_u(0.5) - (-0.5 * math.log(0.5))) < 1e-15
    assert s.eval_u(0.0) == 0.0
    with pytest.raises(UnsupportedWeightError):
        solve(ProblemSpec(2, HardyWeight(1)))


def test_hardy_closed_form_integrals():
    # exact: integral of -ln x = 1 and integral of (1 + ln x)^2 = 1
    assert HardyExtremizer.weighted_integral() == 1
    assert HardyExtremizer.energy() == 1
    u = HardyExtremizer()
    r1 = quad_numeric(lambda x: u(x) / x, 0.0, 1.0, tol=1e-11, singular_left=0.5)
    r2 = quad_numeric(
        lambda x: u.derivative(x) ** 2, 0.0, 1.0, tol=1e-11, singular_left=0.5
    )
    assert abs(r1.value - 1.0) <= 1e-10
    assert abs(r2.value - 1.0) <= 1e-10


def test_closed_form_uniform_list():
    values = [12, 720, 100800, 25401600, 10059033600]
    for k, want in enumerate(values, start=1):
        assert uniform_mu(k) == want
        cf = closed_form(ProblemSpec(k, parse_weight("poly:1")))
        assert cf.mu == want


def test_closed_form_constant_scaling():
    # homogeneity folded into the constant closed form: rho = 3 gives mu/9
    cf = closed_form(ProblemSpec(1, parse_weight("poly:3")))
    assert cf.mu == F(12, 9)


def test_closed_form_dirac_k2_and_beam():
    s = solve(ProblemSpec(2, DiracWeight(F(1, 2))))
    assert s.mu == 192
    assert dirac_mu(2, F(1, 2)) == 192

    # independent clamped-beam oracle: solve the two-piece cubic system for
    # G'''' = delta_a, G = G' = 0 at both ends, and invert the peak value
    a = F(1, 2)
    unknowns = 8  # c0..c3 (left piece), d0..d3 (right piece)
    rows, rhs = [], []

    def coeff_row(values):
        rows.append(values)

    # left clamped end: c0 = 0, c1 = 0
    coeff_row([1, 0, 0, 0, 0, 0, 0, 0]); rhs.append(0)
    coeff_row([0, 1, 0, 0, 0, 0, 0, 0]); rhs.append(0)
    # right clamped end: d(1) = 0, d'(1) = 0
    coeff_row([0, 0, 0, 0, 1, 1, 1, 1]); rhs.append(0)
    coeff_row([0, 0, 0, 0, 0, 1, 2, 3]); rhs.append(0)
    # continuity of value, slope, curvature at a
    pow_a = [a**i for i in range(4)]
    coeff_row(pow_a + [-p for p in pow_a]); rhs.append(0)
    coeff_row([0, 1, 2 * a, 3 * a**2, 0, -1, -2 * a, -3 * a**2]); rhs.append(0)
    coeff_row([0, 0, 2, 6 * a, 0, 0, -2, -6 * a]); rhs.append(0)
    # unit jump of the third derivative at the load point
    coeff_row([0, 0, 0, -6, 0, 0, 0, 6]); rhs.append(1)
    sol = frac_solve(rows, rhs)
    peak = sum(sol[i] * a**i for i in range(4))
    assert peak == F(1, 192)
    assert s.mu == 1 / peak
    assert len(sol) == unknowns


def test_dirac_candidate_profile_k1_matches_pipeline():
    for a in (F(1, 4), F(1, 2), F(7, 10)):
        s = solve(ProblemSpec(1, DiracWeight(a)))
        candidate = pointload_series_profile(1, a)
        normalized = candidate.scale(1 / candidate(a))
        assert pp_equal(s.u, normalized)
        assert s.diagnostics.pointload_candidate_deviation == 0.0


def test_pointload_deviation_is_the_513_point_maximum():
    # the per-piece grid walk must reproduce the point-by-point maximum bit
    # for bit, in both modes
    for a in (F(1, 3), F(1, 2), F(2, 7)):
        for k in (1, 2, 3, 6):
            for mode in (EXACT, FLOAT):
                spec = ProblemSpec(k, DiracWeight(a), mode)
                s = solve(spec)
                ref = closed_form(spec)
                expected = max(
                    abs(s.eval_u(i / 512) - ref.eval_u(i / 512)) for i in range(513)
                )
                assert s.diagnostics.pointload_candidate_deviation.hex() == expected.hex()


def test_first_order_point_masses_take_no_grid(monkeypatch):
    # at k = 1 the two profiles are equal, so their deviation is 0.0 with no
    # samples taken; at k >= 2 the 513-point grid still runs
    from sobolev1d import solver

    def refuse(*args, **kwargs):
        raise AssertionError("an equal point-mass profile was grid-sampled")

    monkeypatch.setattr(solver, "_grid_deviation", refuse)
    rng = random.Random(150001)
    locations = [F(rng.randint(1, 2**64 - 2), 2**64 - 1) for _ in range(4)]
    for a in [F(1, 3), *locations]:
        for mode in (EXACT, FLOAT):
            s = solve(ProblemSpec(1, DiracWeight(a), mode))
            assert s.diagnostics.pointload_candidate_deviation == 0.0
    calls = []

    def record(f, g):
        calls.append((f, g))
        return 0.5

    monkeypatch.setattr(solver, "_grid_deviation", record)
    for k in (2, 3, 6):
        s = solve(ProblemSpec(k, DiracWeight(locations[0])))
        assert s.diagnostics.pointload_candidate_deviation == 0.5
    assert len(calls) == 3


def test_dirac_candidate_profile_k2_is_defective():
    # the series candidate kinks at the mass point (one-sided slopes +-3/8
    # after normalization at a=1/2 they stay opposite), so it cannot lie in
    # H^2; the pipeline result is the authoritative extremizer
    a = F(1, 2)
    candidate = pointload_series_profile(2, a)
    left_slope = candidate.pieces[0].derivative()(a)
    right_slope = candidate.pieces[1].derivative()(a)
    assert left_slope == F(3, 8)
    assert right_slope == F(-3, 8)
    s = solve(ProblemSpec(2, DiracWeight(a)))
    assert s.diagnostics.pointload_candidate_deviation > 0.1
    # true extremizer is smooth at the peak
    assert s.u.pieces[0].derivative()(a) == 0
    assert s.u.pieces[1].derivative()(a) == 0


def test_solves_build_and_sample_no_series_profile_past_first_order(monkeypatch):
    # a point mass at k >= 2 checks mu alone; its series profile is neither
    # built nor grid-sampled until the deviation is read.  At k = 1 the
    # profile is the tent extremizer and is still compared piece for piece,
    # so only that order may build it.
    from sobolev1d import closed_forms, solver

    series = closed_forms.pointload_series_profile
    built = []

    def first_order_only(k, a):
        built.append(k)
        if k > 1:
            raise AssertionError("a series profile was built during a solve")
        return series(k, a)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve grid-sampled a profile")

    monkeypatch.setattr(closed_forms, "pointload_series_profile", first_order_only)
    monkeypatch.setattr(solver, "pp_grid_values_exact", refuse)
    weights = ["poly:1 + x^2", "pw:[0,1/2]=1;[1/2,1]=2", "chi:1/4,3/4", "dirac:2/7", "pow:1/3"]
    solutions = []
    for text in weights:
        rho = parse_weight(text)
        for k in (1, 2, 6):
            for mode in (EXACT, FLOAT) if rho.exact_capable else (FLOAT,):
                solutions.append(solve(ProblemSpec(k, rho, mode)))
    assert built == [1, 1]
    monkeypatch.undo()

    for s in solutions:
        deviation = s.diagnostics.pointload_candidate_deviation
        if not isinstance(s.spec.rho, DiracWeight):
            assert deviation is None
            continue
        assert s.diagnostics.closed_form_mu_checked
        ref = closed_form(s.spec)
        expected = max(abs(s.eval_u(i / 512) - ref.eval_u(i / 512)) for i in range(513))
        assert deviation.hex() == expected.hex(), (s.spec.k, s.spec.mode)


def test_deferred_deviation_is_computed_once(monkeypatch):
    from sobolev1d import solver

    calls = []
    grid_deviation = solver._grid_deviation

    def counted(f, g):
        calls.append(f)
        return grid_deviation(f, g)

    monkeypatch.setattr(solver, "_grid_deviation", counted)
    exact_u = solve(ProblemSpec(6, DiracWeight(F(2, 7)))).u
    for mode in (EXACT, FLOAT):
        s = solve(ProblemSpec(6, DiracWeight(F(2, 7)), mode))
        assert calls == []
        first = s.diagnostics.pointload_candidate_deviation
        # the exact u is sampled in both modes, not float mode's copy
        [sampled] = calls
        assert pp_equal(sampled, exact_u)
        calls.clear()
        assert s.diagnostics.pointload_candidate_deviation == first
        assert calls == []
        assert type(first) is float


def test_point_mass_mu_mismatch_raises_from_solve(monkeypatch):
    # the closed-form mu check stays eager at every order
    from sobolev1d import closed_forms

    dirac = closed_forms.dirac_mu
    monkeypatch.setattr(closed_forms, "dirac_mu", lambda k, a: dirac(k, a) + 1)
    for k in (1, 2, 6):
        for mode in (EXACT, FLOAT):
            with pytest.raises(ClosedFormMismatchError):
                solve(ProblemSpec(k, DiracWeight(F(2, 7)), mode))


def test_dirac_pipeline_formula_all_orders():
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        for _ in range(3):
            a = F(rng.randint(1, 19), 20)
            s = solve(ProblemSpec(k, DiracWeight(a)))
            assert s.mu == dirac_mu(k, a)


# -- invariants ---------------------------------------------------------


def _random_nonneg_poly_weight(rng):
    q1 = Polynomial([random_fraction(rng) for _ in range(3)])
    q2 = Polynomial([random_fraction(rng) for _ in range(3)])
    p = q1 * q1 + q2 * q2
    if p.is_zero() or p.integrate(F(0), F(1)) == 0:
        p = p + Polynomial([F(1, 7)])
    from sobolev1d.weights import PolyWeight

    return PolyWeight(p)


def test_dual_mu_identity_exact():
    rng = random.Random(20260808)
    for trial in range(12):
        k = 1 + trial % 3
        w = _random_nonneg_poly_weight(rng)
        s = solve(ProblemSpec(k, w))
        # reconstruct u^(k) from the assembled extremizer and integrate
        uk = s.u
        for _ in range(k):
            uk = uk.derivative()
        assert uk.square_integral01() == s.mu


def _energy_identity_weights(rng):
    """Seeded pw (one with 64-bit breakpoints), chi and dirac weights."""
    long = 2**64 - 1
    cut = F(rng.randint(1, 9), 10)
    pw = f"pw:[0,{cut}]={rng.randint(1, 4)}+x;[{cut},1]={rng.randint(1, 4)}*x^2+1"
    a, b = F(1, long), F(rng.randint(2, long - 2), long)
    pw_long = f"pw:[0,{a}]=1;[{a},{b}]={rng.randint(1, 3)};[{b},1]=1+x"
    lo = F(rng.randint(0, 5), 11)
    chi = f"chi:{lo},{lo + F(rng.randint(1, 5), 11)}"
    dirac = f"dirac:{F(rng.randint(1, 12), 13)}"
    return [pw, pw_long, chi, dirac]


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 24])
def test_energy_identity_for_every_exact_kind(k):
    # solve takes 1/mu = integral w rho; the energy of u^(k), reconstructed
    # from u, must come out as mu: integral (u^(k))^2 = mu^2 / mu
    rng = random.Random(1700 + k)
    for text in _energy_identity_weights(rng):
        s = solve(ProblemSpec(k, parse_weight(text)))
        uk = kth_derivative(s.u, k)
        assert uk == s.u_k, text
        assert pp_integrate_product(uk, uk) == s.mu, text


def _raise_if_squared(self):
    raise AssertionError("a solve squared a function")


def test_solve_takes_no_square(monkeypatch):
    monkeypatch.setattr(PiecewisePolynomial, "square_integral01", _raise_if_squared)
    monkeypatch.setattr(PolyPlusPower, "square_integral01", _raise_if_squared, raising=False)
    for k in (1, 2, 6):
        for text in ("poly:1 + x", "pw:[0,1/3]=1;[1/3,1]=x", "chi:1/4,3/4", "dirac:1/3"):
            for mode in (EXACT, FLOAT):
                assert solve(ProblemSpec(k, parse_weight(text), mode)).mu > 0
        assert solve(ProblemSpec(k, parse_weight("pow:1/3"), FLOAT)).mu > 0
    assert solve(ProblemSpec(1, parse_weight("hardy:1"))).mu == 1


def test_boundary_conditions_exact():
    rng = random.Random(31337)
    for k in (1, 2, 3):
        w = _random_nonneg_poly_weight(rng)
        s = solve(ProblemSpec(k, w))
        d = s.u
        for j in range(k):
            assert d.pieces[0](F(0)) == 0
            assert d.pieces[-1](F(1)) == 0
            d = d.derivative()


def _power_square_integral(v):
    """integral of (p + c x^e)^2 = integral p^2 + 2c sum a_i/(i+e+1) + c^2/(2e+1)."""
    c, e = v.term.coefficient, v.term.exponent
    cross = sum(a / (i + e + 1) for i, a in enumerate(v.poly.coeffs))
    return integrate_product(v.poly, v.poly, 0, 1) + 2 * c * cross + c * c / (2 * e + 1)


def _exact_power_extremizer(k, alpha):
    """The exact PolyPlusPower u that solve rounds for pow:alpha."""
    spec = ProblemSpec(k, parse_weight(f"pow:{alpha}"), FLOAT)
    seeds, v, w = _v_and_w(spec)
    mu = compute_mu(w, spec.rho)
    # the dual route, integral w x^(-alpha), against the quadratic one
    assert 1 / mu == _power_square_integral(v)
    u, _ = assemble_u(spec, seeds, mu, w)
    return spec, u


def test_a_nonzero_boundary_derivative_at_one_raises():
    # a 2-piece pw u beside the power weight's u, then a 3-piece chi and a
    # 2-piece dirac u up to k = 24; the message names the lowest j with
    # u^(j)(1) != 0 and its exact value
    rng = random.Random(2718)
    cases = [("pw:[0,1/3]=1;[1/3,1]=x", 2, k) for k in (1, 2, 3, 6)]
    cases += [(w, n, k) for w, n in (("chi:1/4,3/4", 3), ("dirac:2/7", 2)) for k in (1, 6, 24)]
    for weight, pieces, k in cases:
        spec = ProblemSpec(k, parse_weight(weight))
        u = solve(spec).u
        assert len(u.pieces) == pieces
        assert _diagnostics(spec, u).positivity_certified
        with_power = weight.startswith("pw")
        if with_power:
            power_spec, power_u = _exact_power_extremizer(k, "1/2")
            _diagnostics(power_spec, power_u)
        for j in range(k):
            # c (x - 1)^j changes u^(j)(1) by c j! and no lower derivative
            bump = Polynomial([1])
            for _ in range(j):
                bump = bump * Polynomial([-1, 1])
            c = random_fraction(rng, 1, 3)
            bump = bump.scale(c)
            # the message names the exact value u^(j)(1) = c j!
            message = re.escape(f"u^({j})(1) = {c * math.factorial(j)}, not 0")
            bad = PiecewisePolynomial(u.breakpoints, [*u.pieces[:-1], u.pieces[-1] + bump])
            with pytest.raises(BoundaryResidualError, match=f"^{message}$"):
                _diagnostics(spec, bad)
            if with_power:
                bad_power = PolyPlusPower(power_u.poly + bump, power_u.term)
                with pytest.raises(BoundaryResidualError, match=f"^{message}$"):
                    _diagnostics(power_spec, bad_power)


def test_a_root_at_one_past_order_k_passes_the_boundary_check():
    # (x - 1)^m with m > k: the boundary check passes, and no
    # BoundaryResidualError is raised
    rng = random.Random(5150)
    for k in (1, 2, 6):
        spec = ProblemSpec(k, parse_weight("poly:1"))
        for extra in (1, 2, 3):
            m = k + extra
            last = power(Polynomial([1, -1]), m).scale(rng.choice([1, -1]))
            for cuts in ((F(0), F(1)), (F(0), F(1, 3), F(1))):
                first = [power(Polynomial([0, 1]), k)] if len(cuts) > 2 else []
                _diagnostics(spec, PiecewisePolynomial(cuts, [*first, last]))


def test_certificate_after_the_boundary_check_matches_sturm():
    # seeded pieces, some vanishing at an interior breakpoint, with a last
    # piece that (x - 1)^k divides, through the maximum principle's
    # certificate
    rng = random.Random(24601)
    verdicts, vanishing = set(), 0
    for trial in range(60):
        k = rng.choice([1, 2, 6])
        cuts = sorted({F(0), F(1), *(F(rng.randint(1, 15), 16) for _ in range(3))})
        pieces = [random_certificate_input(rng)[0] for _ in cuts[1:]]
        if len(cuts) > 2 and rng.random() < 0.5:
            i = rng.randrange(1, len(cuts) - 1)
            j = rng.choice([i - 1, i])  # the piece left or right of cuts[i]
            pieces[j] = pieces[j] * power(Polynomial([-cuts[i], 1]), rng.randint(1, 2))
            vanishing += 1
        pieces[-1] = pieces[-1] * power(Polynomial([1, -1]), k)
        pp = PiecewisePolynomial(cuts, pieces)
        expected = sturm_reference(pp)
        assert pp_positive_on_open01(pp) == expected, (trial, pp.pieces)
        verdicts.add(expected)
    assert verdicts == {True, False} and vanishing >= 10


@pytest.mark.parametrize("k", [1, 6, 24])
@pytest.mark.parametrize(
    "weight",
    ["poly:1 + x^2", "pw:[0,1/3]=x^2;[1/3,2/3]=1/5;[2/3,1]=1-x", "chi:1/4,3/4", "dirac:2/7"],
)
def test_a_solve_divides_its_last_piece_at_one_once(monkeypatch, weight, k):
    # the boundary check and the certificate share one strip_root at 1; the
    # falling-factorial sums run only to word a failure, and the seeds stay
    # integers
    from sobolev1d import polynomials, solver

    spec = ProblemSpec(k, parse_weight(weight))  # parsing strips weight roots
    calls = {"derivatives_at_one": 0, "strip_root at 1": 0, "seeds.values": 0}
    strip, seed_values = polynomials.strip_root, DerivativeSeeds.values

    def counted_strip(p, c):
        calls["strip_root at 1"] += c == 1
        return strip(p, c)

    def counted_derivatives(p, count):
        calls["derivatives_at_one"] += 1
        return polynomials.derivatives_at_one(p, count)

    def counted_values(seeds):
        calls["seeds.values"] += 1
        return seed_values.fget(seeds)

    monkeypatch.setattr(polynomials, "strip_root", counted_strip)
    monkeypatch.setattr(solver, "strip_root", counted_strip)
    monkeypatch.setattr(solver, "derivatives_at_one", counted_derivatives)
    monkeypatch.setattr(DerivativeSeeds, "values", property(counted_values))
    solution = solve(spec)
    assert solution.diagnostics.positivity_certified
    assert calls == {"derivatives_at_one": 0, "strip_root at 1": 1, "seeds.values": 0}


def test_normalization_exact():
    rng = random.Random(808)
    for k in (1, 2):
        w = _random_nonneg_poly_weight(rng)
        s = solve(ProblemSpec(k, w))
        total = pp_mul(s.u, as_piecewise(w)).integrate01()
        assert total == 1


def test_homogeneity():
    rng = random.Random(11)
    w = parse_weight("poly:1 + x + x^2")
    base = solve(ProblemSpec(2, w)).mu
    for _ in range(5):
        c = F(rng.randint(1, 30), rng.randint(1, 10))
        scaled = solve(ProblemSpec(2, scale_weight(w, c))).mu
        assert scaled == base / c**2


def test_reflection_invariance():
    cases = [
        (1, parse_weight("chi:0,1/2")),
        (2, parse_weight("chi:0,1/2")),
        (1, parse_weight("poly:x")),
        (3, parse_weight("poly:1 + x^2")),
        (2, DiracWeight(F(1, 5))),
    ]
    for k, w in cases:
        assert solve(ProblemSpec(k, w)).mu == solve(ProblemSpec(k, reflect_weight(w))).mu


def test_indicator_family_converges_to_dirac():
    a = F(1, 2)
    target = solve(ProblemSpec(1, DiracWeight(a))).mu
    assert target == 4
    previous_err = None
    for j in range(2, 11):
        eps = F(1, 2**j)
        got = solve(ProblemSpec(1, IndicatorWeight(a - eps, a + eps))).mu
        assert got == indicator_mu(a - eps, a + eps)  # bullet formula agreement
        err = abs(float(got - target))
        if previous_err is not None:
            assert err < previous_err
        previous_err = err


def test_optimality_inequality_randomized():
    # for any clamped test function w, integral |w| rho <= Lambda ||w^(k)||;
    # with S = sum of |integral w rho| over sign-constant segments (a lower
    # bound on the left side), S^2 * mu <= integral (w^(k))^2 must hold
    # exactly -- segments come from float root estimates, which never breaks
    # the one-sided bound
    rng = random.Random(777)
    weights = [
        parse_weight("poly:1"),
        parse_weight("poly:1 + x"),
        parse_weight("chi:1/4,3/4"),
    ]
    checked = 0
    for trial in range(100):
        k = 1 + trial % 2
        rho = weights[trial % len(weights)]
        mu = solve(ProblemSpec(k, rho)).mu
        bridge = Polynomial([0] * k + [1]) * (
            Polynomial([1, -1]) if k == 1 else Polynomial([1, -2, 1])
        )
        q = Polynomial([random_fraction(rng) for _ in range(4)])
        w = bridge * q
        if w.is_zero():
            continue
        roots = [
            F(float(r.real)).limit_denominator(10**6)
            for r in np.roots([float(c) for c in reversed(w.coeffs)])
            if abs(r.imag) < 1e-12 and 1e-9 < r.real < 1 - 1e-9
        ]
        cuts = sorted({F(0), F(1), *roots})
        rho_pp = as_piecewise(rho)
        w_pp = from_polynomial(w)
        lower = F(0)
        for lo, hi in zip(cuts, cuts[1:]):
            seg = pp_mul(w_pp, rho_pp)
            total = F(0)
            for (ba, bb), piece in zip(
                zip(seg.breakpoints, seg.breakpoints[1:]), seg.pieces
            ):
                a2, b2 = max(ba, lo), min(bb, hi)
                if a2 < b2:
                    total += piece.integrate(a2, b2)
            lower += abs(total)
        energy = (kth_derivative(w, k) * kth_derivative(w, k)).integrate(F(0), F(1))
        assert lower**2 * mu <= energy
        checked += 1
    assert checked >= 95


# -- error paths ----------------------------------------------------------


def test_zero_weight_rejected():
    with pytest.raises(ZeroWeightError):
        solve(ProblemSpec(1, parse_weight("poly:0")))


def test_exact_mode_rejects_power():
    with pytest.raises(ModeMismatchError):
        ProblemSpec(1, parse_weight("pow:1/2"), EXACT)


def test_float_mode_on_exact_weight_agrees():
    cases = [(1, "poly:1 + x"), (1, "chi:1/4,3/4"), (2, "chi:1/4,3/4"),
             (2, "poly:2"), (3, "dirac:1/3")]
    for k, text in cases:
        exact = solve(ProblemSpec(k, parse_weight(text)))
        floaty = solve(ProblemSpec(k, parse_weight(text), FLOAT))
        assert abs(float(exact.mu) - floaty.mu) / float(exact.mu) < 1e-12


def test_float_mode_rounds_the_exact_solution():
    # float mode runs the exact pipeline and rounds at output, so mu is the
    # float of the exact rational, bit for bit, at every order
    for text in ("poly:1 + x", "pw:[0,1/2]=1;[1/2,1]=x", "chi:1/4,3/4", "dirac:1/3"):
        for k in (6, 12, 24):
            exact = solve(ProblemSpec(k, parse_weight(text)))
            floaty = solve(ProblemSpec(k, parse_weight(text), FLOAT))
            assert floaty.mu == float(exact.mu), (text, k)
            assert floaty.mu_exact is None
            assert floaty.u == exact.u and floaty.u_k == exact.u_k
            d = floaty.diagnostics
            assert d.positivity_certified is True
            assert d.boundary_residual == 0.0 and d.normalization_residual == 0.0


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_eval_u_rounds_the_exact_value(mode):
    # eval_u and eval_u_k of a piecewise u return the float of the exact
    # value at the float point, at every order and in both modes
    rng = random.Random(5050)
    weights = ("poly:1 + x^2", "pw:[0,1/2]=1;[1/2,1]=x", "chi:1/4,3/4", "dirac:2/7")
    for text in weights:
        for k in (1, 6, 24, 40):
            s = solve(ProblemSpec(k, parse_weight(text), mode))
            assert isinstance(s.u, PiecewisePolynomial)
            cuts = [float(t) for t in s.u.breakpoints]
            for x in sorted(cuts + [rng.random() for _ in range(40)]):
                assert s.eval_u(x) == float(s.u(F(x))), (text, k, x)
                assert s.eval_u_k(x) == float(s.u_k(F(x))), (text, k, x)


def _power_weight_mu(k, alpha):
    """Exact mu for x^(-alpha) by Hilbert projection, independent of solve.

    v = u^(k)/mu is (-1)^k (I - P I) for the iterated integral
    I = c x^(k-alpha), c = 1/prod_{i<=k} (i - alpha), and the L^2 projection
    P onto polynomials of degree < k; 1/mu = integral of v^2.
    """
    c = F(1)
    for i in range(1, k + 1):
        c /= i - alpha
    e = k - alpha
    r = [c / (i + e + 1) for i in range(k)]
    coeffs = frac_solve([[F(1, i + j + 1) for j in range(k)] for i in range(k)], r)
    return 1 / (c * c / (2 * e + 1) - sum(x * y for x, y in zip(r, coeffs)))


def test_power_weight_mu_is_the_rounded_exact_value():
    assert _power_weight_mu(3, F(1, 2)) == F(1440747, 32)
    assert _power_weight_mu(3, F(9, 10)) == F(54622906533, 2500000)
    for alpha in (F(0), F(1, 3), F(1, 2), F(9, 10), F(97, 100)):
        for k in (1, 2, 3, 6, 12, 24):
            s = solve(ProblemSpec(k, PowerWeight(alpha), FLOAT))
            assert s.mu == float(_power_weight_mu(k, alpha)), (alpha, k)
            assert s.mu_exact is None


def test_power_weight_residuals_are_exact_zeros():
    for alpha in (F(1, 2), F(97, 100)):
        for k in (1, 6, 24):
            d = solve(ProblemSpec(k, PowerWeight(alpha), FLOAT)).diagnostics
            assert d.boundary_residual == 0.0
            assert d.normalization_residual == 0.0
            assert d.positivity_certified is True  # Boggio's theorem


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 24, 40, 60])
def test_power_weight_positivity_is_certified_by_boggio(k):
    # power weights solve in float mode only; the certificate reads the
    # exact extremizer, which the float solve rounds at output
    for alpha in ("0", "1/3", "1/2", "999/1000"):
        spec, u = _exact_power_extremizer(k, alpha)
        assert _diagnostics(spec, u).positivity_certified is True, alpha
        d = solve(spec).diagnostics
        assert d.positivity_certified is True, alpha
        assert d.min_interior_value is None, alpha
        with pytest.raises(ModeMismatchError):
            ProblemSpec(k, spec.rho, EXACT)


def _vanishing_at_one(k, j, degree):
    """x^j (x - 1)^k x^(degree - j - k): a bump that leaves u^(i)(1), i < k,
    at 0 and starts at x^j."""
    p = Polynomial([0] * j + [1])
    for _ in range(k):
        p = p * Polynomial([-1, 1])
    return p * Polynomial([0] * (degree - j - k) + [1])


def test_boggio_certificate_refuses_each_broken_hypothesis():
    # each tampered u still passes the exact boundary check at 1, so only the
    # broken hypothesis can refuse it
    for k in (1, 2, 3, 6):
        spec, u = _exact_power_extremizer(k, "1/3")
        assert _diagnostics(spec, u).positivity_certified is True
        # (a) the exponent: another alpha's extremizer under this weight
        other_spec, other = _exact_power_extremizer(k, "1/2")
        assert _diagnostics(other_spec, other).positivity_certified is True
        assert _diagnostics(spec, other).positivity_certified is False
        # (b) deg P < 2k: a bump x^k (x - 1)^k of degree 2k, or higher
        for degree in (2 * k, 2 * k + 1, 3 * k):
            for t in (F(1, 10**6), F(-1, 3)):
                bump = _vanishing_at_one(k, k, degree).scale(t)
                bad = PolyPlusPower(u.poly + bump, u.term)
                assert _diagnostics(spec, bad).positivity_certified is False, (k, degree)
        # (c) u^(j)(0) = 0: a bump x^j (x - 1)^k of degree < 2k
        for j in range(k):
            for t in (F(1, 10**6), F(-1, 3)):
                bump = _vanishing_at_one(k, j, j + k).scale(t)
                bad = PolyPlusPower(u.poly + bump, u.term)
                assert _diagnostics(spec, bad).positivity_certified is False, (k, j)
        # (d) the sign of (-1)^k c
        assert _diagnostics(spec, u.scale(-1)).positivity_certified is False
        assert _diagnostics(spec, u.scale(F(1, 7))).positivity_certified is True


PIECEWISE_KINDS = (
    "poly:1 + x^2",
    "pw:[0,1/3]=x^2;[1/3,2/3]=1/5;[2/3,1]=1-x",
    "pw:[0,1/2]=1;[1/2,1]=2",
    "chi:1/4,3/4",
    "dirac:2/7",
)


def test_piecewise_boggio_certificate_refuses_each_broken_hypothesis():
    # every bump carries (x - 1)^k, so each tampered u still passes the exact
    # boundary check at 1 and only the broken hypothesis can refuse it
    for k in (1, 2, 3, 6):
        specs = [ProblemSpec(k, parse_weight(text)) for text in PIECEWISE_KINDS]
        for spec in specs:
            u = solve(spec).u

            def certified(candidate, spec=spec):
                return _diagnostics(spec, candidate).positivity_certified

            def everywhere(bump, u=u):
                return u.map_pieces(lambda p: p + bump)

            assert certified(u) is True
            for t in (F(1, 10**6), F(-1, 3)):
                # (H1) u^(j)(0) = 0: a bump x^j (x - 1)^k of degree < 2k
                for j in range(k):
                    bad = everywhere(_vanishing_at_one(k, j, j + k).scale(t))
                    assert certified(bad) is False, (spec, j, t)
                # (H3) (-1)^k u^(2k) = lambda rho: a bump x^k (x - 1)^k of
                # degree 2k, or higher, leaves H1 and H4 as they are
                for degree in (2 * k, 2 * k + 1, 3 * k):
                    bad = everywhere(_vanishing_at_one(k, k, degree).scale(t))
                    assert certified(bad) is False, (spec, degree, t)
                # (H4) no jump below u^(2k-1) at a breakpoint, and the point
                # mass's jump: (x - a)^j (x - 1)^k right of a, of degree < 2k
                cuts = u.breakpoints
                for i in range(1, len(cuts) - 1):
                    for j in range(k):
                        bump = power(Polynomial([-cuts[i], 1]), j) * power(
                            Polynomial([-1, 1]), k
                        )
                        pieces = [*u.pieces[:i], *(p + bump.scale(t) for p in u.pieces[i:])]
                        bad = PiecewisePolynomial(cuts, pieces)
                        assert certified(bad) is False, (spec, i, j, t)
                    # a point mass's u at a breakpoint of a function weight
                    # jumps only in u^(2k-1)
                    if not isinstance(spec.rho, DiracWeight):
                        green = solve(ProblemSpec(k, DiracWeight(cuts[i]))).u
                        pieces = [
                            p + green.pieces[green.piece_index((a + b) / 2)].scale(t)
                            for a, b, p in zip(cuts, cuts[1:], u.pieces)
                        ]
                        bad = PiecewisePolynomial(cuts, pieces)
                        assert certified(bad) is False, (spec, i, t)
            # (H3) u's breakpoints are rho's: u split at 1/2, where it is
            # left as it is, and lowered right of it by a multiple of
            # (x - 1)^2k that makes it negative at 1/2
            if len(u.pieces) == 1:
                (p,) = u.pieces
                drop = power(Polynomial([-1, 1]), 2 * k).scale(-2 * p(F(1, 2)) * 4**k)
                bad = PiecewisePolynomial([F(0), F(1, 2), F(1)], [p, p + drop])
                assert bad(F(1, 2)) < 0
                assert certified(bad) is False, spec
            # lambda > 0
            assert certified(u.scale(-1)) is False
            assert certified(u.scale(F(1, 7))) is True
        # rho is not 0: u = 0 meets every other hypothesis for rho = 0
        zero = Polynomial([])
        diags = _diagnostics(ProblemSpec(k, PolyWeight(zero)), from_polynomial(zero))
        assert diags.positivity_certified is False


def test_power_quotient_matches_fraction_division():
    # integer numerators g against (t x - s)^m: the quotient when the power
    # divides g, else None, as Fraction long division decides; x^m itself
    # is no multiple, though every coefficient below x^m vanishes
    rng = random.Random(2525)
    for _ in range(300):
        a = F(rng.randint(1, 12), rng.randint(2, 13))
        s, t = a.numerator, a.denominator
        m = rng.randint(1, 9)
        power_ = power(Polynomial([-s, t]), m)
        q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.choice([-2, 1, 5])]
        g = list((Polynomial(q) * power_).nums)
        if rng.random() < 0.5:
            g[rng.randrange(len(g))] += rng.choice([-1, 1])
        while g and g[-1] == 0:
            g.pop()
        quotient, remainder = poly_divmod(Polynomial(g), power_)
        expected = list(quotient.coeffs) if remainder.is_zero() else None
        assert _power_quotient(g, a, m) == expected, (g, a, m)
        assert _power_quotient([0] * m + [1], a, m) is None


def _random_piecewise_weight(rng, kind):
    """A seeded weight of one kind, with small denominators."""
    cuts = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]

    def nonnegative():
        p = Polynomial([F(rng.randint(1, 9), rng.randint(1, 5))])
        for _ in range(rng.randint(0, 2)):
            p = p * Polynomial([1, F(rng.randint(-4, 9), 5)])  # 1 + c x, c > -1
        return p.scale(rng.choice([1, F(1, 3)])) if rng.random() < 0.8 else Polynomial([])

    if kind == "poly":
        return PolyWeight(nonnegative() + Polynomial([F(1, rng.randint(1, 4))]))
    if kind == "pw":
        inner = sorted(rng.sample(cuts, rng.randint(1, 2)))
        bounds = [F(0), *inner, F(1)]
        pieces = [nonnegative() for _ in inner] + [Polynomial([1])]
        rng.shuffle(pieces)
        return PiecewiseWeight(PiecewisePolynomial(bounds, pieces))
    if kind == "chi":
        a, b = sorted(rng.sample([F(0), *cuts, F(1)], 2))
        return IndicatorWeight(a, b)
    return DiracWeight(rng.choice([*cuts, F(1, 5), F(2, 7)]))


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 24])
def test_seeded_solves_are_certified_without_the_bernstein_certificate(monkeypatch, k):
    # the solve certifies by Boggio's theorem and never calls
    # pp_positive_on_open01, which agrees as the reference afterwards
    from sobolev1d import polynomials, solver

    calls = []
    monkeypatch.setattr(solver, "pp_positive_on_open01", lambda *a: calls.append(a))
    rng = random.Random(2500 + k)
    for kind in ("poly", "pw", "chi", "dirac"):
        for _ in range(3):
            rho = _random_piecewise_weight(rng, kind)
            s = solve(ProblemSpec(k, rho))
            assert s.diagnostics.positivity_certified is True, (rho, k)
            assert polynomials.pp_positive_on_open01(s.u) is True, (rho, k)
    assert calls == []


def test_every_kind_solves_without_the_bernstein_certificate(monkeypatch):
    from sobolev1d import polynomials, solver

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran the Bernstein certificate")

    monkeypatch.setattr(polynomials, "bernstein_coefficients", refuse)
    monkeypatch.setattr(polynomials, "pp_positive_on_open01", refuse)
    monkeypatch.setattr(solver, "pp_positive_on_open01", refuse)
    for k in (1, 6, 24):
        for text in (*PIECEWISE_KINDS, "pw:[0,1/2]=1;[1/2,1]=x", "chi:0,1/2", "pow:1/3"):
            modes = (FLOAT,) if text.startswith("pow") else (EXACT, FLOAT)
            for mode in modes:
                d = solve(ProblemSpec(k, parse_weight(text), mode)).diagnostics
                assert d.positivity_certified is True, (text, k, mode)
    hardy = solve(ProblemSpec(1, parse_weight("hardy:1")))
    assert hardy.diagnostics.positivity_certified is True


def test_certified_power_extremizers_are_positive_at_50_digits():
    # an independent check of the certificate: P exact, x^e = x^2k x^(-alpha)
    # with x^(-alpha) = exp(-alpha ln x) in 50-digit decimal arithmetic
    import decimal

    def dec(q):
        return decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)

    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for k in (1, 2, 3):
            for alpha in ("0", "1/3", "1/2", "999/1000"):
                spec, u = _exact_power_extremizer(k, alpha)
                assert _diagnostics(spec, u).positivity_certified is True
                c, a = u.term.coefficient, spec.rho.alpha
                for i in range(1, 100):
                    x = F(i, 100)
                    power = dec(x ** (2 * k)) * (-dec(a) * dec(x).ln()).exp()
                    value = dec(u.poly(x)) + dec(c) * power
                    assert value > 0, (k, alpha, x, value)


def test_power_weight_solve_runs_no_quadrature(monkeypatch):
    from sobolev1d import quadrature, solver

    def refuse(*args, **kwargs):
        raise AssertionError("the solve path called quad_numeric")

    monkeypatch.setattr(quadrature, "quad_numeric", refuse)
    monkeypatch.setattr(solver, "quad_numeric", refuse)
    s = solve(ProblemSpec(2, parse_weight("pow:1/2"), FLOAT))
    assert s.mu == float(_power_weight_mu(2, F(1, 2)))


def test_problem_spec_rejects_float_coefficient_weights():
    # a float-coefficient weight never reaches ProblemSpec, in either mode:
    # building it already raises
    builds = (
        lambda: PolyWeight(Polynomial([1.0, -0.5])),
        lambda: PiecewiseWeight(
            PiecewisePolynomial([0.0, 0.5, 1.0], [Polynomial([1.0])] * 2)
        ),
    )
    for build in builds:
        for mode in (EXACT, FLOAT):
            with pytest.raises(ModeMismatchError):
                ProblemSpec(1, build(), mode)


def test_extremizers_certify_without_sturm_fallback(monkeypatch):
    from sobolev1d import polynomials

    weights = [
        (parse_weight("poly:1 + x^2"), 8),
        (parse_weight("pw:[0,1/3]=1+x;[1/3,1]=2-x"), 6),
        (parse_weight("chi:1/4,3/4"), 6),
        (parse_weight("dirac:1/3"), 4),
    ]

    def no_sturm(p):
        raise AssertionError("certificate fell back to Sturm")

    monkeypatch.setattr(polynomials, "sturm_chain", no_sturm)
    for rho, k in weights:
        assert solve(ProblemSpec(k=k, rho=rho)).diagnostics.positivity_certified is True


def test_certified_solves_run_no_grid_scan(monkeypatch):
    from sobolev1d import solver

    def refuse(*args, **kwargs):
        raise AssertionError("a certified extremizer was grid-scanned")

    monkeypatch.setattr(solver, "pp_min_on_grid", refuse)
    cases = (
        ("poly:1 + x", 6),
        ("pw:[0,1/3]=1+x;[1/3,1]=2-x", 3),
        ("chi:1/4,3/4", 6),
        ("dirac:1/3", 2),
        ("hardy:1", 1),
    )
    for text, k in cases:
        for mode in (EXACT, FLOAT):
            d = solve(ProblemSpec(k, parse_weight(text), mode)).diagnostics
            assert d.positivity_certified is True, (text, mode)
            assert d.min_interior_value is None, (text, mode)


def test_sharp_constant_equals_the_float_formula_bit_for_bit():
    rng = random.Random(20)
    for _ in range(20000):
        mu = F(rng.getrandbits(rng.randint(1, 1100)) + 1, rng.getrandbits(rng.randint(1, 1100)) + 1)
        try:
            value = float(mu)
        except OverflowError:
            continue
        if value >= 2.3e-308:  # a normal float
            assert sharp_constant(mu) == 1.0 / math.sqrt(value), mu


def test_sharp_constant_past_the_float_range():
    # float(mu) overflows, and float(1 / mu) underflows to 0 below ~1e-324
    for exponent in (400, 700):
        mu = F(10) ** (2 * exponent)
        assert math.isclose(sharp_constant(mu), 10.0**-exponent, rel_tol=1e-15)
    assert sharp_constant(F(2) ** 2000) == 2.0**-1000
    assert sharp_constant(F(2) ** 4000) == 0.0  # 2^-2000 underflows
