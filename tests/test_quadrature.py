import math
import random
from fractions import Fraction as F

import pytest

from sobolev1d.polynomials import Polynomial
from sobolev1d.quadrature import QuadratureNonConvergence, quad_numeric


def test_linear():
    res = quad_numeric(lambda x: x, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 0.5) <= 1e-12
    assert res.error <= 1e-12


def test_declared_inverse_sqrt_singularity():
    # antiderivative 2*sqrt(t) gives exactly 2 on (0, 1)
    res = quad_numeric(lambda x: x**-0.5, 0.0, 1.0, tol=1e-10, singular_left=0.5)
    assert abs(res.value - 2.0) <= 1e-10
    assert res.error <= 1e-10


def test_log_squared():
    # by parts twice: integral of (ln x)^2 over (0,1) is 2
    res = quad_numeric(lambda x: math.log(x) ** 2, 0.0, 1.0, tol=1e-10, singular_left=0.5)
    assert abs(res.value - 2.0) <= 1e-10
    assert res.error <= 1e-10


def test_right_endpoint_singularity():
    # near x = 1 the evaluation 1 - x loses precision at the ulp scale, so
    # the achievable absolute accuracy for (1-x)^(-1/2) is ~1e-7
    res = quad_numeric(
        lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, tol=1e-6, singular_right=0.5
    )
    assert abs(res.value - 2.0) <= 1e-6


def test_matches_exact_polynomial_integrals_to_degree_40():
    rng = random.Random(1234)
    for deg in [5, 17, 28, 40]:
        p = Polynomial([F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(deg + 1)])
        exact = float(p.integrate(F(0), F(1)))
        res = quad_numeric(p.eval_float, 0.0, 1.0, tol=1e-13)
        assert abs(res.value - exact) <= 1e-12


def test_strong_declared_singularity_at_zero():
    # the tail-sized first cell underflows for alpha >= 0.96; the mesh must
    # still start from a positive cell instead of looping forever
    res = quad_numeric(lambda x: x ** (2 - 0.97), 0.0, 1.0, tol=1e-12, singular_left=0.97)
    assert abs(res.value - 1 / (3 - 0.97)) <= 1e-12


def test_undeclared_singularity_raises():
    with pytest.raises(QuadratureNonConvergence):
        quad_numeric(lambda x: x**-0.9, 0.0, 1.0, tol=1e-12, max_intervals=40)


def test_bad_interval():
    with pytest.raises(ValueError):
        quad_numeric(lambda x: x, 1.0, 0.0)
