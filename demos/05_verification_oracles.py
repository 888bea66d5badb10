"""Three independent ways to corroborate a sharp constant.

1. Galerkin dual norm: trial spaces x^k (1-x)^k x^i give monotone lower
   bounds on Lambda^2 = 1/mu.  For polynomial weights the extremizer lies in
   the span and the bound closes exactly; for the kinked point-mass
   extremizer it converges only at O(1/N) -- visible below.

2. Sign iteration: a Picard loop on the finite-difference eigenproblem,
   started from random sign patterns, lands on an all-positive solution and
   a second-order-accurate discrete eigenvalue.

3. Maximum principle: the clamped polyharmonic problem with a non-negative
   load has a strictly positive solution, certified exactly (Bernstein
   certificate with Sturm fallback) for polynomial loads.
"""

from sobolev1d import (
    DiracWeight,
    GalerkinConfig,
    ProblemSpec,
    galerkin_lambda,
    max_principle_check,
    parse_weight,
    sign_iteration,
    solve,
)
from fractions import Fraction as F

# --- Galerkin: exact closure vs O(1/N) for the kinked extremizer
w = parse_weight("poly:1 + x^2")
mu = solve(ProblemSpec(2, w)).mu
rep = galerkin_lambda(ProblemSpec(2, w), GalerkinConfig(4))
print("polynomial weight 1 + x^2, k = 2:")
print(f"  1/mu          = {float(1/mu):.15f}")
print(f"  Galerkin N=4  = {rep.details['lambda_sq']:.15f}   (closed exactly: "
      f"{rep.details['lambda_sq_exact'] == 1/mu})")

spec = ProblemSpec(1, DiracWeight(F(1, 2)))
rep = galerkin_lambda(spec, GalerkinConfig(24))
print("\npoint mass at 1/2, k = 1 (target 1/4; kink limits the rate):")
for n, val in rep.history:
    if n % 4 == 0:
        print(f"  N={n:>2}  lambda_N^2 = {val:.8f}   gap = {0.25 - val:.2e}")

# --- sign iteration from adversarial starts
spec = ProblemSpec(2, parse_weight("poly:1"))
print("\nsign iteration, k = 2, rho = 1, n = 199, random sign starts:")
for seed in range(3):
    rep = sign_iteration(spec, n=199, seed=seed)
    print(f"  seed {seed}: converged in {rep.details['iterations']} sweep(s), "
          f"sign-definite = {rep.sign_definite}, mu_h = {rep.details['mu_h']:.3f}")

# --- maximum principle
rep = max_principle_check(3, parse_weight("poly:1 + x^2"))
print(f"\nmax principle, k = 3, load 1 + x^2: positive = {rep.sign_definite} "
      f"({rep.details['route']} route)")
rep = max_principle_check(2, parse_weight("chi:1/4,3/4"), n=199, route="grid")
print(f"max principle, k = 2, plateau load, grid: min value = "
      f"{rep.details['min_value']:.6f} > 0")
