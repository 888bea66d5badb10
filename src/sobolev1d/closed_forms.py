"""Closed-form sharp constants and extremizer profiles for special weights.

These are the fast paths and cross-checks for the constructive pipeline:

* uniform weight: mu = (2k)! (2k+1)! / (k!)^2, extremizer proportional to
  x^k (1-x)^k;
* normalized indicator on [a, b], first order: mu = 12 / (4(2a+b) - 3(a+b)^2);
* point mass at a, any order: mu = (2k-1) ((k-1)!)^2 / (a(1-a))^(2k-1);
* boundary weight 1/x, first order: the sharp constant is exactly 1 with
  extremizer u(x) = -x ln x.

`pointload_series_profile` implements a closed-form series sometimes quoted
for the point-mass extremizer.  It is kept only as a documented cross-check:
for k = 1 it reproduces the true tent extremizer up to normalization, but for
k >= 2 its one-sided first derivatives disagree at the mass point, so it
cannot be the H^k minimizer (see README).  The pipeline solution is
authoritative.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, log

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    bridge_poly,
    monomial,
)
from .scalars import EXACT, record


def uniform_mu(k: int) -> Fraction:
    """Sharp eigenvalue for rho = 1: (2k)! (2k+1)! / (k!)^2."""
    return Fraction(factorial(2 * k) * factorial(2 * k + 1), factorial(k) ** 2)


def uniform_minimizer(k: int) -> Polynomial:
    """The rho = 1 extremizer normalized to unit weighted integral.

    integral of x^k (1-x)^k = (k!)^2 / (2k+1)!, so the normalized extremizer
    is (2k+1)!/(k!)^2 * x^k (1-x)^k.
    """
    scale = Fraction(factorial(2 * k + 1), factorial(k) ** 2)
    return bridge_poly(k).scale(scale)


def indicator_mu(a: Fraction, b: Fraction) -> Fraction:
    """First-order sharp eigenvalue for the normalized indicator of [a, b]."""
    a, b = Fraction(a), Fraction(b)
    return Fraction(12) / (4 * (2 * a + b) - 3 * (a + b) ** 2)


def dirac_mu(k: int, a: Fraction) -> Fraction:
    """Sharp eigenvalue for a unit point mass at a (pointwise estimates)."""
    a = Fraction(a)
    return Fraction((2 * k - 1) * factorial(k - 1) ** 2) / (a * (1 - a)) ** (2 * k - 1)


def _series_factor(k: int, a: Fraction) -> Polynomial:
    """H(x, a) = sum_n x^n sum_m C(2k-1, m) C(k-1+n-m, n-m) a^(k-1-m)."""
    coeffs = []
    for n in range(k):
        coeffs.append(
            sum(
                comb(2 * k - 1, m) * comb(k - 1 + n - m, n - m) * a ** (k - 1 - m)
                for m in range(n + 1)
            )
        )
    return Polynomial([Fraction(c) for c in coeffs], EXACT)


def pointload_series_profile(k: int, a: Fraction) -> PiecewisePolynomial:
    """Two-piece closed-form series candidate for the point-mass extremizer.

    Left piece (1-a)^k x^k H(1-x, 1-a), right piece a^k (1-x)^k H(x, a),
    returned unnormalized.  Trustworthy for k = 1 only; retained as a
    documented negative cross-check for k >= 2.
    """
    a = Fraction(a)
    one_minus_x = Polynomial([1, -1], EXACT)

    def power(p: Polynomial, n: int) -> Polynomial:
        out = Polynomial([1], EXACT)
        for _ in range(n):
            out = out * p
        return out

    mirrored = _series_factor(k, 1 - a).compose_affine(Fraction(-1), Fraction(1))
    left = monomial(k).scale((1 - a) ** k) * mirrored
    right = power(one_minus_x, k).scale(a**k) * _series_factor(k, a)
    return PiecewisePolynomial([Fraction(0), a, Fraction(1)], [left, right])


# ---------------------------------------------------------------------------
# Boundary weight 1/x (first order)
# ---------------------------------------------------------------------------


def log_moment(n: int, m: int) -> Fraction:
    """Exact integral over (0, 1) of x^n (-ln x)^m = m! / (n+1)^(m+1)."""
    return Fraction(factorial(m), (n + 1) ** (m + 1))


@record
class HardyExtremizer:
    """u(x) = -x ln x, the sharp profile for the 1/x boundary weight.

    Both normalizations are exactly 1: the weighted integral of u against
    1/x is integral of -ln x = 1, and the derivative energy is
    integral of (1 + ln x)^2 = 1 - 2 + 2 = 1 (so the sharp constant is 1).
    """

    def __call__(self, x: float) -> float:
        if x <= 0.0:
            return 0.0  # limit value as x -> 0+
        return -x * log(x)

    def derivative(self, x: float) -> float:
        if x <= 0.0:
            return float("inf")
        return -log(x) - 1.0

    @staticmethod
    def weighted_integral() -> Fraction:
        """integral of u(x)/x dx = integral of -ln x dx, exactly."""
        return log_moment(0, 1)

    @staticmethod
    def energy() -> Fraction:
        """integral of u'(x)^2 dx, exactly (expand (1 + ln x)^2)."""
        return log_moment(0, 0) - 2 * log_moment(0, 1) + log_moment(0, 2)
