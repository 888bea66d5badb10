"""Shared helpers for the test suite.

The library solves its seed system by finite differences and has no
elimination code; the exact linear solver here is plain elimination, so the
seed-solve and beam/boundary-value cross-checks do not share an arithmetic
path with what they verify.
"""

from fractions import Fraction


def frac_solve(matrix, rhs):
    """Plain Gaussian elimination over Fractions, no pivoting tricks."""
    n = len(rhs)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col] / aug[col][col]
            if f:
                for c in range(col, n + 1):
                    aug[r][c] -= f * aug[col][c]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def random_fraction(rng, lo=-3, hi=3, den_max=6) -> Fraction:
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def clamped_beam_peak(a):
    """Deflection at the load point of a clamped-clamped unit-load beam.

    Classical structural mechanics route: two cubic pieces, clamped at both
    ends, value/slope/curvature continuous at the load point, unit jump in
    the third derivative.  Independent of the library's pipeline.
    """
    a = Fraction(a)
    rows, rhs = [], []
    rows.append([1, 0, 0, 0, 0, 0, 0, 0]); rhs.append(0)   # w(0) = 0
    rows.append([0, 1, 0, 0, 0, 0, 0, 0]); rhs.append(0)   # w'(0) = 0
    rows.append([0, 0, 0, 0, 1, 1, 1, 1]); rhs.append(0)   # w(1) = 0
    rows.append([0, 0, 0, 0, 0, 1, 2, 3]); rhs.append(0)   # w'(1) = 0
    pow_a = [a**i for i in range(4)]
    rows.append(pow_a + [-p for p in pow_a]); rhs.append(0)
    rows.append([0, 1, 2 * a, 3 * a**2, 0, -1, -2 * a, -3 * a**2]); rhs.append(0)
    rows.append([0, 0, 2, 6 * a, 0, 0, -2, -6 * a]); rhs.append(0)
    rows.append([0, 0, 0, -6, 0, 0, 0, 6]); rhs.append(1)  # [[w''']] = 1
    sol = frac_solve(rows, rhs)
    return sum(sol[i] * a**i for i in range(4))
