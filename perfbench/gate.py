"""Correctness gate, run on every operation outside the timed region.

Exact results are substituted into the clamped problem with the benchmark's
own polynomial arithmetic (ascending Fraction coefficient lists), never the
library's:

* (-1)^k u^(2k) = mu rho on every piece;
* u^(j) is continuous at interior breakpoints for j <= 2k-1, except that for a
  point mass at a, u^(2k-1) jumps by (-1)^k mu there;
* u^(j)(0) = u^(j)(1) = 0 for j < k;
* integral of u rho = 1, or u(a) = 1 for a point mass.

Together these fix mu.  Float results must match an exact rational mu to a
relative 1e-9: the gate-checked exact mu of the same weight, or for power
weights the generalized-polynomial mu computed by :func:`pow_mu`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

FLOAT_RTOL = 1e-9


class GateError(AssertionError):
    """An operation's output failed a correctness check."""


def _check(ok: bool, message: str):
    if not ok:
        raise GateError(message)


# -- ascending-coefficient polynomial helpers --------------------------------


def p_deriv(c: list, n: int = 1) -> list:
    for _ in range(n):
        c = [i * x for i, x in enumerate(c)][1:]
    return c


def p_eval(c: list, x: F) -> F:
    acc = F(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def p_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def p_integral(c: list, lo: F, hi: F) -> F:
    anti = [F(0)] + [x / (i + 1) for i, x in enumerate(c)]
    return p_eval(anti, hi) - p_eval(anti, lo)


def p_equal(a: list, b: list) -> bool:
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return a == b


# -- exact results -------------------------------------------------------------


def check_exact(k: int, rho, mu, u) -> None:
    """Substitute an exact piecewise-polynomial u into the clamped problem."""
    _check(isinstance(mu, F), f"mu is {type(mu).__name__}, not an exact rational")
    _check(mu > 0, f"mu = {mu} is not positive")
    bps = [F(b) for b in u.breakpoints]
    pieces = [[F(c) for c in p.coeffs] for p in u.pieces]
    _check(bps[0] == 0 and bps[-1] == 1, "breakpoints do not span [0, 1]")
    sign = (-1) ** k

    # the differential equation on every piece
    for (lo, hi), c in zip(zip(bps, bps[1:]), pieces):
        lhs = [sign * x for x in p_deriv(c, 2 * k)]
        if rho.kind == "dirac":
            _check(not lhs or all(x == 0 for x in lhs), f"u^(2k) != 0 on [{lo}, {hi}]")
            continue
        for rlo, rhi, rc in rho.pieces:
            if max(lo, rlo) < min(hi, rhi):
                _check(
                    p_equal(lhs, [mu * x for x in rc]),
                    f"(-1)^k u^(2k) != mu rho on [{max(lo, rlo)}, {min(hi, rhi)}]",
                )

    # smoothness and the point-mass jump at interior breakpoints
    if rho.kind == "dirac":
        _check(rho.a in bps, f"mass point {rho.a} is not a breakpoint of u")
    for i in range(1, len(bps) - 1):
        t = bps[i]
        left, right = pieces[i - 1], pieces[i]
        for j in range(2 * k):
            jump = p_eval(right, t) - p_eval(left, t)
            want = sign * mu if (rho.kind == "dirac" and t == rho.a and j == 2 * k - 1) else 0
            _check(jump == want, f"u^({j}) jumps by {jump} at {t}, expected {want}")
            left, right = p_deriv(left), p_deriv(right)

    # clamped boundary data
    first, last = pieces[0], pieces[-1]
    for j in range(k):
        _check(p_eval(first, F(0)) == 0, f"u^({j})(0) != 0")
        _check(p_eval(last, F(1)) == 0, f"u^({j})(1) != 0")
        first, last = p_deriv(first), p_deriv(last)

    # normalisation
    if rho.kind == "dirac":
        i = max(i for i, b in enumerate(bps[:-1]) if b <= rho.a)
        norm = p_eval(pieces[i], rho.a)
    else:
        norm = F(0)
        for (lo, hi), c in zip(zip(bps, bps[1:]), pieces):
            for rlo, rhi, rc in rho.pieces:
                a, b = max(lo, rlo), min(hi, rhi)
                if a < b:
                    norm += p_integral(p_mul(c, list(rc)), a, b)
    _check(norm == 1, f"normalisation is {norm}, not 1")


# -- float results ---------------------------------------------------------------


def check_close(mu: float, reference: F, what: str = "mu") -> None:
    _check(math.isfinite(float(mu)), f"{what} = {mu} is not finite")
    rel = abs(float(mu) - float(reference)) / float(reference)
    _check(rel <= FLOAT_RTOL, f"{what} off the exact {reference} by relative {rel:.3e}")


def _solve(matrix: list, rhs: list) -> list:
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def pow_mu(k: int, alpha: F) -> F:
    """Exact mu for rho = x^(-alpha) through generalized polynomials.

    u^(k)/mu = v = (-1)^k (I - P I), where I = c x^(k-alpha) is the k-fold
    iterated integral of rho, c = 1 / prod_{i=1..k} (i - alpha), and P is the
    L^2(0,1) projection onto polynomials of degree < k (the clamped data at 1
    say exactly that v is orthogonal to them).  Then 1/mu = integral v^2
    = integral I^2 - r^T H^-1 r with the Hilbert matrix H and r_i = integral
    x^i I, all sums of 1/(e + 1) over rational exponents e.
    """
    alpha = F(alpha)
    c = F(1)
    for i in range(1, k + 1):
        c /= i - alpha
    e = k - alpha
    hilbert = [[F(1, i + j + 1) for j in range(k)] for i in range(k)]
    r = [c / (i + e + 1) for i in range(k)]
    proj = _solve(hilbert, r)
    inv_mu = c * c / (2 * e + 1) - sum(x * y for x, y in zip(r, proj))
    return 1 / inv_mu


# -- oracle reports ------------------------------------------------------------


def check_verify(rho, mu: F, lambda_sq: F, sign_definite, mp_status: str) -> None:
    """Galerkin never overshoots 1/mu (equals it for poly), sign iteration is
    sign-definite where it ran, and the maximum principle passed."""
    _check(isinstance(lambda_sq, F), "Galerkin value is not exact")
    _check(lambda_sq <= 1 / mu, f"Galerkin {lambda_sq} overshoots 1/mu = {1 / mu}")
    if rho.kind == "poly":
        _check(lambda_sq == 1 / mu, f"Galerkin {lambda_sq} != 1/mu = {1 / mu} for poly")
    _check(sign_definite is not False, "sign iteration ended sign-indefinite")
    _check(mp_status in ("pass", "skipped"), f"maximum principle: {mp_status}")


def parse_cli(op, returncode: int, stdout: str) -> dict:
    """Exit code and parseable output of one CLI call; returns its mu values.

    ``mu`` is the exact rational for constant/verify, the list of printed
    per-row floats for sweep, and None for minimizer (which prints no mu).
    """
    command = op.argv[0]
    _check(returncode == 0, f"exit code {returncode}")
    if command in ("constant", "verify"):
        doc = json.loads(stdout)
        key = "mu_exact" if command == "constant" else "pipeline_mu_exact"
        if command == "verify":
            _check(doc["verdict"] == "agree", f"verdict {doc['verdict']}")
        return {"mu": F(doc[key])}
    lines = stdout.split("\n")
    _check(lines[-1] == "", "CSV does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if command == "minimizer":
        _check(lines[0] == "x,u,u_k", f"header {lines[0]!r}")
        _check(len(rows) == op.samples, f"{len(rows)} rows, expected {op.samples}")
        values = [[float(x) for x in row] for row in rows]
        _check(all(len(r) == 3 for r in values), "minimizer rows need 3 columns")
        _check(values[0][1] == 0 and values[-1][1] == 0, "u is not clamped at 0 and 1")
        _check(all(r[1] >= 0 for r in values), "sampled u is negative")
        return {"mu": None}
    _check(lines[0] == "param,mu,lambda", f"header {lines[0]!r}")
    _check(len(rows) == len(op.sweep), f"{len(rows)} rows, expected {len(op.sweep)}")
    for (param, _mu, _lam), (value, _rho, _mode) in zip(rows, op.sweep):
        _check(float(param) == float(value), f"row parameter {param} != {float(value)}")
    return {"mu": [float(mu) for _param, mu, _lam in rows]}


def check_cli(op, mu, reference) -> None:
    """The CLI's mu equals the in-process exact mu (a list for sweep)."""
    command = op.argv[0]
    if command in ("constant", "verify"):
        _check(mu == reference, f"CLI mu {mu} != in-process {reference}")
    elif command == "sweep":
        for value, (_v, _rho, mode), ref in zip(mu, op.sweep, reference):
            if mode == "exact":
                _check(value == float(ref), f"sweep mu {value} != in-process {float(ref)}")
            else:
                check_close(value, ref, "sweep mu")
