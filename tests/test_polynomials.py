import math
import random
from fractions import Fraction as F

import pytest

from sobolev1d.polynomials import (
    PiecewisePolynomial,
    Polynomial,
    bernstein_coefficients,
    bernstein_positive,
    bridge_poly,
    derivatives_at_one,
    from_polynomial,
    integer_form,
    is_nonnegative_on,
    is_positive_on_open,
    kfold_antiderivative,
    pp_equal,
    pp_grid_values,
    pp_grid_values_exact,
    pp_min_on_grid,
    pp_mul,
    pp_positive_on_open01,
    pp_values_at,
    strip_root,
)
from sobolev1d.scalars import EXACT, FLOAT, ModeMismatchError, parse_rational

X = Polynomial([0, 1])
ONE = Polynomial([1])


def test_mul_x_times_one_minus_x():
    # coefficient convolution: x(1-x) = x - x^2
    assert X * Polynomial([1, -1]) == Polynomial([0, 1, -1])


def test_compose_affine_reflection():
    # binomial expansion: (1-x)^2 = 1 - 2x + x^2
    sq = Polynomial([0, 0, 1])
    assert sq.compose_affine(-1, 1) == Polynomial([1, -2, 1])


def test_scale():
    assert Polynomial([0, 1, -1]).scale(6) == Polynomial([0, 6, -6])


def test_integrate_examples():
    # antiderivative of (1-2x)^2 is -(1-2x)^3/6, so the integral is 1/3
    p = Polynomial([1, -2]) * Polynomial([1, -2])
    assert p.integrate(F(0), F(1)) == F(1, 3)
    assert (X * Polynomial([1, -1])).integrate(F(0), F(1)) == F(1, 6)
    assert Polynomial(()).integrate(F(0), F(1)) == 0


def test_antiderivative_examples():
    assert ONE.antiderivative() == X
    assert X.antiderivative() == Polynomial([0, 0, F(1, 2)])


@pytest.mark.parametrize("k", range(1, 9))
def test_kfold_antiderivative_of_one(k):
    # induction on k: each step divides by the new exponent
    from math import factorial

    expected = Polynomial([0] * k + [F(1, factorial(k))])
    assert kfold_antiderivative(ONE, k) == expected


def _successive_antiderivatives(p, m):
    for _ in range(m):
        p = p.antiderivative()
    return p


def _random_piecewise(rng, pieces, max_degree):
    """Breakpoints with denominators up to 50; pieces of degree 0..max_degree."""
    cuts = set()
    while len(cuts) < pieces - 1:
        den = rng.randint(2, 50)
        cuts.add(F(rng.randint(1, den - 1), den))
    polys = [
        Polynomial([F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(rng.randint(1, max_degree + 1))])
        for _ in range(pieces)
    ]
    return PiecewisePolynomial([F(0), *sorted(cuts), F(1)], polys)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12, 24, 48, 80])
def test_kfold_antiderivative_equals_successive_antiderivatives(m):
    rng = random.Random(9000 + m)
    for trial in range(12 if m <= 12 else 4):
        pp = _random_piecewise(rng, 1 + trial % 5, 8)
        got = kfold_antiderivative(pp, m)
        assert got == _successive_antiderivatives(pp, m)
        assert kfold_antiderivative(pp.pieces[-1], m) == _successive_antiderivatives(pp.pieces[-1], m)
    # zero pieces and a zero order
    pp = PiecewisePolynomial([F(0), F(1, 3), F(1)], [Polynomial(), Polynomial([F(2, 7), 1])])
    assert kfold_antiderivative(pp, m) == _successive_antiderivatives(pp, m)
    assert kfold_antiderivative(pp, 0) == pp


def test_kfold_antiderivative_float_mode_loops():
    pp = _random_piecewise(random.Random(77), 3, 4).to_float()
    assert kfold_antiderivative(pp, 5) == _successive_antiderivatives(pp, 5)


def test_derivatives_at_one_are_falling_factorial_sums():
    rng = random.Random(4242)
    for _ in range(20):
        p = Polynomial([F(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(rng.randint(0, 10))])
        d, expected = p, []
        for _ in range(12):
            expected.append(d(F(1)))
            d = d.derivative()
        assert derivatives_at_one(p, 12) == expected


def test_exact_ring_identities():
    rng = random.Random(20260808)
    for _ in range(25):
        def rand_poly():
            deg = rng.randint(0, 6)
            return Polynomial(
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
            )

        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


def test_mode_mismatch_rejected():
    p = Polynomial([1, 2])
    q = Polynomial([1.0, 2.0])
    assert p.mode == EXACT and q.mode == FLOAT
    with pytest.raises(ModeMismatchError):
        p + q
    with pytest.raises(ModeMismatchError):
        p * q
    with pytest.raises(ModeMismatchError):
        Polynomial([0.5], EXACT)


def test_zero_polynomial_canonical():
    assert Polynomial([0, 0, 0]).coeffs == ()
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial(()).degree == -1


def test_exact_evaluation():
    p = Polynomial([F(1, 3), 0, 1])
    assert p(F(1, 2)) == F(1, 3) + F(1, 4)


def test_parse_rational_decimals_are_exact():
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational("48/5") == F(48, 5)


# -- piecewise -----------------------------------------------------------


def tent_derivative():
    # step: +1 on [0, 1/2], -1 on [1/2, 1]
    return PiecewisePolynomial(
        [F(0), F(1, 2), F(1)], [Polynomial([1]), Polynomial([-1])]
    )


def test_pp_antiderivative_is_continuous():
    tent = tent_derivative().antiderivative()
    assert tent(F(0)) == 0
    assert tent(F(1, 2)) == F(1, 2)
    assert tent(F(1)) == 0
    assert tent.is_continuous(0)
    # the derivative jumps, and the continuity predicate says so
    assert not tent.is_continuous(1)


def test_pp_square_integral():
    step = tent_derivative()
    assert step.square_integral01() == 1


def test_pp_mul_merges_breakpoints():
    a = tent_derivative()
    b = PiecewisePolynomial(
        [F(0), F(1, 4), F(1)], [Polynomial([2]), Polynomial([0, 1])]
    )
    prod = pp_mul(a, b)
    assert prod.breakpoints == (F(0), F(1, 4), F(1, 2), F(1))
    assert prod(F(1, 8)) == 2
    assert prod(F(3, 4)) == -F(3, 4)
    # 2*(1/4) + int_{1/4}^{1/2} x dx - int_{1/2}^{1} x dx = 1/2 + 3/32 - 3/8
    assert prod.integrate01() == F(7, 32)


def test_pp_equal_and_scale():
    tent = tent_derivative().antiderivative()
    assert pp_equal(tent.scale(3), tent.scale(3))
    assert not pp_equal(tent, tent.scale(2))


def test_pp_derivative_round_trip():
    pp = from_polynomial(Polynomial([1, 2, 3]))
    assert pp_equal(pp.antiderivative().derivative(), pp)


def test_pp_min_on_grid_interior_only():
    u = from_polynomial(Polynomial([0, 6, -6]))  # 6x(1-x), zero at the ends
    assert pp_min_on_grid(u) > 0


# -- Sturm certificates ----------------------------------------------------


def test_positive_on_open_interval():
    u = Polynomial([0, 6, -6])  # 6x(1-x)
    assert is_positive_on_open(u, F(0), F(1))
    # x(1-x)(x - 1/2)^2 touches zero inside: not strictly positive
    touch = u * Polynomial([F(1, 4), -1, 1])
    assert not is_positive_on_open(touch, F(0), F(1))
    # sign change inside
    assert not is_positive_on_open(Polynomial([-F(1, 4), 1]), F(0), F(1))


def test_nonnegative_allows_touching_zeros():
    sq = Polynomial([F(1, 4), -1, 1])  # (x - 1/2)^2
    assert is_nonnegative_on(sq, F(0), F(1))
    assert is_nonnegative_on(Polynomial([1, -1]), F(0), F(1))  # 1 - x
    assert not is_nonnegative_on(Polynomial([-F(1, 100), 0, 1]), F(0), F(1))
    assert not is_nonnegative_on(-sq, F(0), F(1))


def test_nonnegative_many_roots():
    # (x-1/4)^2 (x-3/4)^2 has two touching zeros
    p = Polynomial([F(1, 16), -F(1, 2), 1]) * Polynomial([F(9, 16), -F(3, 2), 1])
    assert is_nonnegative_on(p, F(0), F(1))
    # flipping one factor introduces a genuine sign change
    q = Polynomial([F(1, 16), -F(1, 2), 1]) * Polynomial([F(3, 4), -1])
    assert not is_nonnegative_on(q, F(0), F(1))


def test_pp_positivity_certificate():
    bridge = bridge_poly(2).scale(30)  # 30 x^2 (1-x)^2
    assert pp_positive_on_open01(from_polynomial(bridge))
    tent = tent_derivative().antiderivative()
    assert pp_positive_on_open01(tent)
    assert not pp_positive_on_open01(tent.scale(-1))


# -- Bernstein certificate and grid scan -----------------------------------


def power(p, m):
    out = ONE
    for _ in range(m):
        out = out * p
    return out


def sturm_reference(pp):
    """pp_positive_on_open01 as a per-piece Sturm test, for comparison."""
    cuts = pp.breakpoints
    for i, ((a, b), p) in enumerate(zip(zip(cuts, cuts[1:]), pp.pieces)):
        if not is_positive_on_open(p, a, b):
            return False
        if (i > 0 and p(a) <= 0) or (b != 1 and p(b) <= 0):
            return False
    return True


def random_certificate_input(rng):
    """Random exact piece and its shape: endpoint roots times a factor."""
    p = Polynomial([F(rng.randint(1, 9), rng.randint(1, 5))])
    for _ in range(rng.randint(0, 3)):
        # positive on [0, 1]: 1 + c x with c > -1
        p = p * Polynomial([1, F(rng.randint(-4, 9), 5)])
    r = F(rng.randint(1, 11), 12)
    shape = rng.choice(["plain", "double", "dip", "dip-below", "sign-change"])
    if shape == "double":
        p = p * Polynomial([r * r, -2 * r, 1])
    elif shape == "dip":
        p = p * Polynomial([r * r + F(1, 10**9), -2 * r, 1])
    elif shape == "dip-below":
        p = p * Polynomial([r * r - F(1, 10**9), -2 * r, 1])
    elif shape == "sign-change":
        p = p * Polynomial([-r, 1])
    p = p * power(X, rng.randint(0, 6)) * power(Polynomial([1, -1]), rng.randint(0, 6))
    return p.scale(rng.choice([1, -1, 1, 1])), shape


def test_certificate_matches_sturm_on_random_pieces(monkeypatch):
    from sobolev1d import polynomials

    calls = []
    sturm = polynomials.sturm_chain
    monkeypatch.setattr(polynomials, "sturm_chain", lambda r: calls.append(r) or sturm(r))
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(150):
        p, shape = random_certificate_input(rng)
        pp = from_polynomial(p)
        expected = sturm_reference(pp)
        calls.clear()
        assert pp_positive_on_open01(pp) == expected, p
        verdicts.add(expected)
        if shape in ("plain", "sign-change"):
            # simple roots and clear margins are settled by Bernstein alone
            assert not calls, p
    assert verdicts == {True, False}


def test_certificate_matches_sturm_on_random_multipiece():
    rng = random.Random(8675309)
    verdicts = set()
    for _ in range(60):
        cuts = sorted({F(0), F(1), *(F(rng.randint(1, 15), 16) for _ in range(3))})
        pieces = [random_certificate_input(rng)[0] for _ in cuts[1:]]
        if rng.random() < 0.3:
            # a piece vanishing at an interior breakpoint
            t = cuts[rng.randrange(1, len(cuts) - 1)] if len(cuts) > 2 else F(1, 2)
            j = rng.randrange(len(pieces))
            pieces[j] = pieces[j] * power(Polynomial([-t, 1]), 2)
        pp = PiecewisePolynomial(cuts, pieces)
        expected = sturm_reference(pp)
        assert pp_positive_on_open01(pp) == expected, pp.pieces
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_certificate_endpoint_roots_of_every_multiplicity():
    for m0 in range(1, 7):
        for m1 in range(1, 7):
            p = power(X, m0) * power(Polynomial([1, -1]), m1) * Polynomial([2, 1])
            assert pp_positive_on_open01(from_polynomial(p))
            assert not pp_positive_on_open01(from_polynomial(p.scale(-1)))
            # (x - 1)^m1 instead of (1 - x)^m1 flips the sign for odd m1
            q = power(X, m0) * power(Polynomial([-1, 1]), m1)
            assert pp_positive_on_open01(from_polynomial(q)) == (m1 % 2 == 0)


def test_certificate_breakpoint_value_must_be_positive():
    bump = Polynomial([0, 6, -6])
    zero_at_half = bump * power(Polynomial([-F(1, 2), 1]), 2)
    pp = PiecewisePolynomial([F(0), F(1, 2), F(1)], [bump, zero_at_half])
    assert not pp_positive_on_open01(pp)
    assert sturm_reference(pp) is False
    # a vanishing piece is not positive either
    flat = PiecewisePolynomial([F(0), F(1, 2), F(1)], [bump, Polynomial([])])
    assert not pp_positive_on_open01(flat)
    assert sturm_reference(flat) is False


def test_certificate_irrational_touching_zero_falls_back_to_sturm(monkeypatch):
    from sobolev1d import polynomials

    # (x^2 - 1/2)^2 touches zero at 1/sqrt(2): no box count certifies it
    touch = power(Polynomial([-F(1, 2), 0, 1]), 2)
    p = X * power(Polynomial([1, -1]), 2) * touch
    q, _ = strip_root(p, F(0))
    q, m_hi = strip_root(q, F(1))
    assert q == touch and m_hi == 2
    assert bernstein_positive(bernstein_coefficients(q, F(0), F(1))) is None
    calls = []
    sturm = polynomials.sturm_chain
    monkeypatch.setattr(polynomials, "sturm_chain", lambda r: calls.append(r) or sturm(r))
    assert pp_positive_on_open01(from_polynomial(p)) is False
    assert calls
    # lifted off zero by 1/1000 it certifies without Sturm
    calls.clear()
    lifted = X * Polynomial([1, -1]) * (touch + Polynomial([F(1, 1000)]))
    assert pp_positive_on_open01(from_polynomial(lifted))
    assert not calls


def test_bernstein_coefficients_end_values_and_subdivision():
    p = Polynomial([F(3, 7), -2, F(5, 3), 1])
    lo, hi = F(1, 5), F(7, 9)
    beta = bernstein_coefficients(p, lo, hi)
    scale = beta[0] / p(lo)
    assert scale > 0 and beta[-1] == scale * p(hi)
    # Bernstein form on [lo, hi] reproduces p at interior points
    n = p.degree
    for t in (F(1, 3), F(1, 2), F(4, 5)):
        x = lo + (hi - lo) * t
        value = sum(
            F(c) * math.comb(n, j) * t**j * (1 - t) ** (n - j) for j, c in enumerate(beta)
        )
        assert value / scale == p(x)


def test_grid_scan_matches_per_point_evaluation():
    rng = random.Random(4096)
    cuts = [F(0), F(1, 3), F(3, 8), F(1, 2), F(1)]
    for _ in range(3):
        pieces = [
            Polynomial(
                [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(41, 48))]
            )
            for _ in cuts[1:]
        ]
        exact = PiecewisePolynomial(cuts, pieces)
        for pp in (exact, exact.to_float()):
            # n = 24 puts grid points on all three breakpoints, 4096 on two
            for n in (24, 96, 99, 4096):
                expected = min(pp.eval_float(i / n) for i in range(1, n))
                assert pp_min_on_grid(pp, n).hex() == expected.hex()
                values = [pp.eval_float(i / n).hex() for i in range(n + 1)]
                assert [v.hex() for v in pp_grid_values(pp, n)] == values


def test_grid_scan_assigns_breakpoint_samples_to_the_right_piece():
    # each piece but the last falls steeply to -1 at its right end, so a
    # grid sample on or next to a breakpoint decides the minimum
    # fl(1/5) > 1/5 and fl(1/3) < 1/3, so float breakpoints test both ways
    cuts = [F(0), F(1, 5), F(1, 3), F(3, 8), F(1, 2), F(1)]
    pieces = [Polynomial([-1 + 1000 * t, -1000]) for t in cuts[1:-1]] + [ONE]
    exact = PiecewisePolynomial(cuts, pieces)
    for pp in (exact, exact.to_float()):
        for n in (24, 99, 120, 1000, 4095, 4096):
            expected = min(pp.eval_float(i / n) for i in range(1, n))
            assert pp_min_on_grid(pp, n).hex() == expected.hex()
            values = [pp.eval_float(i / n).hex() for i in range(n + 1)]
            assert [v.hex() for v in pp_grid_values(pp, n)] == values


def test_exact_grid_values_match_fraction_evaluation():
    # integer Horner over one denominator must round exactly as float() of
    # the Fraction value; n = 24 and 120 put grid points on every breakpoint
    rng = random.Random(2401)
    cuts = [F(0), F(1, 8), F(1, 3), F(3, 8), F(1, 2), F(1)]
    for _ in range(4):
        pieces = []
        for _ in cuts[1:]:
            degree = rng.randint(0, 13)
            coeffs = [
                F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
                for _ in range(degree + 1)
            ]
            pieces.append(Polynomial(coeffs))
        pp = PiecewisePolynomial(cuts, pieces)
        for n in (1, 2, 7, 24, 99, 120):
            expected = [float(pp(F(i, n))) for i in range(n + 1)]
            got = pp_grid_values_exact(pp, n)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
    zero_piece = PiecewisePolynomial([F(0), F(1, 3), F(1)], [Polynomial([]), ONE])
    assert pp_grid_values_exact(zero_piece, 6) == [0.0, 0.0] + [1.0] * 5
    with pytest.raises(ModeMismatchError):
        pp_grid_values_exact(pp.to_float(), 4)


def test_pp_values_at_is_eval_float_bit_for_bit():
    # seeded points plus every breakpoint's float and both its float
    # neighbours, so each cut is tested from both sides in both modes
    rng = random.Random(3688)
    cuts = [F(0), F(1, 5), F(1, 3), F(3, 8), F(1, 2), F(1)]
    for _ in range(3):
        pieces = [
            Polynomial(
                [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(1, 14))]
            )
            for _ in cuts[1:]
        ]
        exact = PiecewisePolynomial(cuts, pieces)
        near = set()
        for t in cuts:
            f = float(t)
            near.update((math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)))
        points = sorted(
            [x for x in near if 0.0 <= x <= 1.0] + [rng.random() for _ in range(300)]
        )
        for pp in (exact, exact.to_float()):
            expected = [pp.eval_float(x).hex() for x in points]
            assert [v.hex() for v in pp_values_at(pp, points)] == expected
    assert pp_values_at(exact, []) == []


def test_pp_values_at_never_converts_a_piece_without_points():
    # the middle piece owns no point, and its coefficient has no float
    huge = Polynomial([F(10**400)])
    pp = PiecewisePolynomial([F(0), F(1, 3), F(1, 2), F(1)], [ONE, huge, X])
    with pytest.raises(OverflowError):
        pp.eval_float(0.4)
    assert pp_values_at(pp, [0.0, 0.25, 0.5, 0.75, 1.0]) == [1.0, 1.0, 0.5, 0.75, 1.0]


def test_integer_form_round_trips_exact_values():
    rng = random.Random(1201)
    for _ in range(40):
        values = [
            F(rng.randint(-(10**9), 10**9), rng.randint(1, 10**6))
            if rng.random() < 0.7
            else rng.randint(-50, 50)
            for _ in range(rng.randint(1, 12))
        ]
        nums, den = integer_form(values)
        assert den == math.lcm(*(F(v).denominator for v in values))
        assert all(type(c) is int for c in nums)
        assert [F(c, den) for c in nums] == values
    assert integer_form(()) == ([], 1)
    assert integer_form([F(-1, 6), 2, F(3, 4)]) == ([-2, 24, 9], 12)
