import math
import random
from fractions import Fraction as F

import pytest

from sobolev1d.polynomials import PiecewisePolynomial, Polynomial, from_polynomial, pp_equal
from sobolev1d.quadrature import quad_numeric
from sobolev1d.scalars import ModeMismatchError
from sobolev1d.weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    PiecewiseWeight,
    PolyWeight,
    PowerLawTerm,
    PowerWeight,
    UnsupportedWeightError,
    WeightDomainError,
    WeightSyntaxError,
    as_piecewise,
    beta_product,
    eval_weight,
    format_weight,
    iterated_integral,
    moments,
    parse_weight,
    reflect_weight,
    scale_weight,
)


# -- parser ------------------------------------------------------------------


def test_parse_constant():
    w = parse_weight("poly:1")
    assert isinstance(w, PolyWeight)
    assert w.poly == Polynomial([1])


def test_parse_indicator():
    w = parse_weight("chi:1/4,3/4")
    assert isinstance(w, IndicatorWeight)
    assert (w.a, w.b) == (F(1, 4), F(3, 4))


def test_parse_dirac_decimal_is_exact():
    w = parse_weight("dirac:0.3")
    assert isinstance(w, DiracWeight)
    assert w.a == F(3, 10)


def test_parse_poly_expression():
    w = parse_weight("poly:1 - 2*x + x^2")
    assert w.poly == Polynomial([1, -2, 1])
    w = parse_weight("poly:1/2*x + 0.25")
    assert w.poly == Polynomial([F(1, 4), F(1, 2)])


def test_parse_piecewise():
    w = parse_weight("pw:[0,1/2]=2*x;[1/2,1]=2 - 2*x")
    assert isinstance(w, PiecewiseWeight)
    assert w.pp.breakpoints == (0, F(1, 2), 1)
    assert w.pp(F(1, 4)) == F(1, 2)
    assert w.pp(F(3, 4)) == F(1, 2)


def test_parse_power_and_hardy():
    assert parse_weight("pow:1/2").alpha == F(1, 2)
    assert parse_weight("hardy:1").order == 1


def test_syntax_errors_carry_positions():
    with pytest.raises(WeightSyntaxError):
        parse_weight("poly:1 +")
    with pytest.raises(WeightSyntaxError):
        parse_weight("poly:1 $ x")
    with pytest.raises(WeightSyntaxError):
        parse_weight("nope:1")
    with pytest.raises(WeightSyntaxError):
        parse_weight("")
    with pytest.raises(WeightSyntaxError):
        parse_weight("chi:1/4")


@pytest.mark.parametrize(
    "text, char",
    [("poly:x²", "²"), ("poly:1 + x⁰", "⁰"), ("pw:[0,1/2]=1;[1/2,1]=³", "³")],
)
def test_superscript_digits_are_unexpected_characters(text, char):
    # str.isdigit accepts superscripts, but no number literal starts with one
    with pytest.raises(WeightSyntaxError, match=f"unexpected character '{char}'") as info:
        parse_weight(text)
    assert info.value.position == text.index(char)


def test_weight_screen_refuses_a_dip_between_close_roots():
    # (x - 1/2)(x - 2047/4096) is -369/25600000000 at 4999/10000; both
    # weights dip below 0 between a root at the first bisection midpoint
    # and one within 1/1024 of it
    for text in ("poly:(x-1/2)*(x-2047/4096)", "poly:(x-1/2)*(x-1/2+1/1025)"):
        with pytest.raises(WeightDomainError):
            parse_weight(text)
    assert Polynomial([F(2047, 8192), F(-4095, 4096), 1])(F(4999, 10000)) == F(-369, 25600000000)


def test_weight_screen_accepts_touching_double_roots():
    # seeded products of squares (x - r)^2, with roots on dyadic points that
    # bisection hits and close to each other, are non-negative weights;
    # splitting one square into two simple roots makes them negative
    rng = random.Random(2020)
    for _ in range(40):
        roots = [F(rng.randint(1, 15), 16) for _ in range(rng.randint(1, 4))]
        roots.append(roots[0] + F(1, rng.choice([1025, 2**20, 3 * 2**30])))
        p = Polynomial([F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(0, 9), 7)])
        for r in roots:
            p = p * Polynomial([r * r, -2 * r, 1])
        PolyWeight(p)
        cut = F(rng.randint(1, 15), 16)
        PiecewiseWeight(PiecewisePolynomial([0, cut, 1], [p, p.scale(2)]))
        r = roots[-1]
        with pytest.raises(WeightDomainError):
            PolyWeight(p * Polynomial([r * (r + F(1, 2**40)), -2 * r - F(1, 2**40), 1]))


def test_domain_errors():
    with pytest.raises(WeightDomainError):
        parse_weight("chi:3/4,1/4")
    with pytest.raises(WeightDomainError):
        parse_weight("chi:0,0")
    with pytest.raises(WeightDomainError):
        parse_weight("dirac:0")
    with pytest.raises(WeightDomainError):
        parse_weight("dirac:1")
    with pytest.raises(WeightDomainError):
        parse_weight("pow:1")
    with pytest.raises(WeightDomainError):
        parse_weight("pow:3/2")
    with pytest.raises(WeightDomainError):
        parse_weight("hardy:2")
    with pytest.raises(WeightDomainError):
        parse_weight("poly:x - 1")
    with pytest.raises(WeightDomainError):
        parse_weight("pw:[0,1/2]=1")  # does not reach 1
    with pytest.raises(WeightDomainError):
        parse_weight("pw:[0,1/2]=1;[3/4,1]=1")  # gap


@pytest.mark.parametrize(
    "text",
    [
        "poly:1",
        "poly:1 - 2*x + x^2",
        "poly:1/2 + 7/3*x^4",
        "pw:[0,1/2]=2*x;[1/2,1]=2 - 2*x",
        "chi:1/4,3/4",
        "chi:0,1",
        "dirac:0.3",
        "pow:1/2",
        "pow:0",
        "hardy:1",
    ],
)
def test_format_parse_round_trip(text):
    w = parse_weight(text)
    assert parse_weight(format_weight(w)) == w


def test_float_mode_weight_validation():
    # weights are exact: a float piece raises through the polynomial guard
    # before any sign is checked, whatever its sign
    floats = (
        lambda: PolyWeight(Polynomial([1.0, -0.5])),
        lambda: PolyWeight(Polynomial([-0.25, 1.0])),
        lambda: PiecewiseWeight(
            PiecewisePolynomial([0.0, 0.5, 1.0], [Polynomial([1.0])] * 2)
        ),
    )
    for build in floats:
        with pytest.raises(ModeMismatchError):
            build()
    # a negative exact weight is still refused by its sign
    with pytest.raises(WeightDomainError):
        PolyWeight(Polynomial([F(-1, 4), 1]))  # dips to -1/4 at 0
    with pytest.raises(WeightDomainError):
        PiecewiseWeight(
            PiecewisePolynomial(
                [0, F(1, 2), 1], [Polynomial([1]), Polynomial([F(1, 2), -1])]
            )
        )


def test_piecewise_breakpoint_invariants():
    from sobolev1d.polynomials import PiecewisePolynomial

    with pytest.raises(ValueError):
        PiecewisePolynomial([F(0), F(1, 2)], [Polynomial([1])])  # must end at 1
    with pytest.raises(ValueError):
        PiecewisePolynomial(
            [F(0), F(1, 2), F(1, 2), F(1)],
            [Polynomial([1]), Polynomial([1]), Polynomial([1])],
        )  # strictly increasing


def test_each_weight_builds_its_piecewise_form_once():
    from sobolev1d.solver import ProblemSpec, solve

    for text in ("poly:1 + x^2", "pw:[0,1/2]=1;[1/2,1]=x", "chi:1/4,3/4", "chi:0,1/2"):
        rho = parse_weight(text)
        pp = as_piecewise(rho)
        assert as_piecewise(rho) is pp
        for k in (1, 2, 6):
            # every stage of the solve works on the weight's breakpoint tuple
            assert solve(ProblemSpec(k, rho)).u.breakpoints is pp.breakpoints
    w = parse_weight("pw:[0,1/2]=1;[1/2,1]=x")
    assert as_piecewise(w) is w.pp
    for rho in (DiracWeight(F(1, 3)), PowerWeight(F(1, 2)), HardyWeight(1)):
        with pytest.raises(UnsupportedWeightError):
            as_piecewise(rho)


def _indicator_by_sorted_cuts(a, b):
    """chi_[a,b]/(b - a) on the sorted cuts {0, a, b, 1}, each piece tested
    for lying inside [a, b]."""
    cuts = sorted({F(0), a, b, F(1)})
    pieces = [
        Polynomial([1 / (b - a)] if a <= lo and hi <= b else [])
        for lo, hi in zip(cuts, cuts[1:])
    ]
    return PiecewisePolynomial(cuts, pieces)


def test_indicator_form_matches_the_sorted_cut_construction():
    rng = random.Random(2626)
    grid = [F(i, 12) for i in range(13)]
    cases = [(F(0), F(1)), (F(0), F(1, 3)), (F(2, 3), F(1)), (F(1, 4), F(3, 4))]
    cases += [tuple(sorted(rng.sample(grid, 2))) for _ in range(60)]
    ends = set()
    for a, b in cases:
        assert as_piecewise(IndicatorWeight(a, b)) == _indicator_by_sorted_cuts(a, b)
        ends.add((a == 0, b == 1))
    assert ends == {(True, True), (True, False), (False, True), (False, False)}


def test_outside_theorem_scope_flags():
    assert parse_weight("dirac:1/2").outside_theorem_scope
    assert parse_weight("hardy:1").outside_theorem_scope
    assert not parse_weight("poly:1").outside_theorem_scope
    assert not parse_weight("pow:1/2").outside_theorem_scope


# -- moments -------------------------------------------------------------


def test_moments_uniform_k1():
    # (-1)^2 * integral of (1-t) dt = 1/2
    assert moments(parse_weight("poly:1"), 1).values == (F(1, 2),)


def test_moments_uniform_k2():
    # (-1)^3 * integral of (1-t)^(2+m) dt = -1/(3+m)
    assert moments(parse_weight("poly:1"), 2).values == (F(-1, 3), F(-1, 4))


def test_moments_dirac_sifting():
    a = F(1, 3)
    assert moments(DiracWeight(a), 1).values == (1 - a,)
    assert moments(DiracWeight(a), 2).values == (-((1 - a) ** 2), -((1 - a) ** 3))


def test_moments_power_beta_closed_form():
    # cross-check the Beta product formula against direct quadrature
    alpha = F(1, 3)
    vec = moments(PowerWeight(alpha), 2)
    for m, value in enumerate(vec.values):
        est = quad_numeric(
            lambda t: (1 - t) ** (2 + m) * t ** (-float(alpha)),
            0.0,
            1.0,
            tol=1e-12,
            singular_left=float(alpha),
        )
        assert abs(float(value) - (-1) ** 3 * est.value) < 1e-10


def test_beta_product_half():
    # B(1/2, 2) = integral of (1-t) t^(-1/2) = 2 - 2/3 = 4/3
    assert beta_product(F(1, 2), 1) == F(4, 3)


@pytest.mark.parametrize("k", [1, 2, 6, 24, 40])
def test_power_moments_step_the_beta_product(k):
    # the seed moments step B(1-alpha, n+1) by a ratio; each must equal the
    # product formula afresh
    for alpha in (F(0), F(1, 3), F(1, 2), F(999, 1000)):
        sign = (-1) ** (k + 1)
        expected = tuple(sign * beta_product(alpha, k + m) for m in range(k))
        values = moments(PowerWeight(alpha), k).values
        assert values == expected, (alpha, k)
        assert all(type(v) is F for v in values)


def _stepped_power_moments(alpha, k):
    # the seed moments of x^(-alpha) by Fraction stepping: B(1-alpha, k+1)
    # as k! / prod (i - alpha), then the ratio (n+1)/(n+2-alpha)
    sign = F((-1) ** (k + 1))
    denom = F(1)
    for i in range(1, k + 2):
        denom *= i - alpha
    beta = F(math.factorial(k)) / denom
    values = [sign * beta]
    for n in range(k, 2 * k - 1):
        beta = beta * (n + 1) / (n + 2 - alpha)
        values.append(sign * beta)
    return tuple(values)


def test_power_moments_over_one_denominator_match_fraction_stepping():
    # the integer-numerator moments equal the stepped Fractions exactly, for
    # random alpha = p/q in [0, 1) and k <= 24
    rng = random.Random(22301)
    for _ in range(60):
        q = rng.choice([1, rng.randint(2, 12), rng.randint(2, 10**9)])
        alpha = F(rng.randrange(q), q)
        k = rng.randint(1, 24)
        assert moments(PowerWeight(alpha), k).values == _stepped_power_moments(alpha, k)
        assert beta_product(alpha, k) == _stepped_power_moments(alpha, k)[0] * (-1) ** (k + 1)


def test_moments_linear_in_weight():
    rng = random.Random(7)
    w = parse_weight("poly:1 + x^2")
    for _ in range(5):
        c = F(rng.randint(1, 20), rng.randint(1, 10))
        scaled = scale_weight(w, c)
        for k in (1, 2, 3):
            lhs = moments(scaled, k).values
            rhs = tuple(c * v for v in moments(w, k).values)
            assert lhs == rhs


def test_moment_sign_pattern():
    for text in ["poly:1 + x", "chi:1/4,3/4", "dirac:2/5", "pow:1/2"]:
        w = parse_weight(text)
        for k in (1, 2, 3, 4):
            sign = (-1) ** (k + 1)
            assert all(sign * v > 0 for v in moments(w, k).values)


def test_indicator_moments_converge_to_dirac():
    # shrinking family around a: entrywise convergence, order >= 1
    a = F(1, 2)
    target = moments(DiracWeight(a), 3).values
    errs = []
    for j in range(2, 11):
        eps = F(1, 2**j)
        vals = moments(IndicatorWeight(a - eps, a + eps), 3).values
        errs.append(max(abs(float(x - y)) for x, y in zip(vals, target)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert min(orders) >= 1.0


def test_moments_match_direct_product_integrals():
    # reference: multiply each piece by (1-t)^(k+m) and integrate exactly
    rng = random.Random(1018)
    texts = ["poly:1 + x^2", "chi:1/4,3/4", "chi:0,1/3", "pw:[0,1/3]=1+x;[1/3,1]=2-x"]
    for _ in range(3):
        a, b = sorted(rng.sample(range(1, 12), 2))
        texts.append(f"pw:[0,{a}/12]={rng.randint(1, 5)}*x^2;[{a}/12,{b}/12]=0;[{b}/12,1]=1+x")
    for text in texts:
        pp = as_piecewise(parse_weight(text))
        for k in (1, 2, 5, 12):
            expected = []
            for m in range(k):
                factor = Polynomial([1])
                for _ in range(k + m):
                    factor = factor * Polynomial([1, -1])
                total = pp.map_pieces(lambda p: p * factor).integrate01()
                expected.append((-1) ** (k + 1) * total)
            assert moments(parse_weight(text), k).values == tuple(expected)


def test_moments_reject_hardy():
    with pytest.raises(UnsupportedWeightError):
        moments(HardyWeight(1), 1)
    with pytest.raises(UnsupportedWeightError):
        iterated_integral(HardyWeight(1), 1)


# -- iterated integrals ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_iterated_integral_uniform(k):
    from math import factorial

    out = iterated_integral(parse_weight("poly:1"), k)
    expected = from_polynomial(Polynomial([0] * k + [F(1, factorial(k))]))
    assert pp_equal(out, expected)


def test_iterated_integral_dirac_k2():
    a = F(2, 5)
    out = iterated_integral(DiracWeight(a), 2)
    assert out(F(1, 5)) == 0
    assert out(a) == 0
    assert out(F(4, 5)) == F(4, 5) - a  # (x - a) past the mass
    assert out(F(0)) == 0


def test_iterated_integral_indicator_full_is_x():
    out = iterated_integral(IndicatorWeight(F(0), F(1)), 1)
    assert pp_equal(out, from_polynomial(Polynomial([0, 1])))


def test_iterated_integral_differentiates_back_to_weight():
    for text in ["poly:1 + 2*x + x^2", "chi:1/4,3/4"]:
        w = parse_weight(text)
        for k in (1, 2, 3):
            out = iterated_integral(w, k)
            for _ in range(k):
                out = out.derivative()
            from sobolev1d.weights import as_piecewise

            assert pp_equal(out, as_piecewise(w))


def test_iterated_integral_power_closed_form():
    term = iterated_integral(PowerWeight(F(1, 2)), 1)
    assert isinstance(term, PowerLawTerm)
    # I(x) = integral of t^(-1/2) = 2 sqrt(x)
    assert term.exponent == F(1, 2)
    assert term.coefficient == 2
    assert abs(term(0.25) - 1.0) < 1e-15
    assert term(0.0) == 0.0


# -- pointwise values ------------------------------------------------------


def test_eval_weight():
    assert eval_weight(parse_weight("poly:1 - x"), 0.25) == 0.75
    assert eval_weight(parse_weight("chi:1/4,3/4"), 0.5) == 2.0
    assert eval_weight(parse_weight("pow:1/2"), 0.25) == 2.0
    assert eval_weight(parse_weight("chi:1/4,3/4"), 0.1) == 0.0
    assert eval_weight(parse_weight("hardy:1"), 0.25) == 4.0
    with pytest.raises(UnsupportedWeightError):
        eval_weight(parse_weight("dirac:1/2"), 0.5)


def test_reflect_weight():
    w = reflect_weight(parse_weight("chi:0,1/2"))
    assert (w.a, w.b) == (F(1, 2), F(1))
    d = reflect_weight(parse_weight("dirac:1/3"))
    assert d.a == F(2, 3)
    p = reflect_weight(parse_weight("poly:x"))
    assert p.poly == Polynomial([1, -1])
    with pytest.raises(UnsupportedWeightError):
        reflect_weight(parse_weight("pow:1/2"))


def test_literal_bit_cap_names_the_number():
    from sobolev1d.weights import MAX_LITERAL_BITS

    big = 2**MAX_LITERAL_BITS
    assert parse_weight(f"dirac:1/{big - 1}").a == F(1, big - 1)
    for text in (f"poly:1 + {big}*x", f"chi:1/4,{big - 1}/{big}", f"dirac:-1/{big}",
                 f"pow:1/{big}", f"pw:[0,1/2]=1;[1/2,1]=1/{big}"):
        with pytest.raises(WeightSyntaxError, match=f"{MAX_LITERAL_BITS + 1}-bit number") as info:
            parse_weight(text)
        assert 0 < info.value.position < len(text), text


def test_polynomial_bit_cap_covers_every_operation():
    from sobolev1d.weights import MAX_POLY_BITS, _poly_bits

    assert _poly_bits(parse_weight("poly:(1+x)^256").poly) == (252, 1)  # C(256, 128)
    assert _poly_bits(parse_weight("poly:(1/15+x)^256").poly)[1] == 1001  # 15^256
    assert _poly_bits(parse_weight("poly:(15+x)^256").poly) == (1021, 1)
    for text in ("poly:(2^256)^4", "poly:(1/2^256)^4", "poly:(16+x)^256",
                 "poly:(15+x)^200*(15+x)^56", "poly:2^256*2^256*2^256*2^256",
                 "poly:1/3^200 + 1/5^200 + 1/7^200 + 1/11^200"):
        with pytest.raises(WeightSyntaxError, match=f"exceed {MAX_POLY_BITS}"):
            parse_weight(text)


# -- the evaluator's reference, and the pinned error table ------------------


def _random_expression(rng: random.Random, depth: int) -> tuple:
    """Seeded DSL text and its value as a Fraction coefficient list (x^i at
    index i), evaluated here without the library."""
    choice = rng.random() if depth else 0.0
    if choice < 0.3:
        kind = rng.randrange(-1, 5)
        if kind <= 0:
            return "x", [F(0), F(1)]
        n = rng.randrange(1000)
        if kind == 1:
            text, value = str(n), F(n)
        elif kind == 2:
            decimals = str(rng.randrange(1000)).zfill(rng.randint(1, 3))
            text, value = f"{n}.{decimals}", n + F(int(decimals), 10 ** len(decimals))
        else:
            d = rng.randint(1, 999)
            text, value = f"{n}/{d}", F(n, d)
        if kind == 4:  # the same literal in Arabic-Indic digits
            text = text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        return text, [value]
    a, pa = _random_expression(rng, depth - 1)
    space = rng.choice(["", " ", "\t", "  "])
    if choice < 0.38:
        return f"({a})", pa
    if choice < 0.46:
        # a unary minus binds to the first term only, here all of (a)
        return f"(-{space}({a}))", [-c for c in pa]
    if choice < 0.58:
        e = rng.randint(0, 3)
        out = [F(1)]
        for _ in range(e):
            out = _times(out, pa)
        return f"({a}){space}^{space}{e}", out
    b, pb = _random_expression(rng, depth - 1)
    op = rng.choice("+-*")
    if op == "*":
        return f"({a}){space}*{space}({b})", _times(pa, pb)
    sign = 1 if op == "+" else -1
    out = [F(0)] * max(len(pa), len(pb))
    for i, c in enumerate(pa):
        out[i] += c
    for i, c in enumerate(pb):
        out[i] += sign * c
    return f"{a}{space}{op}{space}({b})", out


def _times(p: list, q: list) -> list:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_parser_matches_a_fraction_reference_evaluator():
    from sobolev1d.weights import _parse_poly_expr

    rng = random.Random(2727)
    for _ in range(400):
        text, value = _random_expression(rng, rng.randint(1, 5))
        if rng.random() < 0.2:
            text, value = f"-({text}) + 0", [-c for c in value]
        while value and value[-1] == 0:
            value.pop()
        assert _parse_poly_expr(text).coeffs == tuple(value), text


def test_format_parse_round_trip_on_seeded_weights():
    rng = random.Random(2728)

    def fraction(lo=0):
        return F(rng.randint(lo, 40), rng.randint(1, 12))

    def nonnegative_poly():
        return Polynomial([fraction() for _ in range(rng.randint(1, 5))])

    for _ in range(40):
        a, b = sorted(rng.sample([F(i, 24) for i in range(25)], 2))
        cuts = sorted({F(0), F(1), *rng.sample([F(i, 12) for i in range(1, 12)], rng.randint(0, 2))})
        pieces = [nonnegative_poly() for _ in cuts[1:]]
        for rho in (
            PolyWeight(nonnegative_poly()),
            PiecewiseWeight(PiecewisePolynomial(cuts, pieces)),
            IndicatorWeight(a, b),
            DiracWeight(F(rng.randint(1, 98), 99)),
            PowerWeight(F(rng.randrange(97), 97)),
        ):
            assert parse_weight(format_weight(rho)) == rho, format_weight(rho)


# Malformed texts, each with the exception type, message and position that
# the parser gives: one or more rows per error branch of the tokenizer, the
# descent, the number payloads, pw tiling and each cap.
ERROR_TABLE = [
    ("", WeightSyntaxError, "empty weight text (at position 0)", 0),
    ("   ", WeightSyntaxError, "empty weight text (at position 0)", 0),
    ("poly 1", WeightSyntaxError, "missing ':' between kind and payload (at position 6)", 6),
    ("nope:1", WeightSyntaxError, "unknown weight kind 'nope' (at position 0)", 0),
    ("poly:", WeightSyntaxError, "unexpected token 'end' (at position 5)", 5),
    ("poly:   ", WeightSyntaxError, "unexpected token 'end' (at position 8)", 8),
    ("poly:1 +", WeightSyntaxError, "unexpected token 'end' (at position 8)", 8),
    ("poly:1 $ x", WeightSyntaxError, "unexpected character '$' (at position 7)", 7),
    ("poly:x²", WeightSyntaxError, "unexpected character '²' (at position 6)", 6),
    ("poly:1.", WeightSyntaxError, "unexpected character '.' (at position 6)", 6),
    ("poly:1/x", WeightSyntaxError, "unexpected character '/' (at position 6)", 6),
    ("poly:1/2/3", WeightSyntaxError, "unexpected character '/' (at position 8)", 8),
    (f"poly:1 + {2**64}*x", WeightSyntaxError, "65-bit number exceeds 64 bits (at position 9)", 9),
    ("poly:)", WeightSyntaxError, "unexpected token ')' (at position 5)", 5),
    ("poly:(1 + x", WeightSyntaxError, "expected ')', found 'end' (at position 11)", 11),
    ("poly:x^2^3", WeightSyntaxError, "expected 'end', found '^' (at position 8)", 8),
    ("poly:2 x", WeightSyntaxError, "expected 'end', found 'x' (at position 7)", 7),
    ("poly:x^x", WeightSyntaxError, "expected 'num', found 'x' (at position 7)", 7),
    ("poly:x^", WeightSyntaxError, "expected 'num', found 'end' (at position 7)", 7),
    ("poly:x^1/2", WeightSyntaxError, "exponent must be an integer in 0..256 (at position 7)", 7),
    ("poly:x^0.5", WeightSyntaxError, "exponent must be an integer in 0..256 (at position 7)", 7),
    ("poly:x^257", WeightSyntaxError, "exponent must be an integer in 0..256 (at position 7)", 7),
    ("poly:x^200*x^100", WeightSyntaxError, "degree 300 exceeds 256 (at position 10)", 10),
    ("poly:(x^2)^200", WeightSyntaxError, "degree 400 exceeds 256 (at position 11)", 11),
    ("poly:--x", WeightSyntaxError, "unexpected token '-' (at position 6)", 6),
    ("poly:1 - -x", WeightSyntaxError, "unexpected token '-' (at position 9)", 9),
    ("poly:(16+x)^256", WeightSyntaxError,
     "coefficients of up to 1025 bits exceed 1024 (at position 12)", 12),
    ("poly:2^256*2^256*2^256*2^256", WeightSyntaxError,
     "coefficients of up to 1026 bits exceed 1024 (at position 22)", 22),
    ("poly:1/3^200 + 1/5^200 + 1/7^200 + 1/11^200", WeightSyntaxError,
     "coefficients of up to 1343 bits exceed 1024 (at position 23)", 23),
    # the first step of a ^ (1 times a 1024-bit node) is checked too
    ("poly:(2^256*2^256*2^256*2^254 + 2^256*2^256*2^256*2^254)^1", WeightSyntaxError,
     "coefficients of up to 1025 bits exceed 1024 (at position 57)", 57),
    ("poly:(2^256*2^256*2^256*2^254)^2", WeightSyntaxError,
     "coefficients of up to 2046 bits exceed 1024 (at position 31)", 31),
    ("poly:x - 1", WeightDomainError, "polynomial weight is negative on [0, 1]", None),
    ("chi:1/4", WeightSyntaxError, "indicator payload must be 'a,b' (at position 4)", 4),
    ("chi:a,1/2", WeightSyntaxError, "expected a number, found 'a' (at position 4)", 4),
    (f"chi:1/4, {2**64}", WeightSyntaxError, "65-bit number exceeds 64 bits (at position 8)", 8),
    ("chi:3/4,1/4", WeightDomainError, "indicator needs 0 <= a < b <= 1, got [3/4, 1/4]", None),
    ("dirac:", WeightSyntaxError, "expected a number, found '' (at position 6)", 6),
    ("dirac:--1/2", WeightSyntaxError, "expected a number, found '--1/2' (at position 6)", 6),
    ("dirac:0", WeightDomainError, "point mass must sit inside (0, 1), got 0", None),
    (f"dirac:-1/{2**64}", WeightSyntaxError, "65-bit number exceeds 64 bits (at position 6)", 6),
    ("pow:1/2x", WeightSyntaxError, "expected a number, found '1/2x' (at position 4)", 4),
    ("pow:1", WeightDomainError, "power weight needs 0 <= alpha < 1, got 1", None),
    ("hardy:1/2", WeightSyntaxError, "boundary-weight order must be an integer (at position 6)", 6),
    ("hardy:2", WeightDomainError, "only the order-1 boundary weight 1/x is supported", None),
    ("pw:[0,1/4]=1;[1/4,1/2]=1;[1/2,3/4]=1;[3/4,1]=1", WeightDomainError,
     "pw weight has 4 pieces, at most 3", None),
    ("pw:[0,1/2]1", WeightSyntaxError, "piece must look like [a,b]=expr (at position 3)", 3),
    ("pw:[0,1/2]=1", WeightDomainError, "last piece must end at 1", None),
    ("pw:[0,1/2]=1;[3/4,1]=1", WeightDomainError,
     "pieces must tile [0,1]: gap between 1/2 and 3/4", None),
    ("pw:[1/4,1]=1", WeightDomainError, "first piece must start at 0", None),
    ("pw:[0,1/2]=1;[1/2,1/2]=1;[1/2,1]=1", WeightDomainError, "piece endpoints must increase", None),
    ("pw:[0,1/3]=(1+x)^60;[1/3,2/3]=1;[2/3,1]=1", WeightDomainError,
     "weight size 10431 (3 pieces x (degree 60 + 1) x 57 bits) exceeds 3072", None),
    ("pw:[0,1/2]=1 +;[1/2,1]=1", WeightSyntaxError, "unexpected token 'end' (at position 14)", 14),
    (f"pw:[0,1/2]=1;[1/2,1]=1/{2**64}", WeightSyntaxError,
     "65-bit number exceeds 64 bits (at position 21)", 21),
    ("pw:[0,1/2]=1;[1/2,1]=x-1", WeightDomainError, "piecewise weight is negative on [1/2, 1]", None),
    # a literal's own errors, at the literal: a zero denominator,
    ("poly:1/0*x", WeightSyntaxError, "zero denominator (at position 5)", 5),
    ("poly:x + 3/00", WeightSyntaxError, "zero denominator (at position 9)", 9),
    ("chi:1/0,1/2", WeightSyntaxError, "zero denominator (at position 4)", 4),
    ("chi:1/4,3/0", WeightSyntaxError, "zero denominator (at position 8)", 8),
    ("dirac:1/0", WeightSyntaxError, "zero denominator (at position 6)", 6),
    ("pw:[0,1/0]=1;[1/0,1]=1", WeightSyntaxError, "zero denominator (at position 6)", 6),
    ("pw:[0,1/2]=1;[1/2,1]=1/0", WeightSyntaxError, "zero denominator (at position 21)", 21),
    # a malformed or capped pw breakpoint, at its field, not the piece's "[",
    ("pw:[0,1/2]=1;[1/2,1q]=x", WeightSyntaxError,
     "expected a number, found '1q' (at position 18)", 18),
    (f"pw:[0,1/2]=1;[1/2,1/{2**64}]=x", WeightSyntaxError,
     "65-bit number exceeds 64 bits (at position 18)", 18),
    # and a run of digits past the interpreter's int(str) limit, left unread
    ("poly:" + "9" * 5000, WeightSyntaxError, "5000-digit number exceeds 64 bits (at position 5)", 5),
    ("poly:1 + 0." + "0" * 4400 + "1*x", WeightSyntaxError,
     "4401-digit number exceeds 64 bits (at position 9)", 9),
    ("chi:0,1/" + "7" * 4301, WeightSyntaxError, "4301-digit number exceeds 64 bits (at position 6)", 6),
]


@pytest.mark.parametrize(
    "text, error, message, position", ERROR_TABLE, ids=[row[0][:40] for row in ERROR_TABLE]
)
def test_error_table(text, error, message, position):
    with pytest.raises(ValueError) as info:
        parse_weight(text)
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position


def test_one_polynomial_per_expression(monkeypatch):
    from sobolev1d import polynomials
    from sobolev1d.weights import _parse_poly_expr

    stored = []
    store = polynomials._store
    monkeypatch.setattr(polynomials, "_store", lambda p, *rep: stored.append(rep) or store(p, *rep))
    for text in ("4 + 1/3*x + 1*x^2", "(1 + 2*x)^3 - 1/2*x*(x - 3/4) + 0.25", "-x", "0"):
        stored.clear()
        p = _parse_poly_expr(text)
        assert stored == [(p.nums, p.den)], text
