import math
import random
from fractions import Fraction as F

import pytest

from sobolev1d.polynomials import Polynomial, from_polynomial, pp_equal
from sobolev1d.quadrature import quad_numeric
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
    # float weights are screened by dense sampling instead of Sturm
    PolyWeight(Polynomial([1.0, -0.5]))  # 1 - x/2 >= 0: accepted
    with pytest.raises(WeightDomainError):
        PolyWeight(Polynomial([-0.25, 1.0]))  # dips to -1/4 at 0


def test_piecewise_breakpoint_invariants():
    from sobolev1d.polynomials import PiecewisePolynomial

    with pytest.raises(ValueError):
        PiecewisePolynomial([F(0), F(1, 2)], [Polynomial([1])])  # must end at 1
    with pytest.raises(ValueError):
        PiecewisePolynomial(
            [F(0), F(1, 2), F(1, 2), F(1)],
            [Polynomial([1]), Polynomial([1]), Polynomial([1])],
        )  # strictly increasing


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
