"""Seeded properties of the exact polynomial core: integers over one denominator.

Every exact operation is checked against a test-local reference on plain
lists of Fractions, so the two share no arithmetic path.  Random polynomials
reach 24 terms and 200-bit numerators and denominators.
"""

import math
import random
from fractions import Fraction as F

import pytest

from sobolev1d.oracles import load_vector
from sobolev1d.polynomials import (
    PiecewisePolynomial,
    Polynomial,
    exact_polynomial,
    from_polynomial,
    integrate_product,
    is_nonnegative_on,
    kth_derivative,
    pp_equal,
    pp_integrate_product,
    strip_root,
    taylor_shift,
)
from sobolev1d.scalars import FLOAT
from sobolev1d.solver import (
    LinearSystem,
    PolyPlusPower,
    ProblemSpec,
    assemble_u,
    assemble_uk,
    assemble_w,
    build_matrix,
    compute_mu,
    solve,
    solve_seeds,
)
from sobolev1d.weights import (
    DiracWeight,
    HardyWeight,
    PiecewiseWeight,
    PowerLawTerm,
    PowerWeight,
    as_piecewise,
    iterated_integral,
    moments,
    monomial_moments,
    parse_weight,
)

LONG = 2**64 - 1  # the longest DSL literal


def _strip(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
    return _strip(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose(a, s, t):
    """Coefficients of x -> a(s x + t), by Horner over lists."""
    out = []
    for c in reversed(a):
        out = ref_add(ref_mul(out, [t, s]), [c])
    return out


def ref_integral(a, lo, hi):
    return sum((c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(a)), F(0))


def random_values(rng, max_terms=24):
    """Coefficients with one of three bit sizes; a zero polynomial now and then."""
    bits = rng.choice([3, 40, 200])
    terms = rng.choice([0, 1, 2, 5, 16, max_terms, rng.randint(0, max_terms)])
    return [
        F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)) * rng.choice([0, 1, 1, 1])
        for _ in range(terms)
    ]


def random_point(rng):
    if rng.random() < 0.3:
        return F(rng.randint(1, LONG - 1), LONG)
    return F(rng.randint(-40, 40), rng.randint(1, 40))


def _same(p, values):
    """p has the coefficients values, and its stored form is the canonical
    one of a polynomial built from them."""
    return list(p.coeffs) == _strip(values) and p == Polynomial(values)


def test_exact_operations_equal_a_fraction_reference():
    rng = random.Random(130001)
    for _ in range(150):
        a, b = random_values(rng), random_values(rng)
        p, q = Polynomial(a), Polynomial(b)
        assert list(p.coeffs) == _strip(a)
        assert _same(p + q, ref_add(a, b))
        assert _same(p - q, ref_add(a, [-c for c in b]))
        assert _same(-p, [-c for c in a])
        assert _same(p * q, ref_mul(a, b))
        assert _same(p * p, ref_mul(a, a))
        c = random_point(rng) * rng.choice([0, 1, 1])
        assert _same(p.scale(c), [c * x for x in a])
        assert _same(p.derivative(), [i * x for i, x in enumerate(a)][1:])
        assert _same(p.antiderivative(), [F(0)] + [x / (i + 1) for i, x in enumerate(a)])
        m = rng.randint(0, 6)
        derivative = _strip(a)
        for _ in range(m):
            derivative = [i * x for i, x in enumerate(derivative)][1:]
        assert _same(kth_derivative(p, m), derivative)
        x = random_point(rng)
        assert p(x) == ref_eval(a, x)
        assert type(p(x)) is F
        s, t = random_point(rng), random_point(rng)
        assert _same(p.compose_affine(s, t), ref_compose(_strip(a), s, t))
        lo, hi = sorted((random_point(rng), random_point(rng)))
        assert p.integrate(lo, hi) == ref_integral(_strip(a), lo, hi)


def test_equal_values_in_unreduced_forms_are_equal_and_hash_equal():
    rng = random.Random(130002)
    for _ in range(120):
        values = _strip(random_values(rng))
        p = Polynomial(values)
        den = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        g = rng.choice([1, 2, 6, rng.randint(1, 2**70)])
        other = random_values(rng)
        q = Polynomial(other)
        forms = [
            exact_polynomial([c * g for c in nums] + [0] * rng.randint(0, 3), den * g),
            Polynomial(values + [F(0)] * rng.randint(0, 3)),
            (p + q) - q,
            p.scale(g).scale(F(1, g)),
            p * Polynomial([1]),
            Polynomial([F(c * g, den * g) for c in nums]),
        ]
        for form in forms:
            assert form == p and hash(form) == hash(p)
            assert form.nums == p.nums and form.den == p.den
        assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
        assert not p.nums or p.nums[-1] != 0
    assert Polynomial([]) == exact_polynomial([0, 0], 7) == Polynomial([F(0)])


def test_equal_numerators_encode_to_equal_bytes_and_distinct_to_distinct():
    # the numerators are held as marshal version 2 bytes, which == and hash
    # read: the encoding must be one per value.  The pool straddles 2^31,
    # where marshal switches from its 32-bit to its digit encoding.
    rng = random.Random(210001)
    edge = [2**31 - 1, 2**31, 2**31 + 1, 2**62, 2**64 + 3, 10**40]
    pool = [0, 1, 2, 255, 256, 2**15, *edge, *(-c for c in edge)]
    seen = {}
    for _ in range(400):
        nums = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        den = rng.choice([1, 3, 2**31 + 11])
        p = exact_polynomial(nums, den)
        # the same values as distinct int objects
        q = exact_polynomial([int(str(c)) for c in nums], int(str(den)))
        assert p == q and p._data == q._data and hash(p) == hash(q)
        assert seen.setdefault(p._data, p.nums) == p.nums
    assert len(seen) > 200
    # the zero polynomial has one encoding
    zero = Polynomial([])
    assert exact_polynomial([0, 0], 7)._data == zero._data and zero.is_zero()
    assert zero.degree == -1 and exact_polynomial([-(2**31), 0], 1).degree == 0
    # one int object used twice against two equal, distinct int objects:
    # version 4 would write a back-reference for the first
    for a in (2**31, -(2**31) - 1, 10**40):
        b = int(str(a))
        assert a is not b
        assert exact_polynomial([a, a], 1)._data == exact_polynomial([a, b], 1)._data
    # the widths that a fixed-width packing confused stay apart
    for a, b in [([256], [0, 1]), ([-256], [0, -1]), ([2**16 + 2], [2, 0, 1])]:
        p, q = Polynomial(a), Polynomial(b)
        assert p != q and p._data != q._data
        assert not pp_equal(from_polynomial(p), from_polynomial(q))
        assert pp_equal(from_polynomial(p), from_polynomial(Polynomial(a)))


def test_a_bool_numerator_is_stored_as_the_equal_int():
    # marshal writes True as b"T", so the constructors store plain ints
    for p in (exact_polynomial([True, 2], 1), Polynomial([True, 2])):
        assert p == Polynomial([1, 2]) and hash(p) == hash(Polynomial([1, 2]))
        assert [type(c) for c in p.nums] == [int, int]
    with pytest.raises(TypeError):
        exact_polynomial([1.0, 2], 1)


def test_integral_of_a_product_equals_a_fraction_reference():
    rng = random.Random(130003)
    for _ in range(120):
        a, b = random_values(rng), random_values(rng)
        p, q = Polynomial(a), Polynomial(b)
        lo, hi = sorted((random_point(rng), random_point(rng)))
        expected = ref_integral(ref_mul(a, b), lo, hi)
        assert integrate_product(p, q, lo, hi) == expected
        assert integrate_product(p, p, lo, hi) == ref_integral(ref_mul(a, a), lo, hi)
    # piecewise, over the refined partition, with 64-bit breakpoints
    for _ in range(30):
        def random_pp():
            cuts = sorted({F(rng.randint(1, LONG - 1), LONG) for _ in range(rng.randint(0, 3))})
            cuts = [F(0), *cuts, F(1)]
            return cuts, [random_values(rng, 10) for _ in cuts[1:]]

        (fc, fv), (gc, gv) = random_pp(), random_pp()
        f = PiecewisePolynomial(fc, [Polynomial(v) for v in fv])
        g = PiecewisePolynomial(gc, [Polynomial(v) for v in gv])
        cuts = sorted(set(fc) | set(gc))
        expected = F(0)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            fa = fv[max(i for i, c in enumerate(fc[:-1]) if c <= mid)]
            ga = gv[max(i for i, c in enumerate(gc[:-1]) if c <= mid)]
            expected += ref_integral(ref_mul(fa, ga), lo, hi)
        assert pp_integrate_product(f, g) == expected
        assert f.square_integral01() == sum(
            (ref_integral(ref_mul(v, v), lo, hi) for lo, hi, v in zip(fc, fc[1:], fv)), F(0)
        )


def _reference_strip_root(values, c):
    """Synthetic division by x - c in Fractions until c is no root."""
    m = 0
    coeffs = _strip(values)
    while coeffs:
        quotient = coeffs[1:]
        acc = coeffs[-1]
        for i in range(len(coeffs) - 2, -1, -1):
            quotient[i] = acc
            acc = coeffs[i] + c * acc
        if acc != 0:
            break
        coeffs = quotient
        m += 1
    return coeffs, m


def test_strip_root_equals_fraction_synthetic_division():
    # c = 0 and c = 1 take their own paths: counting the leading zero
    # numerators, and running sums; other integers c divide by t = 1
    rng = random.Random(130004)
    for _ in range(150):
        c = rng.choice([F(0), F(1), F(rng.choice([-2, 3])), random_point(rng),
                        F(rng.randint(1, LONG - 1), LONG)])
        values = random_values(rng, 12)
        root_power = [F(1)]
        for _ in range(rng.randint(0, 4)):
            root_power = ref_mul(root_power, [-c, F(1)])
        if rng.random() < 0.2:
            # a near miss: a root of a neighbouring value
            root_power = ref_mul(root_power, [-(c + F(1, LONG)), F(1)])
        product = ref_mul(values, root_power)
        stripped, m = strip_root(Polynomial(product), c)
        expected, expected_m = _reference_strip_root(product, c)
        assert m == expected_m
        assert list(stripped.coeffs) == expected


def test_taylor_shift_by_zero_equals_the_general_shift():
    rng = random.Random(130007)
    for _ in range(60):
        values = random_values(rng, 12)
        nums = [v.numerator * (2**210 // v.denominator) for v in values]
        for s in (0, rng.randint(-9, 9), rng.randint(1, LONG)):
            shifted = list(nums)
            taylor_shift(shifted, s)
            assert _strip(shifted) == _strip(ref_compose(nums, F(1), F(s)))


def _sturm_nonnegative(p, lo, hi):
    """is_nonnegative_on's Sturm answer: p on [lo, hi] is p(-y) on
    [-hi, -lo], which lies partly left of 0 (hi > 0), so the
    non-negative-numerator shortcut cannot take it."""
    return is_nonnegative_on(p.compose_affine(-1, 0), -hi, -lo)


def test_nonnegativity_shortcut_agrees_with_sturm():
    rng = random.Random(130008)
    for _ in range(150):
        lo = F(rng.randint(0, 20), rng.randint(1, 20)) * rng.choice([-1, 0, 1])
        hi = abs(lo) + F(rng.randint(1, 20), rng.randint(1, 20))
        c = lo + (hi - lo) * F(rng.randint(0, 8), 8)  # a point of [lo, hi]
        positive = [F(rng.randint(0, 2**40), rng.randint(1, 2**40)) for _ in range(rng.randint(1, 6))]
        if not any(positive):
            positive[0] = F(1)
        case = rng.choice(["positive", "touching", "negative", "dip"])
        if case == "positive":  # no negative numerator: the shortcut decides at lo >= 0
            values, expected = positive, True
        elif case == "touching":  # a double root at c, negative coefficients
            values, expected = ref_mul(positive, [c * c, -2 * c, F(1)]), True
        elif case == "negative":  # hi - x, zero at hi only
            values, expected = ref_mul(positive, [hi, F(-1)]), True
        else:  # (x - c)^2 - eps: negative at c
            eps = F(1, rng.choice([3, 2**20, LONG]))
            values, expected = [c * c - eps, -2 * c, F(1)], False
        if lo < 0 and case != "dip":
            expected = None  # a positive factor may change sign left of 0
        p = Polynomial(values)
        got = is_nonnegative_on(p, lo, hi)
        assert got == _sturm_nonnegative(p, lo, hi), (case, values, lo, hi)
        assert expected is None or got == expected, (case, values, lo, hi)


WEIGHTS = [
    "poly:1 + 2/3*x + 1/2*x^2",
    "pw:[0,1/3]=1+x;[1/3,1]=2-x",
    "pw:[0,1/18446744073709551615]=1;[1/18446744073709551615,1]=3*x",
    "chi:1/4,3/4",
    "chi:3/11,8/13",
    "dirac:1/3",
    "dirac:5/9",
]


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 24])
def test_assemble_u_equals_the_kfold_antiderivative_loop(k):
    # solve builds u from the 2k-fold integral of rho; stepping k
    # antiderivatives from v = u^(k)/mu, built from the k-fold integral,
    # reaches the same u/mu, and solve's u^(k) is mu v
    for text in WEIGHTS:
        spec = ProblemSpec(k, parse_weight(text))
        s = solve(spec)
        v = assemble_uk(spec, s.seeds, iterated_integral(spec.rho, k))
        anti = v
        for _ in range(k):
            anti = anti.antiderivative()
        assert s.u == anti.scale(s.mu), text
        assert s.u_k == v.scale(s.mu), text
        # 1/mu = integral w rho, and the quadratic route agrees
        assert compute_mu(anti, spec.rho) == s.mu, text
        assert 1 / s.mu == pp_integrate_product(v, v), text


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12, 24, 40])
def test_assemble_w_of_a_power_weight_equals_the_step_loop(k):
    # the 2k-fold integral c x^(2k-alpha) plus the seed polynomial's k-fold
    # antiderivative, against v = u^(k)/mu integrated step by step: c x^e
    # becomes c/((e+1)...(e+k)) x^(e+k)
    for text in ("pow:1/2", "pow:7/9", "pow:0", "pow:1/3", "pow:999/1000"):
        spec = ProblemSpec(k, parse_weight(text), FLOAT)
        s = solve(spec)
        v = assemble_uk(spec, s.seeds, iterated_integral(spec.rho, k))
        poly, c, e = v.poly, v.term.coefficient, v.term.exponent
        for _ in range(k):
            poly = poly.antiderivative()
            e += 1
            c /= e
        w = assemble_w(spec, s.seeds, iterated_integral(spec.rho, 2 * k))
        assert w == PolyPlusPower(poly, PowerLawTerm(c, e)), text
        mu = compute_mu(w, spec.rho)
        assert float(mu) == s.mu, text
        u, diagnostics = assemble_u(spec, s.seeds, mu, w)
        assert s.u == u == w.scale(mu), text
        assert s.u_k == v.scale(mu), text
        assert diagnostics.positivity_certified is True, text


def test_power_moment_equals_the_fraction_sum():
    # sum a_i/(i+1-alpha) + c/(e+1-alpha), one Fraction per term, against
    # the sum over one integer denominator; the last cases are solves' w
    rng = random.Random(210002)
    cases = []
    for _ in range(150):
        q = rng.choice([1000, 7, 3, 2**61 - 1])
        alpha = F(rng.randrange(q), q)
        c = F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**40))
        e = rng.randint(1, 80) - alpha  # a solve's exponents are n - alpha
        cases.append((PolyPlusPower(Polynomial(random_values(rng)), PowerLawTerm(c, e)), alpha))
    for k in (1, 6, 24):
        for text in ("pow:1/3", "pow:999/1000", "pow:0"):
            spec = ProblemSpec(k, parse_weight(text), FLOAT)
            seeds = solve_seeds(LinearSystem(build_matrix(k), moments(spec.rho, k)))
            cases.append((assemble_w(spec, seeds, iterated_integral(spec.rho, 2 * k)), spec.rho.alpha))
    for w, alpha in cases:
        c, e = w.term.coefficient, w.term.exponent
        expected = sum(a / (i + 1 - alpha) for i, a in enumerate(w.poly.coeffs))
        expected += c / (e + 1 - alpha)
        assert w.power_moment(alpha) == expected, (w, alpha)
        assert type(w.power_moment(alpha)) is F


def _reference_moments(pp, k):
    """(-1)^(k+1) times the integral of rho (1-t)^(k+m), m < k, piece by piece."""
    out = []
    power = [F(1)]
    for _ in range(k):
        power = ref_mul(power, [F(1), F(-1)])
    for _ in range(k):
        total = F(0)
        for lo, hi, p in zip(pp.breakpoints, pp.breakpoints[1:], pp.pieces):
            total += ref_integral(ref_mul(list(p.coeffs), power), lo, hi)
        out.append((-1) ** (k + 1) * total)
        power = ref_mul(power, [F(1), F(-1)])
    return out


def test_moments_equal_a_fraction_reference():
    rng = random.Random(130005)
    weights = [parse_weight(text) for text in WEIGHTS[:5]]
    # seeded pw weights with 64-bit breakpoints, degrees up to 6
    for _ in range(8):
        cut = F(rng.randint(1, LONG - 1), LONG)
        pieces = [
            Polynomial([F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(rng.randint(1, 7))])
            for _ in range(2)
        ]
        weights.append(PiecewiseWeight(PiecewisePolynomial([F(0), cut, F(1)], pieces)))
    for rho in weights:
        for k in (1, 2, 6, 12):
            assert list(moments(rho, k).values) == _reference_moments(as_piecewise(rho), k)


def _reference_monomial_moments(rho, lo, hi):
    """M_n = integral of x^n rho, n = lo..hi, in Fractions."""
    if isinstance(rho, DiracWeight):
        return [rho.a**n for n in range(lo, hi + 1)]
    if isinstance(rho, (PowerWeight, HardyWeight)):
        alpha = rho.alpha if isinstance(rho, PowerWeight) else F(rho.order)
        return [1 / (n + 1 - alpha) for n in range(lo, hi + 1)]
    pp = as_piecewise(rho)
    return [
        sum(
            (ref_integral([F(0)] * n + list(p.coeffs), a, b)
             for a, b, p in zip(pp.breakpoints, pp.breakpoints[1:], pp.pieces)),
            F(0),
        )
        for n in range(lo, hi + 1)
    ]


def test_monomial_moments_equal_a_fraction_reference():
    rng = random.Random(130009)
    weights = [parse_weight(text) for text in WEIGHTS]
    weights += [parse_weight(text) for text in ("pow:1/2", "pow:7/9", "pow:0", "hardy:1")]
    for _ in range(8):
        cut = F(rng.randint(1, LONG - 1), LONG)
        pieces = [
            Polynomial([F(rng.randint(0, 99), rng.randint(1, 99)) for _ in range(rng.randint(0, 7))])
            for _ in range(2)
        ]
        if all(p.is_zero() for p in pieces):
            pieces[0] = Polynomial([1])
        weights.append(PiecewiseWeight(PiecewisePolynomial([F(0), cut, F(1)], pieces)))
    weights.append(DiracWeight(F(rng.randint(1, LONG - 1), LONG)))
    for rho in weights:
        for k, N in ((1, 0), (1, 12), (2, 16), (6, 24)):
            nums, den = monomial_moments(rho, k, 2 * k + N)
            expected = _reference_monomial_moments(rho, k, 2 * k + N)
            assert [F(c, den) for c in nums] == expected, (rho, k, N)
            # the loads r_i = sum_m (-1)^m C(k, m) M_(k+i+m), as before
            loads = [
                sum((-1) ** m * math.comb(k, m) * expected[i + m] for m in range(k + 1))
                for i in range(N + 1)
            ]
            assert load_vector(rho, k, N) == loads, (rho, k, N)


@pytest.mark.parametrize("k", [1, 6, 24])
def test_exact_extremizers_store_integers_only(k):
    # the memory property: every piece of an exact u holds its numerators
    # as one byte string and its denominator as an int, with no Fraction and
    # no tuple of int objects in any slot
    for text in WEIGHTS:
        u = solve(ProblemSpec(k, parse_weight(text))).u
        for p in u.pieces:
            held = [getattr(p, name) for name in type(p).__slots__]
            assert {type(v) for v in held} <= {bytes, int, str}, (text, held)
            assert not any(isinstance(v, F) for v in held), text
