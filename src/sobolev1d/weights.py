"""Weight functions on (0, 1): representation, parsing, moments.

The downstream pipeline touches a weight in exactly two ways: through its
shifted moments b_m = (-1)^(k+1) * integral of (1-t)^(k+m) rho(t) dt, and
through the 2k-fold iterated integral, integral_0^x (x-t)^(2k-1)/(2k-1)! rho.
The Galerkin oracle reads a third, the monomial moments integral x^n rho,
as integers over one denominator.  All are exact rationals for polynomial,
piecewise-polynomial, normalized indicator and point-mass weights.  Power weights x^(-alpha) with rational
alpha < 1 get exact moments through the Beta product formula and the exact
power-law iterated integral c x^(2k-alpha), so they are solved exactly too;
only the pointwise values of that term are irrational.  The weight 1/x
(supported for order 1 only) is not integrable at 0 and bypasses this
machinery entirely; like the point mass it is flagged as sitting outside the
L^1 hypothesis of the main theorem.

Weights come from a small text DSL, e.g. ``poly:1 - 2*x + x^2``,
``chi:1/4,3/4``, ``dirac:0.3``, ``pow:1/2``, ``hardy:1``.  Decimal literals
are exact rationals (0.3 means 3/10).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Union

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    exact_polynomial,
    from_polynomial,
    integer_difference,
    integer_form,
    integer_product,
    is_nonnegative_on,
    jump_term,
    kfold_antiderivative,
    lowest_terms,
    trusted_piecewise,
)
from .scalars import Scalar, format_rational, record


class WeightSyntaxError(ValueError):
    """Malformed weight DSL text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WeightDomainError(ValueError):
    """Structurally valid weight text describing an inadmissible weight."""


class UnsupportedWeightError(ValueError):
    """Operation not defined for this weight kind."""


# ---------------------------------------------------------------------------
# Weight kinds
# ---------------------------------------------------------------------------


def _require_nonnegative(kind: str, p: Polynomial, a: Scalar, b: Scalar):
    """Reject a weight that is negative on [a, b] where it equals p, by a
    Sturm certificate.  Weights are exact: a float coefficient has already
    raised ModeMismatchError when its polynomial was built."""
    if not is_nonnegative_on(p, a, b):
        raise WeightDomainError(f"{kind} weight is negative on [{a}, {b}]")


@record
class PolyWeight:
    poly: Polynomial

    kind = "poly"
    outside_theorem_scope = False
    exact_capable = True

    def __post_init__(self):
        _require_nonnegative("polynomial", self.poly, Fraction(0), Fraction(1))
        object.__setattr__(self, "piecewise", from_polynomial(self.poly))

    def format(self) -> str:
        return f"poly:{format_poly(self.poly)}"


@record
class PiecewiseWeight:
    pp: PiecewisePolynomial

    kind = "pw"
    outside_theorem_scope = False
    exact_capable = True

    def __post_init__(self):
        cuts = self.pp.breakpoints
        for a, b, p in zip(cuts, cuts[1:], self.pp.pieces):
            _require_nonnegative("piecewise", p, a, b)
        object.__setattr__(self, "piecewise", self.pp)

    def format(self) -> str:
        parts = []
        for (a, b), p in zip(
            zip(self.pp.breakpoints, self.pp.breakpoints[1:]), self.pp.pieces
        ):
            parts.append(
                f"[{format_rational(a)},{format_rational(b)}]={format_poly(p)}"
            )
        return "pw:" + ";".join(parts)


@record
class IndicatorWeight:
    """rho = chi_[a,b] / (b - a), a unit-mass plateau."""

    a: Fraction
    b: Fraction

    kind = "chi"
    outside_theorem_scope = False
    exact_capable = True

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0 <= a < b <= 1):
            raise WeightDomainError(f"indicator needs 0 <= a < b <= 1, got [{a}, {b}]")
        width, zero = b - a, Polynomial()
        pieces = (zero, exact_polynomial([width.denominator], width.numerator), zero)
        cuts = (Fraction(0), a, b, Fraction(1))  # Fractions, in order as checked
        # without the zero pieces of zero length at the ends
        lo, hi = int(a == 0), 3 - (b == 1)
        object.__setattr__(self, "piecewise", trusted_piecewise(cuts[lo : hi + 1], pieces[lo:hi]))

    @property
    def height(self) -> Fraction:
        return 1 / (self.b - self.a)

    def format(self) -> str:
        return f"chi:{format_rational(self.a)},{format_rational(self.b)}"


@record
class DiracWeight:
    """Unit point mass at an interior location a."""

    a: Fraction

    kind = "dirac"
    outside_theorem_scope = True  # a measure, not an L^1 function
    exact_capable = True

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        if not 0 < self.a < 1:
            raise WeightDomainError(f"point mass must sit inside (0, 1), got {self.a}")

    def format(self) -> str:
        return f"dirac:{format_rational(self.a)}"


@record
class PowerWeight:
    """rho = x^(-alpha) with 0 <= alpha < 1 (integrable at 0)."""

    alpha: Fraction

    kind = "pow"
    outside_theorem_scope = False
    exact_capable = False  # exact pipeline, but u is no piecewise polynomial

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha < 1:
            raise WeightDomainError(
                f"power weight needs 0 <= alpha < 1, got {self.alpha}"
            )

    def format(self) -> str:
        return f"pow:{format_rational(self.alpha)}"


@record
class HardyWeight:
    """rho = x^(-order); only order 1 is supported, and only by closed form."""

    order: int

    kind = "hardy"
    outside_theorem_scope = True  # not in L^1(0, 1)
    exact_capable = True

    def __post_init__(self):
        if self.order != 1:
            raise WeightDomainError("only the order-1 boundary weight 1/x is supported")

    def format(self) -> str:
        return f"hardy:{self.order}"


Weight = Union[
    PolyWeight, PiecewiseWeight, IndicatorWeight, DiracWeight, PowerWeight, HardyWeight
]


# ---------------------------------------------------------------------------
# Moment vector
# ---------------------------------------------------------------------------


@record
class MomentVector:
    """b_m = (-1)^(k+1) * integral (1-t)^(k+m) rho(t) dt = nums[m] / den for
    m = 0..k-1; ``values``, the b_m as Fractions, is built only when read."""

    k: int
    nums: tuple
    den: int

    def __post_init__(self):
        if len(self.nums) != self.k:
            raise ValueError("moment vector length must equal k")

    @property
    def values(self) -> tuple:
        return tuple(Fraction(b, self.den) for b in self.nums)


def beta_product(alpha: Fraction, n: int) -> Fraction:
    """B(1 - alpha, n + 1) = n! / prod_{i=1..n+1} (i - alpha), exact: with
    alpha = p/q it is n! q^(n+1) / prod (iq - p), one Fraction."""
    p, q = alpha.numerator, alpha.denominator
    return Fraction(factorial(n) * q ** (n + 1), prod(i * q - p for i in range(1, n + 2)))


def as_piecewise(rho: Weight) -> PiecewisePolynomial:
    """Piecewise-polynomial image of an ordinary-function weight: the
    attribute ``piecewise`` that a poly, pw or chi weight builds once in
    __post_init__, not a field, so every stage shares one breakpoint tuple."""
    try:
        return rho.piecewise
    except AttributeError:
        raise UnsupportedWeightError(
            f"{rho.kind} weight has no piecewise-polynomial form"
        ) from None


@lru_cache(maxsize=16)
def _lcm_upto(top: int) -> int:
    return lcm(*range(1, top + 1))


def _power_integrals(lo: Fraction, hi: Fraction, first: int, top: int) -> tuple:
    """Integers P and den with P[e - first] / den = integral of s^(e-1)
    over [lo, hi] = (hi^e - lo^e)/e, for e = first..top (first >= 1).

    With lo = v/w and hi = u/w over one denominator and L the lcm of
    1..top, P_e = (u^e - v^e) w^(top-e) L/e over den = L w^top.
    """
    (v, u), w = integer_form((lo, hi))
    scale = _lcm_upto(top)
    power = []
    u_e, v_e, w_e = u ** (first - 1), v ** (first - 1), w ** (top - first + 1)
    for e in range(first, top + 1):
        u_e, v_e, w_e = u_e * u, v_e * v, w_e // w
        power.append((u_e - v_e) * w_e * (scale // e))
    return power, scale * w**top


def _over_one_denominator(parts: list, count: int) -> tuple:
    """The sums of the pieces' integer lists, each of length count over its
    own denominator, as integers over the lcm: parts = [(totals, d), ...]."""
    den = lcm(*(d for _, d in parts))
    out = [0] * count
    for totals, d in parts:
        f = den // d
        for n, c in enumerate(totals):
            out[n] += c * f
    return out, den


def _piecewise_moments(breakpoints, pieces, lo: int, hi: int) -> tuple:
    """The integrals of x^n times the piecewise polynomial over (0, 1) for
    n = lo..hi, as (nums, den): each piece's numerators against the table of
    :func:`_power_integrals`, summed over one denominator."""
    parts = []
    for (a, b), piece in zip(zip(breakpoints, breakpoints[1:]), pieces):
        nums = piece.nums
        if nums:
            # integral of x^(n+i) over [a, b] is P[n - lo + i] / den
            power, den = _power_integrals(a, b, lo + 1, hi + len(nums))
            totals = [
                sum(map(mul, nums, power[n : n + len(nums)]))
                for n in range(hi - lo + 1)
            ]
            parts.append((totals, den * piece.den))
    return _over_one_denominator(parts, hi - lo + 1)


def _mirror(pp: PiecewisePolynomial) -> tuple:
    """Breakpoints and pieces of x -> pp(1 - x)."""
    cuts = [1 - b for b in reversed(pp.breakpoints)]
    return cuts, [p.compose_affine(-1, 1) for p in reversed(pp.pieces)]


def monomial_moments(rho: Weight, lo: int, hi: int) -> tuple:
    """M_n = integral of x^n rho over (0, 1) for n = lo..hi (lo >= 1 for
    the boundary weight 1/x), as integers over one denominator: (nums, den)
    with M_n = nums[n - lo] / den.

    A point mass at a = s/t gives a^n = s^n t^(hi-n) / t^hi, and x^(-alpha)
    with alpha = p/q gives 1/(n + 1 - alpha) = q / (q (n+1) - p) over the
    lcm of those denominators.  A piecewise-polynomial weight sums over its
    pieces (:func:`_piecewise_moments`).
    """
    if isinstance(rho, DiracWeight):
        s, t = rho.a.numerator, rho.a.denominator
        return [s**n * t ** (hi - n) for n in range(lo, hi + 1)], t**hi
    if isinstance(rho, (PowerWeight, HardyWeight)):
        alpha = rho.alpha if isinstance(rho, PowerWeight) else Fraction(rho.order)
        p, q = alpha.numerator, alpha.denominator
        dens = [q * (n + 1) - p for n in range(lo, hi + 1)]
        den = lcm(*dens)
        return [q * (den // d) for d in dens], den
    pp = as_piecewise(rho)
    return _piecewise_moments(pp.breakpoints, pp.pieces, lo, hi)


def moments(rho: Weight, k: int) -> MomentVector:
    """Exact shifted moments, in lowest terms, driving the seed system.

    With s = 1 - t, integral (1-t)^(k+m) rho(t) dt is the (k+m)-th monomial
    moment of the mirrored weight.  For x^(-alpha), alpha = p/q, it is
    B(1-alpha, n+1) = n! q^(n+1) / prod_{i=1..n+1} (iq - p), n = k+m: over
    D = prod_{i=1..2k} (iq - p) the numerator is n! q^(n+1) times the
    factors i = n+2..2k, which are stepped from the top.  A point mass at
    a = s/t gives (1 - a)^(k+m) = (t - s)^(k+m) t^(k-1-m) / t^(2k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(rho, HardyWeight):
        raise UnsupportedWeightError(
            "1/x has an infinite zeroth moment; use the closed-form route"
        )
    sign = (-1) ** (k + 1)
    if isinstance(rho, DiracWeight):
        s, t = rho.a.numerator, rho.a.denominator
        nums = [sign * (t - s) ** (k + m) * t ** (k - 1 - m) for m in range(k)]
        den = t ** (2 * k - 1)
    elif isinstance(rho, PowerWeight):
        p, q = rho.alpha.numerator, rho.alpha.denominator
        den = prod(i * q - p for i in range(1, 2 * k + 1))
        nums = []
        tail = sign
        for n in range(2 * k - 1, k - 1, -1):
            nums.append(factorial(n) * q ** (n + 1) * tail)
            tail *= (n + 1) * q - p
        nums.reverse()
    else:
        totals, den = _piecewise_moments(*_mirror(as_piecewise(rho)), k, 2 * k - 1)
        nums = [sign * c for c in totals]
    common = gcd(den, *nums)
    return MomentVector(k, tuple(c // common for c in nums), den // common)


@record
class PowerLawTerm:
    """c * x^e with exact coefficient; the iterated integral of x^(-alpha)."""

    coefficient: Scalar
    exponent: Scalar

    def __call__(self, x: float) -> float:
        if x == 0:
            return 0.0 if self.exponent > 0 else float(self.coefficient)
        return float(self.coefficient) * x ** float(self.exponent)

    def scale(self, c) -> "PowerLawTerm":
        return PowerLawTerm(self.coefficient * c, self.exponent)


def iterated_integral(rho: Weight, k: int):
    """I(x) = integral_0^x (x - t)^(k-1)/(k-1)! rho(t) dt with I(0) = 0.

    Returns an exact :class:`PiecewisePolynomial` for function-type and
    point-mass weights, and a :class:`PowerLawTerm` for power weights
    (I(x) = B(1-alpha, k)/(k-1)! * x^(k-alpha)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(rho, HardyWeight):
        raise UnsupportedWeightError("1/x is outside the iterated-integral pipeline")
    if isinstance(rho, PowerWeight):
        coeff = beta_product(rho.alpha, k - 1) / factorial(k - 1)
        return PowerLawTerm(coeff, k - rho.alpha)
    if isinstance(rho, DiracWeight):
        # sifting: I(x) = (x - a)^(k-1)/(k-1)! for x >= a, else 0, the
        # (k-1)-fold integral of a unit step at a
        shifted = exact_polynomial(*jump_term([1], 1, rho.a, k - 1))
        return trusted_piecewise((Fraction(0), rho.a, Fraction(1)), (Polynomial(), shifted))
    return kfold_antiderivative(as_piecewise(rho), k)


def eval_weight(rho: Weight, x: float) -> float:
    """Pointwise value rho(x); point masses have none."""
    if isinstance(rho, DiracWeight):
        raise UnsupportedWeightError("a point mass has no pointwise values")
    if isinstance(rho, PolyWeight):
        return rho.poly.eval_float(x)
    if isinstance(rho, PiecewiseWeight):
        return rho.pp.eval_float(x)
    if isinstance(rho, IndicatorWeight):
        return float(rho.height) if rho.a <= x <= rho.b else 0.0
    if isinstance(rho, PowerWeight):
        if x <= 0 and rho.alpha > 0:
            raise ValueError("x^(-alpha) is singular at 0")
        return 1.0 if rho.alpha == 0 else x ** (-float(rho.alpha))
    if isinstance(rho, HardyWeight):
        if x <= 0:
            raise ValueError("1/x is singular at 0")
        return 1.0 / x
    raise UnsupportedWeightError(f"unknown weight {rho!r}")


def reflect_weight(rho: Weight) -> Weight:
    """The weight x -> rho(1 - x); defined for the exact kinds."""
    if isinstance(rho, PolyWeight):
        return PolyWeight(rho.poly.compose_affine(-1, 1))
    if isinstance(rho, PiecewiseWeight):
        return PiecewiseWeight(PiecewisePolynomial(*_mirror(rho.pp)))
    if isinstance(rho, IndicatorWeight):
        return IndicatorWeight(1 - rho.b, 1 - rho.a)
    if isinstance(rho, DiracWeight):
        return DiracWeight(1 - rho.a)
    raise UnsupportedWeightError(f"cannot reflect a {rho.kind} weight")


def scale_weight(rho: Weight, c: Fraction) -> Weight:
    """The weight c * rho for rational c > 0 (function-type kinds)."""
    c = Fraction(c)
    if c <= 0:
        raise WeightDomainError("scaling factor must be positive")
    if isinstance(rho, PolyWeight):
        return PolyWeight(rho.poly.scale(c))
    if isinstance(rho, (PiecewiseWeight, IndicatorWeight)):
        pp = as_piecewise(rho)
        return PiecewiseWeight(pp.scale(c))
    raise UnsupportedWeightError(f"cannot scale a {rho.kind} weight")


# ---------------------------------------------------------------------------
# DSL parser
# ---------------------------------------------------------------------------

# a literal is digits, then a decimal part or a denominator; \d matches the
# characters int() reads as digits, non-ASCII ones too, but no superscripts.
# A token is a literal or one other character, after whitespace (str.isspace)
_LITERAL = r"(\d+)(?:\.(\d+)|/(\d+))?"
_TOKEN_RE = re.compile(rf"\s*({_LITERAL}|\S)")
_PAYLOAD_RE = re.compile(rf"\s*(-?)\s*{_LITERAL}\s*")
# cap on a DSL polynomial's degree and on any ^ exponent, checked before
# multiplying out: poly:(1+x)^256 solves in ~0.7 s at k = 60
MAX_DEGREE = 256
# caps on the bit length of DSL rationals, each set from a measured time
# budget (README): a literal's numerator and denominator, and a polynomial's,
# written as P/D with one denominator D and integer coefficients P, after
# every +, - and *, and each step of a ^, checked before multiplying.  A
# literal can be a breakpoint, whose cost grows fastest: at k = 60,
# chi:1/(2^64 - 1),1/(2^64 - 59) takes ~2.8 s, poly:(1/15+x)^256 ~1.3 s
MAX_LITERAL_BITS = 64
MAX_POLY_BITS = 1024
# caps on a pw weight, checked before its pieces are certified or solved,
# set so that verify at k = 60 ends within 10 s (README): its number of
# pieces, and its size, pieces x (degree + 1) x bits, with the largest piece
# degree and the largest bit length of a piece's P or D or of a breakpoint.
# Long breakpoints are the main cost: each raises the bit length of every
# piece of u^(k), so at k = 60 four constant pieces with 64-bit breakpoints
# take ~8.5 s to solve, and three pieces of degree 15, at the size cap, up
# to 8.7 s in verify
MAX_PIECES = 3
MAX_WEIGHT_SIZE = 3 * 16 * MAX_LITERAL_BITS


def _literal(whole: str, decimals, den, position: int) -> tuple:
    """(p, q) in lowest terms for the literal whole[.decimals] or whole/den,
    read from its digits.  A zero q, a p or q past MAX_LITERAL_BITS, or digits
    past the interpreter's int(str) limit are a WeightSyntaxError at position."""
    try:
        p, q = int(whole), int(den or 1)
        if decimals:
            q = 10 ** len(decimals)
            p = p * q + int(decimals)
    except ValueError:
        size = f"{max(len(whole), len(decimals or den or ''))}-digit"
    else:
        if not q:
            raise WeightSyntaxError("zero denominator", position)
        common = gcd(p, q)
        p, q = p // common, q // common
        bits = max(p.bit_length(), q.bit_length())
        if bits <= MAX_LITERAL_BITS:
            return p, q
        size = f"{bits}-bit"
    raise WeightSyntaxError(f"{size} number exceeds {MAX_LITERAL_BITS} bits", position)


def _poly_bits(p) -> tuple:
    """Bit lengths of P and D for p = P/D, a Polynomial or a (nums, den) pair."""
    nums, den = (p.nums, p.den) if isinstance(p, Polynomial) else p
    return max(map(abs, nums), default=0).bit_length(), den.bit_length()


def _tokenize_poly(text: str, base: int) -> list:
    """(kind, value, position) tokens of text, positions counted from base:
    ("num", (p, q), ·) per literal (:func:`_literal`), one per x + - * ^ ( ),
    and ("end", None, ·).  Any other character is an error at its position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        token, whole, decimals, den = m.groups()
        position = base + m.start(1)
        if whole:
            tokens.append(("num", _literal(whole, decimals, den, position), position))
        elif token in "x+-*^()":
            tokens.append((token, None, position))
        else:
            raise WeightSyntaxError(f"unexpected character {token!r}", position)
    tokens.append(("end", None, base + len(text)))
    return tokens


def _parse_poly_expr(text: str, base: int = 0) -> Polynomial:
    """The polynomial in text, by recursive descent over its tokens on pairs
    (nums, den) in a Polynomial's lowest terms; one Polynomial is built, from
    the last.  MAX_DEGREE is checked before each * and ^, MAX_POLY_BITS after
    each + and -, and from a bound before each * and each step of ^."""
    tokens = _tokenize_poly(text, base)[::-1]  # the next token is last

    def take(kind: str) -> tuple:
        tok = tokens.pop()
        if tok[0] != kind:
            raise WeightSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def check_degree(degree: int, position: int):
        if degree > MAX_DEGREE:
            raise WeightSyntaxError(f"degree {degree} exceeds {MAX_DEGREE}", position)

    def check_bits(bits: int, position: int):
        if bits > MAX_POLY_BITS:
            raise WeightSyntaxError(
                f"coefficients of up to {bits} bits exceed {MAX_POLY_BITS}", position
            )

    def multiply(p: tuple, q: tuple, position: int) -> tuple:
        # over one denominator, a product's coefficient is a sum of at most
        # m = min(deg) + 1 products, each below 2^(pn + qn): below 2^(pn + qn)
        # times m <= 2^bits(m - 1)
        (pn, pd), (qn, qd) = _poly_bits(p), _poly_bits(q)
        terms = min(len(p[0]), len(q[0]))
        check_bits(max(pn + qn + (terms - 1).bit_length(), pd + qd), position)
        return integer_product(*p, *q)

    def parse_expr() -> tuple:
        negate = tokens[-1][0] == "-"
        if negate:
            tokens.pop()
        nums, den = parse_term()
        node = (tuple(-c for c in nums), den) if negate else (nums, den)
        while tokens[-1][0] in ("+", "-"):
            op, _, position = tokens.pop()
            nums, den = parse_term()
            if op == "+":
                nums = [-c for c in nums]
            node = lowest_terms(*integer_difference(node, (nums, den)))
            check_bits(max(_poly_bits(node)), position)
        return node

    def parse_term() -> tuple:
        node = parse_power()
        while tokens[-1][0] == "*":
            position = tokens.pop()[2]
            rhs = parse_power()
            check_degree(len(node[0]) + len(rhs[0]) - 2, position)
            node = multiply(node, rhs, position)
        return node

    def parse_power() -> tuple:
        node = parse_atom()
        if tokens[-1][0] != "^":
            return node
        tokens.pop()
        _, (exp, den), position = take("num")
        if den != 1 or exp > MAX_DEGREE:
            raise WeightSyntaxError(
                f"exponent must be an integer in 0..{MAX_DEGREE}", position
            )
        check_degree((len(node[0]) - 1) * exp, position)
        if not exp:
            return (1,), 1
        # the first step, 1 times node, is node: only its bound is checked
        check_bits(max(_poly_bits(node)) + 1, position)
        result = node
        for _ in range(exp - 1):
            result = multiply(result, node, position)
        return result

    def parse_atom() -> tuple:
        kind, value, position = tokens.pop()
        if kind == "num":
            return ((value[0],), value[1]) if value[0] else ((), 1)
        if kind == "x":
            return (0, 1), 1
        if kind == "(":
            inner = parse_expr()
            take(")")
            return inner
        raise WeightSyntaxError(f"unexpected token {kind!r}", position)

    result = parse_expr()
    take("end")
    return exact_polynomial(*result)


def _quoted(text: str) -> str:
    """repr(text), cut to 30 characters and the length for a longer text."""
    return repr(text) if len(text) <= 30 else f"{text[:30]!r}... ({len(text)} characters)"


def _parse_number_payload(payload: str, base: int) -> Fraction:
    """The signed literal that is all of payload, its errors at base."""
    m = _PAYLOAD_RE.fullmatch(payload)
    if not m:
        raise WeightSyntaxError(f"expected a number, found {_quoted(payload.strip())}", base)
    p, q = _literal(*m.groups()[1:], base)
    return Fraction(-p if m[1] else p, q)


def parse_weight(spec: str) -> Weight:
    """Parse the weight DSL; raises WeightSyntaxError / WeightDomainError."""
    if not spec or not spec.strip():
        raise WeightSyntaxError("empty weight text", 0)
    if ":" not in spec:
        raise WeightSyntaxError("missing ':' between kind and payload", len(spec))
    kind, payload = spec.split(":", 1)
    kind = kind.strip()
    base = spec.index(":") + 1
    if kind == "poly":
        return PolyWeight(_parse_poly_expr(payload, base))
    if kind == "pw":
        return _parse_piecewise(payload, base)
    if kind == "chi":
        parts = payload.split(",")
        if len(parts) != 2:
            raise WeightSyntaxError("indicator payload must be 'a,b'", base)
        a = _parse_number_payload(parts[0], base)
        b = _parse_number_payload(parts[1], base + len(parts[0]) + 1)
        return IndicatorWeight(a, b)
    if kind == "dirac":
        return DiracWeight(_parse_number_payload(payload, base))
    if kind == "pow":
        return PowerWeight(_parse_number_payload(payload, base))
    if kind == "hardy":
        value = _parse_number_payload(payload, base)
        if value.denominator != 1:
            raise WeightSyntaxError("boundary-weight order must be an integer", base)
        return HardyWeight(int(value))
    raise WeightSyntaxError(f"unknown weight kind {_quoted(kind)}", 0)


_PIECE_RE = re.compile(r"\s*\[([^,\]]+),([^,\]]+)\]\s*=\s*(.+)\s*")


def _parse_piecewise(payload: str, base: int) -> PiecewiseWeight:
    pieces_text = payload.split(";")
    if len(pieces_text) > MAX_PIECES:
        raise WeightDomainError(
            f"pw weight has {len(pieces_text)} pieces, at most {MAX_PIECES}"
        )
    cuts: list[Fraction] = []
    polys: list[Polynomial] = []
    offset = base
    for chunk in pieces_text:
        m = _PIECE_RE.fullmatch(chunk)
        if not m:
            raise WeightSyntaxError("piece must look like [a,b]=expr", offset)
        lo = _parse_number_payload(m.group(1), offset + m.start(1))
        hi = _parse_number_payload(m.group(2), offset + m.start(2))
        poly = _parse_poly_expr(m.group(3), offset + m.start(3))
        if cuts:
            if lo != cuts[-1]:
                raise WeightDomainError(
                    f"pieces must tile [0,1]: gap between {cuts[-1]} and {lo}"
                )
        else:
            if lo != 0:
                raise WeightDomainError("first piece must start at 0")
            cuts.append(lo)
        if not hi > lo:
            raise WeightDomainError("piece endpoints must increase")
        cuts.append(hi)
        polys.append(poly)
        offset += len(chunk) + 1
    if cuts[-1] != 1:
        raise WeightDomainError("last piece must end at 1")
    degree = max(p.degree for p in polys)
    bits = max(
        max(max(_poly_bits(p)) for p in polys),
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in cuts),
    )
    size = len(polys) * (degree + 1) * bits
    if size > MAX_WEIGHT_SIZE:
        raise WeightDomainError(
            f"weight size {size} ({len(polys)} pieces x (degree {degree} + 1) x "
            f"{bits} bits) exceeds {MAX_WEIGHT_SIZE}"
        )
    return PiecewiseWeight(PiecewisePolynomial(cuts, polys))


def format_poly(p: Polynomial) -> str:
    """Render a polynomial so that parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    text = ""
    for i, c in enumerate(p.coeffs):
        if c:
            power = "" if i == 0 else "*x" if i == 1 else f"*x^{i}"
            text += f" {'-' if c < 0 else '+'} {format_rational(abs(c))}{power}"
    # " + a - b*x" is written "a - b*x", and " - a + b*x" is "-a + b*x"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_weight(rho: Weight) -> str:
    return rho.format()
