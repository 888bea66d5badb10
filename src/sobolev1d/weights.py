"""Weight functions on (0, 1): representation, parsing, moments.

The downstream pipeline touches a weight in exactly two ways: through its
shifted moments b_m = (-1)^(k+1) * integral of (1-t)^(k+m) rho(t) dt, and
through the iterated integral I(x) = integral_0^x (x-t)^(k-1)/(k-1)! rho(t) dt.
The Galerkin oracle reads a third, the monomial moments integral x^n rho,
as integers over one denominator.  All are exact rationals for polynomial,
piecewise-polynomial, normalized indicator and point-mass weights.  Power weights x^(-alpha) with rational
alpha < 1 get exact moments through the Beta product formula and the exact
power-law iterated integral c x^(k-alpha), so they are solved exactly too;
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
from math import comb, factorial, lcm
from typing import Union

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    constant,
    exact_polynomial,
    from_polynomial,
    integer_form,
    is_nonnegative_on,
    kfold_antiderivative,
)
from .scalars import EXACT, Scalar, format_rational, parse_rational, record


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
    """Reject a weight that is negative on [a, b] where it equals p: exact
    pieces by a Sturm certificate, float ones by their minimum over 1,001
    evenly spaced points (a NaN sample passes)."""
    if p.mode == EXACT:
        if not is_nonnegative_on(p, a, b):
            raise WeightDomainError(f"{kind} weight is negative on [{a}, {b}]")
        return
    af, bf = float(a), float(b)
    lows = min(p.eval_float(af + (bf - af) * i / 1000) for i in range(1001))
    if lows < -1e-12:
        raise WeightDomainError(f"{kind} weight dips to {lows:.3e} on [{a}, {b}]")


@record
class PolyWeight:
    poly: Polynomial

    kind = "poly"
    outside_theorem_scope = False
    exact_capable = property(lambda self: self.poly.mode == EXACT)  # float coefficients

    def __post_init__(self):
        _require_nonnegative("polynomial", self.poly, Fraction(0), Fraction(1))

    def format(self) -> str:
        return f"poly:{format_poly(self.poly)}"


@record
class PiecewiseWeight:
    pp: PiecewisePolynomial

    kind = "pw"
    outside_theorem_scope = False
    exact_capable = property(lambda self: self.pp.mode == EXACT)

    def __post_init__(self):
        cuts = self.pp.breakpoints
        for a, b, p in zip(cuts, cuts[1:], self.pp.pieces):
            _require_nonnegative("piecewise", p, a, b)

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
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not (0 <= self.a < self.b <= 1):
            raise WeightDomainError(
                f"indicator needs 0 <= a < b <= 1, got [{self.a}, {self.b}]"
            )

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
    """b_m = (-1)^(k+1) * integral (1-t)^(k+m) rho(t) dt for m = 0..k-1."""

    k: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.k:
            raise ValueError("moment vector length must equal k")


def beta_product(alpha: Fraction, n: int) -> Fraction:
    """B(1 - alpha, n + 1) = n! / prod_{i=1..n+1} (i - alpha), exact."""
    denom = Fraction(1)
    for i in range(1, n + 2):
        denom *= i - alpha
    return Fraction(factorial(n)) / denom


def as_piecewise(rho: Weight) -> PiecewisePolynomial:
    """Piecewise-polynomial image of an ordinary-function weight."""
    if isinstance(rho, PolyWeight):
        return from_polynomial(rho.poly)
    if isinstance(rho, PiecewiseWeight):
        return rho.pp
    if isinstance(rho, IndicatorWeight):
        h = rho.height
        cuts = sorted({Fraction(0), rho.a, rho.b, Fraction(1)})
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            inside = rho.a <= lo and hi <= rho.b
            pieces.append(constant(h if inside else Fraction(0)))
        return PiecewisePolynomial(cuts, pieces)
    raise UnsupportedWeightError(f"{rho.kind} weight has no piecewise-polynomial form")


def _power_integrals(lo: Fraction, hi: Fraction, first: int, top: int) -> tuple:
    """Integers P and den with P[e - first] / den = integral of s^(e-1)
    over [lo, hi] = (hi^e - lo^e)/e, for e = first..top (first >= 1).

    With lo = v/w and hi = u/w over one denominator and L the lcm of
    1..top, P_e = (u^e - v^e) w^(top-e) L/e over den = L w^top.
    """
    (v, u), w = integer_form((lo, hi))
    scale = lcm(*range(1, top + 1))
    power = []
    u_e, v_e, w_e = u ** (first - 1), v ** (first - 1), w ** (top - first + 1)
    for e in range(first, top + 1):
        u_e, v_e, w_e = u_e * u, v_e * v, w_e // w
        power.append((u_e - v_e) * w_e * (scale // e))
    return power, scale * w**top


def monomial_moments(rho: Weight, lo: int, hi: int) -> tuple:
    """M_n = integral of x^n rho over (0, 1) for n = lo..hi (lo >= 1 for
    the boundary weight 1/x), as integers over one denominator: (nums, den)
    with M_n = nums[n - lo] / den.

    A point mass at a = s/t gives a^n = s^n t^(hi-n) / t^hi, and x^(-alpha)
    with alpha = p/q gives 1/(n + 1 - alpha) = q / (q (n+1) - p) over the
    lcm of those denominators.  A piecewise-polynomial weight sums, piece by
    piece, its numerators against the table of :func:`_power_integrals`.
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
    parts = []
    for (a, b), piece in zip(zip(pp.breakpoints, pp.breakpoints[1:]), pp.pieces):
        nums = piece.nums
        if nums:
            # integral of x^(n+i) over [a, b] is P[n - lo + i] / den
            power, den = _power_integrals(a, b, lo + 1, hi + len(nums))
            totals = [
                sum(c * power[n + i] for i, c in enumerate(nums))
                for n in range(hi - lo + 1)
            ]
            parts.append((totals, den * piece.den))
    den = lcm(*(d for _, d in parts))
    out = [0] * (hi - lo + 1)
    for totals, d in parts:
        f = den // d
        for n, c in enumerate(totals):
            out[n] += c * f
    return out, den


def moments(rho: Weight, k: int) -> MomentVector:
    """Exact shifted moments driving the right-hand side of the seed system."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(rho, HardyWeight):
        raise UnsupportedWeightError(
            "1/x has an infinite zeroth moment; use the closed-form route"
        )
    sign = Fraction((-1) ** (k + 1))
    values = []
    if isinstance(rho, DiracWeight):
        for m in range(k):
            values.append(sign * (1 - rho.a) ** (k + m))
    elif isinstance(rho, PowerWeight):
        for m in range(k):
            values.append(sign * beta_product(rho.alpha, k + m))
    else:
        pp = as_piecewise(rho)
        totals = [Fraction(0)] * k
        for (a, b), p in zip(zip(pp.breakpoints, pp.breakpoints[1:]), pp.pieces):
            # s = 1 - t turns p(t) (1-t)^(k+m) into sum_i d_i s^(k+m+i), whose
            # integral over [1-b, 1-a] is sum_i d_i [s^(e)/e], e = k+m+i+1
            mirrored = p.compose_affine(-1, 1)
            nums = mirrored.nums
            power, den = _power_integrals(1 - b, 1 - a, k + 1, 2 * k + len(nums) - 1)
            den *= mirrored.den
            for m in range(k):
                total = sum(c * power[m + i] for i, c in enumerate(nums))
                totals[m] += Fraction(total, den)
        values = [sign * t for t in totals]
    return MomentVector(k, tuple(values))


@record
class PowerLawTerm:
    """c * x^e with exact coefficient; the iterated integral of x^(-alpha)."""

    coefficient: Scalar
    exponent: Scalar

    def __call__(self, x: float) -> float:
        if x == 0:
            return 0.0 if self.exponent > 0 else float(self.coefficient)
        return float(self.coefficient) * x ** float(self.exponent)

    def antiderivative(self) -> "PowerLawTerm":
        e = self.exponent + 1
        return PowerLawTerm(self.coefficient / e, e)

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
        # sifting: I(x) = (x - a)^(k-1)/(k-1)! for x >= a, else 0; with
        # a = s/t the binomial expansion has the x^j numerator
        # C(k-1, j) (-s)^(k-1-j) t^j over t^(k-1) (k-1)!
        a, n = rho.a, k - 1
        s, t = a.numerator, a.denominator
        shifted = exact_polynomial(
            [comb(n, j) * (-s) ** (n - j) * t**j for j in range(n + 1)],
            t**n * factorial(n),
        )
        return PiecewisePolynomial(
            [Fraction(0), a, Fraction(1)], [Polynomial((), EXACT), shifted]
        )
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
        pp = rho.pp
        cuts = [1 - b for b in reversed(pp.breakpoints)]
        pieces = [p.compose_affine(-1, 1) for p in reversed(pp.pieces)]
        return PiecewiseWeight(PiecewisePolynomial(cuts, pieces))
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

_NUMBER_RE = re.compile(r"\d+(?:\.\d+|/\d+)?")
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


def _check_literal(value: Fraction, position: int) -> Fraction:
    """value, if its numerator and denominator fit MAX_LITERAL_BITS."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_LITERAL_BITS:
        raise WeightSyntaxError(
            f"{bits}-bit number exceeds {MAX_LITERAL_BITS} bits", position
        )
    return value


def _poly_bits(p: Polynomial) -> tuple:
    """Bit lengths of P's largest coefficient and of D, for p = P/D with D
    the least common denominator."""
    return max(map(abs, p.nums), default=0).bit_length(), p.den.bit_length()


def _tokenize_poly(text: str, base: int):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            value = _check_literal(parse_rational(m.group()), base + i)
            tokens.append(("num", value, base + i))
            i = m.end()
            continue
        if ch == "x":
            tokens.append(("x", None, base + i))
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, None, base + i))
            i += 1
            continue
        raise WeightSyntaxError(f"unexpected character {ch!r}", base + i)
    tokens.append(("end", None, base + len(text)))
    return tokens


def _parse_poly_expr(text: str, base: int = 0) -> Polynomial:
    tokens = _tokenize_poly(text, base)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise WeightSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        pos += 1
        return tok

    def parse_expr() -> Polynomial:
        if peek()[0] == "-":
            take()
            node = -parse_term()
        else:
            node = parse_term()
        while peek()[0] in ("+", "-"):
            op, _, position = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
            check_bits(*_poly_bits(node), position)
        return node

    def check_degree(degree: int, position: int):
        if degree > MAX_DEGREE:
            raise WeightSyntaxError(f"degree {degree} exceeds {MAX_DEGREE}", position)

    def check_bits(num_bits: int, den_bits: int, position: int):
        bits = max(num_bits, den_bits)
        if bits > MAX_POLY_BITS:
            raise WeightSyntaxError(
                f"coefficients of up to {bits} bits exceed {MAX_POLY_BITS}", position
            )

    def multiply(p: Polynomial, q: Polynomial, position: int) -> Polynomial:
        # over one denominator, a product's coefficient is a sum of at most
        # m = min(len) products, each below 2^(pn + qn): below 2^(pn + qn)
        # times m <= 2^bits(m - 1)
        (pn, pd), (qn, qd) = _poly_bits(p), _poly_bits(q)
        terms = min(len(p.coeffs), len(q.coeffs))
        check_bits(pn + qn + (terms - 1).bit_length(), pd + qd, position)
        return p * q

    def parse_term() -> Polynomial:
        node = parse_power()
        while peek()[0] == "*":
            position = take()[2]
            rhs = parse_power()
            check_degree(node.degree + rhs.degree, position)
            node = multiply(node, rhs, position)
        return node

    def parse_power() -> Polynomial:
        node = parse_atom()
        if peek()[0] == "^":
            take()
            tok = take("num")
            exp = tok[1]
            if exp.denominator != 1 or not 0 <= exp <= MAX_DEGREE:
                raise WeightSyntaxError(
                    f"exponent must be an integer in 0..{MAX_DEGREE}", tok[2]
                )
            check_degree(node.degree * int(exp), tok[2])
            result = Polynomial([1], EXACT)
            for _ in range(int(exp)):
                result = multiply(result, node, tok[2])
            return result
        return node

    def parse_atom() -> Polynomial:
        tok = peek()
        if tok[0] == "num":
            take()
            return Polynomial([tok[1]], EXACT)
        if tok[0] == "x":
            take()
            return Polynomial([0, 1], EXACT)
        if tok[0] == "(":
            take()
            inner = parse_expr()
            take(")")
            return inner
        raise WeightSyntaxError(f"unexpected token {tok[0]!r}", tok[2])

    result = parse_expr()
    take("end")
    return result


def _parse_number_payload(payload: str, base: int) -> Fraction:
    text = payload.strip()
    neg = False
    if text.startswith("-"):
        neg = True
        text = text[1:].strip()
    m = _NUMBER_RE.fullmatch(text)
    if not m:
        raise WeightSyntaxError(f"expected a number, found {payload.strip()!r}", base)
    value = _check_literal(parse_rational(text), base)
    return -value if neg else value


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
    raise WeightSyntaxError(f"unknown weight kind {kind!r}", 0)


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
        lo = _parse_number_payload(m.group(1), offset)
        hi = _parse_number_payload(m.group(2), offset)
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
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = format_rational(abs(c)) if p.mode == EXACT else repr(abs(c))
        if i == 0:
            term = mag
        elif i == 1:
            term = f"{mag}*x"
        else:
            term = f"{mag}*x^{i}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def format_weight(rho: Weight) -> str:
    return rho.format()
