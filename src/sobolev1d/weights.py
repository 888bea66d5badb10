"""Weight functions on (0, 1): representation, parsing, moments.

The downstream pipeline touches a weight in exactly two ways: through its
shifted moments b_m = (-1)^(k+1) * integral of (1-t)^(k+m) rho(t) dt, and
through the iterated integral I(x) = integral_0^x (x-t)^(k-1)/(k-1)! rho(t) dt.
Both are exact rationals for polynomial, piecewise-polynomial, normalized
indicator and point-mass weights.  Power weights x^(-alpha) with rational
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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Union

from .polynomials import (
    PiecewisePolynomial,
    Polynomial,
    constant,
    from_polynomial,
    is_nonnegative_on,
    kfold_antiderivative,
)
from .scalars import EXACT, Scalar, format_rational, parse_rational


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


@dataclass(frozen=True)
class PolyWeight:
    poly: Polynomial

    kind = "poly"
    outside_theorem_scope = False
    exact_capable = property(lambda self: self.poly.mode == EXACT)  # float coefficients

    def __post_init__(self):
        if self.poly.mode == EXACT:
            if not is_nonnegative_on(self.poly, Fraction(0), Fraction(1)):
                raise WeightDomainError("polynomial weight is negative on [0, 1]")
        else:
            lows = min(self.poly.eval_float(i / 1000) for i in range(1001))
            if lows < -1e-12:
                raise WeightDomainError(
                    f"polynomial weight dips to {lows:.3e} on [0, 1]"
                )

    def format(self) -> str:
        return f"poly:{format_poly(self.poly)}"


@dataclass(frozen=True)
class PiecewiseWeight:
    pp: PiecewisePolynomial

    kind = "pw"
    outside_theorem_scope = False
    exact_capable = property(lambda self: self.pp.mode == EXACT)

    def __post_init__(self):
        for (a, b), p in zip(
            zip(self.pp.breakpoints, self.pp.breakpoints[1:]), self.pp.pieces
        ):
            if self.pp.mode == EXACT:
                if not is_nonnegative_on(p, a, b):
                    raise WeightDomainError(
                        f"piecewise weight is negative on [{a}, {b}]"
                    )
            else:
                af, bf = float(a), float(b)
                lows = min(
                    p.eval_float(af + (bf - af) * i / 1000) for i in range(1001)
                )
                if lows < -1e-12:
                    raise WeightDomainError("piecewise weight is negative")

    def format(self) -> str:
        parts = []
        for (a, b), p in zip(
            zip(self.pp.breakpoints, self.pp.breakpoints[1:]), self.pp.pieces
        ):
            parts.append(
                f"[{format_rational(a)},{format_rational(b)}]={format_poly(p)}"
            )
        return "pw:" + ";".join(parts)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
            pieces.append(constant(h if inside else Fraction(0), EXACT))
        return PiecewisePolynomial(cuts, pieces)
    raise UnsupportedWeightError(f"{rho.kind} weight has no piecewise-polynomial form")


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
            d = p.compose_affine(-1, 1).coeffs
            lo, hi = 1 - b, 1 - a
            lo_pow, hi_pow = lo**k, hi**k
            for m in range(k):
                lo_e, hi_e = lo_pow, hi_pow
                for i, c in enumerate(d):
                    lo_e, hi_e = lo_e * lo, hi_e * hi
                    totals[m] += c * (hi_e - lo_e) / (k + m + i + 1)
                lo_pow, hi_pow = lo_pow * lo, hi_pow * hi
        values = [sign * t for t in totals]
    return MomentVector(k, tuple(values))


@dataclass(frozen=True)
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
        # sifting: I(x) = (x - a)^(k-1)/(k-1)! for x >= a, else 0
        a = rho.a
        shifted = Polynomial([1], EXACT)
        for _ in range(k - 1):
            shifted = shifted * Polynomial([-a, 1], EXACT)
        shifted = shifted.scale(Fraction(1, factorial(k - 1)))
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
# multiplying out: poly:(1+x)^256 solves in ~3.5 s at k = 60
MAX_DEGREE = 256


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
            tokens.append(("num", parse_rational(m.group()), base + i))
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
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def check_degree(degree: int, position: int):
        if degree > MAX_DEGREE:
            raise WeightSyntaxError(f"degree {degree} exceeds {MAX_DEGREE}", position)

    def parse_term() -> Polynomial:
        node = parse_power()
        while peek()[0] == "*":
            position = take()[2]
            rhs = parse_power()
            check_degree(node.degree + rhs.degree, position)
            node = node * rhs
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
                result = result * node
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
    value = parse_rational(text)
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
