"""Scalar modes: exact rationals or IEEE doubles.

Exact mode uses :class:`fractions.Fraction` (arbitrary-precision, reduced,
positive denominator); every solve computes in it.  Float mode uses plain
``float``: a solve's output format and the arithmetic of the numerical
oracles.  Binary operations between objects of different modes are rejected
rather than silently coerced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

EXACT = "exact"
FLOAT = "float"

Scalar = Union[Fraction, float]


class ModeMismatchError(TypeError):
    """Raised when exact and float operands meet in one operation."""


def mode_of(value) -> str:
    """Return the arithmetic mode of a scalar value."""
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, (int, Fraction)):
        return EXACT
    raise TypeError(f"not a scalar: {value!r}")


def coerce(value, mode: str) -> Scalar:
    """Coerce ``value`` into the given mode.

    Integers are valid in both modes.  Floats are rejected in exact mode
    (there is no safe implicit promotion of a rounded value to an exact one).
    """
    if mode == EXACT:
        if isinstance(value, float):
            raise ModeMismatchError(
                f"float value {value!r} cannot enter an exact computation"
            )
        return Fraction(value)
    if mode == FLOAT:
        return float(value)
    raise ValueError(f"unknown mode {mode!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal or rational literal into an exact Fraction.

    Decimal literals are exact: ``"0.3"`` becomes 3/10, not the nearest
    double.  Rational literals use a slash: ``"48/5"``.
    """
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" rendering (plain integer when q == 1), for integers
    of any length."""
    value = Fraction(value)
    num = _format_integer(value.numerator)
    if value.denominator == 1:
        return num
    return f"{num}/{_format_integer(value.denominator)}"


# Digits of one chunk: far below the interpreter's int -> str digit limit
# (4300 by default), which this conversion leaves as it is.
_CHUNK_DIGITS = 1000


def _format_integer(n: int, width: int = 0) -> str:
    """Decimal digits of n, zero-padded to ``width``, for any length.

    Larger integers are split in two by a power of ten, high and low halves
    converted alike, until each chunk has about _CHUNK_DIGITS digits.
    """
    if n < 0:
        return "-" + _format_integer(-n)
    digits = n.bit_length() * 30103 // 100000 + 1  # log10(2) ~ 0.30103
    if digits <= _CHUNK_DIGITS:
        return str(n).zfill(width)
    half = digits // 2
    high, low = divmod(n, 10**half)
    return _format_integer(high, width - half) + _format_integer(low, half)
