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
    """Canonical "p/q" rendering (plain integer when q == 1)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
