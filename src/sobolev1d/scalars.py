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


class Fresh:
    """A :func:`record` field default built anew for each instance, e.g.
    ``history: list = Fresh(list)``."""

    def __init__(self, factory):
        self.factory = factory


def record(cls=None, *, frozen: bool = True):
    """Class decorator making a value record of the annotated fields.

    Adds what ``dataclasses.dataclass`` would, from shared closures rather
    than source generated and compiled per class: an ``__init__`` taking the
    fields in order, positionally or by keyword, with the class attributes
    as defaults (a :class:`Fresh` default is called per instance), then
    ``__post_init__`` if the class has one; a ``repr`` listing the fields;
    and ``__eq__`` over the fields between instances of the exact same class.
    A frozen record also hashes by its fields and refuses assignment with
    an ``AttributeError`` (``__post_init__`` may still coerce a field with
    ``object.__setattr__``); a mutable one is unhashable.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    name = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    fresh = {n: d.factory for n, d in defaults.items() if isinstance(d, Fresh)}
    for n in fresh:
        delattr(cls, n)
    post_init = cls.__dict__.get("__post_init__")
    index = {n: i for i, n in enumerate(names)}
    plain = {n: d for n, d in defaults.items() if n not in fresh}

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{name}() takes {len(names)} positional arguments but "
                f"{len(args)} were given"
            )
        state = self.__dict__
        if len(args) < len(names):
            state.update(plain)
            for n, make in fresh.items():
                state[n] = make()
        state.update(zip(names, args))
        for key, value in kwargs.items():
            i = index.get(key)
            if i is None:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if i < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            state[key] = value
        if len(state) < len(names):
            missing = next(n for n in names if n not in state)
            raise TypeError(f"{name}() missing required argument: {missing!r}")
        if post_init is not None:
            post_init(self)

    def fields(self) -> tuple:
        return tuple(getattr(self, n) for n in names)

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a frozen {name}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a frozen {name}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for key, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{name}.{key}"
        setattr(cls, key, method)
    return cls


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
