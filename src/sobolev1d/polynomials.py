"""Dense polynomial and piecewise-polynomial algebra on [0, 1].

Every polynomial here is exact.  It is stored as integer numerators over
one positive denominator, in lowest terms with trailing zeros stripped: the
fraction-free form (von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 6).  The numerators are kept as the interpreter's ``marshal`` encoding
of their tuple, written and read back in C.  The form and its encoding are
canonical, so equality and hashing read the bytes directly.  Arithmetic,
evaluation at rational points, integrals of products, root stripping and
the Bernstein certificate of strict positivity run on the decoded integers,
with one gcd per result rather than one per coefficient.  Sturm sequences
(the certificate's fallback, and the non-negativity test of weights) are
built by :func:`poly_divmod`, which divides the Fraction coefficients
``coeffs``, the read-only coefficient view built on each access.  A float
coefficient raises :class:`ModeMismatchError` when the polynomial is built.

There is no float polynomial.  A float sampled from an exact value is its
rounding: ``float(p(Fraction(x)))``, or :func:`pp_grid_values_exact` on a
grid.  ``eval_float`` and :func:`pp_values_at` run Horner over rounded
coefficients instead; they sample weights for the numerical oracles, and
at high degree their values differ from the rounding of the exact ones.

Piecewise polynomials carry strictly increasing breakpoints from 0 to 1 with
one polynomial per interval; the constructor validates them, and rebuilds
on an existing instance's breakpoints reuse them.  Continuity is
deliberately not an invariant: derivatives of point-mass extremizers jump.

Exact values other than polynomials enter integer arithmetic through
:func:`integer_form`.
"""

from __future__ import annotations

import marshal
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, factorial, gcd, lcm, perm
from operator import index
from typing import Callable, Iterable, Sequence

from .scalars import ModeMismatchError, Scalar, coerce


class Polynomial:
    """Immutable exact dense polynomial sum(c[i] * x**i).

    c[i] = nums[i] / den with integer ``nums``, den > 0, no common factor of
    den and all of nums, and no trailing zero in nums; the zero polynomial
    is ``nums == ()`` with den 1.  The numerators are held as the bytes of
    ``marshal.dumps(nums, 2)``, a fraction of the memory of a tuple of int
    objects, with their count in ``_size``.  Version 2 writes no
    back-references and one encoding per int, so equal numerators give equal
    bytes.
    """

    __slots__ = ("_data", "_size", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # ints stay as they are: integer_form reads their numerator and
        # denominator like a Fraction's
        coeffs = [c if type(c) is int else coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # the least common denominator of reduced fractions leaves no
        # common factor, so integer_form is already in lowest terms
        _store(self, *integer_form(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def nums(self) -> tuple:
        """The integer numerators over den."""
        return marshal.loads(self._data)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, ascending, as Fractions built on each access."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def float_coeffs(self) -> list:
        """[float(c) for c in self.coeffs], each a correctly rounded
        int / int division."""
        den = self.den
        return [c / den for c in self.nums]

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) == -1."""
        return self._size - 1

    def is_zero(self) -> bool:
        return not self._size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.den == other.den
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self._data, self.den))

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = " + ".join(f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if c != 0)
        return f"Polynomial({terms})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = [c * fa for c in self.nums], [c * fb for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return exact_polynomial(a, den)

    def __neg__(self) -> "Polynomial":
        return _make(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a = self.nums
        b = a if other is self else other.nums
        return _make(*integer_product(a, self.den, b, other.den))

    def scale(self, c: Scalar) -> "Polynomial":
        c = coerce(c)
        if not c or self.is_zero():
            return Polynomial(())
        # with nums/den and c = p/q both in lowest terms, the product's only
        # common factors are gcd(p, den) and gcd(q, nums)
        nums = self.nums
        g1, g2 = gcd(c.numerator, self.den), gcd(c.denominator, *nums)
        p = c.numerator // g1
        nums = [a // g2 * p for a in nums] if g2 > 1 else [a * p for a in nums]
        return _make(tuple(nums), self.den // g1 * (c.denominator // g2))

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """Return x -> p(a*x + b).

        With b = s/t and n = deg p, the integers nums[i] t^(n-i) are the
        coefficients of t^n den p(y/t), and one Taylor shift by s makes them
        those of t^n den p(b + y/t); y = t a x then multiplies the y^i
        coefficient by (t a)^i, over den t^n times a power of a's
        denominator.
        """
        a = coerce(a)
        b = coerce(b)
        if self.is_zero():
            return self
        n = self.degree
        s, t = b.numerator, b.denominator
        h = [c * t ** (n - i) for i, c in enumerate(self.nums)]
        taylor_shift(h, s)
        ta = t * a
        p, q = ta.numerator, ta.denominator
        out = [c * p**i * q ** (n - i) for i, c in enumerate(h)]
        return exact_polynomial(out, self.den * t**n * q**n)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "Polynomial":
        out = [c * i for i, c in enumerate(self.nums)][1:]
        return exact_polynomial(out, self.den)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative P with P(0) = 0."""
        return exact_polynomial(*_integer_antiderivative(self.nums, self.den))

    def integrate(self, lo: Scalar, hi: Scalar) -> Fraction:
        """Exact definite integral over [lo, hi]."""
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    def __call__(self, x: Scalar) -> Fraction:
        x = coerce(x)
        value, scale = _homogeneous_horner(self.nums, x.numerator, x.denominator)
        return Fraction(value, self.den * scale)

    def eval_float(self, x: float) -> float:
        """Horner over the rounded coefficients, for sampling weights and a
        power weight's u; at high degree it differs from float(p(x))."""
        acc = 0.0
        for c in reversed(self.float_coeffs()):
            acc = acc * x + c
        return acc


def _store(p: Polynomial, nums: Sequence[int], den: int) -> None:
    object.__setattr__(p, "_data", marshal.dumps(tuple(nums), 2))
    object.__setattr__(p, "_size", len(nums))
    object.__setattr__(p, "den", den)


def _make(nums: tuple, den) -> Polynomial:
    """An exact polynomial from a representation already in canonical form."""
    p = object.__new__(Polynomial)
    _store(p, nums, den)
    return p


def exact_polynomial(nums: Sequence[int], den: int) -> Polynomial:
    """The exact polynomial sum(nums[i] / den * x**i) for integers nums and
    den > 0, reduced to lowest terms: the inverse of reading ``p.nums`` and
    ``p.den``.  The numerators are stored as plain ints: ``marshal`` would
    write a bool differently from the equal int."""
    return _make(*lowest_terms(list(map(index, nums)), den))


def lowest_terms(nums: list, den: int) -> tuple[tuple, int]:
    """The canonical form of nums/den (integers, den > 0): trailing zeros
    popped from nums, then the common factor divided out; zero is ((), 1)."""
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return (), 1
    common = gcd(den, *nums)
    if common > 1:
        nums = [c // common for c in nums]
        den //= common
    return tuple(nums), den


def _convolve(a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of the polynomials with coefficients a
    and b (both non-empty)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def integer_product(a: Sequence, a_den: int, b: Sequence, b_den: int) -> tuple[tuple, int]:
    """The product of a/a_den and b/b_den, both canonical, in canonical form.

    content(a b) = content(a) content(b) (Gauss's lemma), and each content
    is prime to its own denominator, so the product's common factor with
    a_den b_den is gcd(b_den, a) gcd(a_den, b).
    """
    if not a or not b:
        return (), 1
    common = gcd(b_den, *a) * gcd(a_den, *b)
    out = _convolve(a, b)
    if common > 1:
        out = [c // common for c in out]
    return tuple(out), a_den * b_den // common


def _integer_antiderivative(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """The antiderivative, vanishing at 0, of nums/den as integers over one
    denominator: with L = lcm(1..n), n = len(nums), c x^i integrates to
    (c L/(i+1)) x^(i+1) over den L."""
    scale = lcm(*range(1, len(nums) + 1))
    return [0] + [c * (scale // (i + 1)) for i, c in enumerate(nums)], den * scale


def _homogeneous_horner(nums: Sequence[int], s: int, t: int) -> tuple[int, int]:
    """(sum nums[i] s^i t^(n-i), t^n) with n = len(nums) - 1: the polynomial
    with integer coefficients nums at s/t is the first over the second.
    () gives (0, 1)."""
    acc = 0
    scale = 1
    for i in range(len(nums) - 1, -1, -1):
        acc = acc * s + nums[i] * scale
        scale *= t
    return acc, scale // t if nums else 1


def monomial(power: int) -> Polynomial:
    return Polynomial([0] * power + [1])


def constant(value: Scalar) -> Polynomial:
    return Polynomial([value])


def bridge_poly(k: int) -> Polynomial:
    """x**k (1-x)**k, the lowest-degree polynomial clamped to order k, from
    the binomial expansion of (1-x)**k."""
    return Polynomial([0] * k + [(-1) ** j * comb(k, j) for j in range(k + 1)])


def kfold_antiderivative(p: Polynomial | PiecewisePolynomial, m: int):
    """The m-fold antiderivative of a Polynomial or PiecewisePolynomial,
    equal to m successive ``antiderivative()`` calls, in one pass.

    A polynomial sum c_i x^i becomes sum c_i i!/(i+m)! x^(i+m).  On a
    piecewise polynomial each piece gets that plain term plus a correction
    of degree < m: the Taylor polynomial, at the piece's left breakpoint, of
    the previous piece's result minus the plain term, so that derivatives
    0..m-1 are continuous there (the first piece needs none, as every
    derivative of both vanishes at 0).  Each piece is handled in integer
    arithmetic over one denominator.
    """
    if isinstance(p, Polynomial):
        return exact_polynomial(*_plain_antiderivative(p, m))
    pieces = []
    prev = None  # the previous piece's result: (numerators, denominator)
    for a, q in zip(p.breakpoints, p.pieces):
        nums, den = _plain_antiderivative(q, m)
        if prev is not None:
            nums, den = _add_taylor_correction(nums, den, prev, a, m)
        prev = nums, den
        pieces.append(exact_polynomial(nums, den))
    return p._rebuild(pieces)


def _plain_antiderivative(p: Polynomial, m: int) -> tuple[list[int], int]:
    """sum c_i i!/(i+m)! x^(i+m) as integer numerators over one denominator:
    with c_i = N_i / D and n = deg p, the x^(i+m) numerator is
    N_i i! (n+m)!/(i+m)! over D (n+m)!."""
    n = p.degree
    if n < 0:
        return [], 1
    nums = [0] * m
    ratio = factorial(n + m) // factorial(m)  # i! (n+m)!/(i+m)! at i = 0
    for i, c in enumerate(p.nums):
        nums.append(c * ratio)
        ratio = ratio * (i + 1) // (i + m + 1)
    return nums, p.den * factorial(n + m)


def _add_taylor_correction(nums, den, prev, a: Fraction, m: int):
    """nums/den plus the degree < m Taylor polynomial at a of prev - nums/den.

    With G = prev - nums/den over L of degree n and a = s/t, the integer
    polynomial t^n L G((s + y)/t) is a Taylor shift by s, of which only the
    m passes that settle h_0..h_(m-1) run; those coefficients below y^m
    give G's Taylor part as sum h_r (t x - s)^r / (t^n L),
    and a shift of h_0..h_(m-1) by -s gives its x^r coefficient e_r over
    t^(n-r) L.  The sum is reduced by the gcd of all its integers.
    """
    g, big = integer_difference(prev, (nums, den))
    if not g:
        return nums, den
    fq = big // den
    n = len(g) - 1
    s, t = a.numerator, a.denominator
    t_pow = [t**i for i in range(n + 1)]
    h = [c * t_pow[n - i] for i, c in enumerate(g)]
    taylor_shift(h, s, m)
    e = h[:m]
    taylor_shift(e, -s)
    out = [c * fq * t_pow[n] for c in nums] + [0] * (len(e) - len(nums))
    for r, c in enumerate(e):
        out[r] += c * t_pow[r]
    out_den = big * t_pow[n]
    common = gcd(out_den, *out)
    return [c // common for c in out], out_den // common


def integer_difference(a: tuple, b: tuple) -> tuple[list[int], int]:
    """a - b for polynomials given as (numerators, denominator), as integer
    numerators, with no trailing zero, over the lcm of the denominators."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    big = lcm(a_den, b_den)
    fa, fb = big // a_den, big // b_den
    g = [0] * max(len(a_nums), len(b_nums))
    for i, c in enumerate(a_nums):
        g[i] = c * fa
    for i, c in enumerate(b_nums):
        g[i] -= c * fb
    while g and g[-1] == 0:
        g.pop()
    return g, big


def integer_form(values: Sequence) -> tuple[list[int], int]:
    """Integers nums and den > 0 with values[i] == Fraction(nums[i], den),
    den the least common denominator of the exact values (ints or
    Fractions).  () gives ([], 1)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def derivatives_at_one(p: Polynomial, count: int) -> tuple[list[int], int]:
    """Integers nums and p.den with p^(j)(1) = nums[j] / p.den for j < count,
    for an exact p: nums[j] = sum_{i >= j} c_i i!/(i-j)! over the numerators.

    The falling factorials are stepped in integers: the i-th term picks up
    the factor (i - j) on the way from order j to order j + 1.
    """
    terms = p.nums
    out = []
    for j in range(count):
        out.append(sum(terms))
        terms = [c * (i - j) for i, c in enumerate(terms)]
    return out, p.den


def kth_derivative(p: Polynomial | PiecewisePolynomial, k: int):
    """The k-th derivative of a Polynomial or PiecewisePolynomial; a
    polynomial in one integer pass, c_i x^i -> c_i i!/(i-k)! x^(i-k)."""
    if isinstance(p, PiecewisePolynomial):
        return p.map_pieces(lambda q: kth_derivative(q, k))
    return exact_polynomial([c * perm(i, k) for i, c in enumerate(p.nums)][k:], p.den)


# ---------------------------------------------------------------------------
# Sturm sequences and exact sign certificates
# ---------------------------------------------------------------------------


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, num.degree - den.degree + 1)
    rem = list(num.coeffs)
    divisor = den.coeffs
    d = den.degree
    lead = divisor[-1]
    while len(rem) - 1 >= d and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        shift = len(rem) - 1 - d
        factor = rem[-1] / lead
        q[shift] = factor
        for i, c in enumerate(divisor):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial(q), Polynomial(rem)


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, rem = poly_divmod(chain[-2], chain[-1])
        chain.append(-rem)
    chain.pop()
    return chain


def _sign_variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_half_open(p: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi].  Requires p(lo) != 0."""
    if p(lo) == 0:
        raise ValueError("Sturm count needs a non-root left endpoint")
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def strip_root(p: Polynomial, c: Fraction) -> tuple[Polynomial, int]:
    """Divide out (x - c)**m where m is the multiplicity of the root c.

    In integers: with c = s/t in lowest terms, t x - s divides the integer
    numerators P exactly when c is a root, and then the quotient Q is
    integral (Gauss's lemma), so synthetic division top down,
    Q[i-1] = (P[i] + s Q[i]) / t, stops at the first inexact quotient or
    non-zero remainder P[0] + s Q[0]; at c = 1 they are the running sums
    from the top, with no division, the last one the remainder.  As
    x - c = (t x - s)/t, stripping m roots leaves t^m Q over p's denominator.
    """
    c = Fraction(c)
    s, t = c.numerator, c.denominator
    nums = p.nums
    if not s:
        # x^m divides p exactly when its m lowest numerators vanish
        m = next((i for i, v in enumerate(nums) if v), 0)
        return (_make(nums[m:], p.den), m) if m else (p, 0)
    m = 0
    if c == 1:
        top_down = nums[::-1]
        while top_down:
            *quotient, remainder = accumulate(top_down)
            if remainder:
                break
            top_down, m = quotient, m + 1
        nums = top_down[::-1]
    else:
        while nums:
            quotient = [0] * (len(nums) - 1)
            acc = nums[-1]
            for i in range(len(nums) - 1, 0, -1):
                q, r = divmod(acc, t)
                if r:
                    break
                quotient[i - 1] = q
                acc = nums[i - 1] + s * q
            else:
                if acc == 0:
                    nums = quotient
                    m += 1
                    continue
            break
    if not m:
        return p, 0
    scale = t**m
    return exact_polynomial([q * scale for q in nums], p.den), m


def is_positive_on_open(p: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Certified strict positivity of p on the open interval (lo, hi).

    Endpoint roots are divided out first; an interior root of any
    multiplicity disqualifies (a touching zero is not strict positivity).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero():
        return False
    q, _ = strip_root(p, lo)
    q, m_hi = strip_root(q, hi)
    # sign of the stripped endpoint factors on (lo, hi): (x-lo)^a > 0 and
    # (x-hi)^b has sign (-1)^b, so fold that sign into the test
    mid = (lo + hi) / 2
    if q(mid) * ((-1) ** m_hi) <= 0:
        return False
    # q(hi) != 0 once stripped, so no root counted in (lo, hi] is at hi
    return count_roots_half_open(q, lo, hi) == 0


def isolate_roots(p: Polynomial, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b] each holding one distinct root of
    p in (lo, hi), for p non-zero at lo and hi.

    One Sturm chain serves every count.  No interval boundary is a root: a
    bisection midpoint that is one moves halfway towards a, and p has at
    most deg p roots, so a non-root comes within deg p moves.
    """
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("isolate_roots needs non-root endpoints")
    chain = sturm_chain(p)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(a: Fraction, var_a: int, b: Fraction, var_b: int):
        # var_a - var_b distinct roots lie in (a, b]
        if var_a - var_b == 1:
            out.append((a, b))
        elif var_a - var_b > 1:
            mid = (a + b) / 2
            while p(mid) == 0:
                mid = (a + mid) / 2
            var_mid = _sign_variations(chain, mid)
            rec(a, var_a, mid, var_mid)
            rec(mid, var_mid, b, var_b)

    lo, hi = Fraction(lo), Fraction(hi)
    rec(lo, _sign_variations(chain, lo), hi, _sign_variations(chain, hi))
    return out


def is_nonnegative_on(p: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Certified p >= 0 on [lo, hi]; touching zeros are allowed.

    With lo >= 0 and no negative numerator, p is a sum of non-negative
    terms on [lo, hi].  Otherwise: strip endpoint roots, and isolate the
    distinct interior roots of the remainder q.  Its sign is constant
    between consecutive distinct roots, and each such stretch, the two
    outer ones included, holds lo, hi or a box boundary, none of them a
    root: so q >= 0 exactly when it is positive at all of those points.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero() or (lo >= 0 and all(c >= 0 for c in p.nums)):
        return True
    q, _ = strip_root(p, lo)
    q, m_hi = strip_root(q, hi)
    if m_hi % 2:
        # (x - hi)^m is negative on the interval for odd m; fold the sign in
        q = -q
    boxes = isolate_roots(q, lo, hi)
    return all(q(x) > 0 for x in {lo, hi, *[t for box in boxes for t in box]})


# ---------------------------------------------------------------------------
# Bernstein certificates
# ---------------------------------------------------------------------------

# Boxes one piece may examine before its certificate falls back to Sturm.
# A touching zero at an irrational point (x^2 - 1/2)^2 never certifies by
# subdivision, so the budget bounds the work and Sturm settles the rest.
BERNSTEIN_MAX_BOXES = 64


def taylor_shift(c: list[int], s: int, settle: int | None = None) -> None:
    """Turn the coefficients of p(x) into those of p(x + s), in place.

    Pass i of the shift fixes c[i] for good, so with ``settle`` = m only
    the first m passes run: c[:m] are those of p(x + s), the rest partial.
    """
    if not s:
        return
    n = len(c)
    for i in range(n - 1 if settle is None else min(n - 1, settle)):
        for j in range(n - 2, i - 1, -1):
            c[j] += s * c[j + 1]


def bernstein_coefficients(p: Polynomial, lo: Fraction, hi: Fraction) -> list[int]:
    """Bernstein coefficients of p on [lo, hi], times one positive constant.

    The scaling keeps them integers and leaves their signs and de Casteljau
    subdivision intact.  The first and last equal p(lo) and p(hi) times that
    constant.
    """
    n = p.degree
    if n < 0:
        return [0]
    coeffs = p.nums
    (a, b), d = integer_form((lo, hi))
    # d^n p(y / d) in y, then y = a + (b - a) t: d^n p(lo + (hi - lo) t)
    c = [coef * d ** (n - i) for i, coef in enumerate(coeffs)]
    taylor_shift(c, a)
    w = b - a
    c = [ci * w**i for i, ci in enumerate(c)]
    # sum_i c_i t^i (1 + t)^(n - i) carries the coefficients binom(n, j) beta_j
    c.reverse()
    taylor_shift(c, 1)
    c.reverse()
    return [cj * factorial(j) * factorial(n - j) for j, cj in enumerate(c)]


def _de_casteljau_halves(beta: list[int]) -> tuple[list[int], list[int]]:
    """Bernstein coefficients of both halves, all scaled by 2^deg."""
    n = len(beta) - 1
    left, right = [beta[0] << n], [beta[-1] << n]
    row = beta
    for r in range(1, n + 1):
        row = [x + y for x, y in zip(row, row[1:])]
        left.append(row[0] << (n - r))
        right.append(row[-1] << (n - r))
    right.reverse()
    return left, right


def bernstein_positive(beta: list[int]) -> bool | None:
    """Positivity on the closed interval from Bernstein coefficients ``beta``.

    All coefficients > 0 certify a box (convex hull property); a box whose
    first or last coefficient, a value of the polynomial, is <= 0 refutes
    it; anything else is halved.  Returns None when BERNSTEIN_MAX_BOXES
    boxes leave the question open.
    """
    boxes = [beta]
    for _ in range(BERNSTEIN_MAX_BOXES):
        beta = boxes.pop()
        if beta[0] <= 0 or beta[-1] <= 0:
            return False
        if any(c <= 0 for c in beta):
            boxes.extend(_de_casteljau_halves(beta))
        if not boxes:
            return True
    return None


# ---------------------------------------------------------------------------
# Piecewise polynomials
# ---------------------------------------------------------------------------


class PiecewisePolynomial:
    """Breakpoints 0 = t_0 < ... < t_n = 1 with one exact polynomial per
    piece.

    Evaluation at an interior breakpoint uses the right piece; the last
    interval is closed at 1.  A solve's u is one in both output modes;
    floats sampled from it round exact values.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence[Scalar], pieces: Sequence[Polynomial]):
        breakpoints = tuple(breakpoints)
        pieces = tuple(pieces)
        if len(breakpoints) < 2 or len(pieces) != len(breakpoints) - 1:
            raise ValueError("need n+1 breakpoints for n pieces")
        if not all(isinstance(p, Polynomial) for p in pieces):
            raise ModeMismatchError("pieces must be exact Polynomials")
        breakpoints = tuple(coerce(b) for b in breakpoints)
        if breakpoints[0] != 0 or breakpoints[-1] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "pieces", pieces)

    def _rebuild(self, pieces: Sequence[Polynomial]) -> "PiecewisePolynomial":
        """New pieces on this instance's breakpoints: they are already
        validated, so the tuple is reused as it is."""
        pp = object.__new__(PiecewisePolynomial)
        object.__setattr__(pp, "breakpoints", self.breakpoints)
        object.__setattr__(pp, "pieces", tuple(pieces))
        return pp

    def __setattr__(self, name, value):
        raise AttributeError("PiecewisePolynomial is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewisePolynomial)
            and self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        return f"PiecewisePolynomial({len(self.pieces)} pieces on {self.breakpoints})"

    def piece_index(self, x: Scalar) -> int:
        if not 0 <= x <= 1:
            raise ValueError(f"point {x} outside [0, 1]")
        lo, hi = 0, len(self.pieces)
        bp = self.breakpoints
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if x >= bp[mid]:
                lo = mid
            else:
                hi = mid
        return lo

    def __call__(self, x: Scalar) -> Fraction:
        return self.pieces[self.piece_index(x)](x)

    def eval_float(self, x: float) -> float:
        return self.pieces[self.piece_index(x)].eval_float(x)

    def map_pieces(self, f: Callable[[Polynomial], Polynomial]) -> "PiecewisePolynomial":
        """f applied to every piece."""
        return self._rebuild([f(p) for p in self.pieces])

    def add_polynomial(self, q: Polynomial) -> "PiecewisePolynomial":
        return self.map_pieces(lambda p: p + q)

    def scale(self, c: Scalar) -> "PiecewisePolynomial":
        return self.map_pieces(lambda p: p.scale(c))

    def derivative(self) -> "PiecewisePolynomial":
        return self.map_pieces(lambda p: p.derivative())

    def antiderivative(self) -> "PiecewisePolynomial":
        """Continuous antiderivative F with F(0) = 0 (constants accumulate)."""
        pieces = []
        carry = Fraction(0)
        for (a, b), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            anti = p.antiderivative()
            shift = carry - anti(a)
            pieces.append(anti + constant(shift))
            carry = pieces[-1](b)
        return self._rebuild(pieces)

    def integrate01(self) -> Fraction:
        total = Fraction(0)
        for (a, b), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            total += p.integrate(a, b)
        return total

    def square_integral01(self) -> Fraction:
        return pp_integrate_product(self, self)


def from_polynomial(p: Polynomial) -> PiecewisePolynomial:
    return PiecewisePolynomial([0, 1], [p])


def _refinement(f: PiecewisePolynomial, g: PiecewisePolynomial) -> tuple[list, list]:
    """The breakpoints of the common refinement of f's and g's partitions,
    and the pair of f's and g's pieces on each of its intervals."""
    if f.breakpoints == g.breakpoints:
        return f.breakpoints, list(zip(f.pieces, g.pieces))
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    pairs = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        pairs.append((f.pieces[f.piece_index(mid)], g.pieces[g.piece_index(mid)]))
    return cuts, pairs


def integrate_product(p: Polynomial, q: Polynomial, lo: Scalar, hi: Scalar) -> Fraction:
    """The exact integral of p q over [lo, hi].

    The convolution of the integer numerators integrates, over p.den q.den
    lcm(1..N) (N = deg p + deg q + 1), to integer coefficients G;
    homogeneous Horner gives G at lo = s/t and hi = S/T as integers over
    t^N and T^N, so the integral is one Fraction.
    """
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    a = p.nums
    g, den = _integer_antiderivative(
        _convolve(a, a if q is p else q.nums), p.den * q.den
    )
    lo, hi = Fraction(lo), Fraction(hi)
    top, top_scale = _homogeneous_horner(g, hi.numerator, hi.denominator)
    bottom, bottom_scale = _homogeneous_horner(g, lo.numerator, lo.denominator)
    return Fraction(
        top * bottom_scale - bottom * top_scale, den * top_scale * bottom_scale
    )


def pp_integrate_product(f: PiecewisePolynomial, g: PiecewisePolynomial) -> Fraction:
    """The integral of f g over [0, 1], by integrate_product on each
    interval of the refined partition."""
    cuts, pairs = _refinement(f, g)
    return sum(
        integrate_product(p, q, a, b) for a, b, (p, q) in zip(cuts, cuts[1:], pairs)
    )


def pp_mul(f: PiecewisePolynomial, g: PiecewisePolynomial) -> PiecewisePolynomial:
    cuts, pairs = _refinement(f, g)
    return PiecewisePolynomial(cuts, [p * q for p, q in pairs])


def pp_equal(f: PiecewisePolynomial, g: PiecewisePolynomial) -> bool:
    """f == g as functions on [0, 1]: pieces are canonical, so equal ones
    are == on every interval of the refined partition."""
    _, pairs = _refinement(f, g)
    return all(p == q for p, q in pairs)


def pp_positive_on_open01(pp: PiecewisePolynomial) -> bool:
    """Certified u > 0 on (0, 1) for an exact piecewise polynomial: the
    maximum-principle oracle's certificate (a solve's extremizer is
    certified by Boggio's theorem instead, in ``solver``).

    Bernstein certificate with Sturm fallback: each piece, with its endpoint
    roots divided out, is tested in Bernstein form under de Casteljau
    subdivision; a piece that exhausts the box budget is settled by
    :func:`is_positive_on_open`.  A root at an interior breakpoint refutes;
    else a piece positive inside is positive there, so no value is read.
    """
    cuts, pieces = pp.breakpoints, pp.pieces
    n = len(pieces)
    for i, p in enumerate(pieces):
        lo, hi = cuts[i], cuts[i + 1]
        q, m_hi = strip_root(p, hi)
        q, m_lo = strip_root(q, lo)
        if (m_lo and i > 0) or (m_hi and i < n - 1):
            return False
        # (x - hi)^m has sign (-1)^m on (lo, hi); the stripped q is non-zero at
        # both ends, so q * (-1)^m > 0 on the open interval iff on the closed one
        beta = bernstein_coefficients(q, lo, hi)
        verdict = bernstein_positive([-c for c in beta] if m_hi % 2 else beta)
        if verdict is None:
            verdict = is_positive_on_open(p, lo, hi)
        if not verdict:
            return False
    return True


def pp_min_on_grid(pp: PiecewisePolynomial, n: int = 4096) -> float:
    """Float minimum over the interior grid points i/n, 0 < i < n; each
    sample equals pp.eval_float(i / n) bit for bit."""
    return min(pp_grid_values(pp, n)[1:-1], default=float("inf"))


def pp_grid_values(pp: PiecewisePolynomial, n: int) -> list:
    """[pp.eval_float(i / n) for i in range(n + 1)] by pp_values_at."""
    return pp_values_at(pp, [i / n for i in range(n + 1)])


def pp_values_at(pp: PiecewisePolynomial, x: Sequence[float]) -> list:
    """[pp.eval_float(t) for t in x] bit for bit, for increasing floats x
    in [0, 1]: the one float sampler of piecewise polynomials.

    A point belongs to the last piece whose left breakpoint is <= it, as
    piece_index decides; float-Fraction comparisons are exact, so bisection
    cuts x where piece_index switches.  Each piece's coefficients are
    converted once, and Horner over them is eval_float's loop.  A piece
    that owns no point is never converted, as eval_float would not.
    """
    cuts = [bisect_left(x, t) for t in pp.breakpoints[1:-1]]
    out = []
    for p, lo, hi in zip(pp.pieces, [0, *cuts], [*cuts, len(x)]):
        if lo < hi:
            coeffs = p.float_coeffs()[::-1]
            for t in x[lo:hi]:
                acc = 0.0
                for c in coeffs:
                    acc = acc * t + c
                out.append(acc)
    return out


def pp_grid_values_exact(pp: PiecewisePolynomial, n: int) -> list:
    """[float(pp(Fraction(i, n))) for i in range(n + 1)] in integer arithmetic.

    Each piece takes the indices whose exact point i/n lies in it, as
    piece_index decides.  With its coefficients over one denominator D
    (p.nums over p.den), a degree-d piece is sum_j a_j i^j n^(d-j) / (D n^d) at
    i/n: an integer Horner sum over one integer denominator.  int / int is
    correctly rounded, so every value equals the float of the exact rational.
    """
    out = []
    # first index of each later piece: the smallest i with i/n >= t
    cuts = [ceil(t * n) for t in pp.breakpoints[1:-1]]
    for p, lo, hi in zip(pp.pieces, [0, *cuts], [*cuts, n + 1]):
        if lo >= hi:
            continue
        d = max(p.degree, 0)
        nums, den = p.nums, p.den
        scaled = [c * n ** (d - j) for j, c in enumerate(nums)]
        den *= n**d
        scaled.reverse()
        for i in range(lo, hi):
            acc = 0
            for c in scaled:
                acc = acc * i + c
            out.append(acc / den)
    return out

