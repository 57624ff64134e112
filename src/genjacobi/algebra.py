"""Exact rational scalars and dense univariate polynomial arithmetic.

Scalars are stdlib ``fractions.Fraction`` values (arbitrary-precision,
always normalized).  A :class:`Poly` is a dense polynomial in one variable x
with rational coefficients, stored as an integer coefficient vector over a
single positive denominator:

    p(x) = (nums[0] + nums[1]*x + ... + nums[d]*x^d) / den

with gcd(nums..., den) == 1 and no trailing zero coefficient (the zero
polynomial has an empty vector).  The shared denominator keeps the hot loops
(convolution, scaled addition, gcd normalization) in pure integer arithmetic;
those loops live in :mod:`genjacobi.kernel`.

There is no floating point anywhere: every operation is exact, and exact
division fails loudly when the remainder is nonzero.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm, prod
from typing import Iterable, Union

from . import kernel

Rational = Fraction
RationalLike = Union[int, Fraction, str]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class InvalidParam(ValueError):
    """A parameter is outside the domain of the requested operation."""


def nonneg_int(name: str, value, least: int = 0) -> int:
    """value, if it is an int (not a bool) >= least; else InvalidParam.
    The one check of every index, length, bound and count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        want = "a nonnegative integer" if least == 0 else f"an integer >= {least}"
        raise InvalidParam(f"{name} must be {want}, got {value!r}")
    return value


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction.

    Floats are rejected: they would silently break exactness.  So are
    bools, although a bool is an int: True is a flag, not the rational 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise InvalidParam(f"not an exact rational: {value!r} (bools are not accepted)")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InvalidParam(f"not an exact rational: {value!r} (floats are not accepted)")


@lru_cache(maxsize=4096, typed=True)
def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Shifted factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1.

    For a = p/q this is (p)(p+q)...(p+(k-1)q) / q^k, one integer product.
    The cache is typed, so a float argument is never served an int's entry.
    """
    nonneg_int("pochhammer k", k)
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    return Fraction(prod(range(p, p + k * q, q)), q ** k)


def _canonical(nums: list, den: int) -> tuple:
    """Normalize a raw (nums, den) pair to the class invariant."""
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return (), 1
    if den < 0:
        den = -den
        nums = [-n for n in nums]
    g = gcd(kernel.vec_gcd(nums), den)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    return tuple(nums), den


def derive_nums(nums, k: int) -> list:
    """Integer coefficients of the k-th derivative of sum nums[i] x^i."""
    return [nums[i] * perm(i, k) for i in range(k, len(nums))]


def exact_quotient(nums: list, den: int, d: "Poly") -> tuple:
    """(q, qden) with q / qden == (nums / den) / d exactly, for a nonempty
    integer vector nums with a nonzero last entry and a nonzero d;
    NotDivisible otherwise.

    Integer synthetic division: the numerators are scaled by lead**m (lead =
    the divisor's leading numerator, m = the number of quotient terms), so
    every step r[i] // lead is exact.  The quotient is not normalized.
    """
    dn = d.nums
    dd = len(dn) - 1
    if len(nums) <= dd:
        raise NotDivisible(f"degree {len(nums) - 1} < divisor degree {dd}")
    lead = dn[-1]
    scale = lead ** (len(nums) - dd)
    r = [n * scale for n in nums]
    q = [0] * (len(r) - dd)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i]
        if c:
            c //= lead
            q[i - dd] = c
            for j in range(dd + 1):
                r[i - dd + j] -= c * dn[j]
    if any(r[:dd]):
        raise NotDivisible(
            f"remainder {Poly._norm(r[:dd], scale * den)!r} dividing by {d!r}")
    if d.den != 1:
        q = [c * d.den for c in q]
    return q, scale * den


class Poly:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums, den = _canonical(nums, den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, nums: tuple, den: int) -> "Poly":
        """Trusted constructor: (nums, den) must already be canonical."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "nums", nums)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def _norm(cls, nums: list, den: int) -> "Poly":
        return cls._raw(*_canonical(nums, den))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly._raw, (self.nums, self.den))

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw((), 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw((1,), 1)

    @classmethod
    def x(cls) -> "Poly":
        return cls._raw((0, 1), 1)

    @classmethod
    def monomial(cls, k: int, c: RationalLike = 1) -> "Poly":
        """c * x^k."""
        nonneg_int("monomial degree", k)
        c = as_rational(c)
        if c == 0:
            return cls.zero()
        return cls._raw((0,) * k + (c.numerator,), c.denominator)

    # ---------------- inspection ----------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (0 beyond the degree)."""
        if nonneg_int("coefficient index", k) < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Poly([other])
        return NotImplemented           # a bool compares unequal, as a float does

    # ---------------- arithmetic ----------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = gcd(self.den, other.den)
        den = self.den // g * other.den
        nums = kernel.add_scaled(self.nums, other.den // g, other.nums, self.den // g)
        return Poly._norm(nums, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly.zero()
            nums = kernel.conv(self.nums, other.nums)
            return Poly._norm(nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            s = as_rational(other)
            if s == 0 or self.is_zero:
                return Poly.zero()
            return Poly._norm([n * s.numerator for n in self.nums], self.den * s.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        nonneg_int("polynomial power", k)
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return self.exact_div(other)
        if isinstance(other, (int, Fraction)):
            s = as_rational(other)
            if s == 0:
                raise ZeroDivisionError("division of Poly by zero scalar")
            return self * (1 / s)
        return NotImplemented

    def derive(self, k: int = 1) -> "Poly":
        """k-fold derivative (k = 0 is the identity)."""
        nonneg_int("derivative order", k)
        if k == 0:
            return self
        if k > self.degree:
            return Poly.zero()
        return Poly._norm(derive_nums(self.nums, k), self.den)

    def reflect(self) -> "Poly":
        """p(-x): negate odd-degree coefficients."""
        nums = tuple(-n if i & 1 else n for i, n in enumerate(self.nums))
        return Poly._raw(nums, self.den)

    def exact_div(self, d: "Poly") -> "Poly":
        """Quotient q with self == q * d exactly; NotDivisible otherwise."""
        if d.is_zero:
            raise ZeroDivisionError("division of Poly by zero polynomial")
        if self.is_zero:
            return Poly.zero()
        return Poly._norm(*exact_quotient(self.nums, self.den, d))

    def eval(self, x: RationalLike) -> Fraction:
        """Exact value at a rational point (integer Horner, one reduction)."""
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            x = as_rational(x)      # a float or bool is refused, even at x = 1 or -1
        if self.is_zero:
            return Fraction(0)
        if x == 1:
            return Fraction(sum(self.nums), self.den)
        if x == -1:
            return Fraction(sum(self.nums[::2]) - sum(self.nums[1::2]), self.den)
        p, q = x.numerator, x.denominator
        acc, qq = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qq
            qq *= q
        return Fraction(acc, self.den * q ** (len(self.nums) - 1))

    # ---------------- rendering ----------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.nums) - 1, -1, -1):
            c = Fraction(self.nums[k], self.den)
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if mag == 1:
                    body = xs
                elif mag.denominator == 1:
                    body = f"{mag}{xs}"
                else:
                    body = f"({format_rational(mag)}){xs}"
            parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly('{self}')"


def format_rational(value: RationalLike) -> str:
    """Exact rendering: 'p/q', or just 'p' when the denominator is 1."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# handy fixed polynomials
X_PLUS_1 = Poly([1, 1])
X_MINUS_1 = Poly([-1, 1])
X2_MINUS_1 = Poly([-1, 0, 1])


# the weights depend only on (alpha, beta), with exponents <= alpha+beta+3:
# fewer than 20 x 20 pairs for alpha, beta <= 8; typed, so 2.0 or True never
# hits the entry of 2 or 1
@lru_cache(maxsize=512, typed=True)
def endpoint_weight(p: int, q: int) -> Poly:
    """(x-1)^p (x+1)^q: the endpoint weight of every conjugated operator,
    bilinear form and weighted derivative, built once per exponent pair."""
    nonneg_int("endpoint_weight p", p)
    nonneg_int("endpoint_weight q", q)
    return X_MINUS_1 ** p * X_PLUS_1 ** q
