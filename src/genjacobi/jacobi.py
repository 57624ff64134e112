"""Classical Jacobi polynomials with exact rational parameters.

Two independent construction routes are provided: the terminating
hypergeometric sum (primary) and the three-term recurrence (oracle).  They
must agree coefficient for coefficient; the test suite enforces this.

The hypergeometric sum is a sum in powers of t = x - 1.  _jacobi_hyp keeps
those coefficients, as integers over one denominator, and is the one cached
source of them: jacobi_poly makes one Taylor shift of them into powers of x,
and the generalized blocks of genjacobi are built from the same data.

Parameters stay rational (not just integer) because the differentiation
identities shift them by one in each direction and the polynomials remain
exact for any rational parameter > -1.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from . import kernel
from .algebra import InvalidParam, Poly, RationalLike, as_rational, nonneg_int


def _checked(n: int, gamma: RationalLike, delta: RationalLike) -> tuple:
    """(gamma, delta) as Fractions for the weight (1-x)^gamma (1+x)^delta;
    InvalidParam unless n is a nonnegative int and both exponents exceed -1."""
    nonneg_int("polynomial index", n)
    g, d = as_rational(gamma), as_rational(delta)
    if g <= -1:
        raise InvalidParam(f"gamma must exceed -1, got {g}")
    if d <= -1:
        raise InvalidParam(f"delta must exceed -1, got {d}")
    return g, d


def jacobi_poly(n: int, gamma: RationalLike, delta: RationalLike) -> Poly:
    """Degree-n Jacobi polynomial for weight exponents (gamma, delta).

    Evaluates the terminating hypergeometric sum exactly.  The leading
    coefficient is (n+gamma+delta+1)_n / (2^n n!).
    """
    nums, den = _jacobi_hyp(n, *_checked(n, gamma, delta))
    return Poly._norm(kernel.taylor_shift(nums), den)


@lru_cache(maxsize=8192)
def _jacobi_hyp(n: int, gamma: Fraction, delta: Fraction) -> tuple:
    """(nums, den) with P_n^(gamma, delta) = sum_k nums[k] t^k / den, t = x - 1,
    not reduced.  gamma and delta may also be ints."""
    # (gamma+1)_n / n! * sum_k (-n)_k (n+gamma+delta+1)_k / ((gamma+1)_k k!) (-t/2)^k.
    # Folding the prefactor in, term k is C(n,k) (n+gamma+delta+1)_k
    # (gamma+k+1)_(n-k) / n! * (t/2)^k.  With gamma = g/q and delta = d/q
    # both Pochhammer products run over integers and share the denominator
    # q^n, so the sum is accumulated in integers over q^n n! 2^n.
    q = lcm(gamma.denominator, delta.denominator)
    g, d = int(gamma * q), int(delta * q)
    s = n * q + g + d + q
    suffix = [1] * (n + 1)          # suffix[k] = prod_{k <= i < n} (g + (i+1) q)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * (g + (i + 1) * q)
    coeffs = []
    prefix = 1                      # prod_{i < k} (s + i q)
    for k in range(n + 1):
        coeffs.append(comb(n, k) * prefix * suffix[k] << (n - k))
        prefix *= s + k * q
    return tuple(coeffs), q ** n * factorial(n) << n


def jacobi_recurrence(n: int, gamma: RationalLike, delta: RationalLike) -> Poly:
    """Same polynomial via the three-term recurrence (independent oracle)."""
    g, d = _checked(n, gamma, delta)
    prev = Poly.one()
    if n == 0:
        return prev
    cur = Poly([(g - d) / 2, (g + d + 2) / 2])
    for m in range(2, n + 1):
        a = 2 * m * (m + g + d) * (2 * m + g + d - 2)
        b_x = (2 * m + g + d - 1) * (2 * m + g + d) * (2 * m + g + d - 2)
        b_1 = (2 * m + g + d - 1) * (g * g - d * d)
        c = 2 * (m + g - 1) * (m + d - 1) * (2 * m + g + d)
        nxt = (Poly([b_1, b_x]) * cur - c * prev) * (Fraction(1) / a)
        prev, cur = cur, nxt
    return cur
