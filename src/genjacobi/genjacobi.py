"""Generalized Jacobi polynomials: Jacobi weight plus endpoint point masses.

For integer weight exponents alpha, beta >= 0 and masses M, N >= 0 placed at
x = -1 and x = +1, the orthogonal polynomials are assembled from four
building blocks:

    gen_jacobi(n) = P_n + M*Q_n + N*R_n + M*N*S_n

where P_n is the classical Jacobi polynomial and Q_n, R_n, S_n are
parameter-shifted Jacobi polynomials times the endpoint factors (x+1),
(x-1), (x^2-1) with explicit rational coefficients.  Q_0, R_0, S_0, and S_1
are zero by convention, which keeps every operation total in n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                      X_PLUS_1, as_rational)
from .jacobi import jacobi_poly


@dataclass(frozen=True)
class Params:
    """Weight data: integer exponents alpha, beta and masses M, N >= 0."""

    alpha: int = 0
    beta: int = 0
    M: Fraction = Fraction(0)
    N: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParam(f"{name} must be a nonnegative integer, got {value!r}")
            if value < 0:
                raise InvalidParam(f"{name} must be a nonnegative integer, got {value}")
        for name in ("M", "N"):
            value = as_rational(getattr(self, name))
            if value < 0:
                raise InvalidParam(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)

    def swapped(self) -> "Params":
        """Mirror parameters under x -> -x: swap alpha/beta and M/N."""
        return Params(self.beta, self.alpha, self.N, self.M)


def rising(a: int, k: int) -> int:
    """Integer shifted factorial (a)_k = a(a+1)...(a+k-1) for k >= 0."""
    return prod(range(a, a + k))


def _check_n(n: int, least: int, what: str) -> None:
    if n < least:
        raise InvalidParam(f"{what} needs n >= {least}, got {n}")


def coeff_q(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x+1)-block, defined for n >= 1."""
    _check_n(n, 1, "coeff_q")
    return Fraction(rising(alpha + beta + 2, n) * rising(beta + 2, n - 1),
                    2 * factorial(n) * rising(alpha + 1, n - 1))


def coeff_r(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x-1)-block, defined for n >= 1."""
    _check_n(n, 1, "coeff_r")
    return Fraction(rising(alpha + beta + 2, n) * rising(alpha + 2, n - 1),
                    2 * factorial(n) * rising(beta + 1, n - 1))


def coeff_s(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x^2-1)-block, defined for n >= 2."""
    _check_n(n, 2, "coeff_s")
    return Fraction(rising(alpha + beta + 2, n) * rising(alpha + beta + 2, n + 1),
                    4 * (alpha + 1) * (beta + 1) * factorial(n - 1) * factorial(n))


def poly_Q(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = -1; zero polynomial for n = 0."""
    if n == 0:
        return Poly.zero()
    return coeff_q(n, alpha, beta) * X_PLUS_1 * jacobi_poly(n - 1, alpha, beta + 2)


def poly_R(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = +1; zero polynomial for n = 0."""
    if n == 0:
        return Poly.zero()
    return coeff_r(n, alpha, beta) * X_MINUS_1 * jacobi_poly(n - 1, alpha + 2, beta)


def poly_S(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at both endpoints; zero polynomial for n in {0, 1}."""
    if n <= 1:
        return Poly.zero()
    return coeff_s(n, alpha, beta) * X2_MINUS_1 * jacobi_poly(n - 2, alpha + 2, beta + 2)


@lru_cache(maxsize=8192)
def _gen_jacobi_cached(n: int, params: Params) -> Poly:
    base = jacobi_poly(n, params.alpha, params.beta)
    out = base
    if params.M:
        out = out + params.M * poly_Q(n, params.alpha, params.beta)
    if params.N:
        out = out + params.N * poly_R(n, params.alpha, params.beta)
    if params.M and params.N:
        out = out + params.M * params.N * poly_S(n, params.alpha, params.beta)
    return out


def gen_jacobi(n: int, params: Params) -> Poly:
    """Degree-n generalized Jacobi polynomial for the given weight data."""
    if n < 0:
        raise InvalidParam(f"polynomial index must be >= 0, got {n}")
    return _gen_jacobi_cached(n, params)
