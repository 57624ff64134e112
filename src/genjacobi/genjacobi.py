"""Generalized Jacobi polynomials: Jacobi weight plus endpoint point masses.

For integer weight exponents alpha, beta >= 0 and masses M, N >= 0 placed at
x = -1 and x = +1, the orthogonal polynomials are assembled from four
building blocks:

    gen_jacobi(n) = P_n + M*Q_n + N*R_n + M*N*S_n

where P_n is the classical Jacobi polynomial and Q_n, R_n, S_n are
parameter-shifted Jacobi polynomials times the endpoint factors (x+1),
(x-1), (x^2-1) with explicit rational coefficients.  Q_0, R_0, S_0, and S_1
are zero by convention, which keeps every operation total in n.  The four
blocks of each (n, alpha, beta) are built once and shared by every mass
point; each gen_jacobi sums them in integers over one denominator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import kernel
from .algebra import (InvalidParam, Poly, X2_MINUS_1, X_MINUS_1, X_PLUS_1,
                      as_rational, nonneg_int, pochhammer)
from .jacobi import jacobi_poly


@dataclass(frozen=True)
class Params:
    """Weight data: integer exponents alpha, beta and masses M, N >= 0."""

    alpha: int = 0
    beta: int = 0
    M: Fraction = Fraction(0)
    N: Fraction = Fraction(0)

    def __post_init__(self):
        nonneg_int("alpha", self.alpha)
        nonneg_int("beta", self.beta)
        for name in ("M", "N"):
            value = as_rational(getattr(self, name))
            if value < 0:
                raise InvalidParam(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)

    def __hash__(self):
        # hashed once, on the first lookup: the caches keyed by a Params would
        # otherwise rehash both Fraction masses on every hit
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.alpha, self.beta, self.M, self.N)))
        return self._hash

    def swapped(self) -> "Params":
        """Mirror parameters under x -> -x: swap alpha/beta and M/N."""
        return Params(self.beta, self.alpha, self.N, self.M)

    @property
    def masses(self) -> tuple:
        """The weights 1, M, N, M*N of the P, Q, R, S blocks and operators."""
        return Fraction(1), self.M, self.N, self.M * self.N


def coeff_q(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x+1)-block, defined for n >= 1."""
    nonneg_int("coeff_q index", n, 1)
    return (pochhammer(alpha + beta + 2, n) * pochhammer(beta + 2, n - 1)
            / (2 * factorial(n) * pochhammer(alpha + 1, n - 1)))


def coeff_r(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x-1)-block, defined for n >= 1."""
    nonneg_int("coeff_r index", n, 1)
    return (pochhammer(alpha + beta + 2, n) * pochhammer(alpha + 2, n - 1)
            / (2 * factorial(n) * pochhammer(beta + 1, n - 1)))


def coeff_s(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x^2-1)-block, defined for n >= 2."""
    nonneg_int("coeff_s index", n, 2)
    return (pochhammer(alpha + beta + 2, n) * pochhammer(alpha + beta + 2, n + 1)
            / (4 * (alpha + 1) * (beta + 1) * factorial(n - 1) * factorial(n)))


def poly_Q(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = -1; zero polynomial for n = 0."""
    if nonneg_int("polynomial index", n) == 0:
        return Poly.zero()
    return coeff_q(n, alpha, beta) * X_PLUS_1 * jacobi_poly(n - 1, alpha, beta + 2)


def poly_R(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = +1; zero polynomial for n = 0."""
    if nonneg_int("polynomial index", n) == 0:
        return Poly.zero()
    return coeff_r(n, alpha, beta) * X_MINUS_1 * jacobi_poly(n - 1, alpha + 2, beta)


def poly_S(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at both endpoints; zero polynomial for n in {0, 1}."""
    if nonneg_int("polynomial index", n) <= 1:
        return Poly.zero()
    return coeff_s(n, alpha, beta) * X2_MINUS_1 * jacobi_poly(n - 2, alpha + 2, beta + 2)


# the grid runner visits one (alpha, beta) at a time, and 64 entries hold all
# of its degrees (13 on the default grid); a larger cache would only duplicate
# gen_jacobi's entries on a grid with one mass point, where nothing is shared
@lru_cache(maxsize=64)
def _blocks(n: int, alpha: int, beta: int) -> tuple:
    """(P_n, Q_n, R_n, S_n) at (alpha, beta), built once for every mass point."""
    return (jacobi_poly(n, alpha, beta), poly_Q(n, alpha, beta),
            poly_R(n, alpha, beta), poly_S(n, alpha, beta))


@lru_cache(maxsize=8192)
def _gen_jacobi_cached(n: int, params: Params) -> Poly:
    """P_n + M Q_n + N R_n + M N S_n, summed in integers over one denominator."""
    nums, den = [], 1
    for mass, block in zip(params.masses, _blocks(n, params.alpha, params.beta)):
        if mass and block:
            scale = mass.denominator * block.den
            total = lcm(den, scale)
            nums = kernel.add_scaled(nums, total // den, block.nums,
                                     mass.numerator * (total // scale))
            den = total
    return Poly._norm(nums, den)


def gen_jacobi(n: int, params: Params) -> Poly:
    """Degree-n generalized Jacobi polynomial for the given weight data."""
    return _gen_jacobi_cached(nonneg_int("polynomial index", n), params)
