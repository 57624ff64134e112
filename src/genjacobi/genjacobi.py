"""Generalized Jacobi polynomials: Jacobi weight plus endpoint point masses.

For integer weight exponents alpha, beta >= 0 and masses M, N >= 0 placed at
x = -1 and x = +1, the orthogonal polynomials are assembled from four
building blocks:

    gen_jacobi(n) = P_n + M*Q_n + N*R_n + M*N*S_n

where P_n is the classical Jacobi polynomial and Q_n, R_n, S_n are
parameter-shifted Jacobi polynomials times the endpoint factors (x+1),
(x-1), (x^2-1) with explicit rational scales.  Q_0, R_0, S_0, and S_1
are zero by convention, which keeps every operation total in n.

blocks(alpha, beta) is the one table of the four blocks, as data in
t = x - 1: per block its parameter shift, its endpoint factor t + 2, t or
t(t + 2), and its scale as an integer constant and integer Pochhammer pairs.
coeff_q, coeff_r and coeff_s read the scales from it.  _blocks builds the
four t-vectors of each (n, alpha, beta) from the hypergeometric data of
jacobi._jacobi_hyp, once for every mass point.  gen_jacobi sums them with the
masses in integers over one denominator and makes one Taylor shift into
powers of x; poly_Q, poly_R and poly_S are one Taylor shift of one block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import NamedTuple

from . import jacobi, kernel
from .algebra import InvalidParam, Poly, as_rational, nonneg_int


@dataclass(frozen=True)
class Params:
    """Weight data: integer exponents alpha, beta and masses M, N >= 0, with
    masses = (1, M, N, M*N), the weights of the P, Q, R, S blocks and operators."""

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
        object.__setattr__(self, "masses", (Fraction(1), self.M, self.N, self.M * self.N))
        # kept, so that a cache keyed by a Params rehashes no mass on a hit
        object.__setattr__(self, "_hash", hash((self.alpha, self.beta, self.M, self.N)))

    def __hash__(self):
        return self._hash

    def swapped(self) -> "Params":
        """Mirror parameters under x -> -x: swap alpha/beta and M/N."""
        return Params(self.beta, self.alpha, self.N, self.M)


class Block(NamedTuple):
    """One building block: scale(n) * factor(t) * P_m^(alpha+da, beta+db) in
    t = x - 1, with m = n + 1 - len(factor); the zero polynomial for m < 0,
    so len(factor) - 1 is its least degree.  The scale is the product of
    (s)_(n+d) over the (s, d) pairs `upper`, over c times that over `lower`."""

    shift: tuple            # the parameter shift (da, db)
    factor: tuple           # the endpoint factor's coefficients in powers of t
    c: int = 1
    upper: tuple = ()
    lower: tuple = ()

    def scale(self, n: int) -> Fraction:
        """The scale at degree n, with (s)_m = s(s+1)...(s+m-1) an integer product."""
        num, den = 1, self.c
        for s, d in self.upper:
            num *= prod(range(s, s + n + d))
        for s, d in self.lower:
            den *= prod(range(s, s + n + d))
        return Fraction(num, den)


def blocks(alpha: int, beta: int) -> tuple:
    """The blocks P, Q, R, S at (alpha, beta), built per call; _blocks and the
    coeff_* read it by its module name, so a rebound blocks takes effect."""
    a, b = alpha, beta
    return (
        Block((0, 0), (1,)),
        # (a+b+2)_n (b+2)_(n-1) / (2 n! (a+1)_(n-1)), the factor x + 1 = t + 2
        Block((0, 2), (2, 1), 2, ((a + b + 2, 0), (b + 2, -1)), ((1, 0), (a + 1, -1))),
        # its mirror, the factor x - 1 = t
        Block((2, 0), (0, 1), 2, ((a + b + 2, 0), (a + 2, -1)), ((1, 0), (b + 1, -1))),
        # (a+b+2)_n (a+b+2)_(n+1) / (4 (a+1)(b+1) (n-1)! n!), x^2 - 1 = t(t + 2)
        Block((2, 2), (0, 2, 1), 4 * (a + 1) * (b + 1), ((a + b + 2, 0), (a + b + 2, 1)),
              ((1, -1), (1, 0))),
    )


def coeff_q(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x+1)-block, defined for n >= 1:
    (alpha+beta+2)_n (beta+2)_(n-1) / (2 n! (alpha+1)_(n-1))."""
    nonneg_int("coeff_q index", n, 1)
    return blocks(nonneg_int("alpha", alpha), nonneg_int("beta", beta))[1].scale(n)


def coeff_r(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x-1)-block, defined for n >= 1:
    (alpha+beta+2)_n (alpha+2)_(n-1) / (2 n! (beta+1)_(n-1))."""
    nonneg_int("coeff_r index", n, 1)
    return blocks(nonneg_int("alpha", alpha), nonneg_int("beta", beta))[2].scale(n)


def coeff_s(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x^2-1)-block, defined for n >= 2:
    (alpha+beta+2)_n (alpha+beta+2)_(n+1) / (4 (alpha+1)(beta+1) (n-1)! n!)."""
    nonneg_int("coeff_s index", n, 2)
    return blocks(nonneg_int("alpha", alpha), nonneg_int("beta", beta))[3].scale(n)


# the grid runner visits one (alpha, beta) at a time, and 64 entries hold all
# of its degrees (13 on the default grid); a larger cache would only duplicate
# gen_jacobi's entries on a grid with one mass point, where nothing is shared
@lru_cache(maxsize=64)
def _blocks(n: int, alpha: int, beta: int) -> tuple:
    """(nums, den) of P_n, Q_n, R_n, S_n at (alpha, beta), each block
    sum nums[k] t^k / den with t = x - 1; built once for every mass point."""
    out = []
    for block in blocks(alpha, beta):
        m = n + 1 - len(block.factor)
        if m < 0:
            out.append(((), 1))
            continue
        da, db = block.shift
        nums, den = jacobi._jacobi_hyp(m, alpha + da, beta + db)
        if block.factor != (1,) or block.c != 1 or block.upper or block.lower:
            # every row but P's, whose factor and scale are 1
            scale = block.scale(n)
            num = scale.numerator
            nums = tuple([c * num for c in kernel.conv(block.factor, nums)])
            den *= scale.denominator
        out.append((nums, den))
    return tuple(out)


def _block_poly(index: int, n: int, alpha: int, beta: int) -> Poly:
    """Block `index` of blocks(alpha, beta) at n, shifted into powers of x."""
    nums, den = _blocks(nonneg_int("polynomial index", n), nonneg_int("alpha", alpha),
                        nonneg_int("beta", beta))[index]
    return Poly._norm(kernel.taylor_shift(nums), den)


def poly_Q(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = -1; zero polynomial for n = 0."""
    return _block_poly(1, n, alpha, beta)


def poly_R(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at x = +1; zero polynomial for n = 0."""
    return _block_poly(2, n, alpha, beta)


def poly_S(n: int, alpha: int, beta: int) -> Poly:
    """Block vanishing at both endpoints; zero polynomial for n in {0, 1}."""
    return _block_poly(3, n, alpha, beta)


@lru_cache(maxsize=8192)
def _gen_jacobi_cached(n: int, params: Params) -> Poly:
    """P_n + M Q_n + N R_n + M N S_n, summed in integers over one denominator
    in powers of t = x - 1, then shifted once into powers of x."""
    nums, den = [], 1
    for mass, (block, block_den) in zip(params.masses, _blocks(n, params.alpha, params.beta)):
        if mass and block:
            scale = mass.denominator * block_den
            total = lcm(den, scale)
            nums = kernel.add_scaled(nums, total // den, block,
                                     mass.numerator * (total // scale))
            den = total
    return Poly._norm(kernel.taylor_shift(nums), den)


def gen_jacobi(n: int, params: Params) -> Poly:
    """Degree-n generalized Jacobi polynomial for the given weight data."""
    return _gen_jacobi_cached(nonneg_int("polynomial index", n), params)
