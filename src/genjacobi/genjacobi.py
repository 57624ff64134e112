"""Generalized Jacobi polynomials: Jacobi weight plus endpoint point masses.

For integer weight exponents alpha, beta >= 0 and masses M, N >= 0 placed at
x = -1 and x = +1, the orthogonal polynomials are assembled from four
building blocks:

    gen_jacobi(n) = P_n + M*Q_n + N*R_n + M*N*S_n

where P_n is the classical Jacobi polynomial and Q_n, R_n, S_n are
parameter-shifted Jacobi polynomials times the endpoint factors (x+1),
(x-1), (x^2-1) with explicit rational coefficients.  Q_0, R_0, S_0, and S_1
are zero by convention, which keeps every operation total in n.

BLOCKS declares each block once, as data in t = x - 1: its scale, its
parameter shift and its endpoint factor t + 2, t or t(t + 2).  _blocks builds
the four t-vectors of each (n, alpha, beta) from the hypergeometric data of
jacobi._jacobi_hyp, once for every mass point.  gen_jacobi sums them with the
masses in integers over one denominator and makes one Taylor shift into
powers of x; poly_Q, poly_R and poly_S are one Taylor shift of one block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import NamedTuple, Optional

from . import jacobi, kernel
from .algebra import InvalidParam, Poly, as_rational, nonneg_int


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
        """The weights 1, M, N, M*N of the P, Q, R, S blocks and operators,
        built on the first read, as the hash is."""
        if "_masses" not in self.__dict__:
            object.__setattr__(self, "_masses", (Fraction(1), self.M, self.N, self.M * self.N))
        return self._masses


# The block scales are ratios of Pochhammer symbols (c)_k = c(c+1)...(c+k-1)
# at integer c, so each is one Fraction of two integer products.

def coeff_q(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x+1)-block, defined for n >= 1:
    (alpha+beta+2)_n (beta+2)_(n-1) / (2 n! (alpha+1)_(n-1))."""
    nonneg_int("coeff_q index", n, 1)
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return Fraction(prod(range(a + b + 2, a + b + 2 + n)) * prod(range(b + 2, b + n + 1)),
                    2 * factorial(n) * prod(range(a + 1, a + n)))


def coeff_r(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x-1)-block, defined for n >= 1:
    (alpha+beta+2)_n (alpha+2)_(n-1) / (2 n! (beta+1)_(n-1))."""
    nonneg_int("coeff_r index", n, 1)
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return Fraction(prod(range(a + b + 2, a + b + 2 + n)) * prod(range(a + 2, a + n + 1)),
                    2 * factorial(n) * prod(range(b + 1, b + n)))


def coeff_s(n: int, alpha: int, beta: int) -> Fraction:
    """Scale factor of the (x^2-1)-block, defined for n >= 2:
    (alpha+beta+2)_n (alpha+beta+2)_(n+1) / (4 (alpha+1)(beta+1) (n-1)! n!)."""
    nonneg_int("coeff_s index", n, 2)
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    rising = prod(range(a + b + 2, a + b + 2 + n))
    return Fraction(rising * rising * (a + b + 2 + n),
                    4 * (a + 1) * (b + 1) * factorial(n - 1) * factorial(n))


class Block(NamedTuple):
    """One building block: scale(n, alpha, beta) * factor(t) * P_m^(alpha+da, beta+db)
    in t = x - 1, with m = n + 1 - len(factor); the zero polynomial for m < 0."""

    scale: Optional[str]    # name of the scale function in this module, or None for 1
    shift: tuple            # the parameter shift (da, db)
    factor: tuple           # the endpoint factor's coefficients in powers of t


# P, Q, R, S.  The scales are looked up by name on each build, so a function
# rebound on the module is the one that runs.
BLOCKS = (
    Block(None, (0, 0), (1,)),
    Block("coeff_q", (0, 2), (2, 1)),       # x + 1 = t + 2
    Block("coeff_r", (2, 0), (0, 1)),       # x - 1 = t
    Block("coeff_s", (2, 2), (0, 2, 1)),    # x^2 - 1 = t(t + 2)
)


# the grid runner visits one (alpha, beta) at a time, and 64 entries hold all
# of its degrees (13 on the default grid); a larger cache would only duplicate
# gen_jacobi's entries on a grid with one mass point, where nothing is shared
@lru_cache(maxsize=64)
def _blocks(n: int, alpha: int, beta: int) -> tuple:
    """(nums, den) of P_n, Q_n, R_n, S_n at (alpha, beta), each block
    sum nums[k] t^k / den with t = x - 1; built once for every mass point."""
    out = []
    for block in BLOCKS:
        m = n + 1 - len(block.factor)
        if m < 0:
            out.append(((), 1))
            continue
        da, db = block.shift
        nums, den = jacobi._jacobi_hyp(m, alpha + da, beta + db)
        if block.scale:
            scale = globals()[block.scale](n, alpha, beta)
            num = scale.numerator
            nums = tuple(c * num for c in kernel.conv(block.factor, nums))
            den *= scale.denominator
        out.append((nums, den))
    return tuple(out)


def _block_poly(index: int, n: int, alpha: int, beta: int) -> Poly:
    """Block `index` of BLOCKS at (n, alpha, beta), shifted into powers of x."""
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
