"""Exact weighted inner products with endpoint point masses.

Every integral here is an exact polynomial integral over [-1, 1]; there is
no quadrature and no tolerance.  The mass-augmented scalar product is
stated once, by its moment vector h_k = mu_k + M (-1)^k + N, which the
weight integral, the scalar product (a plain Fraction) and the Gram
matrices all read.  The four symmetric bilinear forms that mirror the
operators integrate directly, an independent route; the module also gives
the closed-form endpoint values of the operators, which the symmetry suite
checks, and the combined operator's symmetry defect.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

from . import kernel
from .algebra import Poly, derive_nums, endpoint_weight, nonneg_int, pochhammer
from .genjacobi import Params, gen_jacobi
from .operators import apply_combined, const_b, const_c


def integrate(f: Poly) -> Fraction:
    """Integral of f over [-1, 1]: odd monomials drop, x^k gives 2/(k+1)."""
    weights, wden = _monomial_integrals(len(f.nums))
    return Fraction(sum(map(mul, f.nums[::2], weights)), wden * f.den)


@lru_cache(maxsize=256)
def _monomial_integrals(length: int) -> tuple:
    """(w, L) with w[j] / L the integral of x^(2j), for every even 2j < length."""
    den = lcm(*range(1, length + 1, 2))
    return tuple(2 * den // (k + 1) for k in range(0, length, 2)), den


@lru_cache(maxsize=256, typed=True)
def h_norm(alpha: int, beta: int) -> Fraction:
    """Total mass of the weight (1-x)^alpha (1+x)^beta over [-1, 1].

    Closed form 2^(alpha+beta+1) * alpha! * beta! / (alpha+beta+1)!; the
    direct integral of the expanded weight is kept as a test oracle in
    h_norm_integral.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    return Fraction(2 ** (a + b + 1) * factorial(a) * factorial(b), factorial(a + b + 1))


def h_norm_integral(alpha: int, beta: int) -> Fraction:
    """Oracle path for h_norm: expand the weight and integrate it."""
    return integrate(weight_poly(alpha, beta))


@lru_cache(maxsize=256, typed=True)
def weight_poly(alpha: int, beta: int) -> Poly:
    """(1-x)^alpha (1+x)^beta as an explicit polynomial."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    return (-1) ** a * endpoint_weight(a, b)


@lru_cache(maxsize=256, typed=True)
def _normalized_moments(alpha: int, beta: int, size: int) -> tuple:
    """(m, D) with m[k] / D the weight integral of x^k over h_norm, k < size."""
    w, h = weight_poly(alpha, beta), h_norm(alpha, beta)
    moments = [integrate(Poly.monomial(k) * w) / h for k in range(size)]
    den = lcm(*(m.denominator for m in moments))
    return tuple(m.numerator * (den // m.denominator) for m in moments), den


def _moment_vector(params: Params, size: int) -> tuple:
    """(h, D) with h[k] / D = mu_k + M (-1)^k + N for k < size: the moments
    of the mass-augmented scalar product.  h runs on to a multiple of 16, so
    one (alpha, beta) keeps few moment blocks in the cache."""
    return _moment_block(params, -(-size // 16) * 16)


@lru_cache(maxsize=256)
def _moment_block(params: Params, size: int) -> tuple:
    """_moment_vector's (h, D) of one length, built once per params."""
    moments, mden = _normalized_moments(params.alpha, params.beta, size)
    M, N = params.M, params.N
    den = lcm(mden, M.denominator, N.denominator)
    m, n = M.numerator * (den // M.denominator), N.numerator * (den // N.denominator)
    ends = (n + m, n - m)      # at even k, at odd k
    return tuple(mu * (den // mden) + ends[k & 1] for k, mu in enumerate(moments)), den


def inner_product(f: Poly, g: Poly, params: Params) -> Fraction:
    """Weighted product of f and g plus M f(-1)g(-1) and N f(1)g(1), that is
    the sum over k of (fg)_k h_k with h the moment vector."""
    return inner_products((f,), g, params)[0]


def inner_products(fs, g: Poly, params: Params) -> list:
    """[inner_product(f, g, params) for f in fs], through one Hankel product:
    (f, g) is f . (H g) with H[i][j] = h_(i+j), so every f is scored against
    the one vector H g, built in as many rows as the longest f has entries."""
    rows = max((len(f.nums) for f in fs), default=0)
    if not (rows and g.nums):
        return [Fraction(0)] * len(fs)
    gn = g.nums
    h, den = _moment_vector(params, rows + len(gn) - 1)
    hg = [sum(map(mul, gn, h[k:])) for k in range(rows)]
    den *= g.den
    return [Fraction(sum(map(mul, f.nums, hg)), den * f.den) if f.nums else Fraction(0)
            for f in fs]


def weighted_integral(f: Poly, alpha: int, beta: int) -> Fraction:
    """Normalized weight integral of f: h_norm(1) = 1 by construction."""
    return inner_product(f, Poly.one(), Params(alpha, beta))


# ---------------- symmetric bilinear forms ----------------

def _form(f: Poly, g: Poly, v: Poly, k: int, weight: tuple, alpha: int,
          beta: int) -> Fraction:
    """Integral of (v f)^(k) (v g)^(k) w over [-1, 1], divided by h_norm,
    with w = weight_poly(*weight): the integer vector (v f)^(k) (v g)^(k),
    never normalized, dotted with the weight's moments."""
    df = derive_nums(kernel.conv(v.nums, f.nums), k) if f.nums else []
    dg = derive_nums(kernel.conv(v.nums, g.nums), k) if g.nums else []
    if not (df and dg):
        return Fraction(0)
    nums = kernel.conv(df, dg)
    moments, den = _weight_moments(*weight, -(-len(nums) // 16) * 16)
    h = h_norm(alpha, beta)
    return Fraction(sum(map(mul, nums, moments)) * h.denominator,
                    den * v.den ** 2 * f.den * g.den * h.numerator)


@lru_cache(maxsize=256)
def _weight_moments(p: int, q: int, size: int) -> tuple:
    """(m, D) with m[k] / D the integral of x^k weight_poly(p, q) over [-1, 1]
    for k < size, from the monomial integrals alone: a route to the forms'
    integrals that does not pass through h_norm or the moment vector."""
    w = weight_poly(p, q)
    ints, den = _monomial_integrals(size + len(w.nums) - 1)
    # x^k w integrates to the sum over j of w_j times the integral of x^(k+j)
    moments = tuple(sum(c * ints[(k + j) >> 1] for j, c in enumerate(w.nums)
                        if not (k + j) & 1) for k in range(size))
    return moments, den * w.den


def bilinear_U(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the second-order operator: integral of f'g' against
    the weight with both exponents raised by one."""
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return _form(f, g, Poly.one(), 1, (a + 1, b + 1), a, b)


def bilinear_Vt(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the mass operator at x = -1."""
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return _form(f, g, endpoint_weight(0, b + 1), b + 2, (a + b + 2, 0), a, b)


def bilinear_V(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the mass operator at x = +1."""
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return _form(f, g, endpoint_weight(a + 1, 0), a + 2, (0, a + b + 2), a, b)


def bilinear_W(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the two-mass operator."""
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return _form(f, g, endpoint_weight(a + 1, b + 1), a + b + 3, (b + 1, a + 1), a, b)


# ---------------- boundary behaviour ----------------

@dataclass(frozen=True)
class BoundaryValues:
    """The four operators applied to f, evaluated at both endpoints."""

    l2_neg1: Fraction
    l2_pos1: Fraction
    ltilde_neg1: Fraction
    ltilde_pos1: Fraction
    lhat_neg1: Fraction
    lhat_pos1: Fraction
    lfull_neg1: Fraction
    lfull_pos1: Fraction


def boundary_closed_forms(f: Poly, alpha: int, beta: int) -> BoundaryValues:
    """Predicted endpoint values without applying any operator.

    The second-order operator reduces to a first-derivative multiple at each
    endpoint; the mass operator for one endpoint vanishes there and has a
    weighted-derivative value at the opposite endpoint; the two-mass
    operator vanishes at both.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    nums, den = f.nums, f.den

    def value(x: int, c, d: list, vden: int = 1) -> Fraction:
        # c times sum d_i x^i / (vden den) at x = -1 or +1: one Fraction
        total = sum(d) if x == 1 else sum(d[::2]) - sum(d[1::2])
        return Fraction(c.numerator * total, c.denominator * vden * den)

    def weighted(v: Poly, k: int) -> list:
        # (v f)^(k), as integers over v.den * den
        return derive_nums(kernel.conv(v.nums, nums), k) if nums else []

    df = derive_nums(nums, 1)
    vt, vh = endpoint_weight(0, b + 1), endpoint_weight(a + 1, 0)
    zero = Fraction(0)
    return BoundaryValues(
        l2_neg1=value(-1, -2 * (b + 1), df),
        l2_pos1=value(1, 2 * (a + 1), df),
        ltilde_neg1=zero,
        ltilde_pos1=value(1, 2 * pochhammer(a + 1, b + 2), weighted(vt, b + 2), vt.den),
        lhat_neg1=value(-1, -2 * pochhammer(b + 1, a + 2), weighted(vh, a + 2), vh.den),
        lhat_pos1=zero,
        lfull_neg1=zero,
        lfull_pos1=zero,
    )


def mass_constant_identity(alpha: int, beta: int) -> tuple:
    """Three routes to the same constant tying the masses to the forms.

    Returns (direct, via_pos1_normalization, via_neg1_normalization); all
    three must be equal.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    direct = (Fraction(2 ** (a + b + 2)) * factorial(a + 1) * factorial(b + 1)
              * factorial(a + b + 3) / h_norm(a, b))
    via_pos = const_c(a, b) / const_b(a, b) * 2 * pochhammer(b + 1, a + 2) * factorial(a + 2)
    via_neg = const_c(a, b) / const_b(b, a) * 2 * pochhammer(a + 1, b + 2) * factorial(b + 2)
    return direct, via_pos, via_neg


def symmetry_defect(f: Poly, g: Poly, params: Params) -> Fraction:
    """(Lf, g) - (f, Lg) under the mass-augmented product; must be 0."""
    lhs = inner_product(apply_combined(f, params), g, params)
    rhs = inner_product(f, apply_combined(g, params), params)
    return lhs - rhs


def gram_matrix(nmax: int, params: Params) -> list:
    """Pairwise scalar products of gen_jacobi(0..nmax), entry (i, j) being
    c_i . (H c_j) with c the coefficients and H the Hankel matrix of the
    moment vector; diagonal iff the polynomials are orthogonal.  H is
    symmetric, so each entry with j >= i is computed once and mirrored, and
    H c_j is needed only in its first j + 1 rows."""
    nonneg_int("nmax", nmax)
    polys = [gen_jacobi(n, params) for n in range(nmax + 1)]
    h, den = _moment_vector(params, 2 * nmax + 1)
    hc = [[sum(map(mul, g.nums, h[k:])) for k in range(j + 1)] for j, g in enumerate(polys)]
    gram = [[None] * (nmax + 1) for _ in polys]
    for i, f in enumerate(polys):
        for j in range(i, nmax + 1):
            gram[i][j] = gram[j][i] = Fraction(sum(map(mul, f.nums, hc[j])),
                                               den * f.den * polys[j].den)
    return gram
