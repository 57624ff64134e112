"""Exact weighted inner products with endpoint point masses.

Every integral here is an exact polynomial integral over [-1, 1], with no
quadrature and no tolerance, and takes one Hankel step (_hankel): H g with
H[p][q] = m_(p+q) for an integer vector g and a moment list m.  A weight's
moments are that step on the weight's coefficients and the monomial
integrals.  The mass-augmented scalar product is stated once, by its moment
vector h_k = mu_k + M (-1)^k + N, and computed once, as an integer Gram
(inner_products), which the weight integral, the scalar product (a plain
Fraction), the Gram matrices and the pairings all read.  The four bilinear
forms that mirror the operators (forms) and their closed-form endpoint
values read operators.divergence_forms; each form is an integer Gram of its
integrands against the moments of its own weight.  The paper's four pairings
<L_k f, g> = B_k(f, g) + boundary and those endpoint values as integer
defect matrices on a monomial basis, built once per (alpha, beta)
(pairing_defects), which the symmetry suite contracts with each random pair;
and the combined operator's symmetry defect.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import NamedTuple

from . import kernel, operators
from .algebra import InvalidParam, Poly, derive_nums, endpoint_weight, nonneg_int
from .genjacobi import Params, gen_jacobi
from .operators import apply_combined, components, const_b, const_c, divergence_forms


def integrate(f: Poly) -> Fraction:
    """Integral of f over [-1, 1]: x^k gives 2/(k+1) at even k and 0 at odd k."""
    weights, wden = _monomial_integrals(len(f.nums))
    return Fraction(sum(map(mul, f.nums, weights)), wden * f.den)


def _monomial_integrals(length: int) -> tuple:
    """(w, L) with w[k] / L the integral of x^k over [-1, 1], for k < length."""
    den = lcm(*range(1, length + 1, 2))
    return tuple(0 if k & 1 else 2 * den // (k + 1) for k in range(length)), den


def _hankel(g, moments, rows: int) -> list:
    """H g in `rows` rows, H[p][q] = moments[p + q], for an integer vector g:
    the one Hankel step behind every integral here."""
    return [sum(map(mul, g, moments[p:])) for p in range(rows)]


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


def weight_poly(alpha: int, beta: int) -> Poly:
    """(1-x)^alpha (1+x)^beta as an explicit polynomial."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    return (-1) ** a * endpoint_weight(a, b)


def _normalized_moments(alpha: int, beta: int, size: int) -> tuple:
    """(m, D) with m[k] / D the weight integral of x^k over h_norm, k < size:
    the weight moments, scaled by 1 / h_norm in integers."""
    h = h_norm(alpha, beta)
    moments, den = _weight_moments(alpha, beta, size)
    return tuple(m * h.denominator for m in moments), den * h.numerator


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
    [[value]], den = inner_products((f,), (g,), params)
    return Fraction(value, den * f.den * g.den)


def inner_products(fs, gs, params: Params) -> tuple:
    """(P, D) with P[i][j] / (D fs[i].den gs[j].den) = inner_product(fs[i],
    gs[j], params), in integers: (f, g) is f . (H g) with H[p][q] = h_(p+q),
    so each g meets H once, in as many rows as the longest f has entries,
    and every f is dotted with each H g."""
    fns, gns = [f.nums for f in fs], [g.nums for g in gs]
    rows = max(map(len, fns), default=0)
    h, den = _moment_vector(params, rows + max(map(len, gns), default=0) - 1)
    hgs = [_hankel(gn, h, rows) for gn in gns]
    return [[sum(map(mul, fn, hg)) for hg in hgs] for fn in fns], den


def weighted_integral(f: Poly, alpha: int, beta: int) -> Fraction:
    """Normalized weight integral of f: h_norm(1) = 1 by construction."""
    return inner_product(f, Poly.one(), Params(alpha, beta))


# ---------------- symmetric bilinear forms ----------------

def forms(alpha: int, beta: int) -> tuple:
    """(v, k, weight) of the four symmetric bilinear forms at (alpha, beta),
    the rows of divergence_forms cut to (v, k, w): the form of a row is the
    integral of (v f)^(k) (v g)^(k) weight_poly(*weight) over [-1, 1],
    divided by h_norm(alpha, beta).  Built per call, so a rebound module
    attribute takes effect."""
    return tuple(row[:3] for row in divergence_forms(alpha, beta))


def _form(fs, gs, row: int, alpha: int, beta: int) -> tuple:
    """(F, D) with F[i][j] / (D fs[i].den gs[j].den) the form of row `row` of
    forms(alpha, beta) on fs[i] and gs[j], inner_products' shape: each
    integer vector (v g)^(k) meets the weight's moments in one Hankel step,
    and every (v f)^(k) is dotted with it, in integers and never normalized."""
    v, k, weight = forms(alpha, beta)[row]
    dfs = [derive_nums(kernel.conv(f.nums, v.nums), k) if f.nums else [] for f in fs]
    dgs = [derive_nums(kernel.conv(g.nums, v.nums), k) if g.nums else [] for g in gs]
    rows = max(map(len, dfs), default=0)
    size = rows + max(map(len, dgs), default=0) - 1
    moments, den = _weight_moments(*weight, -(-size // 16) * 16)
    h = h_norm(alpha, beta)
    wgs = [_hankel(dg, moments, rows) for dg in dgs]
    return ([[sum(map(mul, df, wg)) * h.denominator for wg in wgs] for df in dfs],
            den * v.den ** 2 * h.numerator)


@lru_cache(maxsize=256)
def _weight_moments(p: int, q: int, size: int) -> tuple:
    """(m, D) with m[k] / D the integral of x^k weight_poly(p, q) over [-1, 1]
    for k < size: the Hankel step on the weight's coefficients and the
    monomial integrals, the one route to every weight integral, the forms'
    and the moment vector's."""
    w = weight_poly(p, q)
    ints, den = _monomial_integrals(size + len(w.nums) - 1)
    return tuple(_hankel(w.nums, ints, size)), den * w.den


def bilinear_U(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the second-order operator: integral of f'g' against
    the weight with both exponents raised by one."""
    [[value]], den = _form((f,), (g,), 0, alpha, beta)
    return Fraction(value, den * f.den * g.den)


def bilinear_Vt(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the mass operator at x = -1."""
    [[value]], den = _form((f,), (g,), 1, alpha, beta)
    return Fraction(value, den * f.den * g.den)


def bilinear_V(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the mass operator at x = +1."""
    [[value]], den = _form((f,), (g,), 2, alpha, beta)
    return Fraction(value, den * f.den * g.den)


def bilinear_W(f: Poly, g: Poly, alpha: int, beta: int) -> Fraction:
    """Form mirroring the two-mass operator."""
    [[value]], den = _form((f,), (g,), 3, alpha, beta)
    return Fraction(value, den * f.den * g.den)


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
    """Predicted endpoint values without applying any operator: per row of
    divergence_forms, c(x0) ((v f)^(k))(x0) at x0 = -1 and +1 with c its
    endpoint constants; a row whose constants are both 0 forms no derivative."""
    values = []
    for v, k, _, _, _, ends in divergence_forms(alpha, beta):
        # (v f)^(k), as integers over v.den * f.den, summed at x = -1 and +1
        d = derive_nums(kernel.conv(v.nums, f.nums), k) if f.nums and any(ends) else []
        totals = (sum(d[::2]) - sum(d[1::2]), sum(d))
        values += [Fraction(c.numerator * total, c.denominator * v.den * f.den)
                   for c, total in zip(ends, totals)]
    return BoundaryValues(*values)


def mass_constant_identity(alpha: int, beta: int) -> tuple:
    """Three routes to the same constant tying the masses to the forms, all
    equal: (direct, via_pos1_normalization, via_neg1_normalization), the last
    two through the side operators' endpoint constants.
    """
    _, (_, c_pos), (c_neg, _), _ = (row.ends for row in divergence_forms(alpha, beta))
    a, b = alpha, beta
    direct = (Fraction(2 ** (a + b + 2)) * factorial(a + 1) * factorial(b + 1)
              * factorial(a + b + 3) / h_norm(a, b))
    via_pos = const_c(a, b) / const_b(a, b) * -c_neg * factorial(a + 2)
    via_neg = const_c(a, b) / const_b(b, a) * c_pos * factorial(b + 2)
    return direct, via_pos, via_neg


# ---------------- the pairings on a monomial basis ----------------

class PairingDefects(NamedTuple):
    """The four pairings <L_k f, g> = B_k(f, g) + boundary_k(f, g) and the
    eight endpoint values of one (alpha, beta), as defects on the monomials
    x^0 .. x^(dim-1), kept by their nonzero rows only.  Each is bilinear (the
    endpoint values linear) and free of the masses, so a pair (f, g) of
    degree < dim is scored by contracting them (a higher degree raises
    InvalidParam)."""

    dim: int
    pairings: tuple     # per components row, (D, ((i, Z[i]), ...)): Z[i][j] / D
    ends: tuple         # (D, ((i, E[i]), ...)): E[i] / D, BoundaryValues order

    def _coefficients(self, f: Poly) -> tuple:
        """f's coefficients of x^0 .. x^(dim-1); InvalidParam if f has degree >= dim."""
        if len(f.nums) > self.dim:
            raise InvalidParam(f"degree {f.degree} is not below the basis size {self.dim}")
        return f.nums + (0,) * (self.dim - len(f.nums))

    def pairing_residuals(self, f: Poly, g: Poly) -> list:
        """<L_k f, g> - B_k(f, g) - boundary_k(f, g) per components row k:
        f . (Z g) over D f.den g.den, in integers."""
        fn, gn = self._coefficients(f), self._coefficients(g)
        return [Fraction(sum(fn[i] * sum(map(mul, row, gn)) for i, row in rows),
                         den * f.den * g.den) for den, rows in self.pairings]

    def endpoint_defect(self, f: Poly):
        """The sum of squares of the eight endpoint values of the operators on
        f minus their closed forms; the int 0 when all eight agree."""
        fn = self._coefficients(f)
        den, rows = self.ends
        sums = [0] * 8
        for i, row in rows:
            sums = [s + fn[i] * e for s, e in zip(sums, row)]
        if not any(sums):
            return 0
        return Fraction(sum(s * s for s in sums), (den * f.den) ** 2)


@lru_cache(maxsize=16)
def pairing_defects(alpha: int, beta: int, dim: int) -> PairingDefects:
    """The PairingDefects of (alpha, beta) on x^0 .. x^(dim-1), with no
    nonzero row when the pairings and closed forms hold.

    Z_k[i][j] = <L_k x^i, x^j> - B_k(x^i, x^j) - boundary_k(x^i, x^j), from
    the operators' integer columns (operators._columns), the integer Gram
    of one inner_products call at Params(alpha, beta), the forms' Gram matrices
    (_form) and the closed-form endpoint values (boundary_closed_forms) with
    the components' norms.  E[i] is the eight values (L_k x^i)(-1), (L_k
    x^i)(1) minus boundary_closed_forms(x^i).  One (alpha, beta) of the
    default grid has 16 mass points, whose symmetry points run together and
    share one entry."""
    a, b = alpha, beta
    table = components(a, b)
    basis = [Poly._raw((0,) * i + (1,), 1) for i in range(dim)]
    images = [[Poly._raw(column, 1) for column in operators._columns(row.kind, a, b, dim)[:dim]]
              for row in table]
    # products[k * dim + i][j] / pden = <L_k x^i, x^j>, one Hankel step per x^j
    products, pden = inner_products([image for op in images for image in op], basis,
                                    Params(a, b))
    wants = [boundary_closed_forms(x, a, b) for x in basis]
    _, b_ba, b_ab, c_ab = (row.norm for row in table)
    # per x^i and row k, (neg, pos) with boundary_k(x^i, g) = neg g(-1) + pos g(1):
    # the endpoint values of the lower-order operators, in closed form
    boundaries = [((0, 0), (-b_ba * want.l2_neg1, 0), (0, -b_ab * want.l2_pos1),
                   (-c_ab * want.lhat_neg1 / b_ab, -c_ab * want.ltilde_pos1 / b_ba))
                  for want in wants]
    pairings = []
    for k in range(len(table)):
        gram, gden = _form(basis, basis, k, a, b)
        ends = [pairs[k] for pairs in boundaries]
        den = lcm(gden, pden, *(e.denominator for pair in ends for e in pair))
        scale, pscale = den // gden, den // pden
        rows = []
        for i, (gram_i, pair) in enumerate(zip(gram, ends)):
            neg, pos = (e.numerator * (den // e.denominator) for e in pair)
            defects = tuple(p * pscale - form * scale - (pos - neg if j & 1 else pos + neg)
                            for j, (p, form) in enumerate(zip(products[k * dim + i], gram_i)))
            if any(defects):
                rows.append((i, defects))
        pairings.append((den, tuple(rows)))
    diffs = []
    for i, want in enumerate(wants):
        got = [op[i].eval(x) for op in images for x in (-1, 1)]
        wanted = list(vars(want).values())
        if got != wanted:
            diffs.append((i, [gv - wv for gv, wv in zip(got, wanted)]))
    den = lcm(*(d.denominator for _, row in diffs for d in row))
    ends = tuple((i, tuple(d.numerator * (den // d.denominator) for d in row))
                 for i, row in diffs)
    return PairingDefects(dim, tuple(pairings), (den, ends))


def symmetry_defect(f: Poly, g: Poly, params: Params) -> Fraction:
    """(Lf, g) - (f, Lg) under the mass-augmented product; must be 0."""
    lhs = inner_product(apply_combined(f, params), g, params)
    rhs = inner_product(f, apply_combined(g, params), params)
    return lhs - rhs


def gram_matrix(nmax: int, params: Params) -> list:
    """Pairwise scalar products of gen_jacobi(0..nmax); diagonal iff the
    polynomials are orthogonal.  The product is symmetric, so column j is
    scored for i <= j by one inner_products call and mirrored."""
    nonneg_int("nmax", nmax)
    polys = [gen_jacobi(n, params) for n in range(nmax + 1)]
    gram = [[None] * (nmax + 1) for _ in polys]
    for j, g in enumerate(polys):
        column, den = inner_products(polys[:j + 1], (g,), params)
        for i, ([entry], f) in enumerate(zip(column, polys)):
            gram[i][j] = gram[j][i] = Fraction(entry, den * f.den * g.den)
    return gram
