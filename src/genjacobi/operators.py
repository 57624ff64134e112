"""Differential operators of the generalized Jacobi equation.

Four elementary operators act on polynomials, all in exact arithmetic:

- the classical second-order Jacobi operator (a three-term coefficient stencil),
- an order-(2*beta+4) operator tied to the point mass at x = -1,
- an order-(2*alpha+4) mirror operator tied to the point mass at x = +1,
- an order-(2*alpha+2*beta+6) operator tied to the product of both masses.

Each operator's divergence form, factor * D^k[w * D^k[v * y]] / strip, and
its endpoint constants are one row of one table, divergence_forms(), which
the higher-order operators, inner's bilinear forms and closed endpoint
values read; the second-order row (k = 1) is the tests' oracle of apply_L2.
_conjugated writes the recipe once, on integer vectors with one
normalization at the end; its division is exact for every polynomial input,
and a failure raises NotDivisible and signals a genuine bug.

For integer alpha and beta every one of them maps x^k to an integer
polynomial of degree <= k.  So each is also kept as a cached upper-triangular
integer matrix, probed column by column from the functions above: the
combined operator is applied as one matrix-vector product, and each
coefficient of its expansion is one Newton sum over the same columns, so
the top term (top_term, which the verify suites read) costs one sum.

Also provided: factorized forms (products of shifted second-order factors),
an alternative product form for the order-(2*beta+4) operator, expansion of
any operator into explicit coefficient polynomials per derivative order, and
the exact eigenvalues of all of them.  For integer alpha and beta every
elementary eigenvalue is an integer, (n+s)_k (n+t)_k on the block of degree
n: a product of two integer ranges, whose (s, t, k) is table data.
eigen_residual forms every eigen-equation's residual (L - lambda) y from the
image L y in one integer pass with one normalization.  The factorized and
product forms run one integer pass per factor (_shifted_L2): the image from
apply_L2 plus a constant shift and exact endpoint-pole divisions, summed
over one denominator and normalized once.  Each factor calls apply_L2 by its
module name, so a rebound apply_L2 reaches these independent routes too;
their chains of Poly operations stay in the tests as oracles.

components() is the one table of the four elementary operators (Theorem 2.1,
Proposition 2.2): per operator its block of eigenfunctions, the spectrum
(s, t, k) of its eigenvalue, its order, normalization and factorized form.
The combined operator, its eigenvalue, its expansion and every verify suite
read their facts from it; eigen_lambda2 and eigen_high stay as public
entry points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add
from typing import Callable, NamedTuple

from . import kernel
from .algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                      X_PLUS_1, as_rational, derive_nums, endpoint_weight,
                      exact_quotient, nonneg_int, pochhammer)
from .genjacobi import Params, poly_Q, poly_R, poly_S
from .jacobi import jacobi_poly

FACTORIZED_KINDS = ("A", "B", "C")
OPERATOR_KINDS = ("L2", "Ltilde", "Lhat", "Lfull", "Combined")


class InconsistentExpansion(ArithmeticError):
    """Operator expansion produced a coefficient violating its degree bound."""


@dataclass(frozen=True)
class EigenValue:
    """Exact eigenvalue wrapper."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_rational(self.value))


@dataclass(frozen=True)
class DiffOperator:
    """Expanded operator: sum of coeff(x) * d^order/dx^order terms."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((nonneg_int("term order", o), c) for o, c in self.terms)
        last = 0
        for order, coeff in terms:
            if order <= last:
                raise InvalidParam("term orders must be strictly increasing and >= 1")
            if not isinstance(coeff, Poly) or coeff.is_zero:
                raise InvalidParam(f"coefficient at order {order} must be a nonzero Poly")
            last = order
        object.__setattr__(self, "terms", terms)

    @property
    def effective_order(self) -> int:
        """Highest derivative order with a nonzero coefficient (0 if empty)."""
        return self.terms[-1][0] if self.terms else 0


def apply_L2(y: Poly, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Second-order Jacobi operator (x^2-1)y'' + [alpha-beta+(alpha+beta+2)x]y',
    applied to the coefficients c of y as the three-term stencil

        (L2 y)_j = j(j+alpha+beta+1) c_j + (alpha-beta)(j+1) c_(j+1)
                   - (j+1)(j+2) c_(j+2),

    in integers over the common denominator of alpha and beta.

    Parameters may be any exact rationals; the pencil needs no endpoint
    powers, so nothing restricts them to integers here.  Int alpha and beta
    (every call of the verifier, Duran's beta = -1 too) stay ints, over
    denominator 1; any other value, a bool included, goes through
    as_rational.
    """
    if type(alpha) is not int or type(beta) is not int:
        alpha, beta = as_rational(alpha), as_rational(beta)
    q = lcm(alpha.denominator, beta.denominator)
    aq = alpha.numerator * (q // alpha.denominator)
    bq = beta.numerator * (q // beta.denominator)
    s, d = aq + bq + q, aq - bq
    c = y.nums + (0, 0)
    nums = [j * (j * q + s) * c[j] + (j + 1) * (d * c[j + 1] - q * (j + 2) * c[j + 2])
            for j in range(len(y.nums))]
    return Poly._norm(nums, y.den * q)


def _conjugated(y: Poly, v: Poly, k: int, w: Poly, strip: Poly, factor: Poly) -> Poly:
    """factor * D^k[w * D^k[v * y]] / strip, the division exact and skipped
    when strip is a constant: the recipe of every conjugated operator.
    Computed on integer vectors and normalized once."""
    if y.is_zero:
        return y
    inner = derive_nums(kernel.conv(y.nums, v.nums), k)
    nums = derive_nums(kernel.conv(inner, w.nums), k) if inner else []
    if not nums:
        return Poly.zero()
    den = v.den * y.den * w.den
    if strip.degree > 0:
        nums, den = exact_quotient(nums, den, strip)
    return Poly._norm(kernel.conv(factor.nums, nums), den * factor.den)


class DivergenceForm(NamedTuple):
    """L y = factor * D^k[w * D^k[v * y]] / strip, with endpoint constants."""

    v: Poly
    k: int
    w: tuple                # (p, q): the middle weight (x-1)^p (x+1)^q
    strip: Poly
    factor: Poly
    ends: tuple             # (c(-1), c(+1)): (L y)(x0) = c(x0) ((v y)^(k))(x0)


@lru_cache(maxsize=32, typed=True)
def divergence_forms(alpha: int, beta: int) -> tuple:
    """The components rows' divergence forms at (alpha, beta), in their order.
    The two-mass w swaps its v's exponents, (x-1)^(beta+1) (x+1)^(alpha+1):
    deliberate and load-bearing, as matched ones fail the eigen-equations."""
    a, b = nonneg_int("alpha", alpha), nonneg_int("beta", beta)
    return (
        DivergenceForm(Poly.one(), 1, (a + 1, b + 1), endpoint_weight(a, b), Poly.one(),
                       (-2 * (b + 1), 2 * (a + 1))),
        DivergenceForm(endpoint_weight(0, b + 1), b + 2, (a + b + 2, 0),
                       endpoint_weight(a, 0), X_PLUS_1, (0, 2 * pochhammer(a + 1, b + 2))),
        DivergenceForm(endpoint_weight(a + 1, 0), a + 2, (0, a + b + 2),
                       endpoint_weight(0, b), X_MINUS_1, (-2 * pochhammer(b + 1, a + 2), 0)),
        DivergenceForm(endpoint_weight(a + 1, b + 1), a + b + 3, (b + 1, a + 1), Poly.one(),
                       X2_MINUS_1, (0, 0)),
    )


def _apply_form(row: int, y: Poly, alpha: int, beta: int) -> Poly:
    """Row `row` of divergence_forms(alpha, beta) applied to y."""
    v, k, w, strip, factor, _ = divergence_forms(alpha, beta)[row]
    return _conjugated(y, v, k, endpoint_weight(*w), strip, factor)


def apply_Ltilde(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*beta+4) operator for the point mass at x = -1."""
    return _apply_form(1, y, alpha, beta)


def apply_Lhat(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*alpha+4) operator for the point mass at x = +1."""
    return _apply_form(2, y, alpha, beta)


def apply_Lfull(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*alpha+2*beta+6) operator for the product of both masses."""
    return _apply_form(3, y, alpha, beta)


def eigen_residual(image: Poly, lam: int | Fraction, y: Poly) -> Poly:
    """image - lam * y: the residual of the eigen-equation L y = lam y, given
    image = L y.  One integer pass over image.den * y.den * lam.denominator
    and one normalization."""
    p, q = lam.numerator, lam.denominator
    return Poly._norm(kernel.add_scaled(image.nums, y.den * q, y.nums, -p * image.den),
                      image.den * y.den * q)


def apply_combined(y: Poly, params: Params) -> Poly:
    """Full operator of the generalized Jacobi equation.

    Second-order part plus the three mass operators, each scaled by its
    mass over the matching normalization constant.  Applied as one integer
    matrix-vector product with the cached matrix of the operator.
    """
    if y.is_zero:
        return y
    den, columns = _combined_matrix(params, len(y.nums))
    return Poly._norm(_matvec(columns, y.nums), den * y.den)


# ---------------- operators as integer triangular matrices ----------------
#
# For integer alpha and beta each elementary operator maps x^k to an integer
# polynomial of degree <= k, so on polynomials of degree < dim it is an
# upper-triangular integer matrix whose column k holds the image of x^k.
# Each operator keeps one cached column list, extended in place to the dim
# asked for.


@lru_cache(maxsize=32)
def _column_list(kind: str, alpha: int, beta: int) -> tuple:
    """(apply, columns): the apply_* function of one elementary operator, as
    the table holds it when the entry is made, and the columns it has been
    probed on, a list _columns extends."""
    return next(row.apply for row in components(alpha, beta) if row.kind == kind), []


def _columns(kind: str, alpha: int, beta: int, dim: int) -> list:
    """Integer coefficient vectors of the images of x^0, x^1, ..., probed up
    to at least x^(dim-1).  Each x^k is built directly in canonical form;
    Poly.monomial, with its checks, only names it in the error message.

    A column that is not an integer vector of degree <= k raises
    InconsistentExpansion: it would break the triangular structure
    everything built on the columns relies on.
    """
    apply, columns = _column_list(kind, alpha, beta)
    for k in range(len(columns), dim):
        image = apply(Poly._raw((0,) * k + (1,), 1), alpha, beta)
        if image.den != 1 or image.degree > k:
            raise InconsistentExpansion(
                f"{kind}: image {image} of {Poly.monomial(k)} is not an integer "
                f"polynomial of degree <= {k}")
        columns.append(image.nums)
    return columns


# one (alpha, beta) of the default grid has 16 mass points, and its thm21,
# symmetry and orthogonality points run together, so 16 entries let them share
@lru_cache(maxsize=16)
def _combined_entry(params: Params) -> tuple:
    """(den, weights, columns, eigens) of the combined operator: its integer
    columns over one denominator, as a list _combined_matrix extends; a
    (row, weight) pair per component with a nonzero mass, the weight being
    the integer mass / norm times den (the masses are Params.masses); and
    its eigenvalues on gen_jacobi(0), gen_jacobi(1), ..., as a list
    eigen_combined extends."""
    a, b = params.alpha, params.beta
    scales = [(row, mass / row.norm) for row, mass in zip(components(a, b), params.masses)
              if mass]
    den = lcm(*(s.denominator for _, s in scales))
    weights = tuple((row, s.numerator * (den // s.denominator)) for row, s in scales)
    return den, weights, [], []


def _combined_matrix(params: Params, dim: int) -> tuple:
    """(den, columns): the combined operator as integer columns over one
    denominator, built up to at least x^(dim-1)."""
    den, weights, columns, _ = _combined_entry(params)
    if len(columns) < dim:
        parts = [(_columns(row.kind, params.alpha, params.beta, dim), weight)
                 for row, weight in weights]
        for k in range(len(columns), dim):
            column = []
            for kind_columns, weight in parts:
                column = kernel.add_scaled(column, 1, kind_columns[k], weight)
            columns.append(tuple(column))
    return den, columns


def _matvec(columns: list, nums: tuple) -> list:
    """Integer vector sum(nums[k] * columns[k]); columns[k] has at most
    k + 1 entries, so the result has len(nums) entries."""
    out = [0] * len(nums)
    for c, column in zip(nums, columns):
        if c:
            out[:len(column)] = map(add, out, map(c.__mul__, column))
    return out


def _shifted_L2(y: Poly, a: int, b: int, shift: int, poles: tuple = ()) -> Poly:
    """apply_L2(y, a, b) + shift * y + sum(weight * (y / pole)) over the
    (weight, pole) pairs: one factor of the factorized and product forms.

    The image comes from apply_L2, looked up by module name; the shift and
    the pole terms join it on integer vectors over one denominator, and the
    sum is normalized once.  Each division is exact (exact_quotient raises
    NotDivisible, with y's true remainder, otherwise).
    """
    if y.is_zero:
        return y
    image = apply_L2(y, a, b)
    parts = [(image.nums, image.den, 1), (y.nums, y.den, shift)]
    parts += [(*exact_quotient(y.nums, y.den, pole), weight) for weight, pole in poles]
    den = lcm(*(d for _, d, _ in parts))
    nums = []
    for part, d, weight in parts:
        if weight:
            nums = kernel.add_scaled(nums, 1, part, weight * (den // d))
    return Poly._norm(nums, den)


def apply_factorized(kind: str, y: Poly, alpha: int, beta: int) -> Poly:
    """Product-of-second-order-factors form, scaled to match the elementary
    operators directly.

    Each factor adds the second-order operator, an endpoint-pole term
    realized by exact division of the current polynomial, and a constant
    shift (_shifted_L2, one integer pass per factor).  kind selects the
    pole structure:

    - "A": pole at x = -1; input must be divisible by (x+1); order 2*beta+4
    - "B": pole at x = +1; input must be divisible by (x-1); order 2*alpha+4
    - "C": both poles; input divisible by (x^2-1); order 2*alpha+2*beta+6

    Factors are applied with the highest constant-shift index first, so the
    factor with shift index 0 acts last; the factors do not commute with the
    pole terms, and this order is the one under which the eigen-equations
    telescope.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    minus, plus = (2 * (b + 1), X_PLUS_1), (-2 * (a + 1), X_MINUS_1)
    # kind -> (highest shift index, (weight, pole) pairs)
    kinds = {"A": (b + 1, (minus,)),
             "B": (a + 1, (plus,)),
             "C": (a + b + 2, (minus, plus))}
    if kind not in kinds:
        raise InvalidParam(f"kind must be one of {FACTORIZED_KINDS}, got {kind!r}")
    upper, poles = kinds[kind]
    out = y
    for j in range(upper, -1, -1):
        out = _shifted_L2(out, a, b, j * (a + b + 1 - j), poles)
    return out


def apply_duran(y: Poly, alpha: int, beta: int) -> Poly:
    """Alternative product form of the order-(2*beta+4) mass operator.

    Composes beta+1 constant-shifted second-order operators with raised
    second parameter (_shifted_L2 without poles), then one second-order
    operator with second parameter -1.  Everything is polynomial; no
    division occurs.  The shifted factors commute with one another, so only
    the final factor's position matters.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    out = y
    for j in range(b + 1):
        out = _shifted_L2(out, a, b + 1, (a + 1 + j) * (b + 1 - j))
    return apply_L2(out, a, -1)


def _expansion_columns(kind: str, params: Params) -> tuple:
    """(order, den, columns): the nominal order of the operator `kind` (the
    combined operator has the two-mass order) and its integer columns over
    den, probed on x^0 .. x^order."""
    a, b = params.alpha, params.beta
    rows = {row.kind: row for row in components(a, b)}
    rows["Combined"] = rows["Lfull"]
    if kind not in rows:
        raise InvalidParam(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    order = rows[kind].order
    if kind == "Combined":
        den, columns = _combined_matrix(params, order + 1)
    else:
        den, columns = 1, _columns(kind, a, b, order + 1)
    if any(columns[0]):
        raise InconsistentExpansion(f"{kind} does not annihilate constants")
    return order, den, columns


def _coefficient(columns: list, den: int, k: int) -> Poly:
    """c_k of L = sum_i c_i(x) d^i/dx^i, given L[x^i] = columns[i] / den, by
    Newton's forward-difference formula

        k! * den * c_k = sum_{i<=k} (-1)^(k-i) C(k, i) * x^(k-i) * columns[i],

    the inverse of L[x^k] = sum_{i<=k} C(k, i) * i! c_i * x^(k-i): one pass
    over the columns, whatever the other coefficients are."""
    nums = [0] * (k + 1)
    for i in range(k + 1):
        column, lo = columns[i], k - i
        # column i has at most i + 1 entries and lands on x^(k-i) .. x^k
        scale = -comb(k, i) if lo & 1 else comb(k, i)
        nums[lo:lo + len(column)] = map(add, nums[lo:lo + len(column)],
                                        map(scale.__mul__, column))
    return Poly._norm(nums, factorial(k) * den)


def expand_operator(kind: str, params: Params) -> DiffOperator:
    """Recover explicit coefficient polynomials from the operator matrix:
    the nonzero c_k, k = 1 .. nominal order, each by one Newton sum over the
    columns (_coefficient).  The result reproduces the operator on every
    polynomial, which the test suite checks against the direct application
    paths.
    """
    order, den, columns = _expansion_columns(kind, params)
    terms = ((k, _coefficient(columns, den, k)) for k in range(1, order + 1))
    return DiffOperator(tuple((k, c) for k, c in terms if not c.is_zero))


def top_term(kind: str, params: Params) -> tuple:
    """(k, c_k) of the highest k <= the nominal order with c_k != 0, scanning
    down from the nominal order with one Newton sum per k: the last term of
    expand_operator(kind, params), without the terms below it.
    (0, Poly.zero()) when every coefficient up to the nominal order vanishes.
    """
    order, den, columns = _expansion_columns(kind, params)
    for k in range(order, 0, -1):
        c_k = _coefficient(columns, den, k)
        if not c_k.is_zero:
            return k, c_k
    return 0, Poly.zero()


# ---------------- eigenvalues and constants ----------------

def eigen_lambda2(n: int, alpha: RationalLike, beta: RationalLike) -> EigenValue:
    """Eigenvalue n(n+alpha+beta+1) of the second-order operator, for any
    exact rational alpha and beta."""
    nonneg_int("polynomial index", n)
    return EigenValue(n * (n + as_rational(alpha) + as_rational(beta) + 1))


def eigen_high(kind: str, n: int, alpha: int, beta: int) -> EigenValue:
    """Eigenvalue of a higher-order mass operator, read from its components
    row.

    kind "side" is the order-(2*alpha+4) operator paired with poly_R; for
    the mirror operator paired with poly_Q pass swapped parameters.  kind
    "full" is the order-(2*alpha+2*beta+6) operator paired with poly_S.
    """
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    nonneg_int("polynomial index", n)
    rows = {"side": 2, "full": 3}
    if kind not in rows:
        raise InvalidParam(f"kind must be 'side' or 'full', got {kind!r}")
    return EigenValue(components(a, b)[rows[kind]].eigen(n))


@lru_cache(maxsize=256, typed=True)
def const_b(alpha: int, beta: int) -> Fraction:
    """Normalization (alpha+2)! * (beta+1)_(alpha+1) of a side operator."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    return factorial(a + 2) * pochhammer(b + 1, a + 1)


@lru_cache(maxsize=256, typed=True)
def const_c(alpha: int, beta: int) -> Fraction:
    """Normalization (alpha+1)(beta+1)(alpha+beta+3)((alpha+beta+1)!)^2."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    return Fraction((a + 1) * (b + 1) * (a + b + 3)) * factorial(a + b + 1) ** 2


def eigen_combined(n: int, params: Params) -> EigenValue:
    """Eigenvalue of the combined operator on gen_jacobi(n, params): its
    components' integer eigenvalues with the integer weights of its matrix,
    summed over the matrix's denominator."""
    nonneg_int("polynomial index", n)
    den, weights, _, eigens = _combined_entry(params)
    for k in range(len(eigens), n + 1):
        eigens.append(Fraction(sum(weight * row.eigen(k) for row, weight in weights), den))
    return EigenValue(eigens[n])


# ---------------- the four components of Theorem 2.1 ----------------

class Component(NamedTuple):
    """One elementary operator of Theorem 2.1, a row of Proposition 2.2: the
    block it has as eigenfunctions and their eigenvalue, its order and
    normalization; and its factorized form (Proposition 2.3), which acts on
    multiples of the block's endpoint factor."""

    kind: str               # its kind in expand_operator and _columns
    name: str               # the operator, as case labels name it
    poly: Callable          # poly(n, alpha, beta): the P, Q, R or S block
    apply: Callable         # apply(y, alpha, beta)
    spectrum: tuple         # (s, t, k): the eigenvalue is (n+s)_k (n+t)_k
    order: int
    norm: Fraction          # the combined operator scales it by mass / norm
    factor: Poly            # its divergence form's factor, the block's endpoint factor
    factorized: str = ""    # the apply_factorized kind
    where: str = ""         # the factor, as case labels name the block

    def eigen(self, n: int) -> int:
        """The eigenvalue on the block of degree n, a product of two integer
        ranges."""
        s, t, k = self.spectrum
        return prod(range(n + s, n + s + k)) * prod(range(n + t, n + t + k))

    def minus_eigen(self, n: int, a: int, b: int) -> Callable:
        """y -> apply(y) - eigen(n) y, zero on the block of degree n."""
        lam = self.eigen(n)
        return lambda y: eigen_residual(self.apply(y, a, b), lam, y)


def components(alpha: int, beta: int) -> tuple:
    """The components P, Q, R, S at (alpha, beta): the second-order, mass(-1),
    mass(+1) and two-mass operators, with divergence_forms' factors.  Built
    per call, so a rebound module attribute takes effect."""
    a, b = alpha, beta
    f2, ft, fh, ff = (row.factor for row in divergence_forms(a, b))
    return (
        Component("L2", "second-order", jacobi_poly, apply_L2, (0, a + b + 1, 1), 2,
                  Fraction(1), f2),
        Component("Ltilde", "mass(-1)", poly_Q, apply_Ltilde, (0, a, b + 2), 2 * b + 4,
                  const_b(b, a), ft, "A", "x+1"),
        Component("Lhat", "mass(+1)", poly_R, apply_Lhat, (0, b, a + 2), 2 * a + 4,
                  const_b(a, b), fh, "B", "x-1"),
        Component("Lfull", "two-mass", poly_S, apply_Lfull, (-1, 0, a + b + 3),
                  2 * a + 2 * b + 6, const_c(a, b), ff, "C", "both-endpoint"),
    )
