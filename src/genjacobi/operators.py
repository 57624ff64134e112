"""Differential operators of the generalized Jacobi equation.

Four elementary operators act on polynomials, all in exact arithmetic:

- the classical second-order Jacobi operator (pencil form),
- an order-(2*beta+4) operator tied to the point mass at x = -1,
- an order-(2*alpha+4) mirror operator tied to the point mass at x = +1,
- an order-(2*alpha+2*beta+6) operator tied to the product of both masses.

Each higher-order operator is a conjugated repeated derivative: multiply by
endpoint-power weights, differentiate several times, multiply again,
differentiate again, then strip a known endpoint factor by exact division.
The division is exact for every polynomial input; a failure raises
NotDivisible and signals a genuine bug, not a rounding issue.

Also provided: factorized forms (products of shifted second-order factors),
an alternative product form for the order-(2*beta+4) operator, expansion of
any operator into explicit coefficient polynomials per derivative order, and
the exact eigenvalues of all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm

from .algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                      X_PLUS_1, as_rational, pochhammer)
from .genjacobi import Params

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
        terms = tuple((int(o), c) for o, c in self.terms)
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

    def apply(self, y: Poly) -> Poly:
        out = Poly.zero()
        for order, coeff in self.terms:
            out = out + coeff * y.derive(order)
        return out


def _nonneg_int(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidParam(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def apply_L2(y: Poly, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Second-order Jacobi operator in expanded pencil form,
    (x^2-1)y'' + [alpha-beta+(alpha+beta+2)x]y'.

    Parameters may be any exact rationals; the pencil needs no endpoint
    powers, so nothing restricts them to integers here.
    """
    a, b = as_rational(alpha), as_rational(beta)
    return X2_MINUS_1 * y.derive(2) + Poly([a - b, a + b + 2]) * y.derive(1)


def apply_L2_conjugated(y: Poly, alpha: int, beta: int) -> Poly:
    """Cross-check path for apply_L2 via the divergence form.

    Computes (x-1)^(-alpha) (x+1)^(-beta) * d/dx[(x-1)^(alpha+1)
    (x+1)^(beta+1) y'] with exact division; integer parameters only.
    """
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    inner = (X_MINUS_1 ** (a + 1) * X_PLUS_1 ** (b + 1) * y.derive()).derive()
    return inner / (X_MINUS_1 ** a * X_PLUS_1 ** b)


def apply_Ltilde(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*beta+4) operator for the point mass at x = -1."""
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    inner = (X_PLUS_1 ** (b + 1) * y).derive(b + 2)
    outer = (X_MINUS_1 ** (a + b + 2) * inner).derive(b + 2)
    if a:
        outer = outer / X_MINUS_1 ** a
    return X_PLUS_1 * outer


def apply_Lhat(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*alpha+4) operator for the point mass at x = +1."""
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    inner = (X_MINUS_1 ** (a + 1) * y).derive(a + 2)
    outer = (X_PLUS_1 ** (a + b + 2) * inner).derive(a + 2)
    if b:
        outer = outer / X_PLUS_1 ** b
    return X_MINUS_1 * outer


def apply_Lfull(y: Poly, alpha: int, beta: int) -> Poly:
    """Order-(2*alpha+2*beta+6) operator for the product of both masses.

    The middle weight swaps the endpoint exponents relative to the inner
    one: (x-1)^(beta+1) (x+1)^(alpha+1).  That swap is deliberate and
    load-bearing; with matched exponents the eigen-equations fail.
    """
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    inner = (X_MINUS_1 ** (a + 1) * X_PLUS_1 ** (b + 1) * y).derive(a + b + 3)
    middle = X_MINUS_1 ** (b + 1) * X_PLUS_1 ** (a + 1) * inner
    return X2_MINUS_1 * middle.derive(a + b + 3)


def apply_combined(y: Poly, params: Params) -> Poly:
    """Full operator of the generalized Jacobi equation.

    Second-order part plus the three mass operators, each scaled by its
    mass over the matching normalization constant.
    """
    a, b = params.alpha, params.beta
    out = apply_L2(y, a, b)
    if params.M:
        out = out + (params.M / const_b(b, a)) * apply_Ltilde(y, a, b)
    if params.N:
        out = out + (params.N / const_b(a, b)) * apply_Lhat(y, a, b)
    if params.M and params.N:
        out = out + (params.M * params.N / const_c(a, b)) * apply_Lfull(y, a, b)
    return out


def apply_factorized(kind: str, y: Poly, alpha: int, beta: int) -> Poly:
    """Product-of-second-order-factors form, scaled to match the elementary
    operators directly.

    Each factor adds the second-order operator, an endpoint-pole term
    realized by exact division of the current polynomial, and a constant
    shift.  kind selects the pole structure:

    - "A": pole at x = -1; input must be divisible by (x+1); order 2*beta+4
    - "B": pole at x = +1; input must be divisible by (x-1); order 2*alpha+4
    - "C": both poles; input divisible by (x^2-1); order 2*alpha+2*beta+6

    Factors are applied with the highest constant-shift index first, so the
    factor with shift index 0 acts last; the factors do not commute with the
    pole terms, and this order is the one under which the eigen-equations
    telescope.
    """
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    # kind -> (highest shift index, pole at x = -1, pole at x = +1)
    kinds = {"A": (b + 1, True, False),
             "B": (a + 1, False, True),
             "C": (a + b + 2, True, True)}
    if kind not in kinds:
        raise InvalidParam(f"kind must be one of {FACTORIZED_KINDS}, got {kind!r}")
    upper, pole_minus, pole_plus = kinds[kind]
    out = y
    for j in range(upper, -1, -1):
        term = apply_L2(out, a, b) + j * (a + b + 1 - j) * out
        if pole_minus:
            term = term + 2 * (b + 1) * (out / X_PLUS_1)
        if pole_plus:
            term = term - 2 * (a + 1) * (out / X_MINUS_1)
        out = term
    return out


def apply_duran(y: Poly, alpha: int, beta: int) -> Poly:
    """Alternative product form of the order-(2*beta+4) mass operator.

    Composes beta+1 constant-shifted second-order operators with raised
    second parameter, then one second-order operator with second parameter
    -1.  Everything is polynomial; no division occurs.  The shifted factors
    commute with one another, so only the final factor's position matters.
    """
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    out = y
    for j in range(b + 1):
        out = apply_L2(out, a, b + 1) + (a + 1 + j) * (b + 1 - j) * out
    return apply_L2(out, a, -1)


def expand_operator(kind: str, params: Params) -> DiffOperator:
    """Recover explicit coefficient polynomials by monomial probing.

    Applies the chosen operator to x^k for k = 1 .. nominal order and solves
    the triangular system  L[x^k] = sum_i coeff_i(x) * k!/(k-i)! * x^(k-i).
    The result reproduces the operator on every polynomial, which the test
    suite checks against the direct application paths.
    """
    a, b = params.alpha, params.beta
    kinds = {   # kind -> (operator, nominal order)
        "L2": (lambda y: apply_L2(y, a, b), 2),
        "Ltilde": (lambda y: apply_Ltilde(y, a, b), 2 * b + 4),
        "Lhat": (lambda y: apply_Lhat(y, a, b), 2 * a + 4),
        "Lfull": (lambda y: apply_Lfull(y, a, b), 2 * a + 2 * b + 6),
        "Combined": (lambda y: apply_combined(y, params), 2 * a + 2 * b + 6),
    }
    if kind not in kinds:
        raise InvalidParam(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    op, order = kinds[kind]

    if not op(Poly.one()).is_zero:
        raise InconsistentExpansion(f"{kind} does not annihilate constants")
    coeffs: list = []
    for k in range(1, order + 1):
        rhs = op(Poly.monomial(k))
        for i in range(1, k):
            rhs = rhs - coeffs[i - 1] * Poly.monomial(k - i, perm(k, i))
        e_k = rhs * Fraction(1, factorial(k))
        if e_k.degree > k:
            raise InconsistentExpansion(
                f"{kind}: coefficient at order {k} has degree {e_k.degree}")
        coeffs.append(e_k)
    terms = tuple((i + 1, c) for i, c in enumerate(coeffs) if not c.is_zero)
    return DiffOperator(terms)


# ---------------- eigenvalues and constants ----------------

def eigen_lambda2(n: int, alpha: RationalLike, beta: RationalLike) -> EigenValue:
    """Eigenvalue n(n+alpha+beta+1) of the second-order operator."""
    a, b = as_rational(alpha), as_rational(beta)
    return EigenValue(n * (n + a + b + 1))


def eigen_high(kind: str, n: int, alpha: int, beta: int) -> EigenValue:
    """Eigenvalue of a higher-order mass operator.

    kind "side" is the order-(2*alpha+4) operator paired with poly_R; for
    the mirror operator paired with poly_Q pass swapped parameters.  kind
    "full" is the order-(2*alpha+2*beta+6) operator paired with poly_S.
    """
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    if kind == "side":
        return EigenValue(pochhammer(n, a + 2) * pochhammer(n + b, a + 2))
    if kind == "full":
        return EigenValue(pochhammer(n - 1, a + b + 3) * pochhammer(n, a + b + 3))
    raise InvalidParam(f"kind must be 'side' or 'full', got {kind!r}")


@lru_cache(maxsize=256, typed=True)
def const_b(alpha: int, beta: int) -> Fraction:
    """Normalization (alpha+2)! * (beta+1)_(alpha+1) of a side operator."""
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    return factorial(a + 2) * pochhammer(b + 1, a + 1)


@lru_cache(maxsize=256, typed=True)
def const_c(alpha: int, beta: int) -> Fraction:
    """Normalization (alpha+1)(beta+1)(alpha+beta+3)((alpha+beta+1)!)^2."""
    a = _nonneg_int("alpha", alpha)
    b = _nonneg_int("beta", beta)
    return Fraction((a + 1) * (b + 1) * (a + b + 3)) * factorial(a + b + 1) ** 2


def eigen_combined(n: int, params: Params) -> EigenValue:
    """Eigenvalue of the combined operator on gen_jacobi(n, params)."""
    a, b = params.alpha, params.beta
    value = eigen_lambda2(n, a, b).value
    if params.M:
        value += params.M / const_b(b, a) * eigen_high("side", n, b, a).value
    if params.N:
        value += params.N / const_b(a, b) * eigen_high("side", n, a, b).value
    if params.M and params.N:
        value += params.M * params.N / const_c(a, b) * eigen_high("full", n, a, b).value
    return EigenValue(value)
