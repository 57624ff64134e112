"""Jacobi polynomials: dual construction paths and shift identities."""
from fractions import Fraction
from math import factorial

import pytest

from genjacobi.algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                               X_PLUS_1, as_rational, pochhammer)
from genjacobi.jacobi import jacobi_poly, jacobi_recurrence
from genjacobi.report import Case, VerifyReport, params_str

GRID = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2),
        Fraction(7, 3)]


def verify_diff_identities(n: int, gamma: RationalLike, delta: RationalLike) -> VerifyReport:
    """Check the four derivative/parameter-shift identities at one point.

    Each identity is checked in cofactor form: the common weight factor
    (x-1)^(gamma-1) (x+1)^(delta-1) is stripped from both sides first, so the
    check stays inside exact polynomial arithmetic even for fractional
    parameters.  Identities whose parameter constraint fails are recorded as
    skipped with the violated constraint.
    """
    g, d = as_rational(gamma), as_rational(delta)
    pstr = params_str(gamma=g, delta=d)
    report = VerifyReport("diff-identities", grid={"n": str(n), **pstr})
    P = jacobi_poly(n, g, d)
    dP = P.derive()

    # plain derivative: lowers the degree, raises both parameters
    rhs = jacobi_poly(n - 1, g + 1, d + 1) if n >= 1 else Poly.zero()
    res = dP - Fraction(n + g + d + 1, 2) * rhs
    report.cases.append(Case.check("derivative raises both parameters", pstr, n, res))

    # (label, precondition, reason it fails, residual): the derivative of the
    # fully weighted polynomial (raises the degree, lowers both parameters),
    # then through the (x-1)^gamma and the (x+1)^delta factor alone
    weighted = (
        ("weighted derivative, both endpoint factors", g > 0 and d > 0,
         "needs gamma > 0 and delta > 0",
         lambda: (g * X_PLUS_1 * P + d * X_MINUS_1 * P + X2_MINUS_1 * dP
                  - 2 * (n + 1) * jacobi_poly(n + 1, g - 1, d - 1))),
        ("weighted derivative, x=1 factor", g > 0, "needs gamma > 0",
         lambda: g * P + X_MINUS_1 * dP - (n + g) * jacobi_poly(n, g - 1, d + 1)),
        ("weighted derivative, x=-1 factor", d > 0, "needs delta > 0",
         lambda: d * P + X_PLUS_1 * dP - (n + d) * jacobi_poly(n, g + 1, d - 1)),
    )
    for label, holds, reason, residual in weighted:
        report.cases.append(Case.check(label, pstr, n, residual()) if holds
                            else Case.skip(label, pstr, n, reason))
    return report


def test_anchor_values():
    assert jacobi_poly(0, 3, Fraction(1, 2)) == Poly([1])
    assert jacobi_poly(1, 0, 0) == Poly([0, 1])
    assert jacobi_poly(2, 0, 0) == Poly([Fraction(-1, 2), 0, Fraction(3, 2)])


def test_hypergeometric_equals_recurrence():
    for g in GRID:
        for d in GRID:
            for n in range(9):
                assert jacobi_poly(n, g, d) == jacobi_recurrence(n, g, d)


def test_degree_and_leading_coeff():
    for g in (0, 2, Fraction(1, 2)):
        for d in (0, 1, Fraction(5, 3)):
            for n in range(21):
                p = jacobi_poly(n, g, d)
                assert p.degree == n
                assert p.coeffs[-1] == pochhammer(n + g + d + 1, n) / (2**n * factorial(n))


def test_reflection():
    for g in GRID:
        for d in GRID:
            for n in range(8):
                mirrored = jacobi_poly(n, d, g).reflect()
                assert jacobi_poly(n, g, d) == (-1) ** n * mirrored


def test_value_at_one():
    # normalization: value at x=1 is (gamma+1)_n / n!
    for n in range(8):
        for g in GRID:
            p = jacobi_poly(n, g, Fraction(1, 3))
            assert p.eval(1) == pochhammer(g + 1, n) / factorial(n)


def test_parameter_validation():
    with pytest.raises(InvalidParam):
        jacobi_poly(2, -1, 0)
    with pytest.raises(InvalidParam):
        jacobi_poly(2, 0, Fraction(-3, 2))
    with pytest.raises(InvalidParam):
        jacobi_poly(-1, 0, 0)
    with pytest.raises(InvalidParam):
        jacobi_recurrence(2, Fraction(-5, 4), 0)


def test_leading_coeff_checks_its_parameters_as_jacobi_poly():
    # the closed-form leading coefficient holds where jacobi_poly is defined;
    # (2, -1, 0) has no Jacobi polynomial, so no closed form either
    assert jacobi_poly(2, 1, 0).coeffs[-1] == pochhammer(2 + 1 + 0 + 1, 2) / (2**2 * factorial(2))
    for args in ((2, -1, 0), (2, 0, Fraction(-3, 2)), (2.0, 0, 0), (True, 0, 0)):
        with pytest.raises(InvalidParam):
            jacobi_poly(*args)
    with pytest.raises(InvalidParam, match="polynomial index"):
        jacobi_poly(-1, 0, 0)


def test_diff_identities_all_pass_on_grid():
    for g in GRID:
        for d in GRID:
            for n in (0, 1, 2, 5):
                rep = verify_diff_identities(n, g, d)
                assert rep.all_pass, rep.to_plain()


def test_diff_identities_skip_reasons():
    rep = verify_diff_identities(3, 0, Fraction(1, 2))
    by_label = {c.label: c for c in rep.cases}
    both = by_label["weighted derivative, both endpoint factors"]
    assert both.skipped and "gamma > 0" in both.reason
    assert by_label["weighted derivative, x=1 factor"].skipped
    assert not by_label["weighted derivative, x=-1 factor"].skipped
    assert rep.all_pass  # skipped cases do not count as passes or failures
    assert sum(1 for c in rep.cases if c.skipped) == 2


def test_diff_identities_literal_products():
    # for integer parameters the identities also hold with the weight
    # factors multiplied through, not only in cofactor form
    for g in (1, 2):
        for d in (1, 3):
            for n in range(6):
                P = jacobi_poly(n, g, d)
                lhs = (X_MINUS_1**g * X_PLUS_1**d * P).derive()
                rhs = (2 * (n + 1) * X_MINUS_1**(g - 1) * X_PLUS_1**(d - 1)
                       * jacobi_poly(n + 1, g - 1, d - 1))
                assert lhs == rhs
                lhs = (X_MINUS_1**g * P).derive()
                rhs = (n + g) * X_MINUS_1**(g - 1) * jacobi_poly(n, g - 1, d + 1)
                assert lhs == rhs
                lhs = (X_PLUS_1**d * P).derive()
                rhs = (n + d) * X_PLUS_1**(d - 1) * jacobi_poly(n, g + 1, d - 1)
                assert lhs == rhs


def test_derivative_shift_identity_direct():
    for n in range(1, 9):
        for g in (0, Fraction(1, 2)):
            lhs = jacobi_poly(n, g, g).derive()
            rhs = Fraction(n + 2 * g + 1, 2) * jacobi_poly(n - 1, g + 1, g + 1)
            assert lhs == rhs
