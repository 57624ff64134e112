"""Differential operators: elementary, factorized, and expanded forms."""
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from genjacobi.algebra import (InvalidParam, NotDivisible, Poly, X_MINUS_1, X_PLUS_1,
                               X2_MINUS_1, endpoint_weight, nonneg_int, pochhammer)
from genjacobi.genjacobi import Params, gen_jacobi, poly_Q, poly_R, poly_S
from genjacobi.jacobi import jacobi_poly
from genjacobi import operators, verify
from genjacobi.operators import (DiffOperator, EigenValue, InconsistentExpansion,
                                 apply_L2, apply_Lfull,
                                 apply_Lhat, apply_Ltilde, apply_combined,
                                 apply_duran, apply_factorized, components, const_b,
                                 const_c, eigen_combined, eigen_high, eigen_lambda2,
                                 eigen_residual,
                                 expand_operator, top_term, FACTORIZED_KINDS,
                                 OPERATOR_KINDS, _coefficient, _column_list,
                                 _columns, _combined_entry, _combined_matrix,
                                 _conjugated, _expansion_columns, _matvec)
from genjacobi.verify import SplitMix64, run_suite
from test_caches import _lru_caches
from test_mutants import TINY

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)


def test_l2_anchors():
    assert apply_L2(Poly([5]), 0, 0).is_zero
    assert apply_L2(Poly([0, 1]), 1, 2) == Poly([-1, 5])
    assert apply_L2(jacobi_poly(2, 0, 0), 0, 0) == 6 * jacobi_poly(2, 0, 0)


def test_l2_eigen_equation_rational_params():
    for g, d in ((0, 0), (F(1, 2), F(1, 3)), (2, F(-1, 2))):
        for n in range(9):
            p = jacobi_poly(n, g, d)
            lam = n * (n + g + d + 1)
            assert apply_L2(p, g, d) == lam * p


def apply_L2_conjugated(y, alpha, beta):
    """apply_L2 through its divergence form, the L2 row of
    operators.divergence_forms, an independent oracle of the stencil:
    (x-1)^(-alpha) (x+1)^(-beta) * d/dx[(x-1)^(alpha+1) (x+1)^(beta+1) y'],
    the conjugated recipe with k = 1 and an exact division; integer
    parameters only.  The table and operators._conjugated are read at call
    time, so a test that rebinds either reaches this path too."""
    v, k, w, strip, factor, _ = operators.divergence_forms(alpha, beta)[0]
    return operators._conjugated(y, v, k, endpoint_weight(*w), strip, factor)


def test_l2_conjugated_agrees():
    # the L2 row whole: its recipe gives the stencil's image, and its endpoint
    # constants the image's values at -1 and +1
    for a, b in product(range(3), range(3)):
        v, k, _, _, _, ends = operators.divergence_forms(a, b)[0]
        for n in range(7):
            p = jacobi_poly(n, a, b)
            image = apply_L2(p, a, b)
            assert apply_L2_conjugated(p, a, b) == image
            assert [image.eval(x) for x in (-1, 1)] == [
                c * (v * p).derive(k).eval(x) for x, c in zip((-1, 1), ends)], (a, b, n)


def test_ltilde_lhat_anchors():
    assert apply_Ltilde(X_PLUS_1, 0, 0) == 4 * X_PLUS_1
    assert apply_Lhat(X_MINUS_1, 0, 0) == 4 * X_MINUS_1
    # constants are annihilated
    for a, b in product(range(3), range(3)):
        assert apply_Ltilde(Poly([7]), a, b).is_zero
        assert apply_Lhat(Poly([7]), a, b).is_zero


def test_side_operator_eigen_equations():
    for a, b in product(range(3), range(3)):
        for n in range(1, 8):
            q = poly_Q(n, a, b)
            lam = eigen_high("side", n, b, a).value
            assert apply_Ltilde(q, a, b) == lam * q
            r = poly_R(n, a, b)
            mu = eigen_high("side", n, a, b).value
            assert apply_Lhat(r, a, b) == mu * r


def test_lfull_anchors():
    s = poly_S(2, 0, 0)
    assert s == 18 * X2_MINUS_1
    assert apply_Lfull(s, 0, 0) == 144 * s
    # degree <= 1 lies in the kernel
    for a, b in product(range(3), range(3)):
        assert apply_Lfull(Poly([3, -2]), a, b).is_zero


def test_lfull_eigen_equation():
    for a, b in product(range(3), range(3)):
        for n in range(2, 7):
            s = poly_S(n, a, b)
            lam = eigen_high("full", n, a, b).value
            assert apply_Lfull(s, a, b) == lam * s


def test_eigen_anchors():
    assert eigen_lambda2(2, 0, 0).value == 6
    assert eigen_lambda2(1, 1, 2).value == 5
    assert eigen_high("side", 1, 0, 0).value == 4
    assert eigen_high("full", 2, 0, 0).value == 144
    assert eigen_high("full", 1, 0, 0).value == 0
    assert eigen_high("full", 1, 2, 3).value == 0
    with pytest.raises(InvalidParam):
        eigen_high("diag", 1, 0, 0)


# the eigenvalues as products of Pochhammer Fractions, the recipe the
# integer ranges in src replaced
ORACLE_EIGENS = {
    "side": lambda n, a, b: pochhammer(n, a + 2) * pochhammer(n + b, a + 2),
    "full": lambda n, a, b: pochhammer(n - 1, a + b + 3) * pochhammer(n, a + b + 3),
}


def test_eigen_high_equals_the_pochhammer_recipe():
    for kind, oracle in ORACLE_EIGENS.items():
        for n, a, b in product(range(21), range(7), range(7)):
            got = eigen_high(kind, n, a, b).value
            assert type(got) is Fraction and got == oracle(n, a, b), (kind, n, a, b)


def test_component_spectra_equal_the_recipe():
    # each row's (s, t, k) gives an int eigenvalue: n(n+alpha+beta+1) for L2,
    # the Pochhammer products for the mass rows (Ltilde is "side" at (beta, alpha))
    side, full = ORACLE_EIGENS["side"], ORACLE_EIGENS["full"]
    for a, b in product(range(9), range(9)):
        recipes = (lambda n: n * (n + a + b + 1), lambda n: side(n, b, a),
                   lambda n: side(n, a, b), lambda n: full(n, a, b))
        for row, recipe in zip(components(a, b), recipes):
            for n in range(41):
                got = row.eigen(n)
                assert type(got) is int and got == recipe(n), (row.kind, n, a, b)


@settings(max_examples=60, deadline=None)
@given(polys, rationals, polys)
def test_eigen_residual_is_image_minus_lam_y(image, lam, y):
    want = image - lam * y
    assert eigen_residual(image, lam, y) == want
    # a zero residual, from an image with a non-unit denominator
    assert eigen_residual(lam * y, lam, y) == Poly.zero()


def test_constants():
    assert const_b(0, 0) == 2
    assert const_b(1, 0) == 12
    assert const_b(0, 1) == 4
    assert const_c(0, 0) == 3
    assert const_c(1, 1) == 720


def test_combined_reduces_to_l2():
    pr = Params(1, 2, 0, 0)
    for n in range(7):
        p = jacobi_poly(n, 1, 2)
        assert apply_combined(p, pr) == apply_L2(p, 1, 2)


def test_combined_eigen_equation():
    for a, b in ((0, 0), (1, 2), (2, 2)):
        for M, N in ((1, 1), (F(1, 3), 2), (0, F(1, 2))):
            pr = Params(a, b, M, N)
            for n in range(8):
                p = gen_jacobi(n, pr)
                lam = eigen_combined(n, pr).value
                assert apply_combined(p, pr) == lam * p


def test_combined_eigenvalue_is_the_matrix_diagonal():
    # a second route to eigen_combined: entry n of the triangular matrix
    ms = verify.DEFAULT_MASSES
    for a, b in product(range(verify.DEFAULT_ALPHA_MAX + 1), range(verify.DEFAULT_BETA_MAX + 1)):
        for M, N in product(ms, ms):
            pr = Params(a, b, M, N)
            den, columns = _combined_matrix(pr, 16)
            for n, column in enumerate(columns[:16]):
                diagonal = F(column[n], den) if len(column) > n else 0
                assert eigen_combined(n, pr).value == diagonal, (pr, n)


def test_factorized_matches_elementary():
    for a, b in product(range(3), range(3)):
        for n in range(1, 6):
            q = poly_Q(n, a, b)
            assert apply_factorized("A", q, a, b) == apply_Ltilde(q, a, b)
        assert apply_factorized("A", X_PLUS_1, a, b) == apply_Ltilde(X_PLUS_1, a, b)


def test_factorized_anchor():
    assert apply_factorized("A", X_PLUS_1, 0, 0) == 4 * X_PLUS_1


@settings(max_examples=25, deadline=None)
@given(polys)
def test_factorized_A_on_multiples_of_x_plus_1(p):
    y = X_PLUS_1 * p
    assert apply_factorized("A", y, 1, 1) == apply_Ltilde(y, 1, 1)


@settings(max_examples=25, deadline=None)
@given(polys)
def test_factorized_B_on_multiples_of_x_minus_1(p):
    y = X_MINUS_1 * p
    assert apply_factorized("B", y, 1, 2) == apply_Lhat(y, 1, 2)


def test_factorized_C_eigen():
    for a, b in product(range(3), range(3)):
        for n in range(2, 6):
            s = poly_S(n, a, b)
            lam = eigen_high("full", n, a, b).value
            assert apply_factorized("C", s, a, b) == lam * s


def test_factorized_rejects_unknown_kind():
    with pytest.raises(InvalidParam):
        apply_factorized("D", X_PLUS_1, 0, 0)


def test_duran_annihilates_constants():
    for a, b in product(range(4), range(4)):
        assert apply_duran(Poly([9]), a, b).is_zero


def test_duran_equals_side_operator():
    # the product form is the same operator, monomial by monomial
    for a, b in product(range(3), range(3)):
        for k in range(2 * b + 9):
            m = Poly.monomial(k)
            assert apply_duran(m, a, b) == apply_Ltilde(m, a, b)
        for n in range(1, 6):
            q = poly_Q(n, a, b)
            assert apply_duran(q, a, b) == eigen_high("side", n, b, a).value * q


def test_expand_l2_coefficients():
    for a, b in ((0, 0), (1, 2)):
        op = expand_operator("L2", Params(a, b, 0, 0))
        assert [t[0] for t in op.terms] == [1, 2]
        coeffs = dict(op.terms)
        assert coeffs[1] == Poly([a - b, a + b + 2])
        assert coeffs[2] == X2_MINUS_1


def test_expand_effective_orders_and_top_coefficients():
    for a, b in ((0, 0), (1, 0), (1, 2)):
        pr = Params(a, b, 1, 1)
        op = expand_operator("Ltilde", pr)
        assert op.effective_order == 2 * b + 4
        assert dict(op.terms)[2 * b + 4] == X2_MINUS_1 ** (b + 2)
        op = expand_operator("Lhat", pr)
        assert op.effective_order == 2 * a + 4
        assert dict(op.terms)[2 * a + 4] == X2_MINUS_1 ** (a + 2)
        op = expand_operator("Lfull", pr)
        assert op.effective_order == 2 * a + 2 * b + 6
        assert dict(op.terms)[2 * a + 2 * b + 6] == X2_MINUS_1 ** (a + b + 3)


def test_expand_combined_orders():
    assert expand_operator("Combined", Params(1, 2, 0, 0)).effective_order == 2
    assert expand_operator("Combined", Params(0, 0, 1, 0)).effective_order == 4
    assert expand_operator("Combined", Params(0, 0, 1, 1)).effective_order == 6
    assert expand_operator("Combined", Params(1, 1, 0, 2)).effective_order == 6


def test_expand_rejects_unknown_kind():
    with pytest.raises(InvalidParam):
        expand_operator("L3", Params(0, 0, 0, 0))


def apply_expanded(op, y):
    """y under an expanded operator, sum of coeff * y^(order) over its terms:
    the oracle that expand_operator's tables reproduce the operators."""
    out = Poly.zero()
    for order, coeff in op.terms:
        out = out + coeff * y.derive(order)
    return out


@settings(max_examples=20, deadline=None)
@given(polys)
def test_expanded_operator_reproduces_direct_application(y):
    pr = Params(1, 1, F(1, 3), 2)
    ops = {
        "L2": lambda p: apply_L2(p, 1, 1),
        "Ltilde": lambda p: apply_Ltilde(p, 1, 1),
        "Lhat": lambda p: apply_Lhat(p, 1, 1),
        "Lfull": lambda p: apply_Lfull(p, 1, 1),
        "Combined": lambda p: apply_combined(p, pr),
    }
    for kind, direct in ops.items():
        op = expand_operator(kind, pr)
        assert apply_expanded(op, y) == direct(y)


@settings(max_examples=25, deadline=None)
@given(polys, polys, rationals, rationals)
def test_operators_are_linear(f, g, c1, c2):
    combo = c1 * f + c2 * g
    for op in (lambda p: apply_L2(p, 1, 2),
               lambda p: apply_Ltilde(p, 0, 1),
               lambda p: apply_Lhat(p, 1, 0),
               lambda p: apply_Lfull(p, 0, 0),
               lambda p: apply_duran(p, 1, 1)):
        assert op(combo) == c1 * op(f) + c2 * op(g)


def test_diffoperator_validation():
    with pytest.raises(InvalidParam):
        DiffOperator(terms=((0, Poly([1])),))  # order must be >= 1
    with pytest.raises(InvalidParam):
        DiffOperator(terms=((2, Poly([1])), (1, Poly([0, 1]))))  # not increasing
    with pytest.raises(InvalidParam):
        DiffOperator(terms=((1, Poly.zero()),))  # zero coefficient


def test_diffoperator_rejects_an_order_that_is_not_an_int():
    # neither truncated (2.7 -> 2) nor coerced (True -> 1)
    for order in (2.7, 2.0, True, Fraction(2)):
        with pytest.raises(InvalidParam):
            DiffOperator(terms=((order, Poly([1])),))


def test_diffoperator_apply():
    op = DiffOperator(terms=((1, Poly([0, 2])), (2, X2_MINUS_1)))
    y = Poly.monomial(3)
    assert apply_expanded(op, y) == (Poly([0, 2]) * (3 * Poly.monomial(2))
                                     + X2_MINUS_1 * Poly([0, 6]))


def test_eigenvalue_wraps_exact_rationals():
    ev = EigenValue(value=F(7, 3))
    assert ev.value == F(7, 3)
    with pytest.raises(InvalidParam):
        EigenValue(value=0.5)


# ---------------- the cached integer matrices ----------------

ELEMENTARY = {"L2": apply_L2, "Ltilde": apply_Ltilde, "Lhat": apply_Lhat,
              "Lfull": apply_Lfull}
# increasing degrees, so most of them extend the cached column lists
EDGE_DEGREES = (0, 15, 16, 17, 31, 32, 33)


def poly_of_degree(rng, degree):
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(degree)]
    return Poly(coeffs + [Fraction(rng.randint(1, 20), rng.randint(1, 10))])


def combined_four_terms(y, params):
    """The combined operator as the sum of its four scaled elementary
    images: the direct path the matrix replaced, kept as an oracle."""
    a, b = params.alpha, params.beta
    out = apply_L2(y, a, b)
    if params.M:
        out = out + (params.M / const_b(b, a)) * apply_Ltilde(y, a, b)
    if params.N:
        out = out + (params.N / const_b(a, b)) * apply_Lhat(y, a, b)
    if params.M and params.N:
        out = out + (params.M * params.N / const_c(a, b)) * apply_Lfull(y, a, b)
    return out


def probe_solve(op, order):
    """Coefficient polynomials by monomial probing in Poly arithmetic:
    L[x^k] = sum_i c_i * k!/(k-i)! * x^(k-i), solved for c_k in turn."""
    coeffs = []
    for k in range(1, order + 1):
        rhs = op(Poly.monomial(k))
        for i in range(1, k):
            rhs = rhs - coeffs[i - 1] * Poly.monomial(k - i, perm(k, i))
        coeffs.append(rhs * Fraction(1, factorial(k)))
    return tuple((i + 1, c) for i, c in enumerate(coeffs) if not c.is_zero)


@pytest.fixture
def cold_matrices():
    _column_list.cache_clear()
    _combined_entry.cache_clear()
    yield
    _column_list.cache_clear()
    _combined_entry.cache_clear()


def _image(kind: str, y: Poly, alpha: int, beta: int) -> Poly:
    """y under the elementary operator `kind`, through its cached columns."""
    if y.is_zero:
        return y
    columns = _columns(kind, alpha, beta, len(y.nums))
    return Poly._norm(_matvec(columns, y.nums), y.den)


def test_columns_match_direct_application_at_edge_degrees():
    rng = SplitMix64(2024)
    ys = [poly_of_degree(rng, d) for d in EDGE_DEGREES]
    for a, b in product(range(5), range(5)):
        for kind, direct in ELEMENTARY.items():
            for y in ys:
                assert _image(kind, y, a, b) == direct(y, a, b), (kind, a, b, y.degree)


def test_combined_matrix_matches_the_four_term_sum():
    rng = SplitMix64(7)
    ys = [poly_of_degree(rng, d) for d in EDGE_DEGREES] + [Poly.zero()]
    for a, b in product(range(4), range(4)):
        for M, N in ((0, 0), (F(1, 3), 0), (0, 2), (F(1, 3), 2), (1, F(5, 7))):
            pr = Params(a, b, M, N)
            for y in ys:
                assert apply_combined(y, pr) == combined_four_terms(y, pr), (pr, y.degree)


def test_expand_operator_matches_a_poly_probe_solve():
    for a, b in product(range(4), range(4)):
        pr = Params(a, b, F(1, 3), 2)
        ops = {kind: (lambda y, f=f: f(y, a, b)) for kind, f in ELEMENTARY.items()}
        ops["Combined"] = lambda y: combined_four_terms(y, pr)
        orders = {"L2": 2, "Ltilde": 2 * b + 4, "Lhat": 2 * a + 4,
                  "Lfull": 2 * a + 2 * b + 6, "Combined": 2 * a + 2 * b + 6}
        for kind, op in ops.items():
            assert expand_operator(kind, pr).terms == probe_solve(op, orders[kind]), (kind, a, b)


def triangular_solve(columns, den, order):
    """c_1 .. c_order by the integer triangular system the Newton sum
    replaced, kept as its oracle: e_k = k! * den * c_k solves
    e_k = columns[k] - sum_{0<i<k} C(k, i) * e_i * x^(k-i)."""
    solved = [()]                   # solved[i] = e_i; e_0 is unused
    coeffs = []
    for k in range(1, order + 1):
        e_k = list(columns[k]) + [0] * (k + 1 - len(columns[k]))
        for i in range(1, k):
            # e_i has i + 1 entries and lands on x^(k-i) .. x^k
            e_k[k - i:] = map(sub, e_k[k - i:], map(comb(k, i).__mul__, solved[i]))
        solved.append(e_k)
        coeffs.append(Poly._norm(list(e_k), factorial(k) * den))
    return coeffs


def test_newton_coefficient_matches_the_triangular_solve():
    masses = (0, F(1, 3), 2)
    for a, b in product(range(5), range(5)):
        points = [("Combined", Params(a, b, M, N)) for M, N in product(masses, repeat=2)]
        points += [(kind, Params(a, b)) for kind in ELEMENTARY]
        for kind, pr in points:
            order, den, columns = _expansion_columns(kind, pr)
            newton = [_coefficient(columns, den, k) for k in range(1, order + 1)]
            assert newton == triangular_solve(columns, den, order), (kind, pr)


def test_top_term_is_the_last_term_of_the_expansion():
    for a, b in product(range(9), range(9)):
        pr = Params(a, b, F(1, 3), 2)
        for kind in OPERATOR_KINDS:
            assert top_term(kind, pr) == expand_operator(kind, pr).terms[-1], (kind, a, b)


def test_an_operator_with_no_term_has_top_term_zero(monkeypatch, cold_matrices):
    monkeypatch.setattr(operators, "apply_Ltilde", lambda y, a, b: Poly.zero())
    assert expand_operator("Ltilde", Params(1, 0)).terms == ()
    assert top_term("Ltilde", Params(1, 0)) == (0, Poly.zero())


def test_one_column_list_per_operator_whatever_the_growth(cold_matrices):
    pr = Params(2, 1, F(1, 3), 2)

    def matrices(dim):
        return ([list(_columns(kind, 2, 1, dim)) for kind in ELEMENTARY]
                + [list(_combined_matrix(pr, dim)[1])])

    for dim in (16, 33, 20):
        grown = matrices(dim)
    assert _column_list.cache_info().currsize == len(ELEMENTARY)
    assert _combined_entry.cache_info().currsize == 1
    _column_list.cache_clear()
    _combined_entry.cache_clear()
    assert grown == matrices(33)


def test_expand_operator_probes_only_order_plus_one_columns(monkeypatch, cold_matrices):
    calls = []

    def counting(y, a, b, apply=operators.apply_L2):
        calls.append(y)
        return apply(y, a, b)

    monkeypatch.setattr(operators, "apply_L2", counting)
    for expand in (expand_operator, top_term):
        _column_list.cache_clear()
        calls.clear()
        expand("L2", Params(1, 0))
        assert calls == [Poly.monomial(k) for k in range(3)], expand


@pytest.mark.parametrize("broken", [
    lambda y, a, b: y * F(1, 2),        # not an integer vector
    lambda y, a, b: y * Poly([0, 1]),       # degree k + 1
])
def test_columns_reject_a_non_triangular_operator(monkeypatch, cold_matrices, broken):
    monkeypatch.setattr(operators, "apply_L2", broken)
    with pytest.raises(InconsistentExpansion):
        expand_operator("L2", Params(1, 0))
    with pytest.raises(InconsistentExpansion):
        apply_combined(Poly([0, 1]), Params(1, 0))


# ---------------- integer passes against their Poly-op oracles ----------------

def pencil_L2(y, alpha, beta):
    """(x^2-1)y'' + [alpha-beta+(alpha+beta+2)x]y' in Poly arithmetic: the
    pencil form apply_L2's coefficient stencil replaced, kept as an oracle."""
    a, b = F(alpha), F(beta)
    return X2_MINUS_1 * y.derive(2) + Poly([a - b, a + b + 2]) * y.derive(1)


def poly_op_recipe(y, v, k, w, strip, factor):
    """_conjugated in Poly arithmetic, each step normalized: the recipe the
    integer-vector pass replaced, kept as an oracle."""
    outer = (w * (v * y).derive(k)).derive(k)
    if strip.degree > 0:
        outer = outer / strip
    return factor * outer


def test_l2_stencil_matches_the_pencil_form():
    rng = SplitMix64(15)
    ys = [Poly.zero()] + [poly_of_degree(rng, d) for d in (0, 1, 2, 3, 7, 12)]
    pairs = ([(a, b) for a, b in product(range(5), range(5))]
             + [(a, -1) for a in range(5)]                   # apply_duran's last factor
             + [(F(-1, 2), F(1, 3)), (F(5, 2), F(-2, 3)), (F(1, 3), F(1, 3)), (-1, -1)]
             + [("1/2", "-2/3"), ("-2/3", 3), (0, "1/2"), ("7/4", "7/4")])
    for (a, b), y in product(pairs, ys):
        assert apply_L2(y, a, b) == pencil_L2(y, a, b), (a, b, y)
    assert apply_L2(Poly.zero(), F(5, 2), F(-2, 3)).is_zero


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(-3, 8), st.integers(-3, 8), st.integers(0, 20))
def test_int_parameters_agree_with_fraction_and_text_ones(y, a, b, n):
    # apply_L2 keeps int alpha and beta in ints; a Fraction or a "p/q" string
    # goes through as_rational; images and eigenvalues agree, Duran's beta = -1 too
    want, lam = pencil_L2(y, a, b), F(n * (n + a + b + 1))
    for pa, pb in product((a, F(a), f"{2 * a}/2"), (b, F(b), f"{3 * b}/3")):
        assert apply_L2(y, pa, pb) == want, (pa, pb)
        got = eigen_lambda2(n, pa, pb).value
        assert type(got) is Fraction and got == lam, (pa, pb)


def test_int_parameters_never_reach_as_rational(monkeypatch, cold_matrices):
    # the tiny thm21 run probes L2's columns from scratch, and no apply_L2
    # call of it reaches as_rational
    callers, entered = [], []

    def recording(value, coerce=operators.as_rational):
        callers.append(sys._getframe(1).f_code.co_name)
        return coerce(value)

    def entering(*args, inner=operators.apply_L2):
        entered.append("apply_L2")
        return inner(*args)

    monkeypatch.setattr(operators, "as_rational", recording)
    monkeypatch.setattr(operators, "apply_L2", entering)
    assert run_suite("thm21", **TINY).all_pass
    assert "apply_L2" in entered and "apply_L2" not in callers
    # a bool is an int to isinstance, but not to apply_L2's int path: both refuse it
    for call in (lambda: apply_L2(Poly([0, 1]), True, 0), lambda: eigen_lambda2(1, 0, False)):
        with pytest.raises(InvalidParam):
            call()
    assert {"apply_L2", "eigen_lambda2"} <= set(callers)


def test_conjugated_matches_the_poly_op_recipe(monkeypatch):
    rng = SplitMix64(16)
    ys = [Poly.zero()] + [poly_of_degree(rng, d) for d in (0, 1, 3, 6, 11)]
    operators_ = (apply_Ltilde, apply_Lhat, apply_Lfull, apply_L2_conjugated)
    cases = [(op, a, b, y) for op in operators_ for a, b in product(range(4), range(4))
             for y in ys]
    got = [op(y, a, b) for op, a, b, y in cases]
    monkeypatch.setattr(operators, "_conjugated", poly_op_recipe)
    for (op, a, b, y), image in zip(cases, got):
        assert image == op(y, a, b), (op.__name__, a, b, y)
    monkeypatch.undo()
    # rational weights and factors, and a constant strip that is not divided by
    for k, y in product((1, 2, 4), ys):
        v, w, factor = (poly_of_degree(rng, d) for d in (2, 3, 1))
        for strip in (Poly.one(), Poly([F(3, 2)])):
            assert (_conjugated(y, v, k, w, strip, factor)
                    == poly_op_recipe(y, v, k, w, strip, factor)), (k, y)


def test_conjugated_raises_when_the_strip_does_not_divide():
    # D[x^2 * D[x]] = 2x leaves remainder -2 on division by x+1
    with pytest.raises(NotDivisible, match=r"remainder Poly\('-2'\)"):
        _conjugated(Poly([0, 1]), Poly.one(), 1, Poly([0, 1]) ** 2, X_PLUS_1, Poly.one())
    # D[x * D[x]] = 1 is nonzero and of lower degree than x+1
    with pytest.raises(NotDivisible, match="degree 0 < divisor degree 1"):
        _conjugated(Poly([0, 1]), Poly.one(), 1, Poly([0, 1]), X_PLUS_1, Poly.one())


def poly_op_factorized(kind, y, alpha, beta):
    """apply_factorized as a chain of Poly operations, each step normalized
    and each pole term a Poly.exact_div: the chain the integer pass per
    factor replaced, kept as an oracle."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
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


def poly_op_duran(y, alpha, beta):
    """apply_duran as a chain of Poly operations, each step normalized: the
    chain the integer pass per factor replaced, kept as an oracle."""
    a = nonneg_int("alpha", alpha)
    b = nonneg_int("beta", beta)
    out = y
    for j in range(b + 1):
        out = apply_L2(out, a, b + 1) + (a + 1 + j) * (b + 1 - j) * out
    return apply_L2(out, a, -1)


def outcome(f, *args):
    """f(*args), or the message of the NotDivisible it raises."""
    try:
        return f(*args)
    except NotDivisible as e:
        return f"NotDivisible: {e}"


def test_factorized_and_product_forms_match_their_poly_op_chains():
    rng = SplitMix64(17)
    draws = [poly_of_degree(rng, d) for d in (0, 1, 3, 6)]
    for a, b in product(range(5), range(5)):
        for row in components(a, b)[1:]:
            blocks = [row.poly(n, a, b) for n in range(1, 6)]
            for y in [Poly.zero()] + [row.factor * p for p in draws] + blocks:
                assert (apply_factorized(row.factorized, y, a, b)
                        == poly_op_factorized(row.factorized, y, a, b)), (row.kind, a, b, y)
        for y in [Poly.zero()] + draws + [poly_Q(n, a, b) for n in range(1, 6)]:
            assert apply_duran(y, a, b) == poly_op_duran(y, a, b), (a, b, y)


def test_factorized_raises_as_its_oracle_when_a_pole_does_not_divide():
    undivisible = {"A": (Poly.one(), X_MINUS_1, Poly([F(-1, 3), F(1, 3)])),
                   "B": (Poly.one(), X_PLUS_1),
                   "C": (Poly.one(), X_PLUS_1, X_MINUS_1)}
    for (kind, ys), (a, b) in product(undivisible.items(), ((0, 0), (2, 1))):
        for y in ys:
            want = outcome(poly_op_factorized, kind, y, a, b)
            assert want.startswith("NotDivisible")
            assert outcome(apply_factorized, kind, y, a, b) == want, (kind, a, b, y)
    # the remainder over the dividend's true denominator
    with pytest.raises(NotDivisible, match=r"remainder Poly\('-2/3'\) dividing by "
                                           r"Poly\('x\+1'\)"):
        apply_factorized("A", Poly([F(-1, 3), F(1, 3)]), 0, 0)


def test_factorized_fails_mid_chain_as_its_oracle(monkeypatch):
    # a wrong second-order factor leaves the next factor's input undivisible
    def swapped(y, a, b, apply=operators.apply_L2):
        return apply(y, b, a)

    monkeypatch.setattr(operators, "apply_L2", swapped)
    monkeypatch.setitem(globals(), "apply_L2", swapped)
    raised = 0
    for a, b in ((1, 0), (0, 1), (2, 1)):
        for row, k in product(components(a, b)[1:], range(4)):
            y = row.factor * Poly.monomial(k)
            want = outcome(poly_op_factorized, row.factorized, y, a, b)
            assert outcome(apply_factorized, row.factorized, y, a, b) == want, (row.kind, a, b, k)
            raised += isinstance(want, str)
    assert raised


def test_factorized_and_product_suites_divide_no_poly_by_a_poly(monkeypatch):
    def refused(self, d):
        raise AssertionError(f"{self!r} / {d!r} reached Poly.exact_div")

    monkeypatch.setattr(Poly, "exact_div", refused)
    for cache in _lru_caches().values():
        cache.cache_clear()
    for suite in ("prop23", "duran"):
        assert run_suite(suite, **TINY).all_pass, suite


def test_conjugated_operators_read_their_weights_from_one_cache(monkeypatch):
    y = Poly([1, -2, 0, 3])
    conjugated = (apply_Ltilde, apply_Lhat, apply_Lfull, apply_L2_conjugated)
    for op in conjugated:
        op(y, 2, 1)
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append((p, q)) or mul(p, q))
    for op in conjugated:
        op(y, 2, 1)
    assert products == []


def four_term_eigenvalue(n, params):
    """The combined eigenvalue as a sum of four Fractions, mass / norm times
    each component's eigenvalue."""
    a, b, M, N = params.alpha, params.beta, params.M, params.N
    return (eigen_lambda2(n, a, b).value
            + M / const_b(b, a) * eigen_high("side", n, b, a).value
            + N / const_b(a, b) * eigen_high("side", n, a, b).value
            + M * N / const_c(a, b) * eigen_high("full", n, a, b).value)


def test_eigen_combined_matches_the_four_term_sum_in_any_order(cold_matrices):
    params = [Params(a, b, M, N) for a, b in ((0, 0), (1, 2), (3, 1))
              for M, N in ((0, 0), (F(1, 3), 0), (0, F(5, 7)), (F(1, 3), 2))]
    for order in (range(12, -1, -1), range(13)):
        _column_list.cache_clear()
        _combined_entry.cache_clear()
        for pr, n in product(params, order):
            assert eigen_combined(n, pr).value == four_term_eigenvalue(n, pr), (pr, n)


def test_eigen_combined_rejects_a_negative_index(cold_matrices):
    pr = Params(1, 1, 1, 1)
    eigen_combined(3, pr)           # the cached list would serve eigens[-1]
    for n in (-1, -4, 2.0):
        with pytest.raises(InvalidParam):
            eigen_combined(n, pr)
