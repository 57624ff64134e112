"""Inner products, bilinear forms, boundary data, Gram matrices."""
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from genjacobi import inner, kernel, verify
from genjacobi.algebra import (InvalidParam, Poly, X_MINUS_1, X_PLUS_1, derive_nums,
                               endpoint_weight, pochhammer)
from genjacobi.genjacobi import Params, gen_jacobi
from genjacobi.inner import (BoundaryValues, bilinear_U,
                             bilinear_V, bilinear_Vt, bilinear_W,
                             boundary_closed_forms, gram_matrix, h_norm,
                             h_norm_integral, inner_product, inner_products, integrate,
                             mass_constant_identity, symmetry_defect,
                             weight_poly, weighted_integral)
from genjacobi.jacobi import jacobi_poly
from genjacobi.operators import (apply_L2, apply_Lfull, apply_Lhat,
                                 apply_Ltilde, const_b, const_c)
from genjacobi.verify import SplitMix64, random_poly

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)


def test_integrate_monomials():
    assert integrate(Poly([1])) == 2
    assert integrate(Poly.x()) == 0
    assert integrate(Poly.monomial(2)) == F(2, 3)
    assert integrate(Poly.monomial(7)) == 0
    assert integrate(Poly([1, 2, 3])) == 4


def _integrate_by_terms(f: Poly) -> Fraction:
    total = F(0)
    for k, c in enumerate(f.coeffs):
        if k % 2 == 0 and c:
            total += 2 * c / (k + 1)
    return total


def _oracle_polys():
    rng = SplitMix64(20170406)
    polys = [Poly.zero(), Poly.one(), Poly.monomial(60, F(-7, 3))]
    for degmax in (0, 1, 5, 15, 16, 17, 31, 40, 60):
        polys.extend(random_poly(rng, degmax) for _ in range(4))
    return polys


def test_integrate_matches_term_by_term_sum():
    for f in _oracle_polys():
        assert integrate(f) == _integrate_by_terms(f)


def test_weighted_integral_matches_weight_product():
    polys = _oracle_polys()
    for a, b in product(range(9), range(9)):
        for f in polys:
            want = _integrate_by_terms(f * weight_poly(a, b)) / h_norm(a, b)
            assert weighted_integral(f, a, b) == want, (a, b, f)


@pytest.mark.parametrize("fn", [lambda a, b: weighted_integral(Poly.x(), a, b),
                                h_norm, weight_poly, const_b, const_c])
def test_memoized_scalars_still_reject_bad_exponents(fn):
    fn(1, 0)   # a cached (1, 0) entry must not answer for True or 1.0
    for a, b in ((True, 0), (0, -1), (1.0, 0), (F(1), 0)):
        with pytest.raises(InvalidParam):
            fn(a, b)


def test_h_norm_anchors_and_integral_oracle():
    assert h_norm(0, 0) == 2
    assert h_norm(1, 1) == F(4, 3)
    assert h_norm(2, 0) == F(8, 3)
    for a, b in product(range(5), range(5)):
        assert h_norm(a, b) == h_norm_integral(a, b)


def test_weighted_integral_normalization():
    for a, b in product(range(4), range(4)):
        assert weighted_integral(Poly([1]), a, b) == 1
    assert weighted_integral(Poly.monomial(2), 0, 0) == F(1, 3)


def test_classical_orthogonality():
    p1, p2 = jacobi_poly(1, 0, 0), jacobi_poly(2, 0, 0)
    assert weighted_integral(p1 * p2, 0, 0) == 0
    for a, b in product(range(3), range(3)):
        for n, m in ((0, 1), (1, 2), (0, 3), (2, 4)):
            f = jacobi_poly(n, a, b) * jacobi_poly(m, a, b)
            assert weighted_integral(f, a, b) == 0


def test_inner_product_split_and_total():
    pr = Params(0, 0, F(1, 3), 2)
    one = Poly([1])
    r = inner_product(one, one, pr)
    assert isinstance(r, Fraction)
    assert r == 1 + F(1, 3) + 2
    # each part on its own, through zero masses
    assert inner_product(one, one, Params(0, 0)) == 1
    assert inner_product(one, one, Params(0, 0, F(1, 3), 0)) == 1 + F(1, 3)
    assert inner_product(one, one, Params(0, 0, 0, 2)) == 1 + 2
    assert inner_product(Poly.x(), one, pr) == 0 - F(1, 3) + 2
    assert inner_product(Poly.x(), one, Params(0, 0, F(1, 3), 0)) == -F(1, 3)
    assert inner_product(Poly.x(), one, Params(0, 0, 0, 2)) == 2


def test_inner_product_symmetric():
    pr = Params(1, 2, 1, F(1, 2))
    f, g = Poly([1, -2, 0, 3]), Poly([F(1, 3), 4])
    assert inner_product(f, g, pr) == inner_product(g, f, pr)


def _scalar_product_by_parts(f: Poly, g: Poly, p: Params) -> Fraction:
    # the weighted integral of f g plus the two endpoint mass terms, each
    # computed on its own; no moment vector is involved
    a, b = p.alpha, p.beta
    weighted = _integrate_by_terms(f * g * weight_poly(a, b)) / h_norm(a, b)
    return weighted + p.M * f.eval(-1) * g.eval(-1) + p.N * f.eval(1) * g.eval(1)


def _poly_of_degree(rng: SplitMix64, deg: int) -> Poly:
    coeffs = [F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(deg)]
    return Poly(coeffs + [F(rng.randint(1, 20), rng.randint(1, 10))])


# alpha != beta, and masses with different denominators
_ORACLE_PARAMS = [Params(0, 0), Params(2, 1, F(1, 3), F(2, 7)), Params(1, 3, 0, F(5, 2)),
                  Params(3, 0, F(7, 4), 0), Params(0, 2, 1, F(1, 6))]


def test_inner_product_matches_the_scalar_product_by_parts():
    rng = SplitMix64(11)
    # degree pairs whose product has 15, 16, 17, 31, 32 and 33 coefficients,
    # on both sides of the 16-moment block edges
    pairs = [(_poly_of_degree(rng, i), _poly_of_degree(rng, j))
             for i, j in ((7, 7), (7, 8), (8, 8), (15, 15), (15, 16), (16, 16),
                          (0, 0), (0, 31), (32, 0))]
    assert {15, 16, 17, 31, 32, 33} <= {f.degree + g.degree + 1 for f, g in pairs}
    f = pairs[0][0]
    pairs += [(Poly.zero(), f), (f, Poly.zero()), (Poly.zero(), Poly.zero())]
    for p in _ORACLE_PARAMS:
        for f, g in pairs:
            want = _scalar_product_by_parts(f, g, p)
            assert inner_product(f, g, p) == want, (p, f, g)
            assert inner_product(g, f, p) == want, (p, f, g)


@pytest.mark.parametrize("nmax", [0, 7, 8, 15, 16])
def test_gram_matrix_matches_the_scalar_product_by_parts(nmax):
    # the Gram matrix needs 2 nmax + 1 moments: 15, 17, 31 and 33 cross block edges
    for p in _ORACLE_PARAMS[1:3]:
        polys = [gen_jacobi(n, p) for n in range(nmax + 1)]
        want = [[_scalar_product_by_parts(f, g, p) for g in polys] for f in polys]
        assert gram_matrix(nmax, p) == want, p


def test_bilinear_U_anchors():
    assert bilinear_U(Poly([1]), Poly([5, 1, 1]), 0, 0) == 0
    assert bilinear_U(Poly.x(), Poly.x(), 0, 0) == F(2, 3)


@settings(max_examples=25, deadline=None)
@given(polys, polys)
def test_forms_are_symmetric(f, g):
    for form in (bilinear_U, bilinear_Vt, bilinear_V, bilinear_W):
        assert form(f, g, 1, 2) == form(g, f, 1, 2)


def _form_by_poly_ops(f, g, v, k, w, a, b):
    """A form's integral in Poly arithmetic, each step normalized: the path
    the integer-vector pass replaced, kept as an oracle."""
    return integrate((v * f).derive(k) * (v * g).derive(k) * w) / h_norm(a, b)


def test_forms_match_their_integrals_in_poly_ops():
    rng = SplitMix64(17)
    fs = [Poly.zero()] + [_poly_of_degree(rng, d) for d in (0, 3, 9)]
    for a, b in product(range(4), range(4)):
        forms = ((bilinear_U, Poly.one(), 1, weight_poly(a + 1, b + 1)),
                 (bilinear_Vt, X_PLUS_1 ** (b + 1), b + 2, weight_poly(a + b + 2, 0)),
                 (bilinear_V, X_MINUS_1 ** (a + 1), a + 2, weight_poly(0, a + b + 2)),
                 (bilinear_W, X_MINUS_1 ** (a + 1) * X_PLUS_1 ** (b + 1), a + b + 3,
                  weight_poly(b + 1, a + 1)))
        for (form, v, k, w), f, g in product(forms, fs, fs):
            assert form(f, g, a, b) == _form_by_poly_ops(f, g, v, k, w, a, b), (form, a, b)


def test_moment_vector_is_built_once_per_block():
    inner._moment_block.cache_clear()
    p = Params(2, 1, F(1, 3), 2)
    vectors = [inner._moment_vector(p, size) for size in (1, 5, 16, 3, 17, 32)]
    assert inner._moment_block.cache_info().misses == 2
    assert vectors[0] is vectors[2] and vectors[4] is vectors[5]


def test_form_pairings_with_boundary_corrections():
    # each form equals the weighted product of the matching operator output
    # with the second argument, up to the stated boundary corrections
    from genjacobi.algebra import pochhammer
    a, b = 1, 2
    f = Poly([2, -1, 0, 3, 1])
    g = Poly([-1, 4, 2])
    w = lambda p, q: weighted_integral(p * q, a, b)
    assert w(apply_L2(f, a, b), g) == bilinear_U(f, g, a, b)
    corr_t = 2 * (b + 1) * const_b(b, a) * f.derive().eval(-1) * g.eval(-1)
    assert w(apply_Ltilde(f, a, b), g) == bilinear_Vt(f, g, a, b) + corr_t
    corr_h = 2 * (a + 1) * const_b(a, b) * f.derive().eval(1) * g.eval(1)
    assert w(apply_Lhat(f, a, b), g) == bilinear_V(f, g, a, b) - corr_h
    corr_neg = (const_c(a, b) / const_b(a, b) * 2 * pochhammer(b + 1, a + 2)
                * (X_MINUS_1 ** (a + 1) * f).derive(a + 2).eval(-1) * g.eval(-1))
    corr_pos = (const_c(a, b) / const_b(b, a) * 2 * pochhammer(a + 1, b + 2)
                * (X_PLUS_1 ** (b + 1) * f).derive(b + 2).eval(1) * g.eval(1))
    assert (w(apply_Lfull(f, a, b), g)
            == bilinear_W(f, g, a, b) + corr_neg - corr_pos)


def _direct_boundary_values(f: Poly, a: int, b: int) -> BoundaryValues:
    # the direct route: each elementary operator applied to f, evaluated at -1 and 1
    images = [op(f, a, b) for op in (apply_L2, apply_Ltilde, apply_Lhat, apply_Lfull)]
    return BoundaryValues(*(image.eval(x) for image in images for x in (-1, 1)))


def test_boundary_values_anchors():
    bv = _direct_boundary_values(Poly.x(), 0, 0)
    assert bv.l2_neg1 == -2
    assert bv.l2_pos1 == 2
    assert bv.lfull_neg1 == 0
    assert bv.lfull_pos1 == 0
    # multiples of (x+1)^2 flatten the mass(-1) operator at its own endpoint
    bv = _direct_boundary_values(X_PLUS_1 * X_PLUS_1, 0, 0)
    assert bv.ltilde_neg1 == 0
    bv = _direct_boundary_values(X_MINUS_1 * X_MINUS_1, 0, 0)
    assert bv.lhat_pos1 == 0


def test_boundary_first_derivative_forms():
    for a, b in product(range(3), range(3)):
        f = Poly([1, 2, -3, 1])
        bv = _direct_boundary_values(f, a, b)
        assert bv.l2_neg1 == -2 * (b + 1) * f.derive().eval(-1)
        assert bv.l2_pos1 == 2 * (a + 1) * f.derive().eval(1)
        assert bv.ltilde_neg1 == 0
        assert bv.lhat_pos1 == 0


def test_boundary_closed_forms_match_operator_route():
    # every (alpha, beta) the default grid runs, and the anchors' inputs
    polys = (Poly([1, 2, -3, 1]), Poly([0, 0, 1, 1, F(1, 2)]), Poly.x(),
             X_PLUS_1 * X_PLUS_1, X_MINUS_1 * X_MINUS_1)
    for a, b in product(range(4), range(4)):
        for f in polys:
            want = boundary_closed_forms(f, a, b)
            assert _direct_boundary_values(f, a, b) == want, (a, b, f)


def test_boundary_values_is_eightfold():
    bv = boundary_closed_forms(Poly.x(), 1, 1)
    assert isinstance(bv, BoundaryValues)
    assert len(bv.__dataclass_fields__) == 8


def test_mass_constant_identity():
    for a, b in product(range(4), range(4)):
        direct, via_pos, via_neg = mass_constant_identity(a, b)
        assert direct == via_pos == via_neg


def test_symmetry_defect_zero():
    pr = Params(1, 1, F(1, 3), 2)
    f, g = Poly([1, 0, 0, 1]), Poly([-2, 1])
    assert symmetry_defect(f, g, pr) == 0
    assert symmetry_defect(f, f, pr) == 0


@settings(max_examples=20, deadline=None)
@given(polys, polys)
def test_symmetry_defect_zero_random(f, g):
    pr = Params(0, 1, 1, F(1, 2))
    assert symmetry_defect(f, g, pr) == 0


def test_gram_matrix_orthogonality():
    pr = Params(0, 0, 1, 1)
    G = gram_matrix(10, pr)
    for i in range(11):
        for j in range(11):
            if i == j:
                assert G[i][j] > 0
            else:
                assert G[i][j] == 0
    assert G[0][0] == 1 + pr.M + pr.N


def test_gram_matrix_rational_masses():
    pr = Params(1, 2, F(1, 3), F(7, 5))
    G = gram_matrix(6, pr)
    for i in range(7):
        for j in range(i):
            assert G[i][j] == 0
        assert G[i][i] > 0


def _gram_two_triangles(nmax: int, p: Params) -> list:
    """Oracle for gram_matrix: every entry c_i . (H c_j) of C^T H C, both
    triangles computed."""
    polys = [gen_jacobi(n, p) for n in range(nmax + 1)]
    h, den = inner._moment_vector(p, 2 * nmax + 1)
    hc = [[sum(map(mul, g.nums, h[k:])) for k in range(nmax + 1)] for g in polys]
    return [[F(sum(map(mul, f.nums, w)), den * f.den * g.den) for g, w in zip(polys, hc)]
            for f in polys]


@pytest.mark.parametrize("nmax", [0, 1, 5, 12])
def test_gram_matrix_equals_both_triangles(nmax):
    # alpha != beta and rational masses; gram_matrix computes j >= i and mirrors
    for p in (Params(2, 1, F(1, 3), F(2, 7)), Params(0, 3, F(7, 4), 0),
              Params(3, 1, 0, F(5, 2))):
        assert gram_matrix(nmax, p) == _gram_two_triangles(nmax, p), p


def test_gram_matrix_validation():
    with pytest.raises(InvalidParam):
        gram_matrix(-1, Params(0, 0, 0, 0))


# ---- the routes the integer passes replaced, kept verbatim as their oracles ----

def _integral_by_conv(nums, den: int) -> Fraction:
    weights, wden = inner._monomial_integrals(len(nums))
    return Fraction(sum(map(mul, nums[::2], weights)), wden * den)


def _form_by_conv(f: Poly, g: Poly, v: Poly, k: int, w: Poly, alpha: int, beta: int) -> Fraction:
    df = derive_nums(kernel.conv(v.nums, f.nums), k) if f.nums else []
    dg = derive_nums(kernel.conv(v.nums, g.nums), k) if g.nums else []
    if not (df and dg):
        return Fraction(0)
    nums = kernel.conv(kernel.conv(df, dg), w.nums)
    return _integral_by_conv(nums, v.den ** 2 * f.den * g.den * w.den) / h_norm(alpha, beta)


def _boundary_by_poly_ops(f: Poly, alpha: int, beta: int) -> BoundaryValues:
    a, b = alpha, beta
    df = f.derive()
    return BoundaryValues(
        l2_neg1=-2 * (b + 1) * df.eval(-1),
        l2_pos1=2 * (a + 1) * df.eval(1),
        ltilde_neg1=Fraction(0),
        ltilde_pos1=2 * pochhammer(a + 1, b + 2)
        * (endpoint_weight(0, b + 1) * f).derive(b + 2).eval(1),
        lhat_neg1=-2 * pochhammer(b + 1, a + 2)
        * (endpoint_weight(a + 1, 0) * f).derive(a + 2).eval(-1),
        lhat_pos1=Fraction(0),
        lfull_neg1=Fraction(0),
        lfull_pos1=Fraction(0),
    )


def _inner_product_by_conv(f: Poly, g: Poly, params: Params) -> Fraction:
    if f.is_zero or g.is_zero:
        return Fraction(0)
    fg = kernel.conv(f.nums, g.nums)
    h, den = inner._moment_vector(params, len(fg))
    return Fraction(sum(map(mul, fg, h)), den * f.den * g.den)


def _oracle_inputs(seed: int) -> list:
    # zero, constants, and random polynomials of the degrees the suite draws
    rng = SplitMix64(seed)
    return ([Poly.zero(), Poly.one(), Poly([F(-7, 3)]), X_PLUS_1 * X_PLUS_1]
            + [_poly_of_degree(rng, d) for d in (1, 4, 9, 16)])


_AB4 = list(product(range(5), range(5)))    # alpha, beta <= 4, most with alpha != beta


def _forms(a: int, b: int) -> tuple:
    return ((bilinear_U, Poly.one(), 1, weight_poly(a + 1, b + 1)),
            (bilinear_Vt, endpoint_weight(0, b + 1), b + 2, weight_poly(a + b + 2, 0)),
            (bilinear_V, endpoint_weight(a + 1, 0), a + 2, weight_poly(0, a + b + 2)),
            (bilinear_W, endpoint_weight(a + 1, b + 1), a + b + 3, weight_poly(b + 1, a + 1)))


def test_forms_match_the_convolution_with_the_weight():
    fs = _oracle_inputs(5)
    for a, b in _AB4:
        for (form, v, k, w), f, g in product(_forms(a, b), fs, fs[::3] + fs[-1:]):
            want = _form_by_conv(f, g, v, k, w, a, b)
            assert form(f, g, a, b) == want, (form.__name__, a, b, f, g)


def test_boundary_closed_forms_match_poly_ops():
    for a, b in _AB4:
        for f in _oracle_inputs(6):
            assert boundary_closed_forms(f, a, b) == _boundary_by_poly_ops(f, a, b), (a, b, f)


def test_inner_products_match_one_product_per_image():
    images = _oracle_inputs(7)
    gs = [Poly.zero(), Poly.one(), Poly([F(5, 2)])] + images[-2:]
    for a, b in _AB4:
        for M, N in ((0, 0), (F(1, 3), F(2, 7)), (F(7, 4), 0), (0, F(5, 2))):
            p = Params(a, b, M, N)
            for g in gs:
                want = [_inner_product_by_conv(f, g, p) for f in images]
                assert inner_products(images, g, p) == want, (p, g)
                assert [inner_product(f, g, p) for f in images] == want, (p, g)
    assert inner_products([], Poly.one(), Params()) == []
    assert inner_products([Poly.zero()] * 2, Poly.one(), Params()) == [0, 0]


def test_one_moment_lookup_per_pair_and_no_convolution_with_a_weight(monkeypatch):
    a, b = 2, 1
    rng = SplitMix64(9)
    f, g = _poly_of_degree(rng, 9), _poly_of_degree(rng, 7)
    # the four pairings of one pair read the moment vector once
    lookups = []
    moment_vector = inner._moment_vector
    monkeypatch.setattr(inner, "_moment_vector",
                        lambda p, size: lookups.append(size) or moment_vector(p, size))
    monkeypatch.setattr(verify, "symmetry_defect", lambda f, g, params: F(0))
    pstr = {"alpha": str(a), "beta": str(b)}
    cases = verify._symmetry_pair_cases(f, g, Params(a, b, 1, F(1, 3)), pstr, 0)
    assert all(c.passed for c in cases)
    assert len(lookups) == 1
    # a form convolves (v f)^(k) with (v g)^(k) and nothing with its weight
    calls = []
    conv = kernel.conv
    monkeypatch.setattr(kernel, "conv", lambda x, y: calls.append((x, y)) or conv(x, y))
    for form, v, k, w in _forms(a, b):
        want = _form_by_poly_ops(f, g, v, k, w, a, b)
        calls.clear()
        assert form(f, g, a, b) == want
        assert len(calls) == 3, form.__name__
        assert all(list(w.nums) not in (list(x), list(y)) for x, y in calls), form.__name__
