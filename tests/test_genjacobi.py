"""Generalized Jacobi polynomials: coefficients, building blocks, sums."""
import pickle
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from genjacobi import genjacobi as gj
from genjacobi import jacobi
from genjacobi.algebra import InvalidParam, Poly, X2_MINUS_1, X_MINUS_1, X_PLUS_1, pochhammer
from genjacobi.genjacobi import (Params, coeff_q, coeff_r, coeff_s, gen_jacobi,
                                 poly_Q, poly_R, poly_S)
from genjacobi.jacobi import jacobi_poly, jacobi_recurrence

F = Fraction


def test_coeff_anchors():
    assert coeff_q(1, 0, 0) == 1
    assert coeff_q(2, 0, 0) == 3
    assert coeff_r(2, 1, 0) == 9
    assert coeff_s(2, 0, 0) == 18
    assert coeff_s(3, 0, 0) == 60


def test_coeff_q_first_degree_closed_form():
    for a in range(4):
        for b in range(4):
            assert coeff_q(1, a, b) == F(a + b + 2, 2)


def test_coeff_mirror_symmetry():
    for a, b in product(range(4), range(4)):
        for n in range(1, 8):
            assert coeff_r(n, a, b) == coeff_q(n, b, a)
        for n in range(2, 8):
            assert coeff_s(n, a, b) == coeff_s(n, b, a)


def test_coeff_domain_errors():
    with pytest.raises(InvalidParam):
        coeff_q(0, 0, 0)
    with pytest.raises(InvalidParam):
        coeff_r(0, 1, 1)
    with pytest.raises(InvalidParam):
        coeff_s(1, 0, 0)
    # alpha and beta are checked ints: a rational or bool weight exponent is refused
    for coeff in (coeff_q, coeff_r, coeff_s):
        for bad in (F(1), F(1, 2), True, -1):
            with pytest.raises(InvalidParam):
                coeff(2, bad, 0)
            with pytest.raises(InvalidParam):
                coeff(2, 0, bad)


# the scales as products and quotients of Pochhammer Fractions, the recipe
# the integer rows of genjacobi.blocks replaced; P's scale is 1
ORACLE_SCALES = {
    coeff_q: (1, lambda n, a, b: pochhammer(a + b + 2, n) * pochhammer(b + 2, n - 1)
              / (2 * factorial(n) * pochhammer(a + 1, n - 1))),
    coeff_r: (1, lambda n, a, b: pochhammer(a + b + 2, n) * pochhammer(a + 2, n - 1)
              / (2 * factorial(n) * pochhammer(b + 1, n - 1))),
    coeff_s: (2, lambda n, a, b: pochhammer(a + b + 2, n) * pochhammer(a + b + 2, n + 1)
              / (4 * (a + 1) * (b + 1) * factorial(n - 1) * factorial(n))),
}


def test_coeff_equals_the_pochhammer_recipe():
    # every row of blocks(a, b) from its least degree to 40: its scale is the
    # recipe's Fraction, and scale(n+1)/scale(n) is the quotient of the linear
    # factors n + s + d over its upper and lower pairs, each of them positive
    oracles = [(0, lambda n, a, b: F(1)), *ORACLE_SCALES.values()]
    coeffs = [None, *ORACLE_SCALES]
    for a, b in product(range(9), range(9)):
        for row, (least, oracle), coeff in zip(gj.blocks(a, b), oracles, coeffs):
            assert least == len(row.factor) - 1 and row.c > 0, (row, a, b)
            for n in range(least, 41):
                got = row.scale(n)
                assert type(got) is Fraction and got == oracle(n, a, b), (row, n, a, b)
                if coeff is not None:
                    assert coeff(n, a, b) == got
                upper = [n + s + d for s, d in row.upper]
                lower = [n + s + d for s, d in row.lower]
                assert min(upper + lower, default=1) > 0, (row, n, a, b)
                if n < 40:
                    assert row.scale(n + 1) / got == F(prod(upper), prod(lower))


def test_block_anchors():
    assert poly_Q(1, 0, 0) == X_PLUS_1
    assert poly_R(1, 0, 0) == X_MINUS_1
    assert poly_S(2, 0, 0) == 18 * (X_MINUS_1 * X_PLUS_1)


def test_block_zero_conventions():
    for a, b in ((0, 0), (2, 1)):
        assert poly_Q(0, a, b).is_zero
        assert poly_R(0, a, b).is_zero
        assert poly_S(0, a, b).is_zero
        assert poly_S(1, a, b).is_zero


def test_block_structure():
    for a, b in product(range(3), range(3)):
        for n in range(1, 7):
            q = poly_Q(n, a, b)
            assert q.eval(-1) == 0
            assert q == coeff_q(n, a, b) * X_PLUS_1 * jacobi_poly(n - 1, a, b + 2)
            r = poly_R(n, a, b)
            assert r.eval(1) == 0
            assert r == coeff_r(n, a, b) * X_MINUS_1 * jacobi_poly(n - 1, a + 2, b)
        for n in range(2, 7):
            s = poly_S(n, a, b)
            assert s.eval(1) == 0 and s.eval(-1) == 0
            assert s == (coeff_s(n, a, b) * X_MINUS_1 * X_PLUS_1
                         * jacobi_poly(n - 2, a + 2, b + 2))


def test_block_reflection():
    for a, b in product(range(4), range(4)):
        for n in range(8):
            assert poly_R(n, a, b) == (-1) ** n * poly_Q(n, b, a).reflect()
            assert poly_S(n, a, b) == (-1) ** n * poly_S(n, b, a).reflect()


def test_gen_jacobi_is_weighted_sum():
    # the integer sum over one denominator against the same sum in Poly ops
    masses = (0, F(1, 3), 2, F(5, 7))
    for a, b, M, N in product(range(4), range(4), masses, masses):
        pr = Params(a, b, M, N)
        for n in range(9):
            want = (jacobi_poly(n, a, b) + pr.M * poly_Q(n, a, b)
                    + pr.N * poly_R(n, a, b) + pr.M * pr.N * poly_S(n, a, b))
            assert gen_jacobi(n, pr) == want, (pr, n)


def test_gen_jacobi_equals_the_recurrence_recipe():
    # the blocks as Poly products of recurrence-built Jacobi polynomials, an
    # independent route to the t-data, the endpoint factors and the Taylor shift
    masses = (0, F(1, 3), 1, 2)
    for a, b in product(range(4), range(4)):
        for n in range(15):
            blocks = [jacobi_recurrence(n, a, b), Poly.zero(), Poly.zero(), Poly.zero()]
            if n >= 1:
                blocks[1] = coeff_q(n, a, b) * X_PLUS_1 * jacobi_recurrence(n - 1, a, b + 2)
                blocks[2] = coeff_r(n, a, b) * X_MINUS_1 * jacobi_recurrence(n - 1, a + 2, b)
            if n >= 2:
                blocks[3] = (coeff_s(n, a, b) * X2_MINUS_1
                             * jacobi_recurrence(n - 2, a + 2, b + 2))
            for M, N in product(masses, masses):
                want = blocks[0] + M * blocks[1] + N * blocks[2] + M * N * blocks[3]
                assert gen_jacobi(n, Params(a, b, M, N)) == want, (a, b, M, N, n)


def test_hypergeometric_t_data_equals_the_recurrence():
    # sum nums[k] (x - 1)^k / den in Poly operations, without the Taylor shift
    for g, d in ((F(1, 2), F(-1, 3)), (F(-1, 2), F(7, 3)), (F(0), F(5, 4)), (F(3), F(2))):
        for n in range(10):
            nums, den = jacobi._jacobi_hyp(n, g, d)
            assert len(nums) == n + 1
            total = Poly.zero()
            for k, c in enumerate(nums):
                total = total + F(c, den) * X_MINUS_1 ** k
            assert total == jacobi_recurrence(n, g, d), (g, d, n)


def test_blocks_are_built_once_for_every_mass_point():
    gj._blocks.cache_clear()
    gj._gen_jacobi_cached.cache_clear()
    masses = (0, F(1, 3), 1, 2)
    for M, N in product(masses, masses):
        for n in range(6):
            gen_jacobi(n, Params(2, 1, M, N))
    assert gj._blocks.cache_info().misses == 6
    assert gj._gen_jacobi_cached.cache_info().misses == 16 * 6


def test_gen_jacobi_first_degree():
    for M, N in ((0, 0), (1, 0), (F(1, 3), 2)):
        pr = Params(0, 0, M, N)
        assert gen_jacobi(1, pr) == Poly([0, 1]) + M * X_PLUS_1 + N * X_MINUS_1


def test_gen_jacobi_zero_mass_reduces_to_classical():
    for a, b in product(range(4), range(4)):
        for n in range(8):
            assert gen_jacobi(n, Params(a, b, 0, 0)) == jacobi_poly(n, a, b)


def test_gen_jacobi_degree():
    for a, b in product(range(3), range(3)):
        pr = Params(a, b, 1, F(2, 5))
        for n in range(21):
            assert gen_jacobi(n, pr).degree == n


def test_gen_jacobi_reflection():
    for a, b in product(range(4), range(4)):
        pr = Params(a, b, F(1, 3), 2)
        for n in range(16):
            mirrored = gen_jacobi(n, pr.swapped()).reflect()
            assert gen_jacobi(n, pr) == (-1) ** n * mirrored


def test_gen_jacobi_basis_spans_polynomials():
    # degrees 0..d give a triangular, hence invertible, change of basis
    pr = Params(2, 1, 1, F(1, 2))
    basis = [gen_jacobi(n, pr) for n in range(9)]
    for d, p in enumerate(basis):
        assert p.degree == d
        assert p.coeffs[-1] != 0
    # express x^d exactly in the basis by back-substitution
    for d in range(9):
        target = Poly.monomial(d)
        coefs = [F(0)] * 9
        rem = target
        for k in range(d, -1, -1):
            c = (rem.coeffs[k] if k <= rem.degree else 0) / basis[k].coeffs[-1]
            coefs[k] = c
            rem = rem - c * basis[k]
        assert rem.is_zero
        rebuilt = Poly.zero()
        for k in range(9):
            rebuilt = rebuilt + coefs[k] * basis[k]
        assert rebuilt == target


def test_params_validation():
    with pytest.raises(InvalidParam):
        Params(-1, 0, 0, 0)
    with pytest.raises(InvalidParam):
        Params(0, F(1, 2), 0, 0)
    with pytest.raises(InvalidParam):
        Params(0, 0, -1, 0)
    with pytest.raises(InvalidParam):
        Params(0, 0, 0, F(-1, 3))
    with pytest.raises(InvalidParam):
        Params(True, 0, 0, 0)
    with pytest.raises(InvalidParam):
        Params(0, 0, 0.5, 0)


def test_params_swapped():
    pr = Params(1, 2, F(1, 3), 2)
    sw = pr.swapped()
    assert (sw.alpha, sw.beta, sw.M, sw.N) == (2, 1, 2, F(1, 3))


def test_cached_gen_jacobi_hits_do_not_rehash_the_masses(monkeypatch):
    # the gen_jacobi cache is keyed by Params, whose hash is made once, at
    # construction, so a hit hashes no Fraction
    calls = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    pr = Params(1, 2, F(1, 3), F(2, 7))
    assert calls, "the construction hashes the masses"
    calls.clear()
    gen_jacobi(4, pr)
    calls.clear()
    for n in (4, 4, 4):
        gen_jacobi(n, pr)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       *[st.fractions(min_value=0, max_value=10, max_denominator=9)] * 2)
def test_params_with_masses_read_equals_a_fresh_one(a, b, M, N):
    # the masses and the hash are built at construction and kept on the
    # instance, which changes nothing of its value: equality, hash, pickling
    pr = Params(a, b, M, N)
    masses = pr.masses
    assert masses == (1, M, N, M * N) and all(type(m) is Fraction for m in masses)
    assert pr.masses is masses
    for fresh in (Params(a, b, M, N), pickle.loads(pickle.dumps(Params(a, b, M, N)))):
        for q in (pr, pickle.loads(pickle.dumps(pr))):
            assert q == fresh and hash(q) == hash(fresh)
            assert {fresh: "hit"}[q] == "hit"
            assert q.masses == fresh.masses
            assert repr(q) == repr(fresh)
    assert pr != Params(a, b, M, N + 1)


def test_params_hash_survives_pickling():
    # a pool worker gets its Params pickled, the hash made at construction with it
    fresh = pickle.loads(pickle.dumps(Params(1, 2, F(1, 3), F(2, 7))))
    pr = Params(1, 2, F(1, 3), F(2, 7))
    hash(pr)
    for q in (pickle.loads(pickle.dumps(pr)), fresh):
        assert q == pr
        assert hash(q) == hash(pr) == hash((1, 2, F(1, 3), F(2, 7)))
        assert {pr: "hit"}[q] == "hit"
    assert pr != Params(1, 2, F(1, 3), 0)
