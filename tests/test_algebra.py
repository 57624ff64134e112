"""Ring axioms, calculus rules, and canonical form of Poly."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genjacobi.algebra import (InvalidParam, NotDivisible, Poly, X2_MINUS_1,
                               X_MINUS_1, X_PLUS_1, as_rational, endpoint_weight,
                               format_rational, pochhammer)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)
polys = st.lists(rationals, max_size=8).map(Poly)


def test_canonical_form():
    p = Poly([Fraction(2, 4), Fraction(1, 2)])
    assert p.nums == (1, 1) and p.den == 2
    assert Poly([0, 0]).nums == () and Poly([0, 0]).den == 1
    # trailing zeros never survive construction or arithmetic
    q = Poly([1, 1]) - Poly([0, 1])
    assert q.nums == (1,) and q.degree == 0
    # denominator is always positive
    r = Poly([Fraction(1, -3)])
    assert r.den == 3 and r.nums == (-1,)


def test_degree_and_coeffs():
    assert Poly().degree == -1
    assert Poly([5]).degree == 0
    p = Poly([1, 0, Fraction(3, 2)])
    assert p.degree == 2
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(3, 2))
    assert p.coeff(5) == 0
    assert Poly([5, 7]).coeff(1) == 7 and Poly([5, 7]).coeff(2) == 0
    for k in (True, False, -1, 1.0, Fraction(1)):
        with pytest.raises(InvalidParam):
            Poly([5, 7]).coeff(k)
    assert p.leading == Fraction(3, 2)


def test_str_rendering():
    assert str(Poly([1, 2])) == "2x+1"
    assert str(Poly([-1, 0, 1])) == "x^2-1"
    assert str(Poly([Fraction(-1, 2), 0, Fraction(3, 2)])) == "(3/2)x^2-1/2"
    assert str(Poly()) == "0"
    assert format_rational(Fraction(7, 3)) == "7/3"
    assert format_rational(4) == "4"


def test_simple_identities():
    x = Poly.x()
    assert (x + 1) + (x - 1) == 2 * x
    assert (x + 1) ** 2 == Poly([1, 2, 1])
    assert Poly([1, -2, 0, 0, 1]).derive(3) == Poly([0, 24])  # d^3/dx^3 of x^4-2x^2+1


def test_eval_exact():
    p = Poly([Fraction(1, 3), 0, 1])
    assert p.eval(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 4)
    assert p.eval(-1) == Fraction(4, 3)
    assert Poly().eval(5) == 0


def test_eval_refuses_floats_even_at_the_endpoints():
    # 1.0 == 1, so a float must not slip through the x = +-1 shortcuts
    p = Poly([1, 2, 3])
    assert (p.eval(1), p.eval(-1), p.eval(Fraction(1)), p.eval("-1")) == (6, 2, 6, 2)
    for bad in (1.0, -1.0, 0.5):
        for y in (p, Poly()):
            with pytest.raises(InvalidParam):
                y.eval(bad)


def test_monomial_rejects_a_negative_degree():
    assert Poly.monomial(0) == Poly.one()
    assert Poly.monomial(2, Fraction(1, 3)) == Poly([0, 0, Fraction(1, 3)])
    for k in (-1, -2):
        with pytest.raises(InvalidParam):
            Poly.monomial(k)
    with pytest.raises(InvalidParam):
        Poly.monomial(-2, 0)    # even when the coefficient is zero


def test_reflect():
    p = Poly([1, 2, 3, 4])
    assert p.reflect() == Poly([1, -2, 3, -4])
    assert p.reflect().reflect() == p


def test_exact_div_and_failure():
    x = Poly.x()
    num = (x - 1) * (x + 1) * Poly([Fraction(1, 3), 7])
    assert num / (x - 1) == (x + 1) * Poly([Fraction(1, 3), 7])
    with pytest.raises(NotDivisible):
        (x + 1).exact_div(x)
    with pytest.raises(NotDivisible):
        Poly([1]).exact_div(x)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(Poly())
    # non-monic and rational divisors divide in integers as well
    for d in (Poly([Fraction(2, 3), 5]), Poly([1, 2]), Poly([1, Fraction(3, 7)])):
        assert (num * d) / d == num
        with pytest.raises(NotDivisible):
            (num * d + 1).exact_div(d)


def test_as_rational_rejects_floats():
    assert as_rational("7/3") == Fraction(7, 3)
    assert as_rational(5) == 5
    with pytest.raises(InvalidParam):
        as_rational(0.5)


def test_bools_are_not_rationals():
    # a bool is an int, but True is a flag, not the rational 1
    from genjacobi.jacobi import jacobi_poly
    from genjacobi.operators import eigen_lambda2
    for bad in (True, False):
        with pytest.raises(InvalidParam):
            as_rational(bad)
    for call in (lambda: eigen_lambda2(2, True, 0), lambda: jacobi_poly(2, True, False),
                 lambda: Poly([True, 2]), lambda: Poly([1]).eval(True),
                 lambda: Poly().eval(False), lambda: Poly([1, 2]) * True):
        with pytest.raises(InvalidParam):
            call()
    assert Poly([1]) != True and Poly() != False and Poly([1]) == 1


def test_pochhammer():
    assert pochhammer(3, 0) == 1
    assert pochhammer(1, 3) * pochhammer(2, 3) == 144
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-2, 4) == 0  # crosses zero
    with pytest.raises(InvalidParam):
        pochhammer(1, -1)


def test_pochhammer_int_path_matches_generic_product():
    for a in range(-5, 41):
        for k in range(21):
            got = pochhammer(a, k)
            want = Fraction(1)
            for i in range(k):
                want *= Fraction(a + i)
            assert type(got) is Fraction
            assert got == want, (a, k)
            assert pochhammer(Fraction(a), k) == want
    for q in range(2, 6):
        for p in range(-11, 12):
            a = Fraction(p, q)
            for k in range(9):
                want = Fraction(1)
                for i in range(k):
                    want *= a + i
                assert pochhammer(a, k) == want, (a, k)


def test_cached_powers_match_repeated_multiplication():
    for base in (X_PLUS_1, X_MINUS_1, Poly([1, -1]), X2_MINUS_1,
                 Poly([Fraction(1, 2), Fraction(-1, 2)]), Poly([1, 2, 3, 4])):
        want = Poly.one()
        for k in range(25):
            assert base ** k == want, (base, k)
            want = want * base


def test_endpoint_weight_is_the_product_of_endpoint_powers():
    for p in range(6):
        for q in range(6):
            want = Poly.one()
            for _ in range(p):
                want = want * X_MINUS_1
            for _ in range(q):
                want = want * X_PLUS_1
            assert endpoint_weight(p, q) == want, (p, q)
            assert endpoint_weight(p, q) is endpoint_weight(p, q)
    assert endpoint_weight(3, 3) == X2_MINUS_1 ** 3


def test_power_and_derivative_orders_must_be_nonnegative_ints():
    y = Poly([1, 1])
    assert y ** 2 == Poly([1, 2, 1])
    for bad in (True, 2.0, -1):
        with pytest.raises(InvalidParam):
            y ** bad
        with pytest.raises(InvalidParam):
            y.derive(bad)


def test_immutability_and_hash():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.nums = (5,)
    assert hash(Poly([1, 2])) == hash(p)
    assert p == Poly([Fraction(2, 2), 2])
    assert p != Poly([1])
    assert Poly([7]) == 7 and Poly() == 0


class TestRingAxioms:
    @given(a=polys, b=polys, c=polys)
    @settings(max_examples=60)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(a=polys, b=polys, c=polys)
    @settings(max_examples=60)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(a=polys)
    def test_neutral_elements(self, a):
        assert a + Poly.zero() == a
        assert a * Poly.one() == a
        assert a - a == Poly.zero()

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_leibniz_rule(self, a, b):
        assert (a * b).derive() == a.derive() * b + a * b.derive()

    @given(a=polys, b=polys)
    @settings(max_examples=60)
    def test_division_round_trip(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    @given(a=polys, x=rationals)
    def test_eval_is_ring_hom(self, a, x):
        b = Poly([3, Fraction(1, 2)])
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)

    @given(a=polys)
    def test_reflect_is_involution(self, a):
        assert a.reflect().reflect() == a
        assert a.reflect().eval(2) == a.eval(-2)

    @given(a=polys)
    def test_canonical_invariants(self, a):
        from math import gcd
        if a.nums:
            assert a.nums[-1] != 0
            g = 0
            for v in a.nums:
                g = gcd(g, v)
            assert gcd(g, a.den) == 1
        assert a.den >= 1
