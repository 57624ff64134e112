"""Ring axioms, calculus rules, and canonical form of Poly."""
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genjacobi import kernel
from genjacobi.algebra import (InvalidParam, NotDivisible, Poly, X2_MINUS_1,
                               X_MINUS_1, X_PLUS_1, as_rational, derive_nums,
                               endpoint_weight, exact_quotient, format_rational,
                               pochhammer)

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


def test_str_rendering():
    assert str(Poly([1, 2])) == "2x+1"
    assert str(Poly([-1, 0, 1])) == "x^2-1"
    assert str(Poly([Fraction(-1, 2), 0, Fraction(3, 2)])) == "(3/2)x^2-1/2"
    assert str(Poly()) == "0"
    assert format_rational(Fraction(7, 3)) == "7/3"
    assert format_rational(4) == "4"


def str_oracle(p: Poly) -> str:
    """Poly.__str__ as its own term walk, before the walk was shared with
    the LaTeX renderer: the reference the shared walk must reproduce."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.nums) - 1, -1, -1):
        c = Fraction(p.nums[k], p.den)
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = format_rational(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            if mag == 1:
                body = xs
            elif mag.denominator == 1:
                body = f"{mag}{xs}"
            else:
                body = f"({format_rational(mag)}){xs}"
        parts.append(f"{sign}{body}")
    return "".join(parts)


# degree 0-8, each coefficient 0, a unit or a rational: unit coefficients at
# every degree, a leading minus, gaps of zeros, constants and the zero poly
render_polys = st.lists(st.one_of(st.just(0), st.sampled_from((1, -1)), rationals),
                        min_size=1, max_size=9).map(Poly)


@settings(max_examples=400)
@given(render_polys)
def test_str_matches_its_own_term_walk(p):
    assert str(p) == str_oracle(p)


def test_simple_identities():
    x = Poly([0, 1])
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
    x = Poly([0, 1])
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


# ---------------- the integer fast paths against their general formulas ----------------

nonzero_ints = st.integers(min_value=-10**20, max_value=10**20).filter(bool)
# runs of zeros between nonzero coefficients, as a monomial probe's image has
runs_of_zeros = st.lists(st.tuples(st.integers(0, 6), st.lists(nonzero_ints, max_size=3)),
                         max_size=5).map(lambda runs: sum(([0] * z + v for z, v in runs), []))


@settings(max_examples=300, deadline=None)
@given(runs_of_zeros, st.integers(0, 12), st.booleans())
def test_derive_nums_skipping_zeros_is_the_general_formula(nums, k, as_tuple):
    got = derive_nums(tuple(nums) if as_tuple else nums, k)
    assert got == [nums[i] * perm(i, k) for i in range(k, len(nums))]
    assert all(type(c) is int for c in got)


def scaled_quotient(nums, den, d):
    """exact_quotient with every divisor scaled by lead**m, a monic one too:
    the general synthetic division the monic path skips, kept as an oracle."""
    dn = d.nums
    dd = len(dn) - 1
    if len(nums) <= dd:
        raise NotDivisible(f"degree {len(nums) - 1} < divisor degree {dd}")
    lead = dn[-1]
    scale = lead ** (len(nums) - dd)
    r = [n * scale for n in nums]
    q = [0] * (len(r) - dd)
    for i in range(len(r) - 1, dd - 1, -1):
        if r[i]:
            c = q[i - dd] = r[i] // lead
            for j in range(dd + 1):
                r[i - dd + j] -= c * dn[j]
    if any(r[:dd]):
        raise NotDivisible(
            f"remainder {Poly._norm(r[:dd], scale * den)!r} dividing by {d!r}")
    return [c * d.den for c in q], scale * den


small_ints = st.integers(-6, 6)
monic_divisors = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda pq: endpoint_weight(*pq)),
    st.lists(small_ints, max_size=3).map(lambda c: Poly(c + [1])),
    st.lists(rationals, max_size=3).map(lambda c: Poly(c + [Fraction(1, 3)])))
general_divisors = st.lists(rationals, min_size=1, max_size=4).map(Poly).filter(
    lambda d: not d.is_zero)


def _outcome(divide, nums, den, d):
    try:
        return divide(nums, den, d)
    except NotDivisible as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(small_ints, max_size=5).map(lambda c: c + [7]), st.integers(1, 30),
       st.one_of(monic_divisors, general_divisors), st.booleans())
def test_exact_quotient_matches_the_scaled_division(q, den, d, divisible):
    # a monic divisor skips the scaling pass and the // lead steps; quotient,
    # denominator and NotDivisible message are the general division's
    nums = kernel.conv(q, d.nums) if divisible else q
    got = _outcome(exact_quotient, nums, den, d)
    assert got == _outcome(scaled_quotient, nums, den, d)
    if divisible:
        quotient, qden = got
        assert Poly._norm(quotient, qden) == Poly._norm([c * d.den for c in q], den)


def test_as_rational_rejects_floats():
    assert as_rational("7/3") == Fraction(7, 3)
    assert as_rational(5) == 5
    with pytest.raises(InvalidParam):
        as_rational(0.5)


def test_as_rational_reads_only_exact_rational_text():
    # the CLI's grammar: "p" or "p/q", no decimal, exponent or padding
    from genjacobi.jacobi import jacobi_poly
    assert as_rational("-7/3") == Fraction(-7, 3) and as_rational("+4") == 4
    for bad in ("0.5", "1e3", " 1", "1/0", "1/-2", "", "1/"):
        with pytest.raises(InvalidParam):
            as_rational(bad)
    for call in (lambda: Poly(["0.25", 1]), lambda: jacobi_poly(1, "0.5", 0)):
        with pytest.raises(InvalidParam):
            call()


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
