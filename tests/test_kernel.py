"""The integer vector kernels on small hand-checked inputs, and the seeded gcd
that normalizes every Poly."""
from hypothesis import given, settings, strategies as st

from genjacobi import kernel
from genjacobi.algebra import _canonical


def test_conv_basic():
    assert kernel.conv([1, 1], [1, 1]) == [1, 2, 1]
    assert kernel.conv([2], [3]) == [6]
    assert kernel.conv([0, 1], [0, 0, 5]) == [0, 0, 0, 5]


def test_add_scaled_basic():
    assert kernel.add_scaled([1, 2], 3, [5], 2) == [13, 6]
    assert kernel.add_scaled([1], 1, [0, 0, 7], -1) == [1, 0, -7]


def test_taylor_shift_basic():
    assert kernel.taylor_shift([5]) == [5]
    assert kernel.taylor_shift([0, 0, 1]) == [1, -2, 1]           # (x - 1)^2
    assert kernel.taylor_shift((1, 2, 3)) == [2, -4, 3]           # 1 + 2(x-1) + 3(x-1)^2
    assert kernel.taylor_shift(()) == []


def test_vec_gcd_basic():
    assert kernel.vec_gcd([]) == 0
    assert kernel.vec_gcd([0, 0]) == 0
    assert kernel.vec_gcd([-4, 6]) == 2
    assert kernel.vec_gcd([3, 5]) == 1


def test_vec_gcd_seeded():
    assert kernel.vec_gcd([], 5) == 5
    assert kernel.vec_gcd([6, 9], 4) == 1
    assert kernel.vec_gcd([6, 9], 12) == 3
    assert kernel.vec_gcd([-4, 6], 0) == 2
    assert kernel.vec_gcd([0, 0], 7) == 7
    assert kernel.vec_gcd((-8, 12), 1) == 1


ints = st.integers(min_value=-10**30, max_value=10**30)


@settings(max_examples=100, deadline=None)
@given(st.lists(ints, min_size=1, max_size=8), st.integers(min_value=2, max_value=10**40))
def test_canonical_is_the_same_over_den_1_and_a_large_den(nums, den):
    # den 1 takes the seeded gcd's early stop; a large den runs every gcd
    # step: the pair nums * den / den must come out as nums / 1 either way
    assert _canonical(list(nums), 1) == _canonical([n * den for n in nums], den)
    assert _canonical([n * den for n in nums], -den) == _canonical([-n for n in nums], 1)


def test_kernels_read_tuples_and_return_new_lists():
    # Poly hands its coefficient tuples to the kernels without copying them
    for a, b in (((1, 2, 3), (4, 5)), ((4, 5), (1, 2, 3))):
        la, lb = list(a), list(b)
        from_lists = [kernel.conv(la, lb), kernel.add_scaled(la, 2, lb, -1),
                      kernel.add_scaled(la, 1, lb, 1), kernel.taylor_shift(la)]
        from_tuples = [kernel.conv(a, b), kernel.add_scaled(a, 2, b, -1),
                       kernel.add_scaled(a, 1, b, 1), kernel.taylor_shift(a)]
        assert from_tuples == from_lists
        for res in from_lists + from_tuples:
            assert type(res) is list and res is not la and res is not lb
        assert (la, lb) == (list(a), list(b))
    assert kernel.conv((1, 2, 3), (4, 5)) == [4, 13, 22, 15]
    assert kernel.add_scaled((4, 5), 2, (1, 2, 3), -1) == [7, 8, -3]


@settings(max_examples=200, deadline=None)
@given(st.lists(ints, max_size=8), ints, st.lists(ints, max_size=8), ints,
       st.sampled_from(["sa", "sb", "both"]), st.booleans())
def test_add_scaled_with_a_unit_scale_equals_the_general_sum(a, sa, b, sb, unit, as_tuples):
    # a unit scale copies its operand instead of multiplying it; the sum, and
    # the fresh list it comes in, are those of any other scale
    sa, sb = (1 if unit in ("sa", "both") else sa), (1 if unit in ("sb", "both") else sb)
    la, lb = (tuple(a), tuple(b)) if as_tuples else (list(a), list(b))
    res = kernel.add_scaled(la, sa, lb, sb)
    pad = max(len(a), len(b))
    want = [sa * x + sb * y for x, y in zip(a + [0] * (pad - len(a)), b + [0] * (pad - len(b)))]
    assert res == want
    assert type(res) is list and res is not la and res is not lb
    assert (list(la), list(lb)) == (a, b)
