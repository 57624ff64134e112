"""The integer vector kernels on small hand-checked inputs."""
from genjacobi import kernel


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
