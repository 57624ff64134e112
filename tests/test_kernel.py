"""The integer vector kernels on small hand-checked inputs."""
from genjacobi import kernel


def test_conv_basic():
    assert kernel.conv([1, 1], [1, 1]) == [1, 2, 1]
    assert kernel.conv([2], [3]) == [6]
    assert kernel.conv([0, 1], [0, 0, 5]) == [0, 0, 0, 5]


def test_add_scaled_basic():
    assert kernel.add_scaled([1, 2], 3, [5], 2) == [13, 6]
    assert kernel.add_scaled([1], 1, [0, 0, 7], -1) == [1, 0, -7]


def test_vec_gcd_basic():
    assert kernel.vec_gcd([]) == 0
    assert kernel.vec_gcd([0, 0]) == 0
    assert kernel.vec_gcd([-4, 6]) == 2
    assert kernel.vec_gcd([3, 5]) == 1
