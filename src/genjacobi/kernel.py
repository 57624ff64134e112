"""Integer vector kernels.

These three functions are the hot path of every exact polynomial operation:
coefficient vectors are plain lists of Python ints (numerators over a shared
denominator, managed by the caller).  Callers reach them as attributes of
this module (``kernel.conv(...)``), so a profiler can wrap them in place.
"""
from math import gcd

# the label benchmark records carry; records from different kernels do not compare
BACKEND = "python"


def conv(a, b):
    """Convolution of two nonempty int lists: coefficients of the product."""
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return res


def add_scaled(a, sa, b, sb):
    """Elementwise sa*a + sb*b, shorter list padded with zeros."""
    la, lb = len(a), len(b)
    if la < lb:
        a, sa, la, b, sb, lb = b, sb, lb, a, sa, la
    res = [x * sa for x in a]
    for i in range(lb):
        res[i] += b[i] * sb
    return res


def vec_gcd(a):
    """gcd of all entries (nonnegative; 0 for an empty or all-zero list)."""
    g = 0
    for v in a:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g
