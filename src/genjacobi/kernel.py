"""Integer vector kernels.

These four functions are the hot path of every exact polynomial operation:
coefficient vectors are sequences of Python ints (numerators over a shared
denominator, managed by the caller).  The kernels only read their inputs and
return new lists, so callers pass the tuples a polynomial holds as they are.
Callers reach them as attributes of this module (``kernel.conv(...)``), so a
profiler can wrap them in place.  conv skips the zeros of its first operand,
so callers pass the sparser vector first.  add_scaled copies its longer
operand when that operand's scale is 1, so a running sum kept at scale 1
costs no multiplication of its own entries.  vec_gcd takes a seed:
normalizing a polynomial seeds it with the denominator, so an integer vector
(denominator 1) costs no gcd at all.
"""
from math import gcd

# the label benchmark records carry; records from different kernels do not compare
BACKEND = "python"


def conv(a, b):
    """Convolution of two nonempty int sequences: coefficients of the product."""
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return res


def add_scaled(a, sa, b, sb):
    """Elementwise sa*a + sb*b, the shorter sequence padded with zeros.  The
    longer operand is copied, not multiplied, when its scale is 1."""
    la, lb = len(a), len(b)
    if la < lb:
        a, sa, la, b, sb, lb = b, sb, lb, a, sa, la
    res = list(a) if sa == 1 else [x * sa for x in a]
    for i in range(lb):
        res[i] += b[i] * sb
    return res


def taylor_shift(a):
    """Coefficients of sum a[k] (x - 1)^k in powers of x: the Taylor shift
    by -1, in O(len(a)^2) subtractions."""
    res = list(a)
    for i in range(len(res) - 1):
        for j in range(len(res) - 2, i - 1, -1):
            res[j] -= res[j + 1]
    return res


def vec_gcd(a, g=0):
    """gcd of g and all entries (nonnegative; g for an empty list, 0 if all
    are zero).  One math.gcd call, which stops computing once it reaches 1,
    so a seed g = 1 costs no gcd at all."""
    return gcd(g, *a)
