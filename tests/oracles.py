"""Exact references for the permanent tests: per(A)/n! in big-integer
arithmetic, the closed form of the rank-two cosine kernel, and the relative
error against either."""

import math
from fractions import Fraction

import numpy as np


def _rel_err(value, exact):
    """|value - exact| / |exact|, formed exactly and rounded once."""
    return abs(float((Fraction(value) - exact) / exact))


def _exact_Dn(A):
    """per(A)/n! exactly, for the float64 matrix A as given.

    Every float64 is an integer over a power of two, so scaling each row by
    its largest denominator turns A into Python ints without rounding; a
    Gray-code Ryser sum over those ints is then exact.
    """
    rows, shift = [], 0
    for row in np.asarray(A, dtype=np.float64):
        ratios = [float(v).as_integer_ratio() for v in row]
        d = max(den.bit_length() - 1 for _, den in ratios)
        rows.append([num << (d - den.bit_length() + 1) for num, den in ratios])
        shift += d
    n = len(rows)
    cols = list(zip(*rows))
    sums, inside, size, total = [0] * n, [False] * n, 0, 0
    for k in range(1, 1 << n):  # k-th Gray code flips column j
        j = (k & -k).bit_length() - 1
        step = -1 if inside[j] else 1
        inside[j] = not inside[j]
        size += step
        sums = [s + step * c for s, c in zip(sums, cols[j])]
        term = math.prod(sums)
        total += term if (n - size) % 2 == 0 else -term
    return Fraction(total, math.factorial(n) << shift)


def _cosine_Dn(n, eps):
    """D_n of the rank-two kernel 1 + 2 eps c_i c_j, c_i = cos(pi i/n), in
    long double, from D_n = sum_k (2 eps)^k E_k(c)^2 / C(n, k), where E_k
    is the k-th elementary symmetric polynomial.

    The nodes pair up, c_(n-i) = -c_i, with c_(n/2) = 0 for even n and
    c_n = -1, so prod_i (1 + c_i x) = (1 - x) prod_(i <= p) (1 - c_i^2 x^2)
    with p = (n - 1) // 2, and |E_k(c)| = e_(k//2)(c_1^2, ..., c_p^2) for
    k <= 2p + 1 (E_k = 0 above): a sum of positive terms, free of
    cancellation. C(n, k) <= C(26, 13) is an exact integer here.

    This is the closed form of the unrounded kernel, not the exact D_n of
    the float64 kernel as sampled, which the entries' rounding moves by up
    to n times their relative error of a few ulp. So it can gate a value
    only against a bound above that, as at n >= 20, where compute_Dn's own
    bound is at least 1.2e-15; at eps = 0.45, n = 12, compute_Dn is
    1.6e-16 from it and 8.3e-17 from :func:`_exact_Dn`, against a bound of
    1.4e-16.
    """
    ld = np.longdouble
    p = (n - 1) // 2
    squares = np.cos(4 * np.arctan(ld(1)) * np.arange(1, p + 1, dtype=ld)
                     / n) ** 2
    e = [ld(1)] + [ld(0)] * p  # e[m] = e_m of the squares seen so far
    for a in squares:
        for m in range(p, 0, -1):
            e[m] += a * e[m - 1]
    return sum((2 * ld(eps)) ** k * e[k // 2] ** 2 / ld(math.comb(n, k))
               for k in range(2 * p + 2))
