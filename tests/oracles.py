"""Exact references for the permanent tests: per(A)/n! in big-integer
arithmetic, the same for a low-rank kernel given by its modes, the closed
form of the rank-two cosine kernel, and the relative error against any of
them."""

import math
from fractions import Fraction

import numpy as np


def _rel_err(value, exact):
    """|value - exact| / |exact|, formed exactly and rounded once."""
    return abs(float((Fraction(value) - exact) / exact))


def _as_integers(values):
    """(ints, d) with values = ints / 2^d exactly, for float64 values.

    Every float64 is an integer over a power of two, so scaling by the
    largest denominator turns them into Python ints without rounding.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (d - den.bit_length() + 1) for num, den in ratios], d


def _exact_Dn(A):
    """per(A)/n! exactly, for the float64 matrix A as given: a Gray-code
    Ryser sum over the rows of A made integers by :func:`_as_integers`."""
    rows, shifts = zip(*map(_as_integers, np.asarray(A, dtype=np.float64)))
    shift = sum(shifts)
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


def _modes_Dn(lams, modes):
    """per(K)/n! exactly for K = 1 + sum_k lams[k] u_k u_k^T, with the
    float64 lams and mode vectors u_k = modes[k] as given: the kernel the
    modes define, not a float64 K formed from them.

    With u_0 = 1 and lam_0 = 1, K_ij = sum_k lam_k u_k(i) u_k(j). Choosing
    a mode k_i for each row i of prod_i K_(i, sigma(i)) and summing over
    the permutations sigma gives per(K) = sum_alpha lam^alpha c_alpha^2
    prod_k alpha_k!, over the counts alpha = (alpha_0, ..., alpha_r) of
    the modes chosen, where c_alpha is the coefficient of t^alpha in
    prod_j sum_k t_k u_k(j). So per(K)/n! = sum_alpha lam^alpha c_alpha^2
    / multinomial(n; alpha), a sum of positive terms for positive lams.
    Each u_k is made integers by one power of two (:func:`_as_integers`),
    so the c_alpha are exact ints and the sum an exact Fraction, in
    O(n^(r + 1)) work for r modes.
    """
    n = len(modes[0])
    ints, shifts = zip(*map(_as_integers, modes))
    coeffs = {(0,) * len(modes): 1}  # (alpha_1, ..., alpha_r) -> c_alpha
    for j in range(n):
        step = dict(coeffs)  # the constant mode: alpha_0 grows by one
        for alpha, c in coeffs.items():
            for k, u in enumerate(ints):
                up = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]
                step[up] = step.get(up, 0) + c * u[j]
        coeffs = step
    total = Fraction(0)
    for alpha, c in coeffs.items():
        multinomial = math.factorial(n) // math.prod(
            math.factorial(a) for a in (n - sum(alpha), *alpha))
        scale = 2 * sum(d * a for d, a in zip(shifts, alpha))
        total += math.prod(Fraction(lam) ** a for lam, a in zip(lams, alpha)
                           ) * Fraction(c * c, multinomial << scale)
    return total


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
