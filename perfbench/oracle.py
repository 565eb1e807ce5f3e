"""Exact permanent of a float64 matrix, in big-integer arithmetic.

Every finite float64 is a dyadic rational num / 2^d, so scaling row i by
2^(max d in row i) turns the matrix into Python integers without rounding.
A Gray-code Ryser sum over those integers is then the exact permanent of
the matrix actually handed to the program, and
per(A) = per(A_int) / 2^(sum of row shifts) as a Fraction.

Cost is 2^n * n big-int operations in pure Python: ~0.5 s at n = 16, so
the benchmark uses it for n <= 16 only, outside every timed region.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


def integer_rows(A: np.ndarray) -> tuple[list[list[int]], int]:
    """Rows of A as exact integers and the total power of two divided out."""
    rows = []
    shift = 0
    for row in np.asarray(A, dtype=np.float64):
        ratios = [float(v).as_integer_ratio() for v in row]
        d = max(den.bit_length() - 1 for _, den in ratios)
        rows.append([num << (d - (den.bit_length() - 1)) for num, den in ratios])
        shift += d
    return rows, shift


def ryser_int(rows: list[list[int]]) -> int:
    """per(M) = sum over column subsets S of (-1)^(n-|S|) prod_i sum_{j in S} M_ij.

    Subsets are visited in Gray-code order, so each step adds or removes
    one column from the running row sums.
    """
    n = len(rows)
    cols = [list(col) for col in zip(*rows)]
    sums = [0] * n
    inside = [False] * n
    size = 0
    total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        col = cols[j]
        if inside[j]:
            sums = [s - c for s, c in zip(sums, col)]
            size -= 1
        else:
            sums = [s + c for s, c in zip(sums, col)]
            size += 1
        inside[j] = not inside[j]
        term = math.prod(sums)
        total += term if (n - size) % 2 == 0 else -term
    return total


class ExactPermanent:
    """per(A) / n! as a Fraction, memoised by a hash of the matrix bytes."""

    def __init__(self):
        self._memo: dict[bytes, Fraction] = {}

    def normalized(self, A) -> Fraction:
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
            raise ValueError("exact permanent needs a finite square matrix")
        key = hashlib.sha256(repr(A.shape).encode() + A.tobytes()).digest()
        if key not in self._memo:
            rows, shift = integer_rows(A)
            n = A.shape[0]
            self._memo[key] = Fraction(ryser_int(rows),
                                       math.factorial(n) << shift)
        return self._memo[key]


def self_check(permanent_brute, seed: int = 0) -> list[str]:
    """Failures of the oracle against the brute-force sum and per(ones) = n!.

    ``permanent_brute`` is the program's literal sum over permutations; on
    positive matrices its fsum of products is good to a few ulps, so the
    two must agree to 1e-14 relative for n <= 8.
    """
    failures = []
    oracle = ExactPermanent()
    for n in range(1, 11):
        exact = oracle.normalized(np.ones((n, n)))
        if exact != 1:
            failures.append(f"per(ones({n}))/{n}! = {exact}, expected 1")
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        A = rng.uniform(0.1, 2.0, size=(n, n))
        exact = oracle.normalized(A) * math.factorial(n)
        brute = permanent_brute(A).value
        err = abs(float((Fraction(brute) - exact) / exact))
        if err > 1e-14:
            failures.append(f"oracle vs brute at n={n}: relative gap {err:.2e}")
    return failures
