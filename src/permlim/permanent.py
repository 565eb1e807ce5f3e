"""Exact permanents and the normalised grid permanent D_n = per(K)/n!.

Glynn's signed-average formula is the one floating-point algorithm: an
O(2^(n-1) * n) sum over sign vectors, walked in Gray-code order so each
step updates a single running vector of column sums. A brute-force sum
over all n! permutations (n <= 9) is kept as the small-n reference.

The 2^(n-1) terms alternate in sign and cancel almost completely, which
amplifies rounding: accumulation therefore runs in extended precision
(np.longdouble) with Kahan compensation across blocks. Against an exact
big-integer permanent of the same float64 matrix, D_n is within 4e-15
relative at n = 16; the tests gate it at 1e-13.

Normalised mode divides row k of the matrix by k before the permanent, so
the result is per(M)/n! without ever forming n!.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, RuntimeBudgetWarning
from .grid import KernelMatrix

_LD = np.longdouble
_BLOCK = 1 << 15
_GRANULE = 1 << 18  # work unit; fixed so results do not depend on workers
_BRUTE_MAX = 9

DEFAULT_CAP = 26
_WARN_ABOVE = DEFAULT_CAP  # ~1 us per term: n = 24 takes seconds, n = 28 minutes


@dataclass(frozen=True)
class PermanentValue:
    """A permanent of an n x n matrix, or per/n! from :func:`compute_Dn`."""

    n: int
    value: float


def permanent_exact(M, *, cap: int = DEFAULT_CAP,
                    workers: int = 1) -> PermanentValue:
    """Exact permanent by Glynn's formula.

    The permanent is linear in each row, so every row is divided by its
    largest modulus first and the scales are multiplied back. Without that
    step a row that dominates the column sums makes the signed terms cancel
    catastrophically: one row of a positive 8 x 8 matrix scaled by 100 cost
    10 digits, and by 1e4 all of them.
    """
    M = _check_matrix(M, cap)
    scale = np.abs(M).max(axis=1)
    scale[scale == 0.0] = 1.0  # a zero row stays zero
    value = _permanent_raw(M / scale[:, None], workers)
    return PermanentValue(M.shape[0], value * math.prod(scale.tolist()))


def permanent_brute(M) -> PermanentValue:
    """Permanent as the literal sum over all n! permutations (n <= 9)."""
    M = _check_matrix(M, _BRUTE_MAX,
                      reason=f"brute-force permanent is limited to n <= {_BRUTE_MAX}")
    n = M.shape[0]
    prods = np.prod(M[np.arange(n), _permutation_table(n)], axis=1)
    value = math.fsum(prods.tolist())
    return PermanentValue(n, value)


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows; read-only, built once per n."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def compute_Dn(K, *, cap: int = DEFAULT_CAP, workers: int = 1) -> PermanentValue:
    """per(K)/n! for a sampled kernel or a square array, in normalised mode."""
    entries = _check_matrix(K.entries if isinstance(K, KernelMatrix) else K, cap)
    n = entries.shape[0]
    value = _permanent_raw(entries / np.arange(1, n + 1)[:, None], workers)
    return PermanentValue(n, value)


def _check_matrix(M, cap, reason=None) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError("permanent expects a nonempty square matrix")
    n = M.shape[0]
    if n > cap:
        raise CapExceededError(
            reason or f"n={n} exceeds the permanent cap {cap}; "
            "raise the cap explicitly to accept the 2^n cost")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def _permanent_raw(M, workers) -> float:
    """per(M) = 2^(1-n) sum over delta in {+-1}^n, delta_1 = +1, of
    prod_k delta_k * prod_j sum_i delta_i M_ij (Glynn)."""
    n = M.shape[0]
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n > _WARN_ABOVE:
        warnings.warn(
            f"permanent at n={n} evaluates ~2^{n} terms; expect minutes of runtime",
            RuntimeBudgetWarning, stacklevel=3)
    if n == 1:
        return float(M[0, 0])
    terms = (1 << (n - 1)) - 1
    rows = np.ascontiguousarray(M, dtype=_LD)

    # The sum is cut at fixed granule boundaries; workers only decide which
    # thread evaluates which granule, and the Kahan reduction below runs in
    # ascending granule order, so the value is bit-identical for any worker
    # count (the terms cancel so heavily that *any* count-dependent
    # regrouping would move the result by far more than 1e-12 relative).
    edges = list(range(0, terms, _GRANULE)) + [terms]
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    if workers == 1 or len(spans) == 1:
        totals = [_glynn_chunk(rows, n, *span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            totals = list(pool.map(lambda s: _glynn_chunk(rows, n, *s), spans))
    total = _LD(0.0)
    comp = _LD(0.0)
    for bt in totals:
        y = bt - comp
        t = total + y
        comp = (t - total) - y
        total = t
    total = total + np.prod(rows.sum(axis=0, dtype=_LD), dtype=_LD)
    return float(total) / float(1 << (n - 1))


def _glynn_chunk(rows, n, k_start, k_end) -> np.longdouble:
    """Signed column-sum products for Gray-code steps k in (k_start, k_end].

    k indexes the sign vector delta over rows 2..n (delta_1 stays +1); the
    k = 0 all-plus term is added by the caller. Bit j of gray(k) set means
    delta_{j+2} = -1; flipping one bit shifts every column sum by
    2 * delta_new * row_{j+2}.
    """
    g0 = k_start ^ (k_start >> 1)
    mask = (g0 >> np.arange(n - 1)) & 1
    colsums = rows.sum(axis=0, dtype=_LD) - 2 * (rows[1:] * mask[:, None]).sum(
        axis=0, dtype=_LD)
    popc0 = int(mask.sum())
    total = _LD(0.0)
    comp = _LD(0.0)
    k0 = k_start
    while k0 < k_end:
        b = min(_BLOCK, k_end - k0)
        k = np.arange(k0 + 1, k0 + b + 1, dtype=np.int64)
        pos = np.log2((k & -k).astype(np.float64)).astype(np.int64)
        g = k ^ (k >> 1)
        bit = ((g >> pos) & 1).astype(np.int64)  # 1: delta flips to -1
        delta_new = (1 - 2 * bit).astype(np.int64)
        X = rows[pos + 1] * (2 * delta_new)[:, None].astype(_LD)
        np.cumsum(X, axis=0, out=X)
        X += colsums
        prods = np.prod(X, axis=1)
        popc = popc0 + np.cumsum(2 * bit - 1)  # count of -1 entries in delta
        sign = np.where((popc & 1) == 0, _LD(1.0), _LD(-1.0))
        bt = np.sum(prods * sign, dtype=_LD)
        y = bt - comp
        t = total + y
        comp = (t - total) - y
        total = t
        colsums = X[-1].copy()
        popc0 = int(popc[-1])
        k0 += b
    return total
