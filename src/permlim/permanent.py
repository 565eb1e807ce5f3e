"""The normalised grid permanent D_n = per(K)/n!, and a small-n reference.

:func:`compute_Dn` is the one floating-point entry point. It evaluates
Glynn's signed-average formula: an O(2^(n-1) * n) sum over sign vectors,
walked in Gray-code order so each step updates a single running vector of
column sums. :func:`permanent_brute`, the sum over all n! permutations
(n <= 9), is kept as the small-n reference.

The 2^(n-1) terms alternate in sign and cancel almost completely, which
amplifies rounding. Every row is first divided by a power of two near its
largest modulus, which is exact and keeps one dominant row from swamping
the column sums. Each column sum is then kept as a double-double pair
(hi, lo), about 106 bits, with the arithmetic of Hida, Li and Bailey; each
product is formed from hi + lo in extended precision (long double), and
the signed products are added with Kahan compensation, also in long
double. Against an exact big-integer permanent of the same float64 matrix,
D_n is within about 1e-16 relative at n = 12 and 16 on the quadratic
bridge, and against the closed form of the rank-two cosine kernel within
about 2e-16 at n = 20 to 26; the tests gate them at 1e-13 and 1e-14.

The Gray-code loop is a small C function, compiled with the system's
``cc`` on the first permanent of a process (never at import), cached in
``$XDG_CACHE_HOME/permlim`` or ``~/.cache/permlim`` under a name hashed
from its source, flags and platform, and called through ctypes, which
releases the GIL, so worker threads run granules in parallel. When no
library can be built or loaded, the same loop runs in numpy with long
double column sums, 10 to 20 times slower per term; there is no setting
that chooses between the two.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, RuntimeBudgetWarning

_LD = np.longdouble
_BLOCK = 1 << 15
_GRANULE = 1 << 18  # work unit; fixed so results do not depend on workers
_BRUTE_MAX = 9

DEFAULT_CAP = 26
# The compiled loop takes 35-60 ns per term on one core at n = 22-26 (2.1
# GHz, AVX2), so n = 26 takes about 2 s, n = 28 about 8 s, and each further
# n doubles that; the numpy fallback takes 620-760 ns per term.
_WARN_ABOVE = DEFAULT_CAP
_NS_PER_TERM = 60

_COMPILER = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 60

# Glynn terms for Gray-code steps k in (k_start, k_end]; the same loop as
# _glynn_chunk, with one Kahan-compensated sum over the whole granule. Each
# column sum is a double-double pair (hi, lo); a step adds a precomputed
# +-2 row, exact in float64, so the loop over columns is element-wise IEEE
# adds that -O3 vectorises (-ffp-contract=off keeps TwoSum from becoming
# FMAs); on x86-64 the AVX2 clone and the default one give the same bits.
_C_SOURCE = r"""
#include <stdint.h>

/* (hi, lo) += b: Knuth's TwoSum, then a fast renormalisation. */
static inline void dd_add(double *hi, double *lo, double b)
{
    double s = *hi + b, bb = s - *hi;
    double e = (*hi - (s - bb)) + (b - bb) + *lo;
    *hi = s + e;
    *lo = e - (*hi - s);
}

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx2", "default")))
#endif
#endif
void glynn_chunk(const double *rows, int n, int64_t k_start,
                 int64_t k_end, long double *out)
{
    /* steps[(2 (i - 1) + s) n + j] = (s ? -2 : 2) rows[i n + j], i >= 1 */
    double hi[n], lo[n], steps[2 * n * n];
    long double total = 0.0L, comp = 0.0L;
    int64_t g = k_start ^ (k_start >> 1);
    int odd = 0;
    for (int i = 1; i < n; i++)
        for (int j = 0; j < n; j++) {
            steps[2 * (i - 1) * n + j] = 2.0 * rows[i * n + j];
            steps[(2 * i - 1) * n + j] = -2.0 * rows[i * n + j];
        }
    for (int j = 0; j < n; j++) {
        hi[j] = rows[j];
        lo[j] = 0.0;
    }
    for (int i = 1; i < n; i++) {
        int minus = (int)((g >> (i - 1)) & 1);
        odd ^= minus;
        for (int j = 0; j < n; j++)
            dd_add(&hi[j], &lo[j], minus ? -rows[i * n + j] : rows[i * n + j]);
    }
    for (int64_t k = k_start + 1; k <= k_end; k++) {
        int pos = __builtin_ctzll((unsigned long long)k);
        int minus = (int)(((k ^ (k >> 1)) >> pos) & 1);
        const double *step = steps + (2 * pos + minus) * n;
        long double prod = 1.0L;
        odd ^= 1;
        for (int j = 0; j < n; j++)
            dd_add(&hi[j], &lo[j], step[j]);
        for (int j = 0; j < n; j++)
            prod *= (long double)hi[j] + lo[j];
        long double y = (odd ? -prod : prod) - comp;
        long double t = total + y;
        comp = (t - total) - y;
        total = t;
    }
    *out = total;
}
"""


@dataclass(frozen=True)
class PermanentValue:
    """A permanent of an n x n matrix, or per/n! from :func:`compute_Dn`."""

    n: int
    value: float


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
    """per(K)/n! by Glynn's formula, for a sampled kernel or a square array.

    The permanent is linear in each row, so every row is divided by a power
    of two near its largest modulus first and the powers are multiplied
    back. Without that step a row that dominates the column sums makes the
    signed terms cancel catastrophically: one row of a positive 8 x 8
    matrix scaled by 100 cost 10 digits, and by 1e4 all of them. The
    division by n! happens once, in extended precision, on the Glynn sum,
    so D_n never passes through the overflowing per(K) and the entries are
    not rounded by a division.
    """
    M = _check_matrix(K, cap)
    return PermanentValue(M.shape[0], _normalised_permanent(M, workers))


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


def _normalised_permanent(M, workers) -> float:
    """per(M) / n!, with M's rows rescaled by powers of two.

    Row i is multiplied by 2^-e_i, where 2^e_i is the power of two just
    above its largest modulus (np.frexp), so every row peaks in [1/2, 1).
    Such a scale is exact in binary floating point, and the sum of the e_i
    is added back to the exponent of the result.
    """
    n = M.shape[0]
    if workers < 1:
        raise ValueError("workers must be >= 1")
    terms = (1 << (n - 1)) - 1
    if n > _WARN_ABOVE:
        warnings.warn(
            f"permanent at n={n} evaluates 2^{n - 1} terms: expect about "
            f"{terms * _NS_PER_TERM * 1e-9 / workers:.0f} s at workers={workers}, "
            "10 to 20 times more without a C compiler",
            RuntimeBudgetWarning, stacklevel=3)
    _, exps = np.frexp(np.abs(M).max(axis=1))  # a zero row keeps e = 0
    rows = np.ascontiguousarray(np.ldexp(M, -exps[:, None]))  # exact
    chunk = _compiled_kernel() or _glynn_chunk

    # per(M) = 2^(1-n) sum over delta in {+-1}^n, delta_1 = +1, of
    # prod_k delta_k * prod_j sum_i delta_i M_ij (Glynn). The sum is cut at
    # fixed granule boundaries; workers only decide which thread evaluates
    # which granule, and the Kahan reduction below runs in ascending granule
    # order, so the value is bit-identical for any worker count (the terms
    # cancel so heavily that *any* count-dependent regrouping would move the
    # result by far more than 1e-12 relative).
    edges = list(range(0, terms, _GRANULE)) + [terms]
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    if workers == 1 or len(spans) <= 1:
        totals = [chunk(rows, n, *span) for span in spans]
    else:
        # imported here: about 10 ms that a single-worker process never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            totals = list(pool.map(lambda s: chunk(rows, n, *s), spans))
    total = _LD(0.0)
    comp = _LD(0.0)
    for bt in totals:
        y = bt - comp
        t = total + y
        comp = (t - total) - y
        total = t
    total = total + np.prod(rows.sum(axis=0, dtype=_LD), dtype=_LD)
    total /= _LD(math.factorial(n))
    return float(np.ldexp(total, int(exps.sum()) - (n - 1)))


@functools.lru_cache(maxsize=None)
def _compiled_kernel():
    """The C loop with the signature of :func:`_glynn_chunk`, or None.

    None means the library could not be built or loaded: no compiler, a
    failed or timed-out compile, an unusable cache directory or a failed
    load. A cached file that fails to load (truncated, say) or lacks the
    function is compiled once more and replaced before giving up; a
    library the process already loaded stays loaded under its name, so
    in the second case only later processes use the rebuilt file. The
    result is kept for the life of the process.
    """
    if os.name != "posix" or (
            ctypes.sizeof(ctypes.c_longdouble) != np.dtype(_LD).itemsize):
        return None
    try:
        path = _build_library()
        try:
            fn = ctypes.CDLL(path).glynn_chunk
        except (OSError, AttributeError):  # a corrupt or foreign cached file
            fn = ctypes.CDLL(_build_library(rebuild=True)).glynn_chunk
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p)
    fn.restype = None

    def chunk(rows, n, k_start, k_end):
        if (rows.dtype != np.float64 or rows.shape != (n, n)
                or not rows.flags.c_contiguous
                or not 0 <= k_start <= k_end < 1 << (n - 1)):
            raise ValueError("glynn_chunk: bad rows or term range")
        # A pointer to a long double buffer, not restype c_longdouble: that
        # would round each granule total to a Python float.
        out = np.zeros(1, dtype=_LD)
        fn(rows.ctypes.data, n, k_start, k_end, out.ctypes.data)
        return out[0]

    return chunk


def _build_library(rebuild: bool = False) -> str:
    """Path of the compiled kernel in the user's cache, compiling on a miss
    or, with ``rebuild``, over the file already there.

    The compiler writes to a temporary name that os.replace then moves into
    place, so a concurrent process never loads a half-written library. Any
    failure is an OSError.
    """
    # Imported here: at module level they would add about 12 ms to every
    # `import permlim`, including the many runs that build no permanent;
    # subprocess, about 7 ms more, only on a cache miss.
    import hashlib
    import sysconfig

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(base, "permlim")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    info = os.stat(cache)
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    key = hashlib.sha256("\0".join(
        (_C_SOURCE, *_CFLAGS, sysconfig.get_platform())).encode()).hexdigest()
    path = os.path.join(cache, f"glynn-{key[:16]}.so")
    if os.path.exists(path) and not rebuild:
        return path
    import subprocess
    fd, tmp = tempfile.mkstemp(dir=cache, prefix="glynn-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([_COMPILER, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                       input=_C_SOURCE, text=True, capture_output=True,
                       check=True, timeout=_COMPILE_TIMEOUT_S)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:  # nonzero exit or timeout
        raise OSError(f"cannot compile the Glynn kernel: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return path


def _glynn_chunk(rows, n, k_start, k_end) -> np.longdouble:
    """Signed column-sum products for Gray-code steps k in (k_start, k_end].

    k indexes the sign vector delta over rows 2..n (delta_1 stays +1); the
    k = 0 all-plus term is added by the caller. Bit j of gray(k) set means
    delta_{j+2} = -1; flipping one bit shifts every column sum by
    2 * delta_new * row_{j+2}. The float64 rows are cast to long double,
    which is exact, and the column sums are kept in long double.
    """
    rows = rows.astype(_LD)
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
