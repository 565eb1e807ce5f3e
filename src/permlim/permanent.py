"""The normalised grid permanent D_n = per(K)/n!, and a small-n reference.

:func:`compute_Dn` is the one floating-point entry point. It evaluates
Glynn's signed-average formula: an O(2^(n-1) * n) sum over sign vectors,
walked in Gray-code order so each step updates a single running vector of
column sums, for n <= :data:`MAX_N`. :func:`permanent_brute` is the
literal sum over all n! permutations (n <= 9), streamed as it walks them.

The 2^(n-1) terms alternate in sign and cancel almost completely, which
amplifies rounding. Every row is first divided by a power of two near its
largest modulus, which is exact and keeps one dominant row from swamping
the column sums. Each column sum is then kept as a double-double pair
(hi, lo), about 106 bits, with the arithmetic of Hida, Li and Bailey; each
product is formed from hi + lo in extended precision (long double), and
the signed products are added with Kahan compensation, also in long
double. The same pass adds up the terms' moduli, from which every D_n
carries a derived bound on its own rounding error (:func:`_rounding_bound`).
Against an exact big-integer permanent of the same float64 matrix, D_n is
within about 1e-16 relative at n = 12 and 16 on the quadratic bridge, and
against the closed form of the rank-two cosine kernel within about 2e-16
at n = 20 to 26; the tests gate them at 1e-13 and 1e-14.

The Gray-code loop is a small C function, compiled with the system's
``cc`` on the first permanent of a process (never at import), cached in
``$XDG_CACHE_HOME/permlim`` or ``~/.cache/permlim`` under a name hashed
from its source, flags and platform, and called through ctypes, which
releases the GIL, so worker threads run granules of 2^18 terms in
parallel: at most one thread per CPU the process may use, each with a few
granules in flight, so memory stays flat however many terms there are,
and the granule totals are added in ascending order. There is no
other implementation: when the library cannot be built or loaded, the
permanent raises :class:`KernelBuildError`, whose one-line message names
the compiler, and every later permanent of the process raises it again
without running the compiler.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import importlib.util
import itertools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, KernelBuildError, RuntimeBudgetWarning

_LD = np.longdouble
_U = float(np.finfo(_LD).eps) / 2  # unit roundoff of long double, 2^-64 on x86
_U_DOUBLE = float(np.finfo(float).eps) / 2
_GRANULE = 1 << 18  # work unit; fixed so results do not depend on workers
_AHEAD = 4  # granules per thread submitted ahead of the in-order reduction
_BRUTE_MAX = 9

DEFAULT_CAP = 26
# the largest n whose 2^(n-1) Glynn terms the loop's int64 index can count
MAX_N = 63
# The compiled loop takes 24 to 36 ns per term on one core at n = 24 and 26
# (2-core Xeon VM with AVX2; best and median of 10 processes), so n = 26
# takes about 1 s, n = 28 about 4 s, and each further n doubles that.
_WARN_ABOVE = DEFAULT_CAP
_NS_PER_TERM = 30

_COMPILER = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 60

# Glynn terms for Gray-code steps k_start <= k < k_end, with one
# Kahan-compensated sum and one plain sum of moduli over the whole granule.
# Each column sum is a double-double pair (hi, lo); a step adds a
# precomputed +-2 row, exact in float64, so the loop over columns is
# element-wise IEEE adds that -O3 vectorises (-ffp-contract=off keeps
# TwoSum from becoming FMAs); on x86-64 the AVX2 clone and the default one
# give the same bits. A term's product runs as four independent long
# double chains: one chain of n dependent multiplies waits on the latency
# of each, and four take 15 to 20 % less time per term.
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

#define COLUMN(j) ((long double)hi[j] + lo[j])

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
    long double total = 0.0L, comp = 0.0L, abs_sum = 0.0L;
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
    for (int64_t k = k_start;;) {
        /* four independent chains, over columns j = 0, 1, 2, 3 (mod 4) */
        long double p0 = 1.0L, p1 = 1.0L, p2 = 1.0L, p3 = 1.0L;
        int j = 0;
        for (; j + 4 <= n; j += 4) {
            p0 *= COLUMN(j);
            p1 *= COLUMN(j + 1);
            p2 *= COLUMN(j + 2);
            p3 *= COLUMN(j + 3);
        }
        if (j < n)
            p0 *= COLUMN(j);
        if (j + 1 < n)
            p1 *= COLUMN(j + 1);
        if (j + 2 < n)
            p2 *= COLUMN(j + 2);
        long double prod = (p0 * p1) * (p2 * p3);
        long double y = (odd ? -prod : prod) - comp;
        long double t = total + y;
        comp = (t - total) - y;
        total = t;
        abs_sum += __builtin_fabsl(prod);
        if (++k == k_end)
            break;
        int pos = __builtin_ctzll((unsigned long long)k);
        int minus = (int)(((k ^ (k >> 1)) >> pos) & 1);
        const double *step = steps + (2 * pos + minus) * n;
        odd ^= 1;
        for (int i = 0; i < n; i++)
            dd_add(&hi[i], &lo[i], step[i]);
    }
    out[0] = total;
    out[1] = abs_sum;
}
"""


@dataclass(frozen=True)
class PermanentValue:
    """A permanent of an n x n matrix, or per/n! from :func:`compute_Dn`.

    ``bound`` bounds the relative rounding error of ``value`` against the
    exact value for the float64 matrix as given; it is nan where none is
    derived (:func:`permanent_brute`).
    """

    n: int
    value: float
    bound: float = math.nan


def permanent_brute(M) -> PermanentValue:
    """Permanent as the literal sum over all n! permutations (n <= 9).

    Each product is formed as the permutations are walked and handed to
    math.fsum, so nothing of size n! is ever held.
    """
    M = _check_matrix(M, _BRUTE_MAX,
                      reason=f"exceeds {_BRUTE_MAX}, the brute-force limit")
    rows = M.tolist()
    return PermanentValue(len(rows), math.fsum(
        math.prod(r[j] for r, j in zip(rows, p))
        for p in itertools.permutations(range(len(rows)))))


def compute_Dn(K, *, cap: int = DEFAULT_CAP, workers: int = 1) -> PermanentValue:
    """per(K)/n! by Glynn's formula, for a sampled kernel or a square array.

    The permanent is linear in each row, so every row is divided by a power
    of two near its largest modulus first and the powers are multiplied
    back. Without that step a row that dominates the column sums makes the
    signed terms cancel catastrophically: one row of a positive 8 x 8
    matrix scaled by 100 cost 10 digits, and by 1e4 all of them. The
    division by n! happens once, in extended precision, on the Glynn sum,
    so D_n never passes through the overflowing per(K) and the entries are
    not rounded by a division. The result's ``bound`` is a derived bound on
    |value - per(K)/n!| / (per(K)/n!) (:func:`_rounding_bound`). Raises
    :class:`CapExceededError` for n above ``cap`` or above :data:`MAX_N`,
    whatever ``cap`` is, and :class:`KernelBuildError` when the compiled
    loop cannot be had. ``workers`` threads share the terms, but never more
    than the CPUs the process may use; the value does not depend on them.
    """
    M = _check_matrix(K, min(cap, MAX_N), None if cap <= MAX_N else (
        f"exceeds {MAX_N}: the Glynn loop counts its 2^(n-1) terms with a "
        "64-bit index"))
    return PermanentValue(M.shape[0], *_normalised_permanent(M, workers))


def _check_matrix(M, cap, reason=None) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError("permanent expects a nonempty square matrix")
    n = M.shape[0]
    if n > cap:
        raise CapExceededError(f"n={n} " + (
            reason or f"exceeds the permanent cap {cap}; "
            "raise the cap explicitly to accept the 2^n cost"))
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def _normalised_permanent(M, workers) -> tuple[float, float]:
    """per(M) / n! and its error bound, with M's rows rescaled by powers of
    two.

    Row i is multiplied by 2^-e_i, where 2^e_i is the power of two just
    above its largest modulus (np.frexp), so every row peaks in [1/2, 1).
    Such a scale is exact in binary floating point, and the sum of the e_i
    is added back to the exponent of the result.
    """
    n = M.shape[0]
    if workers < 1:
        raise ValueError("workers must be >= 1")
    terms = 1 << (n - 1)
    granules = range(0, terms, _GRANULE)
    threads = min(workers, len(granules), _usable_cpus())
    if n > _WARN_ABOVE:
        warnings.warn(
            f"permanent at n={n} evaluates 2^{n - 1} terms: expect about "
            f"{terms * _NS_PER_TERM * 1e-9 / threads:.0f} s on {threads} "
            f"thread(s) (workers={workers})", RuntimeBudgetWarning,
            stacklevel=3)
    chunk = _compiled_kernel()
    _, exps = np.frexp(np.abs(M).max(axis=1))  # a zero row keeps e = 0
    rows = np.ascontiguousarray(np.ldexp(M, -exps[:, None]))  # exact

    # per(M) = 2^(1-n) sum over delta in {+-1}^n, delta_1 = +1, of
    # prod_k delta_k * prod_j sum_i delta_i M_ij (Glynn). The sum is cut at
    # fixed granule boundaries; threads only decide which of them evaluates
    # which granule, and the reductions below run in ascending granule
    # order, so value and bound are bit-identical for any worker count (the
    # terms cancel so heavily that *any* count-dependent regrouping would
    # move the result by far more than 1e-12 relative).
    total = comp = abs_sum = _LD(0.0)
    for part, part_abs in _in_order(
            lambda k: chunk(rows, n, k, min(k + _GRANULE, terms)),
            granules, threads):
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += part_abs
    value = np.ldexp(total / _LD(math.factorial(n)), int(exps.sum()) - (n - 1))
    return float(value), _rounding_bound(rows, total, abs_sum,
                                         min(_GRANULE, terms))


def _in_order(run, items, threads):
    """run(item) for each of the lazy ``items``, yielded in their order.

    On one thread this is map(run, items). Otherwise a pool of ``threads``
    runs them with _AHEAD items per thread in flight, so memory does not
    grow with the number of items; an exception, Ctrl-C included, cancels
    the queued items and waits only for the running ones.
    """
    if threads == 1:
        yield from map(run, items)
        return
    # imported here: 5 to 8 ms after `import permlim` that a single-worker
    # process never needs
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=threads)
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(run, item))
            if len(pending) == _AHEAD * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rounding_bound(rows, total, abs_sum, span) -> float:
    """A bound on |D - D*| / |D*| for the D that :func:`_normalised_permanent`
    returns from ``total``, the computed Glynn sum over the scaled ``rows``,
    where D* is the exact per/n! of the float64 matrix given.

    Derived, not fitted, after Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed., 2002), chapters 3 and 4. Write u and u_d = 2^-53
    for the unit roundoffs of long double (2^-64 in the x87 format) and
    double, s and t_k for the exact Glynn sum and terms, and
    B = ``abs_sum`` = sum_k |t'_k| over the computed terms t'_k, formed in
    the same pass. Rounding to nearest and no underflow of a long double
    product are assumed.

    * Column sums. An entry f 2^e, f in [1/2, 1), is a multiple of
      2^(e - 53), so every column sum the loop forms lies on the grid
      2^-L Z, L = 53 - min e, and below 2^M in modulus, where M exceeds
      log2 max_j A_j by at least 1 and A_j = sum_i |r_ij|. When
      M + L <= 104, every value a double-double add forms (the TwoSum, the
      sum of the two low parts, the renormalisation) is a grid value of
      fewer than 2^53 grid units, so each is exact and hi + lo is the exact
      column sum. Otherwise each add has relative error at most 2 u_d^2
      (Joldes, Muller and Popescu, ACM TOMS 44, 2017, Thm 2.2), and a sum
      takes at most n + span adds after its granule starts, so it is off
      by at most eta A_j, eta = 4 (n + span) u_d^2 (doubled to cover
      compounding). The product c_k of a term's column sums as formed then
      differs from t_k by at most
      prod_j (1 + eta) A_j - prod_j A_j <= 2 n eta prod_j A_j (n eta is
      below 2^-60), and the 2^(n-1) terms by 2^n n eta prod_j A_j.
    * Products. A term rounds hi + lo to long double n times and
      multiplies n factors with n - 1 roundings however the four chains
      group them (a product by an exact 1 rounds nothing), so
      |t'_k - c_k| <= gamma_(2n-1) |c_k|, gamma_m = m u / (1 - m u)
      (Higham, Lemma 3.1), where c_k = t_k on the grid.
    * Sums. The terms of a granule, then the granule totals, are added by
      Kahan's compensated summation, whose result is sum_i (1 + mu_i) x_i
      with |mu_i| <= 2u + O(N u^2) (Higham, (4.8)): 4u B over both levels.

    So |total - s| <= err = (gamma_(2n-1) + 4u) B, plus the column term, and
    |total - s| / |s| <= r = err / (|total| - err). The division by n!
    rounds n! to long double (u), then the quotient (u) and its conversion
    to double (u_d), so |D - D*| / |D*| <= r + (1 + r)(4u + u_d), since
    (1 + u)^2 (1 + u_d) / (1 - u) - 1 < 4u + u_d. The factor 1 + 2^-30 on
    err covers the second-order terms above (N u <= 2^-39 for the Kahan
    sums and for the plain sums that form B, |c_k| <= |t'_k| (1 + 2
    gamma_(2n-1))) and the rounding of this arithmetic itself.
    """
    n = rows.shape[0]
    colsums = np.abs(rows).sum(axis=0)
    _, top = np.frexp(colsums.max())  # every A_j < 2^top, so M = top + 1
    _, low = np.frexp(rows[rows != 0.0])
    m = 2 * n - 1
    err = _LD(m * _U / (1.0 - m * _U) + 4.0 * _U) * abs_sum
    if low.size and top - low.min() > 50:  # M + L > 104
        eta = 4.0 * (n + span) * _U_DOUBLE ** 2
        err += _LD(2.0 ** n * n * eta * np.prod(colsums))
    err *= _LD(1.0 + 2.0 ** -30)
    if err == 0.0:
        r = 0.0
    elif abs(total) > err:
        r = float(err / (abs(total) - err))
    else:
        r = math.inf
    return r + (1.0 + r) * (4.0 * _U + _U_DOUBLE)


@functools.lru_cache(maxsize=None)
def _compiled_kernel():
    """The C loop as chunk(rows, n, k_start, k_end) -> (sum, sum of moduli)
    of the terms k_start <= k < k_end, both long double; k = 0 is the
    all-plus sign vector.

    When the library cannot be built or loaded (no compiler, a failed or
    timed-out compile, an unusable cache directory or a failed load, or a
    platform whose C long double is not numpy's longdouble), the function
    returned raises :class:`KernelBuildError` on every call. Either result
    is kept for the life of the process, so a process without a usable
    compiler runs it once, not once per permanent.
    """
    if os.name != "posix" or (
            ctypes.sizeof(ctypes.c_longdouble) != np.dtype(_LD).itemsize):
        return _failed(
            f"exact permanents need the C compiler {_COMPILER!r} on a POSIX "
            "platform whose C long double is numpy's longdouble")
    try:
        fn = _load_library()
    except OSError as exc:
        return _failed(
            f"exact permanents need the C compiler {_COMPILER!r}: cannot "
            f"build or load the Glynn kernel ({' '.join(str(exc).split())})",
            exc)
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p)
    fn.restype = None

    def chunk(rows, n, k_start, k_end):
        if (rows.dtype != np.float64 or rows.shape != (n, n)
                or not rows.flags.c_contiguous
                or not 0 <= k_start < k_end <= 1 << (n - 1)):
            raise ValueError("glynn_chunk: bad rows or term range")
        # A pointer to a long double buffer, not restype c_longdouble: that
        # would round each granule total to a Python float.
        out = np.zeros(2, dtype=_LD)
        fn(rows.ctypes.data, n, k_start, k_end, out.ctypes.data)
        return out[0], out[1]

    return chunk


def _failed(message: str, cause: Exception | None = None):
    """A stand-in for the chunk function: every call raises a fresh
    KernelBuildError(message) from cause."""
    def chunk(*args):
        raise KernelBuildError(message) from cause
    return chunk


def _load_library():
    """glynn_chunk from the library in the user's cache, compiled on a miss.

    A cached file that fails to load (truncated, say) or lacks the function
    is compiled again. The compiler writes to a temporary name, and the new
    file is loaded from that name before os.replace moves it into place: a
    concurrent process never loads a half-written library, and a stale
    library this process already loaded under the cached name, which
    dlopen would hand back again for that name, is not asked twice. Any
    failure is an OSError.
    """
    path = _library_path()
    with contextlib.suppress(OSError, AttributeError):  # missing or foreign
        return ctypes.CDLL(path).glynn_chunk
    import subprocess  # about 7 ms, only on a cache miss
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix="glynn-",
                               suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([_COMPILER, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                       input=_C_SOURCE, text=True, capture_output=True,
                       check=True, timeout=_COMPILE_TIMEOUT_S)
        fn = ctypes.CDLL(tmp).glynn_chunk
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{_COMPILER} exited with status {exc.returncode}: "
                      f"{exc.stderr}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{_COMPILER} ran longer than {exc.timeout} s") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return fn


def _library_path() -> str:
    """Where the compiled kernel is cached: a private directory, created if
    missing, and a file name hashed from the source, flags and platform."""
    # Imported here: at module level it would add to every `import
    # permlim`, including the many runs that build no permanent.
    import sysconfig

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(base, "permlim")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    info = os.stat(cache)
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    # a 64-bit SipHash, as for hash-based .pyc files: importlib.util is
    # loaded already, where hashlib would cost about 2.7 ms a process
    key = importlib.util.source_hash("\0".join(
        (_C_SOURCE, *_CFLAGS, sysconfig.get_platform())).encode()).hex()
    return os.path.join(cache, f"glynn-{key}.so")
