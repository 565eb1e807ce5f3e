"""Right-endpoint grid sampling of densities and the Riemann-sum check.

A density rho is discretised into the matrix K[i, j] = rho(i/n, j/n) with
i, j = 1..n, the right endpoints of the uniform partition of [0,1]. The
density source fills K from the node vector i/n block row by block row,
exactly symmetric by construction and with no n x n temporary; sampling
checks it for finiteness and positivity and averages nothing. The result,
a :class:`KernelMatrix`, converts to its read-only entries without a copy,
so every later stage (balancing, permanents, spectra) reads it as a plain
array and only this module names the class. The
normalised kernel K/n has row sums close to 1, up to the right-endpoint
Riemann-sum error that :func:`riemann_correction_check` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import DensitySource


def norm_2n(v: np.ndarray) -> float:
    """Normalised Euclidean norm sqrt((1/n) sum v_i^2)."""
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(np.mean(v * v)))


def norm_inf(v: np.ndarray) -> float:
    """Supremum norm max |v_i|."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True)
class KernelMatrix:
    """Samples rho(i/n, j/n); ``entries / n`` is the normalised kernel.

    It is array-like: ``np.asarray(K)`` returns the read-only float
    ``entries`` themselves, so every later stage takes it as a plain array.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float).view()
        entries.setflags(write=False)  # on the view: the caller's array stays
        object.__setattr__(self, "entries", entries)

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x calls this without ``copy`` and rejects ``copy=None``.
        return (np.array if copy else np.asarray)(self.entries, dtype=dtype)


def grid_nodes(n: int) -> np.ndarray:
    """The right endpoints i/n for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1, n + 1) / n


def sample_kernel(source: DensitySource, n: int) -> KernelMatrix:
    """Sample rho at the right-endpoint grid.

    The source returns an exactly symmetric matrix by construction, so no
    averaging or symmetry check happens here. Entries must be finite and
    strictly positive: balancing and the permanent limits are stated for
    positive kernels.
    """
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        K = np.asarray(source(grid_nodes(n)), dtype=float)
        rows = K.sum(axis=1)
    # A finite row sum means a finite row, so only a kernel with an infinite
    # or nan row sum (or one that overflows) is scanned entry by entry.
    if not np.isfinite(rows).all() and not np.isfinite(K).all():
        raise ValueError("density evaluates to non-finite values on the grid")
    if K.min() <= 0.0:
        raise ValueError(
            f"sampled kernel must be strictly positive; min entry {K.min():.3e}")
    return KernelMatrix(K)


@dataclass(frozen=True)
class RiemannReport:
    """Residuals of the first Riemann-sum correction for each grid size.

    ``residuals[k]`` is r_n = |R_n(f) - integral - (f(1) - f(0))/(2 n)| at
    n = n_list[k], and ``scaled[k]`` = n^2 r_n, which stays bounded for
    twice continuously differentiable f.
    """

    n_list: tuple[int, ...]
    residuals: tuple[float, ...]
    scaled: tuple[float, ...]


def riemann_correction_check(f, integral: float, n_list) -> RiemannReport:
    """Measure how fast the corrected Riemann sum converges.

    Evaluates f on extended-precision nodes so the reported residuals
    reflect the analytic n^-2 term rather than accumulated rounding, which
    would otherwise dominate once n^2 r_n drops below n^2 * eps. For the
    same reason, pass ``integral`` as an ``np.longdouble`` when it is not
    exactly representable in double precision; a double reference caps the
    scaled residual's accuracy at about n^2 * eps * |integral|.
    """
    n_list = tuple(int(n) for n in n_list)
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("n_list must be nonempty positive integers")
    f1 = np.longdouble(f(np.longdouble(1.0)))
    f0 = np.longdouble(f(np.longdouble(0.0)))
    residuals = []
    scaled = []
    for n in n_list:
        t = np.arange(1, n + 1, dtype=np.longdouble) / np.longdouble(n)
        rsum = np.sum(np.asarray(f(t), dtype=np.longdouble)) / np.longdouble(n)
        r = abs(rsum - np.longdouble(integral) - (f1 - f0) / (2 * np.longdouble(n)))
        residuals.append(float(r))
        scaled.append(float(np.longdouble(n * n) * r))
    return RiemannReport(n_list, tuple(residuals), tuple(scaled))


def load_matrix(path) -> np.ndarray:
    """Read a square matrix file: first line n, then its n * n values,
    whitespace-separated, row by row."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty matrix file {path}")
    n = int(tokens[0])
    vals = np.array([float(t) for t in tokens[1:]])
    if vals.size != n * n:
        raise ValueError(f"expected {n * n} values in {path}, found {vals.size}")
    return vals.reshape(n, n)
