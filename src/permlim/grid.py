"""Right-endpoint grid sampling of densities and the Riemann-sum check.

A density rho is discretised into the matrix K[i, j] = rho(i/n, j/n) with
i, j = 1..n, the right endpoints of the uniform partition of [0,1]. The
density source fills K from the node vector i/n block row by block row,
on and above the diagonal blocks, with no n x n temporary. The result, a
:class:`KernelMatrix`, stores that one triangle, so it is symmetric by its
storage; sampling checks each stored entry for finiteness and positivity
and averages nothing. Products with K read only the stored triangle, and
the lower triangle is formed in place on the first read of the entries,
which convert to a read-only array without a copy: permanents and spectra
read a plain array, and balancing multiplies by K without forming it. The
normalised kernel K/n has row sums close to 1, up to the right-endpoint
Riemann-sum error that :func:`riemann_correction_check` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import _BLOCK, DensitySource, _mirror_block_rows


def norm_2n(v: np.ndarray) -> float:
    """Normalised Euclidean norm sqrt((1/n) sum v_i^2)."""
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(np.mean(v * v)))


def norm_inf(v: np.ndarray) -> float:
    """Supremum norm max |v_i|."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


class KernelMatrix:
    """Samples rho(i/n, j/n); ``entries / n`` is the normalised kernel.

    It is array-like: ``np.asarray(K)`` returns the read-only float
    ``entries`` themselves, so every later stage takes it as a plain array.
    Built directly, it holds the given array, and ``K @ v`` is
    ``entries @ v``.

    A kernel from :func:`sample_kernel` stores one triangle: the _BLOCK-row
    block rows P = K[s:e, s:] of the density fill, each diagonal block
    whole, and nothing below them. ``K @ v`` is the symmetric product over
    the block rows, out[s:e] += P @ v[s:] and out[e:] += P[:, e-s:].T @
    v[s:e] (the plain P @ v for n <= _BLOCK), so it is symmetric by its
    storage; the first read of ``entries`` or ``np.asarray(K)`` copies the
    lower triangle into place, once, and products keep their block form.
    """

    def __init__(self, entries):
        self._rows = np.asarray(entries, dtype=float)
        self._full = True
        self._sampled = False  # True for the one-triangle kernel of sample_kernel
        self._entries = self._rows.view()
        self._entries.setflags(write=False)  # on the view: the caller's array stays

    @classmethod
    def _one_triangle(cls, rows: np.ndarray) -> "KernelMatrix":
        K = cls(rows)
        K._full, K._sampled = False, True
        return K

    @property
    def shape(self) -> tuple[int, int]:
        return self._rows.shape

    @property
    def entries(self) -> np.ndarray:
        if not self._full:
            _mirror_block_rows(self._rows)
            self._full = True
        return self._entries

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x calls this without ``copy`` and rejects ``copy=None``.
        return (np.array if copy else np.asarray)(self.entries, dtype=dtype)

    def __matmul__(self, v) -> np.ndarray:
        rows, n = self._rows, self._rows.shape[0]
        if not self._sampled or n <= _BLOCK:
            return rows @ v
        out = np.zeros(n)
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            P = rows[s:e, s:]
            out[s:e] += P @ v[s:]
            out[e:] += P[:, e - s:].T @ v[s:e]
        return out

    def _stored_range(self) -> tuple[float, float]:
        """min and max over the stored entries; nan when any is nan."""
        rows, n = self._rows, self._rows.shape[0]
        lo, hi = math.inf, -math.inf
        for s in range(0, n, _BLOCK):
            P = rows[s:s + _BLOCK, s:]
            lo, hi = np.minimum(lo, P.min()), np.maximum(hi, P.max())  # keep a nan
        return float(lo), float(hi)


def grid_nodes(n: int) -> np.ndarray:
    """The right endpoints i/n for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1, n + 1) / n


def sample_kernel(source: DensitySource, n: int) -> KernelMatrix:
    """Sample rho at the right-endpoint grid.

    The source fills the block rows on and above the diagonal blocks, which
    the result stores as one triangle (see :class:`KernelMatrix`), so no
    averaging or symmetry check happens here and the lower triangle is
    formed only when read. Every stored entry must be finite and strictly
    positive: balancing and the permanent limits are stated for positive
    kernels.
    """
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        K = KernelMatrix._one_triangle(source._fill(grid_nodes(n)))
        lo, hi = K._stored_range()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("density evaluates to non-finite values on the grid")
    if lo <= 0.0:
        raise ValueError(
            f"sampled kernel must be strictly positive; min entry {lo:.3e}")
    return K


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
