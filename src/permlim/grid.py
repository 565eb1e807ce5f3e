"""Right-endpoint grid sampling of densities.

A density rho is discretised into the matrix K[i, j] = rho(i/n, j/n) with
i, j = 1..n, the right endpoints of the uniform partition of [0,1]. K is
the density source called on the node vector i/n, a
:class:`permlim.bridge.KernelMatrix`: one stored triangle, symmetric by its
storage, whose block rows are packed at the front of its n * n buffer, so
sampling makes about half of that buffer resident. Sampling checks the
range of the stored entries, which the fill records, for finiteness and
positivity, and averages nothing. The normalised kernel K/n has row sums
close to 1, up to the right-endpoint Riemann-sum error, O(1/n) in each row
and O(1/n^2) on average.
"""

from __future__ import annotations

import math

import numpy as np

from .bridge import DensitySource, KernelMatrix


def norm_2n(v: np.ndarray) -> float:
    """Normalised Euclidean norm sqrt((1/n) sum v_i^2)."""
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(np.mean(v * v)))


def norm_inf(v: np.ndarray) -> float:
    """Supremum norm max |v_i|."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


def grid_nodes(n: int) -> np.ndarray:
    """The right endpoints i/n for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1, n + 1) / n


def sample_kernel(source: DensitySource, n: int) -> KernelMatrix:
    """Sample rho at the right-endpoint grid.

    The result is ``source(grid_nodes(n))``, one stored triangle (see
    :class:`permlim.bridge.KernelMatrix`), so no averaging or symmetry
    check happens here and the full matrix is formed, in place, only when
    read. Every stored entry must be finite and strictly positive, as
    judged by the range the fill recorded: balancing and the permanent
    limits are stated for positive kernels.
    """
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        K = source(grid_nodes(n))
    lo, hi = K.value_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("density evaluates to non-finite values on the grid")
    if lo <= 0.0:
        raise ValueError(
            f"sampled kernel must be strictly positive; min entry {lo:.3e}")
    return K


def load_matrix(path) -> np.ndarray:
    """Read a square matrix file: first line n, then its n * n values,
    whitespace-separated, row by row."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty matrix file {path}")
    n = int(tokens[0])
    if n < 1:
        raise ValueError(f"matrix size {n} in {path} must be >= 1")
    vals = np.array([float(t) for t in tokens[1:]])
    if vals.size != n * n:
        raise ValueError(f"expected {n * n} values in {path}, found {vals.size}")
    return vals.reshape(n, n)
