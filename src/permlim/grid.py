"""Right-endpoint grid sampling of densities and Riemann-sum diagnostics.

A density rho is discretised into the matrix K[i, j] = rho(i/n, j/n) with
i, j = 1..n, the right endpoints of the uniform partition of [0,1]. Every
later stage (balancing, permanents, spectra) consumes these matrices. The
normalised kernel K/n has row sums close to 1; the row-defect vector
measures how close, and the Riemann-sum helpers quantify why the defect
decays at the rate it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import DensitySource

_SYM_TOL = 1e-12


def norm_2n(v: np.ndarray) -> float:
    """Normalised Euclidean norm sqrt((1/n) sum v_i^2)."""
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(np.mean(v * v)))


def norm_inf(v: np.ndarray) -> float:
    """Supremum norm max |v_i|."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True)
class KernelMatrix:
    """Samples rho(i/n, j/n); ``entries / n`` is the normalised kernel."""

    n: int
    entries: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        if self.entries.shape != (self.n, self.n):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match n={self.n}")
        self.entries.setflags(write=False)

    @property
    def normalized(self) -> np.ndarray:
        """The matrix entries / n, whose row sums are near 1."""
        return self.entries / self.n


@dataclass(frozen=True)
class DefectVector:
    """Row-sum deviation q_i = (1/n) sum_j K[i, j] - 1 with its norms."""

    n: int
    q: np.ndarray
    q_bar: float
    norm_inf: float
    norm_2n: float


def grid_nodes(n: int) -> np.ndarray:
    """The right endpoints i/n for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1, n + 1) / n


def sample_kernel(source: DensitySource, n: int) -> KernelMatrix:
    """Sample rho at the right-endpoint grid, enforcing exact symmetry.

    Floating-point asymmetry up to 1e-12 (from the evaluator, not the
    density itself) is removed by averaging with the transpose; anything
    larger indicates a genuinely asymmetric density and raises. Entries
    must be strictly positive: balancing and the permanent limits are
    stated for positive kernels.
    """
    t = grid_nodes(n)
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        K = np.asarray(source(t[:, None], t[None, :]), dtype=float)
    if K.shape != (n, n):
        raise ValueError(f"density returned shape {K.shape}, expected {(n, n)}")
    if not np.isfinite(K).all():
        raise ValueError("density evaluates to non-finite values on the grid")
    asym = float(np.abs(K - K.T).max())
    if asym > _SYM_TOL:
        raise ValueError(
            f"sampled kernel asymmetry {asym:.3e} exceeds {_SYM_TOL:g}")
    if asym > 0.0:
        K = 0.5 * (K + K.T)
    if K.min() <= 0.0:
        raise ValueError(
            f"sampled kernel must be strictly positive; min entry {K.min():.3e}")
    return KernelMatrix(n, K, source.label)


def row_defect(K: KernelMatrix) -> DefectVector:
    """Row-sum defect of the normalised kernel.

    For a doubly stochastic density the defect is pure discretisation
    error: its sup norm decays like 1/n and its mean like 1/n^2.
    """
    entries = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, float)
    n = entries.shape[0]
    q = entries.sum(axis=1) / n - 1.0
    return DefectVector(n, q, float(np.mean(q)), norm_inf(q), norm_2n(q))


def riemann_sum(f_values) -> float:
    """Right-endpoint Riemann sum (1/n) sum f(i/n) from the sampled values.

    Computed as f_values[0] + mean(f_values - f_values[0]) so a constant
    input returns that constant exactly, not merely to rounding.
    """
    v = np.asarray(f_values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("f_values must be a nonempty vector")
    return float(v[0] + math.fsum(v - v[0]) / v.size)


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


def save_matrix(path, K) -> None:
    """Write a square matrix: first line n, then n whitespace-separated rows.

    Values are written with repr so a load round-trip is bit exact.
    """
    entries = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("save_matrix expects a square matrix")
    with open(path, "w") as fh:
        fh.write(f"{entries.shape[0]}\n")
        for row in entries:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read the matrix format written by :func:`save_matrix`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty matrix file {path}")
    n = int(tokens[0])
    vals = np.array([float(t) for t in tokens[1:]])
    if vals.size != n * n:
        raise ValueError(f"expected {n * n} values in {path}, found {vals.size}")
    return vals.reshape(n, n)
