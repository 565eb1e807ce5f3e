"""Eigenvalue quantities: the centered matrix B, the determinant estimate
for normalised permanents, the spectral gap, and the Fredholm limit.

For a doubly stochastic A (= balanced kernel / n) write J for the matrix
with all entries 1/n and B = A - J. Multiplying by J averages rows or
columns, so B J = J B = 0 and the spectrum of A splits into the trivial
eigenvalue 1 (constant vector) plus the spectrum of B on its complement.
The normalised permanent of A converges to det(I + J - A^T A)^(-1/2), which
for symmetric A equals det(I - B^2)^(-1/2); in the continuum the same role
is played by the Fredholm determinant of the centered integral operator,
estimated here by Gauss-Legendre Nystrom discretisation (Bornemann, Math.
Comp. 2010), which converges exponentially in the resolution for an
analytic density and algebraically for a merely continuous one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .balance import BalanceResult
from .bridge import DensitySource, gauss_legendre
from .errors import RefinementWarning, SpectralGapError, SpectralGapWarning

_ASYM_TOL = 1e-10
_ANNIHILATION_TOL = 1e-10
_GAP_MARGIN = 1e-8
_GAP_WARN = 0.99

DEFAULT_EIG_CUTOFF = 1e-12
DEFAULT_REFINEMENT_TOL = 1e-5
MIN_RESOLUTION = 32


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues at one resolution and the determinants built from them.

    The reported ``fredholm_limit`` is exactly det_I_minus_B2 ** -0.5 with the
    product taken over the eigenvalues above the cutoff, so it can be
    reconstructed from the report alone.
    """

    n_or_m: int
    eigenvalues: np.ndarray
    lambda_star: float
    det_I_minus_B2: float
    fredholm_limit: float
    converged: bool
    refinement_gap: float


def eigen_symmetric(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigen_symmetric expects a square matrix")
    if float(np.abs(M - M.T).max()) > _ASYM_TOL:
        raise ValueError(
            f"matrix asymmetry {np.abs(M - M.T).max():.3e} exceeds {_ASYM_TOL:g}")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def bn_matrix(res: BalanceResult) -> np.ndarray:
    """B = balanced/n - J, checked to annihilate the averaging matrix J.

    max |B J| is the largest absolute row mean of B and max |J B| the
    largest column mean; both vanish exactly when the input is doubly
    stochastic, so values above 1e-10 signal an unbalanced input.
    """
    n = res.n
    B = res.balanced / n - 1.0 / n
    row_means = float(np.abs(B.mean(axis=1)).max())
    col_means = float(np.abs(B.mean(axis=0)).max())
    if max(row_means, col_means) > _ANNIHILATION_TOL:
        raise ValueError(
            f"B does not annihilate J (max row mean {row_means:.3e}, max column "
            f"mean {col_means:.3e}); the input is not balanced to tolerance")
    return B


def mccullagh_estimate(A) -> float:
    """det(I - B^2)^(-1/2) over the spectrum of B = A - J, for a symmetric
    doubly stochastic A.

    B J = J B = 0 gives I + J - A^2 = I - B^2, so this is the finite-n
    estimate det(I + J - A^T A)^(-1/2); one symmetric eigen-solve of B
    yields both the value and the gap check. Every eigenvalue of B must
    stay away from modulus 1 (margin 1e-8); at modulus 1 the determinant
    degenerates and the estimate is meaningless. Asymmetric input raises
    the ValueError of :func:`eigen_symmetric`.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    dev = max(float(np.abs(A.sum(axis=1) - 1.0).max()),
              float(np.abs(A.sum(axis=0) - 1.0).max()))
    if dev > _ASYM_TOL:
        raise ValueError(
            f"matrix is not doubly stochastic (row/column sum deviation {dev:.3e})")
    lam = eigen_symmetric(A - 1.0 / n)
    lam_star = float(np.abs(lam).max(initial=0.0))
    if lam_star >= 1.0 - _GAP_MARGIN:
        raise SpectralGapError(
            f"a nontrivial eigenvalue of A has modulus {lam_star:.6f} >= "
            f"{1.0 - _GAP_MARGIN}; the determinant estimate degenerates "
            "without a spectral gap")
    return math.exp(-0.5 * math.fsum(np.log1p(-lam * lam)))


def centered_nystrom(source: DensitySource, m: int) -> np.ndarray:
    """The symmetric matrix sqrt(w_i) (rho(z_i, z_j) - 1) sqrt(w_j) on the
    m-point Gauss-Legendre rule (z, w) of :func:`permlim.bridge.gauss_legendre`.

    Its eigenvalues approximate those of the centered integral operator
    f -> integral (rho(x, y) - 1) f(y) dy on mean-zero functions. The
    density source returns rho on the nodes z exactly symmetric, and so is
    the matrix.
    """
    if m < MIN_RESOLUTION:
        raise ValueError(f"resolution m must be >= {MIN_RESOLUTION}")
    z, w = gauss_legendre(m)
    s = np.sqrt(w)
    rho = np.asarray(source(z), dtype=float)
    return (rho - 1.0) * np.outer(s, s)


def fredholm_limit(
    source: DensitySource,
    m: int,
    eig_cutoff: float = DEFAULT_EIG_CUTOFF,
    refinement_tol: float = DEFAULT_REFINEMENT_TOL,
) -> SpectrumReport:
    """Estimate prod (1 - lambda_k^2)^(-1/2) over the centered spectrum.

    Eigenvalues with |lambda| <= eig_cutoff are treated as discretisation
    zeros and excluded from the product. A SpectralGapWarning is emitted
    when the largest |lambda| at resolution m reaches 0.99, where the
    product is close to divergent. The estimate is recomputed at
    resolution 2m; if the two values disagree by more than refinement_tol
    relative, a RefinementWarning is emitted and the report is marked not
    converged, but the resolution-m value is still returned.
    """
    if eig_cutoff < 0:
        raise ValueError("eig_cutoff must be nonnegative")
    eigs = np.linalg.eigvalsh(centered_nystrom(source, m))
    value, lam_star, det = _product_value(eigs, eig_cutoff)
    if lam_star >= _GAP_WARN:
        warnings.warn(
            f"spectral gap nearly closed: max |eigenvalue| = {lam_star:.6f} "
            f">= {_GAP_WARN}; the limiting product is close to divergent",
            SpectralGapWarning, stacklevel=2)
    eigs2 = np.linalg.eigvalsh(centered_nystrom(source, 2 * m))
    value2, _, _ = _product_value(eigs2, eig_cutoff)
    gap = abs(value2 / value - 1.0) if value != 0.0 else math.inf
    converged = gap <= refinement_tol
    if not converged:
        warnings.warn(
            f"Fredholm estimate moved by {gap:.3e} relative between m={m} and "
            f"m={2 * m}; reporting the m={m} value as non-converged",
            RefinementWarning, stacklevel=2)
    return SpectrumReport(
        n_or_m=m, eigenvalues=eigs, lambda_star=lam_star, det_I_minus_B2=det,
        fredholm_limit=value, converged=converged, refinement_gap=gap)


def _product_value(eigs: np.ndarray, eig_cutoff: float):
    lam = eigs[np.abs(eigs) > eig_cutoff]
    if lam.size and float(np.abs(lam).max()) >= 1.0:
        raise SpectralGapError(
            f"centered operator has an eigenvalue of modulus "
            f"{np.abs(lam).max():.6f} >= 1; the limit product diverges")
    det = float(np.prod(1.0 - lam * lam)) if lam.size else 1.0
    value = det ** -0.5
    lam_star = float(np.abs(eigs).max(initial=0.0))
    return value, lam_star, det
