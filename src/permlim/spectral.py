"""Eigenvalue quantities: the determinant estimate for normalised
permanents, the spectral gap, and the Fredholm limit.

For a doubly stochastic A (= balanced kernel / n) write J for the matrix
with all entries 1/n and B = A - J. Multiplying by J averages rows or
columns, so B J = J B = 0 and the spectrum of A splits into the trivial
eigenvalue 1 (constant vector) plus the spectrum of B on its complement.
The normalised permanent of A converges to det(I + J - A^T A)^(-1/2), which
for symmetric A equals det(I - B^2)^(-1/2); in the continuum the same role
is played by the Fredholm determinant of the centered integral operator,
estimated here by Gauss-Legendre Nystrom discretisation (Bornemann, Math.
Comp. 2010), which converges exponentially in the resolution for an
analytic density and algebraically for a merely continuous one. Because
it converges at the rate of the quadrature, the value at m is checked
from below, against m // 2, and their gap estimates the error at m from
above. A check level too coarse for the source, whose aliased spectrum
loses the gap or overflows the determinant, reports an infinite gap
instead of failing.

Both are one functional of a symmetric centered matrix: B = (K_bal - 1)/n
is the centered operator on the right-endpoint rule, the Nystrom matrix
the same operator on Gauss-Legendre. One routine evaluates it for both.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bridge import DensitySource, gauss_legendre, max_asymmetry
from .errors import RefinementWarning, SpectralGapError, SpectralGapWarning

_ASYM_TOL = 1e-10
_GAP_MARGIN = 1e-8
_GAP_WARN = 0.99
_LOG_MAX = math.log(sys.float_info.max)  # about 709.78
_REFINEMENT_TOL = 1e-5

MIN_RESOLUTION = 32


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the centered Nystrom matrix at resolution m and the
    limit built from them.

    ``fredholm_limit`` is exp(-1/2 sum log(1 - lambda^2)) over all of
    ``eigenvalues``, so it can be reconstructed from the report alone;
    ``lambda_star`` is their largest modulus and ``refinement_gap`` the
    relative change of the limit from the check resolution m // 2 to m,
    an upper estimate of its error at m; it is inf when the m // 2 level
    is too coarse to resolve the source (an aliased eigenvalue of modulus
    1 or more, or a determinant beyond the double range).
    """

    eigenvalues: np.ndarray
    lambda_star: float
    fredholm_limit: float
    converged: bool
    refinement_gap: float


def mccullagh_estimate(A) -> float:
    """det(I - B^2)^(-1/2) over the spectrum of B = A - J, for a symmetric
    doubly stochastic A.

    B J = J B = 0 gives I + J - A^2 = I - B^2, so this is the finite-n
    estimate det(I + J - A^T A)^(-1/2). It is evaluated by the same
    eigen-solve, gap check and log-sum as :func:`fredholm_limit`: every
    eigenvalue of B must stay below modulus 1 - 1e-8, and the value must
    fit in a double, else SpectralGapError. Input that is not square,
    not finite, not doubly stochastic or not symmetric (both to 1e-10)
    raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("mccullagh_estimate expects a square matrix")
    # A non-finite entry makes a row sum or the asymmetry inf or nan, and
    # `not x <= tol` rejects both.
    dev = float(np.maximum(np.abs(A.sum(axis=1) - 1.0).max(),
                           np.abs(A.sum(axis=0) - 1.0).max()))
    if not dev <= _ASYM_TOL:
        raise ValueError(
            f"matrix is not doubly stochastic (row/column sum deviation {dev:.3e})")
    asym = max_asymmetry(A)
    if not asym <= _ASYM_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {_ASYM_TOL:g}")
    return _centered_determinant(A - 1.0 / A.shape[0])[0]


def centered_nystrom(source: DensitySource, m: int) -> np.ndarray:
    """The symmetric matrix sqrt(w_i) (rho(z_i, z_j) - 1) sqrt(w_j) on the
    m-point Gauss-Legendre rule (z, w) of :func:`permlim.bridge.gauss_legendre`.

    Its eigenvalues approximate those of the centered integral operator
    f -> integral (rho(x, y) - 1) f(y) dy on mean-zero functions. The
    density source samples rho on the nodes z exactly symmetric, and so is
    the matrix; the sample is freed once rho - 1 is formed, so at most two
    m x m arrays are alive at once.
    """
    if m < MIN_RESOLUTION:
        raise ValueError(f"resolution m must be >= {MIN_RESOLUTION}")
    return _nystrom(source, m)


def fredholm_limit(source: DensitySource, m: int) -> SpectrumReport:
    """Estimate prod (1 - lambda_k^2)^(-1/2) over the centered spectrum.

    The product runs over all m eigenvalues of the centered Nystrom
    matrix, as a sum of logarithms, with the gap check of
    :func:`mccullagh_estimate`; a SpectralGapError at resolution m is
    raised. A SpectralGapWarning is emitted when the largest |lambda| at
    resolution m reaches 0.99, where the product is close to divergent.

    The estimate is checked from below, at m // 2 (which may be under
    MIN_RESOLUTION): the Nystrom determinant converges at the rate of the
    quadrature (Bornemann, Math. Comp. 2010), so the m // 2 to m gap
    estimates the error at m from above. If the two values disagree by
    more than 1e-5 relative, a RefinementWarning is emitted and the report
    is marked not converged, but the resolution-m value is still returned.
    A check level too coarse for the source can alias an eigenvalue to
    modulus 1 or more, or overflow the determinant; that gives gap inf
    and the same warning, not an error.
    """
    value, eigs, lam_star = _centered_determinant(centered_nystrom(source, m))
    if lam_star >= _GAP_WARN:
        warnings.warn(
            f"spectral gap nearly closed: max |eigenvalue| = {lam_star:.6f} "
            f">= {_GAP_WARN}; the limiting product is close to divergent",
            SpectralGapWarning, stacklevel=2)
    coarse = m // 2
    try:
        coarse_value = _centered_determinant(_nystrom(source, coarse))[0]
    except SpectralGapError:  # the check level aliases: no estimate
        coarse_value = math.inf
    gap = abs(coarse_value / value - 1.0)
    converged = gap <= _REFINEMENT_TOL
    if not converged:
        warnings.warn(
            f"Fredholm estimate moved by {gap:.3e} relative between "
            f"m={coarse} and m={m}; reporting the m={m} value as "
            "non-converged", RefinementWarning, stacklevel=2)
    return SpectrumReport(eigenvalues=eigs, lambda_star=lam_star,
                          fredholm_limit=value, converged=converged,
                          refinement_gap=gap)


def _nystrom(source: DensitySource, m: int) -> np.ndarray:
    """:func:`centered_nystrom` without its resolution minimum, so the
    check level m // 2 of :func:`fredholm_limit` can go below it."""
    z, w = gauss_legendre(m)
    s = np.sqrt(w)
    S = np.subtract(source(z), 1.0)
    S *= np.outer(s, s)
    return S


def _centered_determinant(S):
    """(det(I - S^2)^(-1/2), eigenvalues, max |eigenvalue|) of a symmetric S.

    Summing log1p(-lambda^2) cannot underflow the way a product of the
    factors can. Raises SpectralGapError when an eigenvalue reaches modulus
    1 - 1e-8 or when the value exceeds the largest double.
    """
    lam = np.linalg.eigvalsh(S)
    lam_star = float(np.abs(lam).max(initial=0.0))
    if lam_star >= 1.0 - _GAP_MARGIN:
        raise SpectralGapError(
            f"a centered eigenvalue has modulus {lam_star:.6f} >= "
            f"{1.0 - _GAP_MARGIN}; the determinant degenerates without a "
            "spectral gap")
    exponent = -0.5 * math.fsum(np.log1p(-lam * lam))
    if exponent > _LOG_MAX:
        raise SpectralGapError(
            f"det(I - B^2)^(-1/2) = exp({exponent:.1f}) exceeds the double "
            f"range (exponent > {_LOG_MAX:.2f}); lambda* = {lam_star:.6f}")
    return math.exp(exponent), lam, lam_star
