"""Continuum and balancing references that call none of permlim's solvers.

* ``continuum_limit``: the Fredholm limit prod (1 - lambda_k^2)^(-1/2) for
  the quadratic cost, by Gauss-Legendre Nystrom (Bornemann, Math. Comp.
  2010). The potential is solved on the same Gauss-Legendre nodes, so the
  whole chain converges exponentially in m; the program uses the midpoint
  rule and converges like m^-2.
* ``balance_reference``: symmetric scaling u <- sqrt(u / (R u)) run in the
  log variable v = log u, with the small quantities q and R expm1(v) kept
  apart from the ones, down to a residual near 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONTINUUM_CHECK = (1.0, 1.0136601832023262)  # (beta, limit) to reproduce


def continuum_limit(beta: float, m: int = 48) -> float:
    """Fredholm limit of the quadratic cost beta (x - y)^2 at m GL nodes."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    C = beta * (x[:, None] - x[None, :]) ** 2
    G = np.exp(-C)
    a = np.zeros(m)
    for _ in range(2000):
        t = np.log(G @ (w * np.exp(-a)))
        if float(np.abs(np.expm1(t - a)).max()) <= 2e-16:
            break
        a = 0.5 * (a + t)  # damping 1/2 removes the gauge oscillation a -> t
    else:
        raise RuntimeError(f"continuum potential did not converge (beta={beta})")
    sw = np.sqrt(w)
    S = sw[:, None] * np.expm1(-C - a[:, None] - a[None, :]) * sw[None, :]
    lam = np.linalg.eigvalsh(0.5 * (S + S.T))
    return math.exp(-0.5 * math.fsum(np.log1p(-lam * lam)))


def continuum_self_check() -> list[str]:
    """The m and 2m values agree and the beta = 1 constant is reproduced."""
    failures = []
    beta, expected = CONTINUUM_CHECK
    got = continuum_limit(beta)
    if abs(got / expected - 1.0) > 2e-15:
        failures.append(f"continuum limit at beta=1 is {got!r}, "
                        f"expected {expected!r}")
    for b in (0.5, 2.0):
        gap = abs(continuum_limit(b, 48) / continuum_limit(b, 96) - 1.0)
        if gap > 1e-14:
            failures.append(f"continuum limit m vs 2m gap {gap:.2e} at beta={b}")
    return failures


@dataclass(frozen=True)
class BalanceReference:
    """Reference perturbation h = u - 1 and the CSV columns derived from it."""

    h: np.ndarray
    u: np.ndarray
    residual: float
    h_norm_2n: float
    h_norm_inf: float
    sum_log: float
    m_n: float


def balance_reference(entries: np.ndarray, max_iter: int = 400) -> BalanceReference:
    """Symmetric scaling of entries / n until u * (R u) - 1 stops shrinking."""
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    R = entries / n
    q = (R.sum(axis=1, dtype=np.longdouble) - 1).astype(np.float64)
    v = np.zeros(n)
    best = math.inf
    for _ in range(max_iter):
        log_ru = np.log1p(q + R @ np.expm1(v))
        residual = float(np.abs(np.expm1(v + log_ru)).max())
        if residual >= best and residual < 1e-14:
            break
        best = min(best, residual)
        v = 0.5 * (v - log_ru)
    else:
        raise RuntimeError(f"reference balancing did not converge at n={n}")
    h = np.expm1(v)
    return BalanceReference(
        h=h, u=1.0 + h, residual=best,
        h_norm_2n=math.sqrt(math.fsum(h * h) / n),
        h_norm_inf=float(np.abs(h).max()),
        sum_log=math.fsum(v),
        m_n=math.fsum(h) / n)


def mccullagh_reference(entries: np.ndarray, u: np.ndarray) -> float:
    """det(I - B^2)^(-1/2), B = diag(u) K diag(u) / n - J, from eigenvalues."""
    n = entries.shape[0]
    B = entries * np.outer(u, u) / n - 1.0 / n
    mu = np.linalg.eigvalsh(0.5 * (B + B.T))
    return math.exp(-0.5 * math.fsum(np.log1p(-mu * mu)))
