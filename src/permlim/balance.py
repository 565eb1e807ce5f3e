"""Doubly stochastic balancing of sampled kernels.

Writing R for the normalised kernel (entries / n) and q for its row-sum
defect, the perturbation h with u = 1 + h balances the kernel when

    (I + R) h = -q - h*q - h*(R h)      (* = entrywise product)

because the left-over F(h) = (I + R)h + q + h*q + h*(R h) is exactly the
row-sum deviation u * (R u) - 1 of the rescaled matrix. Two independent
methods are provided: a fixed-point iteration on that equation (the object
of study) and a plain symmetric scaling iteration (the oracle the first is
checked against).

The fixed point needs (I + R) to be invertible; under the spectral gap it
is symmetric positive definite, so every solve with it is a matrix-free
conjugate-gradient run (Hestenes and Stiefel, 1952) that only multiplies
by R. The same run, on a fixed generic vector for a few steps, is the
up-front singularity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BalanceError, SingularSystemError
from .grid import KernelMatrix, norm_2n, norm_inf

_BALL_RADIUS = 0.5  # abort when norm_2n(h) leaves this ball; keeps log(1+h) defined
_SYM_TOL = 1e-12
_CG_RTOL = 1e-15  # conjugate gradients stop at this relative residual
_CHECK_STEPS = 12  # cap of the singularity check; measured kernels stop in 2-7

METHOD_FIXED_POINT = "fixed-point"
METHOD_SYMMETRIC_SCALING = "symmetric-scaling"


@dataclass(frozen=True)
class BalanceResult:
    """Perturbation h, scaling u = 1 + h, and the rescaled matrix.

    ``balanced[i, j] = u_i * entries[i, j] * u_j``; dividing it by n gives
    the doubly stochastic matrix whose permanent the limit theory studies.
    ``residual`` is the stopping-rule value: the normalised 2-norm of F(h)
    for the fixed-point method, the sup norm of u*(R u) - 1 for scaling.
    """

    n: int
    h: np.ndarray
    u: np.ndarray
    balanced: np.ndarray
    method: str
    iterations: int
    residual: float


@dataclass(frozen=True)
class BalanceDiagnostics:
    """Size measures of the perturbation h.

    Across grid sizes these scale as norm_2n_h = O(1/n),
    norm_inf_h = O(n^-1/2), sum_log = O(1/n) and m_n = O(n^-2);
    prod_u_sq = exp(2 sum_log) by definition.
    """

    norm_2n_h: float
    norm_inf_h: float
    sum_log: float
    m_n: float
    prod_u_sq: float


def balance_fixed_point(K, tol: float = 1e-12, max_iter: int = 200) -> BalanceResult:
    """Balance by iterating h <- h - (I+R)^(-1) F(h) from h = 0.

    Since F(h) = (I + R)h + q + h*q + h*(R h), this is the iteration
    h <- (I+R)^(-1) (-q - h*q - h*(R h)) written as a correction by the
    residual the stopping rule already computes. Each solve is a conjugate-
    gradient run on I + R from 0, stopped at a relative residual of 1e-15
    and after at most n steps. Before the first iteration the same run on a
    fixed generic vector, capped at 12 steps, checks the invertibility
    assumption; the solves repeat the check on every search direction.

    The check is one-sided. It raises SingularSystemError when a direction
    p has p'(I + R)p <= 1e-14 p'p, so I + R is singular or indefinite; a
    kernel that passes it is not proven to have I + R positive definite.

    Stops when the equation residual satisfies norm_2n(F) <= tol and the
    row-sum deviation satisfies norm_inf(F) <= 10 tol, so the returned
    matrix is doubly stochastic in both norms. Aborts if the iterate leaves
    norm_2n(h) <= 0.5: the contraction argument only holds in a shrinking
    ball around 0, and outside it log(1 + h_i) may stop being defined.
    """
    entries, n, R, q = _prepare(K)
    _check_positive(tol, max_iter)
    _solve(R, np.random.default_rng(0).standard_normal(n), _CHECK_STEPS)

    h = np.zeros(n)
    residual = math.inf
    for it in range(1, max_iter + 1):
        Rh = R @ h
        F = h + Rh + q + h * q + h * Rh
        residual = norm_2n(F)
        if residual <= tol and norm_inf(F) <= 10.0 * tol:
            return _result(entries, n, h, 1.0 + h, METHOD_FIXED_POINT, it, residual)
        h = h - _solve(R, F, n)
        if norm_2n(h) > _BALL_RADIUS:
            raise BalanceError(
                f"iterate left the ball norm_2n(h) <= {_BALL_RADIUS} at "
                f"iteration {it} (norm {norm_2n(h):.3f}); the kernel is too far "
                "from doubly stochastic for the perturbative solver",
                residual=residual, iterations=it)
    raise BalanceError(
        f"fixed point did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual, iterations=max_iter)


def balance_symmetric_scaling(K, tol: float = 1e-12,
                              max_iter: int = 100000) -> BalanceResult:
    """Balance by the damped scaling u <- sqrt(u / (R u)) from u = 1.

    The geometric-mean update is the classical symmetric analogue of
    alternating row/column scaling; it serves as an independent check on
    the fixed-point solver. Stops when max |u_i (R u)_i - 1| <= tol.
    """
    entries, n, R, _ = _prepare(K)
    _check_positive(tol, max_iter)
    u = np.ones(n)
    for it in range(1, max_iter + 1):
        Ru = R @ u
        if Ru.min() <= 0.0:
            raise BalanceError(
                "scaling produced a nonpositive row image; the kernel has an "
                "effectively zero row", iterations=it)
        u = np.sqrt(u / Ru)
        residual = norm_inf(u * (R @ u) - 1.0)
        if residual <= tol:
            return _result(entries, n, u - 1.0, u,
                           METHOD_SYMMETRIC_SCALING, it, residual)
    raise BalanceError(
        f"symmetric scaling did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual, iterations=max_iter)


def balance_diagnostics(res: BalanceResult) -> BalanceDiagnostics:
    """Norms, log sum, mean and squared scaling product of the perturbation."""
    h = res.h
    sum_log = math.fsum(np.log1p(h))
    return BalanceDiagnostics(
        norm_2n_h=norm_2n(h),
        norm_inf_h=norm_inf(h),
        sum_log=sum_log,
        m_n=math.fsum(h) / res.n,
        prod_u_sq=float(np.prod(res.u * res.u)),
    )


def _prepare(K):
    entries = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("balance expects a square kernel matrix")
    n = entries.shape[0]
    if not np.isfinite(entries).all():
        raise ValueError("kernel contains non-finite entries")
    if entries.min() < 0.0:
        raise ValueError("kernel entries must be nonnegative")
    if float(np.abs(entries - entries.T).max()) > _SYM_TOL:
        raise ValueError("kernel must be symmetric")
    if entries.sum(axis=1).min() <= 0.0:
        raise BalanceError("kernel has a zero row; balancing is impossible")
    R = entries / n
    q = R.sum(axis=1) - 1.0
    return entries, n, R, q


def _solve(R, b, max_steps):
    """x with (I + R) x = b by conjugate gradients from x = 0.

    Takes at most min(max_steps, n) steps and stops once the residual norm
    is _CG_RTOL times that of b. Raises SingularSystemError on a search
    direction p with p'(I + R)p <= 1e-14 p'p.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    stop = _CG_RTOL * _CG_RTOL * rr
    for _ in range(min(max_steps, b.size)):
        if rr <= stop:
            break
        Ap = p + R @ p
        pAp = float(p @ Ap)
        if pAp <= 1e-14 * float(p @ p):
            raise SingularSystemError(
                f"I + R is numerically singular at n={b.size}; "
                "the invertibility assumption fails on this kernel")
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p
    return x


def _check_positive(tol, max_iter):
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def _result(entries, n, h, u, method, iterations, residual):
    balanced = entries * np.outer(u, u)
    return BalanceResult(n, h, u, balanced, method, iterations, residual)
