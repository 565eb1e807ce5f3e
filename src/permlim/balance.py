"""Doubly stochastic balancing of sampled kernels.

Writing R for the normalised kernel (entries / n) and q for its row-sum
defect, the perturbation h with u = 1 + h balances the kernel when

    (I + R) h = -q - h*q - h*(R h)      (* = entrywise product)

because the left-over F(h) = (I + R)h + q + h*q + h*(R h) is exactly the
row-sum deviation u * (R u) - 1 of the rescaled matrix. The solver is a
fixed-point iteration on that equation. A positive kernel has exactly one
positive u with u * (R u) = 1 (Sinkhorn, 1964; Knight, 2008), so that
identity, not a second solver, is what checks the answer.

The fixed point needs (I + R) to be invertible; under the spectral gap it
is symmetric positive definite, so every solve with it is a matrix-free
conjugate-gradient run (Hestenes and Stiefel, 1952) that only multiplies
by R. The same run, on a fixed generic vector for a few steps, is the
up-front singularity check.

R is never formed: every product with it is the matvec (K @ v) / n on the
caller's read-only entries, the row sums of K give q, symmetry is checked
over tiles of the upper triangle, and the balanced matrix is formed only
when it is read, as are the size measures of h that the studies report.
Beyond the kernel itself, balancing allocates vectors and small tiles,
not n x n arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import max_asymmetry
from .errors import BalanceError, SingularSystemError
from .grid import norm_2n, norm_inf

_BALL_RADIUS = 0.5  # abort when norm_2n(h) leaves this ball; keeps log(1+h) defined
_SYM_TOL = 1e-12
_CG_RTOL = 1e-15  # conjugate gradients stop at this relative residual
_CHECK_STEPS = 12  # cap of the singularity check; measured kernels stop in 2-7


@dataclass(frozen=True)
class BalanceResult:
    """Perturbation h, scaling u = 1 + h, and the kernel they rescale.

    ``kernel`` is the read-only matrix the solver balanced, held without a
    copy. ``balanced[i, j] = u_i * kernel[i, j] * u_j`` is computed on
    demand, as a new array on every access, so the result itself holds no
    second n x n array; dividing it by n gives the doubly stochastic
    matrix whose permanent the limit theory studies. ``residual`` is the
    stopping-rule value norm_2n(F(h)), the normalised 2-norm of the row-sum
    deviation u*(R u) - 1.

    The size measures of h are computed on access too. Across grid sizes
    they scale as norm_2n_h = O(1/n), norm_inf_h = O(n^-1/2),
    sum_log = O(1/n) and m_n = O(n^-2); prod_u_sq = exp(2 sum_log) by
    definition.
    """

    n: int
    h: np.ndarray
    u: np.ndarray
    kernel: np.ndarray = field(repr=False)
    iterations: int
    residual: float

    @property
    def balanced(self) -> np.ndarray:
        return self.kernel * np.outer(self.u, self.u)

    @property
    def norm_2n_h(self) -> float:
        return norm_2n(self.h)

    @property
    def norm_inf_h(self) -> float:
        return norm_inf(self.h)

    @property
    def sum_log(self) -> float:
        """sum_i log(u_i), the log of the scaling's product."""
        return math.fsum(np.log1p(self.h))

    @property
    def m_n(self) -> float:
        """The mean of h."""
        return math.fsum(self.h) / self.n

    @property
    def prod_u_sq(self) -> float:
        """prod u_i^2 in long double, rounded to a double once."""
        return float(np.prod(np.square(self.u, dtype=np.longdouble)))


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
    entries, n, q = _prepare(K)
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    _solve(entries, np.random.default_rng(0).standard_normal(n), _CHECK_STEPS)

    h = np.zeros(n)
    residual = math.inf
    for it in range(1, max_iter + 1):
        Rh = entries @ h / n
        F = h + Rh + q + h * q + h * Rh
        residual = norm_2n(F)
        if residual <= tol and norm_inf(F) <= 10.0 * tol:
            return BalanceResult(n, h, 1.0 + h, entries, it, residual)
        h = h - _solve(entries, F, n)
        if norm_2n(h) > _BALL_RADIUS:
            raise BalanceError(
                f"iterate left the ball norm_2n(h) <= {_BALL_RADIUS} at "
                f"iteration {it} (norm {norm_2n(h):.3f}); the kernel is too far "
                "from doubly stochastic for the perturbative solver",
                residual=residual, iterations=it)
    raise BalanceError(
        f"fixed point did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual, iterations=max_iter)


def _prepare(K):
    """The read-only kernel entries, n, and the row-sum defect q of K / n."""
    entries = np.asarray(K, dtype=float)  # a sampled kernel gives its entries
    if entries.flags.writeable:  # the result reads them again for balanced
        entries = entries.copy()
        entries.setflags(write=False)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("balance expects a square kernel matrix")
    n = entries.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # judged just below
        rows = entries.sum(axis=1)
    # A finite row sum means a finite row; see grid.sample_kernel.
    finite_rows = bool(np.isfinite(rows).all())
    if not finite_rows and not np.isfinite(entries).all():
        raise ValueError("kernel contains non-finite entries")
    if entries.min() < 0.0:
        raise ValueError("kernel entries must be nonnegative")
    if max_asymmetry(entries) > _SYM_TOL:
        raise ValueError("kernel must be symmetric")
    if not finite_rows:
        raise ValueError("kernel row sums overflow double precision; "
                         "rescale the kernel")
    if rows.min() <= 0.0:
        raise BalanceError("kernel has a zero row; balancing is impossible")
    return entries, n, rows / n - 1.0


def _solve(K, b, max_steps):
    """x with (I + R) x = b, R = K / n, by conjugate gradients from x = 0.

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
        Ap = p + K @ p / b.size
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

