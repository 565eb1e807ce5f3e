"""Doubly stochastic balancing of sampled kernels.

A positive symmetric kernel K has exactly one positive u with
u * (K u) / n = 1 (entrywise product; Sinkhorn, 1964; Knight, 2008), and
that identity, not a second solver, is what checks the answer. With
u = exp(-a) it is the potential equation of :mod:`permlim.bridge` with G = K
and weights 1/n, and the same scaling routine solves it, one product with
K per iteration.

The perturbative theory writes u = 1 + h and needs I + R, R = K / n,
invertible; under the spectral gap it is symmetric positive definite. The
row sums and minimum that balancing checks anyway often prove that: every
entry of K is at least its minimum k, so K - k 11' is nonnegative and its
eigenvalues are at least -(max_i (K 1)_i - n k), and k 11' is positive
semidefinite, hence

    lambda_min(I + R) >= L = 1 - max_i (K 1)_i / n + k.

Only when L is not safely positive does a conjugate-gradient run (Hestenes
and Stiefel, 1952) of at most 12 steps on a fixed generic vector, a hash
of 1..n, probe I + R for a nonpositive direction. The iteration stops if
h leaves the ball norm_2n(h) <= 0.5 where the theory holds.

Balancing takes a :class:`permlim.bridge.KernelMatrix`, what sampling
returns: exactly symmetric by its storage, one triangle packed block row
by block row, with the range of its stored entries recorded as it was
filled. It checks that range, finite and nonnegative, and the row sums
K @ 1, for overflow and zero rows, and multiplies by K over its packed
block rows, so it never expands them into the full matrix; reading
``balanced`` does. R is never formed, and the balanced matrix and the size
measures of h are formed only when read: beyond the kernel, balancing
allocates vectors, not n x n arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import KernelMatrix, _scale
from .errors import BalanceError, SingularSystemError
from .grid import norm_2n, norm_inf

_BALL_RADIUS = 0.5  # abort when norm_2n(h) leaves this ball; keeps log(1+h) defined
_EPS = float(np.finfo(float).eps)
_CHECK_RTOL = 1e-15  # the singularity probe stops at this relative residual
# cap of the singularity probe; measured kernels stop in 5-10 steps
# (quadratic bridge at beta 0.5, 2 and 16, n 8 to 3200; beta 16 takes 10).
# It runs only where the bound L falls short, on the quadratic bridge (m =
# 400) from beta 4 at n = 8, beta 8 at n = 200 and beta 16 at n = 3200.
_CHECK_STEPS = 12
_CHECK_FLOOR = 1e-14  # the probe raises on p'(I + R)p <= _CHECK_FLOOR p'p


@dataclass(frozen=True)
class BalanceResult:
    """Perturbation h, scaling u = 1 + h, and the kernel they rescale.

    ``kernel`` is the KernelMatrix the solver balanced, held without a
    copy. ``balanced[i, j] = u_i * kernel[i, j] * u_j`` is computed on
    demand, as a new array on every access, so the result itself holds no
    second n x n array; dividing it by n gives the doubly stochastic matrix
    whose permanent the limit theory studies.
    ``iterations`` counts the products with the kernel, and ``residual`` is
    the sup-norm row-sum defect max_i |u_i (K u)_i / n - 1| at which the
    iteration stopped.

    The size measures of h are computed on access too. Across grid sizes
    they scale as norm_2n_h = O(1/n), norm_inf_h = O(n^-1/2),
    sum_log = O(1/n) and m_n = O(n^-2); prod_u_sq = exp(2 sum_log) by
    definition.
    """

    n: int
    h: np.ndarray
    u: np.ndarray
    kernel: KernelMatrix = field(repr=False)
    iterations: int
    residual: float

    @property
    def balanced(self) -> np.ndarray:
        return np.asarray(self.kernel) * np.outer(self.u, self.u)

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


def balance_fixed_point(K: KernelMatrix, tol: float = 1e-12,
                        max_iter: int = 200) -> BalanceResult:
    """Balance the sampled kernel K with the scaling routine of the
    potential solve.

    Iterates on exp(a) = K (exp(-a) / n) from a = 0 as
    :func:`permlim.bridge.solve_potential` does, at damping 1, and returns
    u = exp(-a). It stops once max_i |u_i (K u)_i / n - 1| <= tol, after at
    most max_iter products with K. K must be a KernelMatrix, as
    :func:`permlim.grid.sample_kernel` returns; anything else raises
    TypeError.

    First, the invertibility assumption is checked. When the bound
    L = 1 - max_i (K 1)_i / n + min K, from the row sums and minimum that
    the input checks already hold, is at least the margin of
    :func:`_certificate_margin`, I + R is proven positive definite and
    nothing more runs. Otherwise a conjugate-gradient probe on I + R
    raises SingularSystemError on a direction p with p'(I + R)p <= 1e-14
    p'p, so I + R is singular or indefinite; a kernel that passes the
    probe is not proven positive definite. BalanceError is raised if an
    iterate leaves norm_2n(h) <= 0.5, outside which the perturbative
    argument fails and log(1 + h_i) may be undefined.
    """
    n, bound, margin = _prepare(K)
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not bound >= margin:
        _check_invertible(K)

    def ball(a, trace):
        with np.errstate(over="ignore"):  # an infinite h leaves the ball
            norm = norm_2n(np.exp(-a) - 1.0)
        if norm > _BALL_RADIUS:
            raise BalanceError(
                f"iterate left the ball norm_2n(h) <= {_BALL_RADIUS} at "
                f"iteration {len(trace)} (norm {norm:.3f}); the kernel is too "
                "far from doubly stochastic for the perturbative solver",
                residual=trace[-1], iterations=len(trace))

    a, trace = _scale(K, np.full(n, 1.0 / n), tol, max_iter, 1.0, ball)
    if trace[-1] > tol:
        raise BalanceError(
            f"fixed point did not reach tol={tol:g} in {max_iter} iterations "
            f"(last residual {trace[-1]:.3e})",
            residual=trace[-1], iterations=max_iter)
    u = np.exp(-a)
    return BalanceResult(n, u - 1.0, u, K, len(trace), trace[-1])


def _prepare(K: KernelMatrix):
    """K's n, and the bound L <= lambda_min(I + R) with the margin it must
    reach to prove I + R positive definite, once K can be balanced.

    K is checked by the range of its stored entries, finite and
    nonnegative, and by its row sums K @ 1, finite and positive.
    """
    if not isinstance(K, KernelMatrix):
        raise TypeError("balance_fixed_point takes a sampled KernelMatrix; "
                        "sample the density with sample_kernel")
    lo, hi = K.value_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("kernel contains non-finite entries")
    if lo < 0.0:
        raise ValueError("kernel entries must be nonnegative")
    n = K.shape[0]
    with np.errstate(over="ignore"):  # judged just below
        rows = K @ np.ones(n)
    if not np.isfinite(rows).all():
        raise ValueError("kernel row sums overflow double precision; "
                         "rescale the kernel")
    if rows.min() <= 0.0:
        raise BalanceError("kernel has a zero row; balancing is impossible")
    row_max = float(rows.max())
    return n, 1.0 - row_max / n + lo, _certificate_margin(n, row_max)


def _certificate_margin(n: int, row_max: float) -> float:
    """How far above 0 the computed L must lie to prove that the probe of
    :func:`_check_invertible` would pass.

    Let scale = 1 + max_i (K 1)_i / n; it bounds 1 + min K, the terms of
    L, and |p|'(I + K / n)|p| / p'p. Sums of n nonnegative terms round
    within n eps of exact (Higham, 2002, ch. 3), so the computed L is
    within (n + 2) eps scale of exact, and the probe's p'(I + R)p within
    (2n + 3) eps scale p'p; K is exactly symmetric, so p'(I + R)p is the
    form whose minimum L bounds. The margin is twice the roundings,
    8 (n + 2) eps scale, plus 100 times the probe's floor, times scale:
    1.0e-12 at n = 8 and 6.7e-12 at n = 3200 when scale is 1. L >= margin
    then leaves p'(I + R)p > _CHECK_FLOOR p'p for every p the probe could
    try.
    """
    scale = 1.0 + row_max / n
    return (8.0 * (n + 2) * _EPS + 100.0 * _CHECK_FLOOR) * scale


def _check_invertible(K):
    """Run conjugate gradients on I + R from a fixed generic vector, for at
    most _CHECK_STEPS steps, and raise SingularSystemError on a direction p
    with p'(I + R)p <= _CHECK_FLOOR p'p."""
    n = K.shape[0]
    r = _generic_vector(n)
    p = r.copy()
    rr = float(r @ r)
    stop = _CHECK_RTOL * _CHECK_RTOL * rr
    for _ in range(min(_CHECK_STEPS, n)):
        if rr <= stop:
            break
        Ap = p + K @ p / n
        pAp = float(p @ Ap)
        if pAp <= _CHECK_FLOOR * float(p @ p):
            raise SingularSystemError(
                f"I + R is numerically singular at n={n}; "
                "the invertibility assumption fails on this kernel")
        r -= (rr / pAp) * Ap
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p


def _generic_vector(n: int) -> np.ndarray:
    """n values in [-0.5, 0.5): the splitmix64 hash of 1..n (Steele, Lea
    and Flood, OOPSLA 2014), top 53 bits. Fixed and free of structure,
    without importing numpy.random."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5
