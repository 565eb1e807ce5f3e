"""Symmetric entropic-transport potential and the densities built from it.

The density rho(x, y) = exp(-c(x, y) - a(x) - a(y)) has both marginals equal
to Lebesgue measure on [0,1] when the potential ``a`` solves

    exp(+a(x)) = integral_0^1 exp(-c(x, y) - a(y)) dy.

This is the unique sign convention under which the marginal condition
integral rho(x, y) dy = 1 closes; the same relation with exp(-a(x)) on the
left is not consistent with a doubly stochastic density (substituting it
into the marginal integral yields exp(-2 a(x)) = 1 for all x, forcing a = 0,
which solves nothing for a nonconstant cost).

The solver discretises the integral by the midpoint rule on m nodes and runs
a damped fixed-point iteration in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import CostFunction, bilinear_interpolant
from .errors import ConvergenceError, OverflowGuardError, SmoothnessWarning

_EXP_GUARD = 700.0  # |exponent| above this overflows double precision


@dataclass(frozen=True)
class PotentialSolution:
    """Converged potential values on the midpoint grid.

    ``nodes`` are the midpoints (i - 1/2)/m, ``a_values`` the potential
    there, ``residual_trace`` the sup-norm marginal residual after every
    iteration (its last entry is the final residual).
    """

    cost: CostFunction
    nodes: np.ndarray
    a_values: np.ndarray
    residual_trace: tuple[float, ...]
    iterations: int
    damping_used: float

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def final_residual(self) -> float:
        return self.residual_trace[-1]


def solve_potential(
    cost: CostFunction,
    m: int = 400,
    tol: float = 1e-12,
    max_iter: int = 500,
    damping: float = 1.0,
) -> PotentialSolution:
    """Solve the potential equation on m midpoint nodes.

    Iterates a <- (1 - theta) a + theta log(sum_j w_j exp(-c(x_i, y_j) - a_j))
    with w_j = 1/m, starting from a = 0. The residual is the doubly
    stochastic defect max_i |exp(t_i - a_i) - 1| where t is the undamped
    update target. When a step increases the residual in the contraction
    regime (residual < 1) the damping factor is halved, down to 1/16.
    """
    if m < 8:
        raise ValueError("m must be >= 8")
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if cost.smoothness_claim != "C2":
        warnings.warn(
            f"cost {cost.label or cost.family} is declared {cost.smoothness_claim}; "
            "potential iteration is only guaranteed for twice differentiable costs",
            SmoothnessWarning, stacklevel=2)

    nodes = (np.arange(m) + 0.5) / m
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        C = np.asarray(cost.evaluator(nodes[:, None], nodes[None, :]), dtype=float)
    if not np.isfinite(C).all():
        raise ValueError("cost evaluates to non-finite values on the grid")
    G = np.exp(-C)  # c >= 0 so entries lie in (0, 1]
    log_w = -math.log(m)

    a = np.zeros(m)
    theta = damping
    trace: list[float] = []
    prev_residual = math.inf
    for it in range(1, max_iter + 1):
        _guard_exponents(C, a)
        t = np.log(G @ np.exp(-a)) + log_w
        residual = float(np.abs(np.exp(t - a) - 1.0).max())
        trace.append(residual)
        if residual <= tol:
            return PotentialSolution(cost, nodes, a, tuple(trace), it, theta)
        if residual > prev_residual and residual < 1.0 and theta > 1.0 / 16.0:
            theta = max(theta / 2.0, 1.0 / 16.0)
        a = (1.0 - theta) * a + theta * t
        prev_residual = residual
    raise ConvergenceError(
        f"potential iteration did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {trace[-1]:.3e})",
        residual=trace[-1], iterations=max_iter)


def evaluate_potential(solution: PotentialSolution, x) -> np.ndarray:
    """Evaluate the potential off the grid via the defining equation.

    Plugging arbitrary x into a(x) = log sum_j w_j exp(-c(x, y_j) - a_j)
    extends the converged grid values smoothly; on the nodes it reproduces
    them up to the solver tolerance.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("potential arguments must lie in [0,1]")
    C = np.asarray(
        solution.cost.evaluator(x[:, None], solution.nodes[None, :]), dtype=float)
    _guard_exponents(C, solution.a_values)
    w = np.exp(-solution.a_values) / solution.m
    return np.log(np.exp(-C) @ w)


def evaluate_density(solution: PotentialSolution, cost: CostFunction,
                     x: float, y: float) -> float:
    """rho(x, y) = exp(-c(x, y) - a(x) - a(y)) at a single point.

    Arguments are ordered (min, max) before evaluation, so swapping x and y
    returns the bit-identical value even when the cost evaluator itself is
    only symmetric up to rounding.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"density arguments ({x}, {y}) outside [0,1]^2")
    lo, hi = min(x, y), max(x, y)
    c = float(np.asarray(cost.evaluator(np.float64(lo), np.float64(hi))))
    a = _potential_at(solution, np.array([lo, hi]))
    expo = -c - float(a[0]) - float(a[1])
    if abs(expo) > _EXP_GUARD:
        raise OverflowGuardError(
            f"density exponent {expo:.1f} exceeds +/-{_EXP_GUARD:g}")
    return math.exp(expo)


def gamma0(solution: PotentialSolution) -> float:
    """Midpoint-rule value of -2 integral_0^1 a(x) dx."""
    return -2.0 * float(np.mean(solution.a_values))


def marginal_residual(solution: PotentialSolution,
                      cost: CostFunction | None = None) -> float:
    """Recomputed marginal defect max_i |sum_j w_j rho(x_i, y_j) - 1|.

    Recomputing (rather than reporting the solver's last residual) keeps
    the function honest on perturbed or hand-built solutions: shifting a
    converged potential by any constant visibly breaks the marginals.
    """
    if cost is None:
        cost = solution.cost
    a = solution.a_values
    C = np.asarray(
        cost.evaluator(solution.nodes[:, None], solution.nodes[None, :]),
        dtype=float)
    hi = -float(C.min()) - 2.0 * float(a.min())
    lo = -float(C.max()) - 2.0 * float(a.max())
    if max(abs(hi), abs(lo)) > _EXP_GUARD:
        raise OverflowGuardError(
            f"density exponent range [{lo:.1f}, {hi:.1f}] exceeds "
            f"+/-{_EXP_GUARD:g}")
    rho = np.exp(-C - a[:, None] - a[None, :])
    return float(np.abs(rho.mean(axis=1) - 1.0).max())


@dataclass(frozen=True)
class DensitySource:
    """A symmetric density on the unit square that grids are sampled from.

    Kinds:

    * ``bridge``: rho from a converged :class:`PotentialSolution`.
    * ``synthetic-constant``: rho = 1.
    * ``synthetic-cosine``: rho = 1 + 2 eps cos(pi x) cos(pi y); its
      centering has the single nontrivial eigenvalue eps, so the limiting
      constant is (1 - eps^2)^(-1/2) in closed form.
    * ``tabulated-kernel``: bilinear interpolation of a stored matrix.
    """

    kind: str
    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""
    solution: PotentialSolution | None = None
    eps: float | None = None

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.density(np.minimum(x, y), np.maximum(x, y))


def bridge_source(solution: PotentialSolution) -> DensitySource:
    """rho(x, y) = exp(-c(x, y) - a(x) - a(y)) from a converged potential."""

    def rho(x, y):
        C = np.asarray(solution.cost.evaluator(x, y), dtype=float)
        ax = _potential_at(solution, x)
        ay = _potential_at(solution, y)
        expo = -C - ax - ay
        if np.abs(expo).max(initial=0.0) > _EXP_GUARD:
            raise OverflowGuardError(
                f"density exponent magnitude {np.abs(expo).max():.1f} exceeds "
                f"{_EXP_GUARD:g}")
        return np.exp(expo)

    return DensitySource("bridge", rho, f"bridge[{solution.cost.label}]",
                         solution=solution)


def constant_source() -> DensitySource:
    """rho = 1, the product measure; every derived quantity is known exactly."""
    return DensitySource("synthetic-constant", lambda x, y: np.ones(np.broadcast(x, y).shape),
                         "constant")


def cosine_source(eps: float) -> DensitySource:
    """rho = 1 + 2 eps cos(pi x) cos(pi y) with 0 <= eps < 1.

    Values of eps above 1/2 make rho negative near the corners; sampling
    such a source fails the grid positivity check, but the spectral
    quantities remain well defined, so construction is allowed.
    """
    eps = float(eps)
    if not (0.0 <= eps < 1.0):
        raise ValueError("cosine source needs 0 <= eps < 1")

    def rho(x, y):
        return 1.0 + 2.0 * eps * np.cos(math.pi * x) * np.cos(math.pi * y)

    return DensitySource("synthetic-cosine", rho, f"cosine(eps={eps:g})", eps=eps)


def tabulated_source(values: np.ndarray) -> DensitySource:
    """Bilinear interpolation of an n x n matrix sampled at nodes i/(n-1)."""
    rho, n = bilinear_interpolant(values)
    return DensitySource("tabulated-kernel", rho, f"tabulated({n}x{n})")


def _potential_at(solution: PotentialSolution, x) -> np.ndarray:
    """Grid values where x hits a node exactly, defining equation elsewhere.

    Off-grid evaluation deduplicates x first: sampling an n x n grid asks
    for only ~n distinct abscissas, and evaluating those instead of all n^2
    keeps the (points x m) cost matrix small.
    """
    x = np.asarray(x, dtype=float)
    idx = x * solution.m - 0.5
    near = np.rint(idx)
    on_grid = (np.abs(idx - near) < 1e-12) & (near >= 0) & (near < solution.m)
    if on_grid.all():
        return solution.a_values[near.astype(int)]
    flat = x.ravel()
    uniq, inverse = np.unique(flat, return_inverse=True)
    return evaluate_potential(solution, uniq)[inverse].reshape(x.shape)


def _guard_exponents(C: np.ndarray, a: np.ndarray) -> None:
    """Range check on -c - a before exponentiation; scalars only, no temps."""
    hi = -float(C.min()) - float(a.min())
    lo = -float(C.max()) - float(a.max())
    if max(abs(hi), abs(lo)) > _EXP_GUARD:
        raise OverflowGuardError(
            f"potential update exponent range [{lo:.1f}, {hi:.1f}] exceeds "
            f"+/-{_EXP_GUARD:g}; rescale the cost")
