"""Symmetric entropic-transport potential and the densities built from it.

The density rho(x, y) = exp(-c(x, y) - a(x) - a(y)) has both marginals equal
to Lebesgue measure on [0,1] when the potential ``a`` solves

    exp(+a(x)) = integral_0^1 exp(-c(x, y) - a(y)) dy.

This is the unique sign convention under which the marginal condition
integral rho(x, y) dy = 1 closes; the same relation with exp(-a(x)) on the
left is not consistent with a doubly stochastic density (substituting it
into the marginal integral yields exp(-2 a(x)) = 1 for all x, forcing a = 0,
which solves nothing for a nonconstant cost).

The solver discretises the integral by the m-point Gauss-Legendre rule of
:func:`gauss_legendre` and runs a damped fixed-point iteration in log space.
The same rule serves ``gamma0``, the marginal residual, the off-node
extension of the potential and the Nystrom matrix of
:mod:`permlim.spectral`; for a smooth cost every one of them converges
exponentially in m.
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


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1]: ascending nodes, weights.

    Exact for polynomials of degree <= 2m - 1. The roots of P_m are found by
    Newton's method on the three-term recurrence from Tricomi's initial
    guesses, O(m^2) work in all; the weight of root x is
    2 / ((1 - x^2) P_m'(x)^2) on [-1, 1], halved on [0, 1].
    """
    k = np.arange(1, (m + 1) // 2 + 1)  # roots in [0, 1), largest first
    x = (1.0 - (m - 1) / (8.0 * m**3)) * np.cos(math.pi * (k - 0.25) / (m + 0.5))
    for _ in range(10):  # 3 or 4 steps, checked for m = 2..400 and to 4096
        p0, p1 = np.ones_like(x), x  # P_{j-1}(x), P_j(x)
        for j in range(2, m + 1):
            p0, p1 = p1, (2.0 - 1.0 / j) * x * p1 - (1.0 - 1.0 / j) * p0
        dp = m * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        dx = p1 / dp
        x = x - dx
        if float(np.abs(dx).max()) <= 1e-15:
            break
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    mirror = slice(m % 2, None)  # an odd m has its middle root once
    return (np.concatenate([0.5 * (1.0 - x), 0.5 * (1.0 + x[::-1][mirror])]),
            np.concatenate([w, w[::-1][mirror]]))


@dataclass(frozen=True)
class PotentialSolution:
    """Converged potential values on the Gauss-Legendre nodes.

    ``nodes`` and ``weights`` are the m-point rule of :func:`gauss_legendre`,
    ``a_values`` the potential at the nodes, ``residual_trace`` the sup-norm
    marginal residual after every iteration (its last entry is the final
    residual).
    """

    cost: CostFunction
    nodes: np.ndarray
    weights: np.ndarray
    a_values: np.ndarray
    residual_trace: tuple[float, ...]
    iterations: int
    damping_used: float

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
    """Solve the potential equation on m Gauss-Legendre nodes.

    Iterates a <- (1 - theta) a + theta log(sum_j w_j exp(-c(x_i, y_j) - a_j))
    with the Gauss-Legendre weights w_j, starting from a = 0. The residual
    is the doubly stochastic defect max_i |exp(t_i - a_i) - 1| where t is
    the undamped update target. When a step increases the residual the
    damping factor is halved, down to 1/16.
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

    nodes, weights = gauss_legendre(m)
    with np.errstate(all="ignore"):  # non-finite values are rejected below
        C = np.asarray(cost.evaluator(nodes[:, None], nodes[None, :]), dtype=float)
    if not np.isfinite(C).all():
        raise ValueError("cost evaluates to non-finite values on the grid")
    G = np.exp(-C)  # c >= 0 so entries lie in (0, 1]
    c_min, c_max = float(C.min()), float(C.max())

    a = np.zeros(m)
    theta = damping
    trace: list[float] = []
    prev_residual = math.inf
    for it in range(1, max_iter + 1):
        _guard_range("potential update", -c_max - float(a.max()),
                     -c_min - float(a.min()))
        t = np.log(G @ (weights * np.exp(-a)))
        residual = float(np.abs(np.exp(t - a) - 1.0).max())
        trace.append(residual)
        if residual <= tol:
            return PotentialSolution(cost, nodes, weights, a, tuple(trace), it,
                                     theta)
        if residual > prev_residual and theta > 1.0 / 16.0:
            theta = max(theta / 2.0, 1.0 / 16.0)
        a = (1.0 - theta) * a + theta * t
        prev_residual = residual
    raise ConvergenceError(
        f"potential iteration did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {trace[-1]:.3e})",
        residual=trace[-1], iterations=max_iter)


def evaluate_potential(solution: PotentialSolution, x) -> np.ndarray:
    """Evaluate the potential anywhere in [0,1] via the defining equation.

    Plugging arbitrary x into a(x) = log sum_j w_j exp(-c(x, y_j) - a_j)
    extends the converged node values smoothly; on the nodes it reproduces
    them up to the solver tolerance. x may have any shape, and the result
    has the same shape.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.min() < 0.0 or flat.max() > 1.0:
        raise ValueError("potential arguments must lie in [0,1]")
    a = solution.a_values
    C = np.asarray(
        solution.cost.evaluator(flat[:, None], solution.nodes[None, :]),
        dtype=float)
    _guard_range("potential", -float(C.max()) - float(a.max()),
                 -float(C.min()) - float(a.min()))
    a_x = np.log(np.exp(-C) @ (solution.weights * np.exp(-a)))
    return a_x.reshape(x.shape)


def gamma0(solution: PotentialSolution) -> float:
    """Gauss-Legendre value of -2 integral_0^1 a(x) dx."""
    return -2.0 * math.fsum(solution.weights * solution.a_values)


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
    _guard_range("density", -float(C.max()) - 2.0 * float(a.max()),
                 -float(C.min()) - 2.0 * float(a.min()))
    rho = np.exp(-C - a[:, None] - a[None, :])
    return float(np.abs(rho @ solution.weights - 1.0).max())


@dataclass(frozen=True)
class DensitySource:
    """A symmetric density on the unit square that grids are sampled from.

    Called on ascending nodes t, it evaluates ``density(t)`` on the tensor
    grid once and copies the upper triangle rho(min, max) into the lower,
    so the returned matrix rho(t_i, t_j) is exactly symmetric. Kinds:

    * ``bridge``: rho from a converged :class:`PotentialSolution`.
    * ``synthetic-constant``: rho = 1.
    * ``synthetic-cosine``: rho = 1 + 2 eps cos(pi x) cos(pi y); its
      centering has the single nontrivial eigenvalue eps, so the limiting
      constant is (1 - eps^2)^(-1/2) in closed form.
    * ``tabulated-kernel``: bilinear interpolation of a stored symmetric
      matrix.
    """

    kind: str
    density: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        rho = np.asarray(self.density(t), dtype=float)
        for i in range(1, t.size):  # row by row: no n x n temporary
            rho[i, :i] = rho[:i, i]
        return rho


def bridge_source(solution: PotentialSolution) -> DensitySource:
    """rho(x, y) = exp(-c(x, y) - a(x) - a(y)) from a converged potential."""

    def rho(t):
        C = np.asarray(solution.cost.evaluator(t[:, None], t[None, :]),
                       dtype=float)
        a = evaluate_potential(solution, t)
        expo = -C - a[:, None] - a[None, :]
        _guard_range("density", float(expo.min()), float(expo.max()))
        return np.exp(expo)

    return DensitySource("bridge", rho)


def constant_source() -> DensitySource:
    """rho = 1, the product measure; every derived quantity is known exactly."""
    return DensitySource("synthetic-constant",
                         lambda t: np.ones((t.size, t.size)))


def cosine_source(eps: float) -> DensitySource:
    """rho = 1 + 2 eps cos(pi x) cos(pi y) with 0 <= eps < 1.

    Values of eps above 1/2 make rho negative near the corners; sampling
    such a source fails the grid positivity check, but the spectral
    quantities remain well defined, so construction is allowed.
    """
    eps = float(eps)
    if not (0.0 <= eps < 1.0):
        raise ValueError("cosine source needs 0 <= eps < 1")

    def rho(t):
        c = np.cos(math.pi * t)
        return 1.0 + 2.0 * eps * c[:, None] * c[None, :]

    return DensitySource("synthetic-cosine", rho)


def tabulated_source(values: np.ndarray) -> DensitySource:
    """Bilinear interpolation of a symmetric n x n matrix sampled at nodes
    i/(n-1); a table asymmetric beyond 1e-12 raises ValueError."""
    interpolate, _ = bilinear_interpolant(values)
    table = np.asarray(values, dtype=float)
    asym = float(np.abs(table - table.T).max())
    if asym > 1e-12:
        raise ValueError(f"tabulated kernel asymmetry {asym:.3e} exceeds 1e-12")
    return DensitySource("tabulated-kernel",
                         lambda t: interpolate(t[:, None], t[None, :]))


def _guard_range(what: str, lo: float, hi: float) -> None:
    """Reject an exponent range [lo, hi] that exp would overflow or flush."""
    if max(abs(lo), abs(hi)) > _EXP_GUARD:
        raise OverflowGuardError(
            f"{what} exponent range [{lo:.1f}, {hi:.1f}] exceeds "
            f"+/-{_EXP_GUARD:g}; rescale the cost")
