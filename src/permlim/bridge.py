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
The same rule serves ``gamma0``, the off-node extension of the potential
and the Nystrom matrix of :mod:`permlim.spectral`; for a smooth cost every
one of them converges exponentially in m.
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
# rows per block row of a sampled density and of the Gibbs matrix of
# solve_potential, and side of a symmetry-check tile
_BLOCK = 128

MIN_NODES = 8


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

    @property
    def final_residual(self) -> float:
        return self.residual_trace[-1]


def check_damping(damping: float) -> float:
    """Return damping if it lies in (0, 1], the range solve_potential takes."""
    if not 0.0 < damping <= 1.0:  # also rejects nan
        raise ValueError("damping must lie in (0, 1]")
    return damping


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
    if m < MIN_NODES:
        raise ValueError(f"m must be >= {MIN_NODES}")
    check_damping(damping)
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if cost.smoothness_claim != "C2":
        warnings.warn(
            f"cost {cost.label} is declared {cost.smoothness_claim}; "
            "potential iteration is only guaranteed for twice differentiable costs",
            SmoothnessWarning, stacklevel=2)

    nodes, weights = gauss_legendre(m)
    G = np.empty((m, m))  # exp(-c), filled _BLOCK rows at a time in place
    c_min, c_max = math.inf, -math.inf
    for s in range(0, m, _BLOCK):
        block = G[s:s + _BLOCK]
        with np.errstate(all="ignore"):  # non-finite values are rejected below
            block[...] = cost.evaluator(nodes[s:s + _BLOCK, None],
                                        nodes[None, :])
        if not np.isfinite(block).all():
            raise ValueError("cost evaluates to non-finite values on the grid")
        c_min = min(c_min, float(block.min()))
        c_max = max(c_max, float(block.max()))
        np.negative(block, out=block)
        np.exp(block, out=block)  # c >= 0 so entries lie in (0, 1]

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
            return PotentialSolution(cost, nodes, weights, a, tuple(trace), it)
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


@dataclass(frozen=True)
class DensitySource:
    """A symmetric density on the unit square that grids are sampled from.

    ``density(x, y)`` takes two node vectors and returns the block
    rho(x_i, y_j) of shape (x.size, y.size). A Gibbs source also sets
    ``potential``: then ``density`` returns the cost block c(x_i, y_j), and
    the source is rho = exp(-c(x, y) - a(x) - a(y)) with a = potential(t)
    evaluated once per call.

    Called on ascending nodes t, the source fills one n x n matrix
    block-row by block-row, _BLOCK rows at a time. Each block row is
    evaluated from the diagonal rightwards only, so every entry is
    rho(t_min, t_max), and is mirrored into the lower triangle: the
    returned matrix rho(t_i, t_j) is exactly symmetric, and no n x n
    temporary is made. A Gibbs block is negated, shifted by the potential
    and exponentiated in place, in the order -c - a_i - a_j; an exponent
    beyond +/-700 raises OverflowGuardError before exp runs on its block.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        n = t.size
        a = None if self.potential is None else self.potential(t)
        rho = np.empty((n, n))
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            row = rho[s:e, s:]  # a view: rows s..e-1, columns from s on
            if a is None:
                row[...] = self.density(t[s:e], t[s:])
            else:
                np.negative(self.density(t[s:e], t[s:]), out=row)
                row -= a[s:e, None]
                row -= a[None, s:]
                _guard_range("density", float(row.min()), float(row.max()))
                np.exp(row, out=row)
            diag = row[:, :e - s]
            np.copyto(diag, diag.T, where=np.tri(e - s, k=-1, dtype=bool))
            rho[e:, s:e] = row[:, e - s:].T
        return rho


def bridge_source(solution: PotentialSolution) -> DensitySource:
    """rho(x, y) = exp(-c(x, y) - a(x) - a(y)) from a converged potential."""

    return DensitySource(
        lambda x, y: solution.cost.evaluator(x[:, None], y[None, :]),
        lambda t: evaluate_potential(solution, t))


def constant_source() -> DensitySource:
    """rho = 1, the product measure; every derived quantity is known exactly."""
    return DensitySource(lambda x, y: np.ones((x.size, y.size)))


def cosine_source(eps: float) -> DensitySource:
    """rho = 1 + 2 eps cos(pi x) cos(pi y) with 0 <= eps < 1.

    Its centering has the single nontrivial eigenvalue eps, so the
    limiting constant is (1 - eps^2)^(-1/2) in closed form. Values of eps
    above 1/2 make rho negative near the corners; sampling such a source
    fails the grid positivity check, but the spectral quantities remain
    well defined, so construction is allowed.
    """
    eps = float(eps)
    if not (0.0 <= eps < 1.0):
        raise ValueError("cosine source needs 0 <= eps < 1")

    def rho(x, y):
        return (1.0 + 2.0 * eps * np.cos(math.pi * x)[:, None]
                * np.cos(math.pi * y)[None, :])

    return DensitySource(rho)


def tabulated_source(values: np.ndarray) -> DensitySource:
    """Bilinear interpolation of a symmetric n x n matrix sampled at nodes
    i/(n-1); a table asymmetric beyond 1e-12 raises ValueError."""
    interpolate, _ = bilinear_interpolant(values)
    asym = max_asymmetry(np.asarray(values, dtype=float))
    if asym > 1e-12:
        raise ValueError(f"tabulated kernel asymmetry {asym:.3e} exceeds 1e-12")
    return DensitySource(lambda x, y: interpolate(x[:, None], y[None, :]))


def max_asymmetry(M: np.ndarray) -> float:
    """max |M[i, j] - M[j, i]| of a square matrix, over _BLOCK x _BLOCK
    tiles of the upper triangle, so no n x n temporary is made; nan when
    any entry is nan."""
    n = M.shape[0]
    worst = 0.0
    for s in range(0, n, _BLOCK):
        for t in range(s, n, _BLOCK):
            tile = np.abs(M[s:s + _BLOCK, t:t + _BLOCK]
                          - M[t:t + _BLOCK, s:s + _BLOCK].T)
            worst = float(np.maximum(worst, tile.max()))  # keeps a nan
    return worst


def _guard_range(what: str, lo: float, hi: float) -> None:
    """Reject an exponent range [lo, hi] that exp would overflow or flush."""
    if max(abs(lo), abs(hi)) > _EXP_GUARD:
        raise OverflowGuardError(
            f"{what} exponent range [{lo:.1f}, {hi:.1f}] exceeds "
            f"+/-{_EXP_GUARD:g}; rescale the cost")
