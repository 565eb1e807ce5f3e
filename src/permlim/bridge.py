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
:func:`gauss_legendre` and iterates in log space, with a step that removes
the constant shift of the potential exactly and depth-1 Anderson mixing.
The same rule serves ``gamma0``, the off-node extension of the potential
and the Nystrom matrix of :mod:`permlim.spectral`; for a smooth cost every
one of them converges exponentially in m.

The solver's Gibbs matrix and every sampled density are one block fill,
:class:`DensitySource`, which reads c on and above the diagonal only: the
cost must be symmetric, and :mod:`permlim.lab` checks that before a solve.
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
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787)  # j_{0,k}, k = 1..5


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1]: ascending nodes, weights.

    Exact for polynomials of degree <= 2m - 1. The roots of P_m are found by
    Newton's method on the three-term recurrence, O(m^2) work in all. The
    initial guesses are Olver's Bessel-zero asymptotics for the third of
    the roots nearest each end of [-1, 1] and Tricomi's for the others
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013). The weight of root x
    is 2 / ((1 - x^2) P_m'(x)^2) on [-1, 1], halved on [0, 1].
    """
    k = np.arange(1, (m + 1) // 2 + 1)  # roots in [0, 1), largest first
    rho = m + 0.5
    x = (1.0 - (m - 1) / (8.0 * m**3)) * np.cos(math.pi * (k - 0.25) / rho)
    psi = _bessel_j0_zeros(m // 3) / rho
    # cos / sin, not tan: np.tan's first call adds 0.2-0.3 MB of resident
    # pages to the process, while cos and sin share theirs
    cot = np.cos(psi) / np.sin(psi)
    theta = psi + (psi * cot - 1.0) / (8.0 * rho * rho * psi)
    x[:psi.size] = np.cos(theta)
    # recurrence passes: 3 (4 at m = 2) below m = 22, 2 up to m = 1800, 1
    # from m = 1900; checked for m = 2..1200 and every 100 up to 4096
    for _ in range(10):
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


def _bessel_j0_zeros(n: int) -> np.ndarray:
    """The first n positive zeros of J_0: a table of five, then McMahon's
    expansion in 1 / (8 (k - 1/4) pi), within 8e-12 from k = 6 on."""
    b = (np.arange(1, n + 1) - 0.25) * math.pi
    r = 1.0 / (8.0 * b)
    r2 = r * r
    j = b + r * (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0 + r2 * (
        -401743168.0 / 105.0 + r2 * 1071187749376.0 / 315.0))))
    j[:5] = _J0_ZEROS[:n]
    return j


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

    Starting from a = 0, each iteration forms the target
    t = log(sum_j w_j exp(-c(x_i, y_j) - a_j)) with the Gauss-Legendre
    weights w_j. The residual is the doubly stochastic defect
    max_i |exp(t_i - a_i) - 1|.

    Linearised, t moves by -P da, where P is self-adjoint in the weighted
    inner product and keeps the weighted mean <v>_w = sum_j w_j v_j. So a
    shift a -> a + s moves t - a by -2s, and the step
    f = (t - a) - <t - a>_w / 2 removes it exactly; its fixed points are
    those of t = a. The damped step's image g = a + theta f is mixed with
    the previous one by depth-1 Anderson acceleration (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): with df = f - f_prev and dg = g - g_prev,
    a <- g - (df.f / df.df) dg, plain dot products and no LAPACK call.
    theta starts at ``damping``; when a step increases the residual it is
    halved, down to 1/16, and the history is dropped, so the next step is
    a <- g.

    The Gibbs matrix exp(-c) is the :class:`DensitySource` fill at a zero
    potential: c is read on and above the diagonal only, as the sampler
    reads it, and a non-finite cost raises ValueError before exp runs.
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
    G = DensitySource(_cost_block(cost), np.zeros_like)(nodes)  # exp(-c)
    log_min, log_max = math.log(G.min()), math.log(G.max())  # -max c, -min c

    a = np.zeros(m)
    theta = damping
    f_prev = g_prev = None  # the Anderson history: last step and its image
    trace: list[float] = []
    prev_residual = math.inf
    for it in range(1, max_iter + 1):
        _guard_range("potential update", log_min - float(a.max()),
                     log_max - float(a.min()))
        f = np.log(G @ (weights * np.exp(-a))) - a  # t - a
        residual = float(np.abs(np.exp(f) - 1.0).max())
        trace.append(residual)
        if residual <= tol:
            return PotentialSolution(cost, nodes, weights, a, tuple(trace), it)
        if residual > prev_residual and theta > 1.0 / 16.0:
            theta = max(theta / 2.0, 1.0 / 16.0)
            f_prev = g_prev = None
        f -= 0.5 * float(weights @ f)
        g = a + theta * f  # the image of the damped step
        a = g
        if f_prev is not None:
            # f - f_prev and g - g_prev overwrite the history they replace,
            # so mixing allocates only the new iterate
            np.subtract(f, f_prev, out=f_prev)
            dd = float(f_prev @ f_prev)
            if dd > 0.0:
                np.subtract(g, g_prev, out=g_prev)
                g_prev *= float(f_prev @ f) / dd
                a = g - g_prev
        f_prev, g_prev = f, g
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
    C = np.asarray(_cost_block(solution.cost)(flat, solution.nodes), float)
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

    Called on ascending nodes t, the source fills one n x n matrix _BLOCK
    rows at a time, each block row from the diagonal rightwards only, so
    ``density`` (c for a Gibbs source) is read at (t_min, t_max) only, and
    mirrors it into the lower triangle: the result is exactly symmetric,
    and no n x n temporary is made. A Gibbs block is negated, shifted and
    exponentiated in place, in the order -c - a_i - a_j; a non-finite
    exponent raises ValueError, and one beyond +/-700 OverflowGuardError,
    before exp runs on its block.
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
                with np.errstate(all="ignore"):  # _guard_range rejects nan/inf
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
    """rho(x, y) = exp(-c(x, y) - a(x) - a(y)) from a converged potential;
    c is read on and above the diagonal, as solve_potential reads it."""
    return DensitySource(_cost_block(solution.cost),
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


def _cost_block(cost: CostFunction):
    """The density of a Gibbs source: the block c(x_i, y_j)."""
    return lambda x, y: cost.evaluator(x[:, None], y[None, :])


def _guard_range(what: str, lo: float, hi: float) -> None:
    """Reject an exponent range [lo, hi] not finite or beyond +/-_EXP_GUARD."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cost evaluates to non-finite values on the grid")
    if max(abs(lo), abs(hi)) > _EXP_GUARD:
        raise OverflowGuardError(
            f"{what} exponent range [{lo:.1f}, {hi:.1f}] exceeds "
            f"+/-{_EXP_GUARD:g}; rescale the cost")
