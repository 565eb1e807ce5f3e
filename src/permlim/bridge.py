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
the constant shift of the potential exactly and depth-1 Anderson mixing;
:mod:`permlim.balance` balances sampled kernels with the same iteration.
The same rule serves ``gamma0``, the off-node extension of the potential
and the Nystrom matrix of :mod:`permlim.spectral`; for a smooth cost every
one of them converges exponentially in m.

A :class:`DensitySource` sampled on a node vector is one type,
:class:`KernelMatrix`: the solver's Gibbs matrix, the Nystrom matrices and
the grid kernels of :mod:`permlim.grid` alike. It alone knows the stored
triangle, packed block row by block row at the front of its buffer: it
reads c on and above the diagonal only, so the cost must be symmetric, and
:mod:`permlim.lab` checks that before a solve.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import CostFunction, bilinear_interpolant
from .errors import ConvergenceError, OverflowGuardError, SmoothnessWarning

_EXP_GUARD = 700.0  # |exponent| above this overflows double precision
# rows per block row of a KernelMatrix and points per block of
# evaluate_potential
_BLOCK = 128
# most entries in one tile of a KernelMatrix fill, one row where a row is
# longer; on the m = 3200 Gibbs fill 16384 made about 100 minor page
# faults where 32768 made about 25,000
_TILE = 16384

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
    is 2 / ((1 - x^2) P_m'(x)^2) on [-1, 1], halved on [0, 1]. An m below
    1 raises ValueError.
    """
    if m < 1:
        raise ValueError(f"a Gauss-Legendre rule needs m >= 1 nodes, not {m}")
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
    p0, p1, t = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(10):
        p0.fill(1.0)  # P_{j-1}(x)
        np.copyto(p1, x)  # P_j(x)
        for j in range(2, m + 1):
            # ((2 - 1/j) x) p1 - (1 - 1/j) p0, in three reused buffers
            np.multiply(2.0 - 1.0 / j, x, out=t)
            t *= p1
            p0 *= 1.0 - 1.0 / j
            np.subtract(t, p0, out=p0)
            p0, p1 = p1, p0
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

    The Gibbs matrix exp(-c) is the :class:`KernelMatrix` of a zero
    potential: c is read on and above the diagonal only, as the sampler
    reads it, and a non-finite cost raises ValueError before exp runs. Its
    recorded range bounds the exponent of every update, and the iteration
    multiplies by the packed triangle with the matrix's symmetric block
    product, the one balancing uses: the full matrix is never formed, so
    about m (m + 128) / 2 doubles are resident, 42.6 MB at m = 3200. An m
    whose matrix cannot be allocated raises MemoryError before the O(m^2)
    quadrature runs.
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

    _check_allocatable(m)
    nodes, weights = gauss_legendre(m)
    G = DensitySource(_cost_block(cost), np.zeros_like)(nodes)  # exp(-c)
    log_min, log_max = map(math.log, G.value_range)  # -max c, -min c
    a, trace = _scale(G, weights, tol, max_iter, damping, lambda a, _: _guard_range(
        "potential update", log_min - float(a.max()), log_max - float(a.min())))
    if trace[-1] > tol:
        raise ConvergenceError(
            f"potential iteration did not reach tol={tol:g} in {max_iter} "
            f"iterations (last residual {trace[-1]:.3e})",
            residual=trace[-1], iterations=max_iter)
    return PotentialSolution(cost, nodes, weights, a, tuple(trace), len(trace))


def _check_allocatable(m: int) -> None:
    """Raise MemoryError now if the m x m matrix of doubles built after
    the m-point rule cannot be allocated, so no O(m^2) work is spent on
    nodes first. The trial is an anonymous mapping, unmapped untouched; a
    freed malloc of up to 32 MiB would raise glibc's mmap threshold, and
    later temporaries would stay on the heap (0.9 MB more peak RSS for a
    converge run at the default m = 400)."""
    try:
        mmap.mmap(-1, 8 * m * m, flags=mmap.MAP_PRIVATE).close()
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"Unable to allocate a {m} x {m} matrix of "
                          f"doubles ({8 * m * m / 2**30:.4g} GiB)") from exc


def _scale(G, w, tol, max_iter, damping, check):
    """Solve exp(a) = G (w exp(-a)), G a :class:`KernelMatrix`, nonnegative
    with no zero row, by the iteration of :func:`solve_potential` from
    a = 0. Every ``G @ v`` is its symmetric product over the packed
    triangle: the potential solve and balancing both call this.

    Returns a and the residual max_i |exp(t_i - a_i) - 1| after each of at
    most max_iter products with G; the caller judges the last against tol.
    ``check(a, trace)`` runs before every product and raises to stop.
    """
    a = np.zeros(w.size)
    theta = damping
    f_prev = g_prev = None  # the Anderson history: last step and its image
    trace: list[float] = []
    prev_residual = math.inf
    for _ in range(max_iter):
        check(a, trace)
        f = np.log(G @ (w * np.exp(-a))) - a  # t - a
        residual = float(np.abs(np.exp(f) - 1.0).max())
        trace.append(residual)
        if residual <= tol:
            break
        if residual > prev_residual and theta > 1.0 / 16.0:
            theta = max(theta / 2.0, 1.0 / 16.0)
            f_prev = g_prev = None
        f -= 0.5 * float(w @ f)
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
    return a, trace


def evaluate_potential(solution: PotentialSolution, x) -> np.ndarray:
    """Evaluate the potential anywhere in [0,1] via the defining equation.

    Plugging arbitrary x into a(x) = log sum_j w_j exp(-c(x, y_j) - a_j)
    extends the converged node values smoothly; on the nodes it reproduces
    them up to the solver tolerance. x may have any shape, and the result
    has the same shape. The sum runs over about _BLOCK points of x at a
    time, in one reused block: the exponent range of each block is guarded
    before exp runs on it, and no len(x) x m temporary is made.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.empty(x.shape)
    flat = x.ravel()
    if not (flat.min() >= 0.0 and flat.max() <= 1.0):  # also rejects nan
        raise ValueError("potential arguments must lie in [0,1]")
    a = solution.a_values
    a_min, a_max = float(a.min()), float(a.max())
    v = solution.weights * np.exp(-a)
    cost = _cost_block(solution.cost)
    # numpy multiplies a block of one row as a dot product, which rounds
    # unlike a row of a larger block, so the last block takes such a row
    edges = [*range(0, max(flat.size - 1, 1), _BLOCK), flat.size]
    block = np.empty((min(flat.size, _BLOCK + 1), a.size))
    a_x = np.empty(flat.size)
    for s, e in zip(edges, edges[1:]):
        C = np.asarray(cost(flat[s:e], solution.nodes), float)
        _guard_range("potential", -float(C.max()) - a_max,
                     -float(C.min()) - a_min)
        row = block[:e - s]
        np.exp(np.negative(C, out=row), out=row)
        a_x[s:e] = row @ v
    return np.log(a_x, out=a_x).reshape(x.shape)


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
    evaluated once per call. Called on ascending nodes t, the source
    returns rho(t_i, t_j) as a :class:`KernelMatrix`.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t) -> KernelMatrix:
        return KernelMatrix(self, t)


class KernelMatrix:
    """A density source sampled on ascending nodes t: the symmetric n x n
    matrix rho(t_i, t_j), stored as one triangle.

    The constructor allocates its n * n buffer first, so a size that does
    not fit raises MemoryError before a potential is evaluated at the
    nodes. The matrix is stored _BLOCK rows at a time, each block row
    P = rho[s:e, s:] from the diagonal rightwards only, so ``density`` (c
    for a Gibbs source) is read at (t_min, t_max) only, and each diagonal
    block is whole. The block rows are packed one after another at the
    front of one n * n buffer, each a contiguous (e - s, n - s) array, so
    the fill touches about n (n + _BLOCK) / 2 of its doubles and no n x n
    temporary is made.

    Each block row is filled from the top in tiles of whole rows, at most
    _TILE entries (one row where a row is longer), so the fill's
    temporaries are a tile's size and every step runs on a tile still in
    cache: ``density`` on the tile's rows; for a Gibbs source, the
    exponent -c - a_i - a_j formed in place, a non-finite one raising
    ValueError and one beyond +/-700 OverflowGuardError before exp runs on
    the tile; the tile's part of the diagonal block below the diagonal
    copied from above it, from this tile or an earlier one; and the
    tile's min and max. ``value_range`` is the (min, max) of the stored
    entries so recorded; it is nan when any entry is. Every entry takes
    the same elementwise steps as in a whole-matrix construction, so the
    tiles do not change its bits.

    ``K @ v`` is the symmetric product over the block rows,
    out[s:e] += P @ v[s:] and out[e:] += P[:, e-s:].T @ v[s:e]; for
    n <= _BLOCK the one block row is the matrix and the second term is
    empty. The first read of ``entries`` or ``np.asarray(K)`` expands the
    buffer into the full matrix, once, in place: from the last block row
    to the first, each is copied to rows s..e-1 from column s and mirrored
    into the strip below it, so no second n x n array is made. Both
    triangles then hold rho(t_min, t_max), the matrix is exactly
    symmetric, and it is a read-only array, not a copy. Products keep
    their block form, over views of the full rows, and their bits.
    """

    def __init__(self, source: DensitySource, t):
        t = np.asarray(t, dtype=float)
        n = t.size
        self._buffer = np.empty(n * n)  # a size that does not fit fails at once
        a = None if source.potential is None else source.potential(t)
        self._blocks = []  # the block rows P, packed until expanded
        lo, hi = math.inf, -math.inf
        at = 0  # where the next block row starts in the buffer
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            row = self._buffer[at:at + (e - s) * (n - s)].reshape(e - s, n - s)
            at += row.size
            below = np.tri(e - s, k=-1, dtype=bool)  # of the diagonal block
            step = max(1, _TILE // (n - s))  # rows per tile
            for r in range(0, e - s, step):
                tile = row[r:r + step]
                k = r + tile.shape[0]  # the tile ends at row s + k
                if a is None:
                    tile[...] = source.density(t[s + r:s + k], t[s:])
                else:
                    with np.errstate(all="ignore"):  # _guard_range rejects nan/inf
                        # (-a_i) - c is (-c) - a_i exactly, in one pass fewer
                        np.subtract(-a[s + r:s + k, None],
                                    source.density(t[s + r:s + k], t[s:]),
                                    out=tile)
                        tile -= a[None, s:]
                    _guard_range("density", float(tile.min()), float(tile.max()))
                    np.exp(tile, out=tile)
                # below the diagonal, the tile's part of the diagonal block
                # takes the entries above it, in this tile or an earlier one
                np.copyto(tile[:, :k], row[:k, r:k].T, where=below[r:k, :k])
                lo, hi = np.minimum(lo, tile.min()), np.maximum(hi, tile.max())  # keeps nan
            self._blocks.append(row)
        self._full = n <= _BLOCK  # one diagonal block is the whole matrix
        self._entries = self._buffer.reshape(n, n)
        self._entries.setflags(write=False)
        self.value_range = (float(lo), float(hi))

    @property
    def shape(self) -> tuple[int, int]:
        return self._entries.shape

    @property
    def entries(self) -> np.ndarray:
        if not self._full:
            n = self.shape[0]
            full = self._buffer.reshape(n, n)
            starts = range(0, n, _BLOCK)
            # a block row is packed at or before its place in the full
            # matrix, and that place lies past every earlier block row's
            # packed storage, so the last moves first; copyto buffers a
            # block row that overlaps its own place
            for s, P in reversed([*zip(starts, self._blocks)]):
                e = s + P.shape[0]
                np.copyto(full[s:e, s:], P)
                full[e:, s:e] = full[s:e, e:].T
            self._blocks = [full[s:s + _BLOCK, s:] for s in starts]
            self._full = True
        return self._entries

    def __array__(self, dtype=None, copy=None):
        if copy is False:  # numpy 2 only: a needed copy raises ValueError
            return np.asarray(self.entries, dtype=dtype, copy=False)
        # numpy 1.x calls this without ``copy`` and rejects ``copy=None``.
        return (np.array if copy else np.asarray)(self.entries, dtype=dtype)

    def __matmul__(self, v) -> np.ndarray:
        n = self.shape[0]
        out = np.zeros(n)
        for s, P in zip(range(0, n, _BLOCK), self._blocks):
            e = s + P.shape[0]
            out[s:e] += P @ v[s:]
            out[e:] += P[:, e - s:].T @ v[s:e]
        return out


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
    """max |M[i, j] - M[j, i]| of a square matrix; nan when any entry is
    nan."""
    return float(np.abs(M - M.T).max(initial=0.0))


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
