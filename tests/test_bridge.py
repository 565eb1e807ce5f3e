import dataclasses
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import permlim
from permlim import (ConvergenceError, CostFunction, DensitySource,
                     OverflowGuardError, PotentialSolution, SmoothnessWarning,
                     absolute_cost, bridge_source, centered_nystrom,
                     constant_source, cosine_source, evaluate_potential,
                     expression_cost, gamma0, gauss_legendre, grid_nodes,
                     quadratic_cost, sample_kernel, solve_potential,
                     tabulated_source)
from permlim.bridge import KernelMatrix, _cost_block, _scale, max_asymmetry

ZERO_COST = quadratic_cost(0.0)
GAMMA0_QUADRATIC = 0.1529210810610881  # beta = 1 continuum value


def _marginal_residual(sol):
    """max_i |sum_j w_j exp(-c_ij - a_i - a_j) - 1|, recomputed on the nodes;
    solve_potential reports the same quantity as final_residual."""
    x, a = sol.nodes, sol.a_values
    rho = np.exp(-sol.cost.evaluator(x[:, None], x[None, :]) - a[:, None] - a)
    return float(np.abs(rho @ sol.weights - 1.0).max())


def test_gauss_legendre_integrates_polynomials_exactly():
    for m in (8, 33):
        nodes, weights = gauss_legendre(m)
        assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] < nodes[-1] < 1.0
        for k in range(2 * m):
            assert math.fsum(weights * nodes**k) == pytest.approx(
                1.0 / (k + 1), abs=1e-14)


def test_gauss_legendre_weights_sum_to_one():
    for m in (8, 9, 64, 400, 1024):
        assert math.fsum(gauss_legendre(m)[1]) == pytest.approx(1.0, abs=1e-14)


def test_gauss_legendre_matches_numpy():
    # leggauss's own weights are off by up to 1.1e-15 at m = 64 against a
    # 30-digit mpmath rule (gauss_legendre's by 1.1e-16), hence 2e-15
    for m in (8, 9, 16, 33, 64, 100):
        nodes, weights = gauss_legendre(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        np.testing.assert_allclose(nodes, 0.5 * (ref_x + 1.0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, 0.5 * ref_w, rtol=0, atol=2e-15)


def _golub_welsch(m):
    """The m-point rule on [0, 1] from the eigenvectors of the Jacobi matrix
    of the Legendre polynomials, independent of the recurrence and Newton."""
    k = np.arange(1, m)
    J = np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1)
    lam, V = np.linalg.eigh(J + J.T)
    return 0.5 * (lam + 1.0), V[0] ** 2


@pytest.mark.parametrize("m", [128, 196, 513, 1024])
def test_gauss_legendre_matches_golub_welsch(m):
    # measured at most 3.8e-16 over m = 2..1200; before the Bessel-zero
    # guesses the weights at m = 191..406 were up to 2.7e-15 off (m = 196)
    nodes, weights = gauss_legendre(m)
    ref_x, ref_w = _golub_welsch(m)
    np.testing.assert_allclose(nodes, ref_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, ref_w, rtol=0, atol=1e-15)


def test_zero_cost_trivial_solution():
    sol = solve_potential(ZERO_COST, m=64)
    assert np.abs(sol.a_values).max() == 0.0
    assert sol.iterations <= 2
    assert abs(gamma0(sol)) <= 1e-12
    assert _marginal_residual(sol) <= 1e-14


def test_quadratic_converges(quad_solution):
    assert quad_solution.final_residual <= 1e-12
    assert _marginal_residual(quad_solution) <= 1e-12
    assert gamma0(quad_solution) > 0
    assert gamma0(quad_solution) == pytest.approx(GAMMA0_QUADRATIC, abs=1e-13)


def test_quadratic_potential_mirror_symmetric(quad_solution):
    a = quad_solution.a_values
    assert np.abs(a - a[::-1]).max() <= 1e-9


def test_scaled_raw_exponent_tends_to_endpoint_difference():
    # L_n_scaled / D_n = exp(2 sum_i a(i/n) + n gamma0), and by Euler-Maclaurin
    # for the right-endpoint sum the exponent tends to a(1) - a(0), not 0.
    # With s = x - 1/2, t = y - 1/2 this cost is 1.5 s^2 - s t + 1.5 t^2
    # + s + t + 1/2; the linear part moves into the potential, which is then
    # a reflection-symmetric function minus s, so a(1) - a(0) = -1.
    sol = solve_potential(expression_cost("(x - y)**2 + 0.5 * (x + y)**2"),
                          m=128)
    a0, a1 = evaluate_potential(sol, [0.0, 1.0])
    assert a1 - a0 == pytest.approx(-1.0, abs=1e-9)
    for n in (100, 1000):  # measured error 0.486 / n
        exponent = 2.0 * math.fsum(evaluate_potential(sol, grid_nodes(n)))
        exponent += n * gamma0(sol)
        assert abs(exponent - (a1 - a0)) <= 1.0 / n


def test_gamma0_two_resolutions_agree(quad_cost, quad_solution):
    sol800 = solve_potential(quad_cost, m=800)
    g4, g8 = gamma0(quad_solution), gamma0(sol800)
    assert abs(g8 / g4 - 1.0) <= 1e-4


def _hand_built(a_value, m=16):
    nodes, weights = gauss_legendre(m)
    return PotentialSolution(ZERO_COST, nodes, weights, np.full(m, a_value),
                             (0.0,), 1)


def test_gamma0_constant_potential():
    assert gamma0(_hand_built(0.3)) == pytest.approx(-0.6, abs=1e-15)


def test_gauge_rigidity(quad_solution):
    base = _marginal_residual(quad_solution)
    shifted = dataclasses.replace(quad_solution,
                                  a_values=quad_solution.a_values + 0.1)
    assert _marginal_residual(shifted) > base


def test_constant_shift_residual_closed_form():
    sol = solve_potential(ZERO_COST, m=64)
    shifted = dataclasses.replace(sol, a_values=sol.a_values + 0.01)
    expected = 1.0 - math.exp(-0.02)
    assert _marginal_residual(shifted) == pytest.approx(expected, abs=1e-12)


def test_nonconvergence_error_carries_diagnostics(quad_cost):
    with pytest.raises(ConvergenceError) as exc_info:
        solve_potential(quad_cost, m=64, tol=1e-14, max_iter=1)
    assert exc_info.value.iterations == 1
    assert exc_info.value.residual > 0


@pytest.mark.parametrize("beta, m", [(1.0, 64), (1.0, 400), (4.0, 400)])
def test_tol_below_rounding_stops_cleanly(beta, m):
    # the iterate stops changing, so two steps agree to the last bit and
    # the mixing must not divide by their zero difference
    try:
        solve_potential(quadratic_cost(beta), m=m, tol=1e-20, max_iter=100)
    except ConvergenceError:
        pass


def test_constant_shift_removed_in_one_step():
    # for c = 1/2 the first target is t = -1/2 at a = 0, and the step
    # (t - a) - <t - a>_w / 2 lands on the solution a = -1/4 at once
    sol = solve_potential(expression_cost("0.5"), m=64)
    assert sol.iterations == 2
    np.testing.assert_allclose(sol.a_values, -0.25, rtol=0, atol=1e-15)


def test_overflow_guard_on_strong_cost():
    with pytest.raises(OverflowGuardError):
        solve_potential(quadratic_cost(2000.0), m=64)


def test_overflow_guard_in_bridge_source():
    with pytest.raises(OverflowGuardError, match="exponent range"):
        sample_kernel(bridge_source(_hand_built(-400.0)), 4)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_cost_in_last_block_rejected(bad):
    # only the nodes above 0.99 (the last of three 128-row blocks at m = 300)
    cost = CostFunction(lambda x, y: np.where(x > 0.99, bad, (x - y) ** 2),
                        "C2", "last-block")
    with pytest.raises(ValueError, match="non-finite values on the grid"):
        solve_potential(cost, m=300)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_cost_off_the_nodes_rejected(bad, quad_solution):
    # bad only at (1, 1), a grid point the potential's evaluation never sees
    cost = CostFunction(
        lambda x, y: np.where((x == 1.0) & (y == 1.0), bad, (x - y) ** 2),
        "C2", "corner")
    source = bridge_source(dataclasses.replace(quad_solution, cost=cost))
    with pytest.raises(ValueError, match="non-finite values on the grid"):
        sample_kernel(source, 4)


def test_potential_solve_and_sampler_read_one_upper_triangle():
    # The solve fills exp(-c) as the sampler fills rho, on and above the
    # diagonal only: at most m (m + 128) / 2 cost points, not m^2.
    m = 300
    points = []

    def counted(x, y):
        value = (x - y) ** 2
        points.append(value.size)
        return value

    sol = solve_potential(CostFunction(counted, "C2", "counted"), m=m)
    assert sum(points) <= m * (m + 128) // 2
    # Both read c(t_min, t_max): on a cost that is not symmetric, the solve
    # matches the cost mirrored from above the diagonal bit for bit, and the
    # sampler's rho at the nodes is exp(-c - a_i - a_j) above the diagonal,
    # mirrored.
    def asym(x, y):
        return (x - y) ** 2 + 0.5 * x

    upper = CostFunction(lambda x, y: asym(np.minimum(x, y), np.maximum(x, y)),
                         "C2", "upper")
    sol = solve_potential(CostFunction(asym, "C2", "asym"), m=m)
    np.testing.assert_array_equal(
        sol.a_values, solve_potential(upper, m=m).a_values)
    x = sol.nodes
    a = evaluate_potential(sol, x)
    expected = np.triu(np.exp(-upper.evaluator(x[:, None], x[None, :])
                              - a[:, None] - a[None, :]))
    expected += np.triu(expected, 1).T
    np.testing.assert_array_equal(bridge_source(sol)(x), expected)


def test_potential_solve_multiplies_by_the_packed_gibbs_matrix():
    # The iteration runs on the sampled G = exp(-c(x_min, x_max)) itself,
    # by its block product over the packed triangle, bit for bit. The full
    # gemv rounds differently: over these costs at m = 400 the two
    # potentials differ by at most 7.2e-16 (2.0e-15 at m = 3200).
    for cost in [*map(quadratic_cost, (0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0)),
                 expression_cost("abs(x-y)**3")]:
        sol = solve_potential(cost, m=400)
        G = DensitySource(_cost_block(cost), np.zeros_like)(sol.nodes)
        a, trace = _scale(G, sol.weights, 1e-12, 500, 1.0, lambda a, t: None)
        assert np.array_equal(a, sol.a_values)
        assert tuple(trace) == sol.residual_trace
        full, _ = _scale(np.asarray(G), sol.weights, 1e-12, 500, 1.0,
                         lambda a, t: None)
        assert np.abs(full - a).max() <= 2e-15


def test_potential_solve_never_expands_the_gibbs_matrix(monkeypatch):
    # Past one block row the solve reads neither ``entries`` nor
    # ``np.asarray`` of its Gibbs matrix, so the full matrix is never made.
    cost = quadratic_cost(1.0)
    expected = {m: solve_potential(cost, m=m).a_values for m in (256, 300)}

    def expand(*args, **kwargs):
        raise AssertionError("the Gibbs matrix was expanded")

    monkeypatch.setattr(KernelMatrix, "entries", property(expand))
    monkeypatch.setattr(KernelMatrix, "__array__", expand)
    with pytest.raises(AssertionError, match="expanded"):
        np.asarray(constant_source()(np.linspace(0.0, 1.0, 256)))
    for m, a in expected.items():
        np.testing.assert_array_equal(solve_potential(cost, m=m).a_values, a)


def test_potential_solve_keeps_only_the_packed_triangle_resident(source_env):
    # A fresh process, so ru_maxrss is this solve's high-water mark. The
    # packed triangle is m (m + 128) / 2 doubles, 42.6 MB at m = 3200; the
    # growth measured 44.3-45.4 MB over beta 0.5-16, the fill's tiles of
    # cost and their temporaries included, against 50.9-52.0 MB with whole
    # 3.3 MB block rows of cost and 89.7 MB when the solve expanded G into
    # the full 8 m^2 = 81.9 MB.
    m = 3200
    script = (
        "import resource\n"
        "from permlim import quadratic_cost, solve_potential\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"solve_potential(quadratic_cost(1.0), m={m})\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(1024 * (after - before))\n")
    out = subprocess.run([sys.executable, "-c", script], env=source_env,
                         capture_output=True, text=True, check=True).stdout
    packed = 8 * m * (m + 128) // 2
    assert int(out) <= packed + 4 * 10**6  # 46.6 MB, 0.57 of 8 m^2


def test_potential_solve_holds_one_gibbs_matrix():
    # The Gibbs matrix is filled in place tile by tile: its 8 m^2 bytes
    # plus 0.44 MB at the peak, against 3.3 MB more with whole block rows
    # of C and 3.0 m^2 doubles with whole-matrix C, -C and exp(-C).
    m = 1600
    tracemalloc.start()
    try:
        solve_potential(quadratic_cost(1.52), m=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m * m * 8 + 10**6


def test_solver_argument_checks(quad_cost):
    with pytest.raises(ValueError):
        solve_potential(quad_cost, m=4)
    with pytest.raises(ValueError):
        solve_potential(quad_cost, m=64, damping=0.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_potential(quad_cost, m=16, tol=tol)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_potential(quad_cost, m=16, max_iter=0)


def _damped_half_reference(cost, m):
    """The potential by the plain iteration a <- (a + t) / 2 on the full
    grid exp(-c), to a residual of 1e-13."""
    x, w = gauss_legendre(m)
    G = np.exp(-cost.evaluator(x[:, None], x[None, :]))
    a = np.zeros(m)
    for _ in range(1000):
        t = np.log(G @ (w * np.exp(-a)))
        if np.abs(np.exp(t - a) - 1.0).max() <= 1e-13:
            return a
        a = 0.5 * (a + t)
    raise AssertionError("reference iteration did not converge")


# iteration counts of the damped fixed point a <- (1 - theta) a + theta t
# that solve_potential ran before it removed the constant shift and mixed
# steps; the solver must not need more
@pytest.mark.filterwarnings("ignore::permlim.SmoothnessWarning")
@pytest.mark.parametrize("cost, before", [
    (quadratic_cost(0.5), 15), (quadratic_cost(2.0), 27),
    (quadratic_cost(16.0), 33), (quadratic_cost(64.0), 33),
    (absolute_cost(1.0), 33), (absolute_cost(16.0), 32),
    (expression_cost("10*sin(3*x)*sin(3*y)"), 114),
    (expression_cost("3*x*y"), 56), (expression_cost("-8*x*y"), 35),
    (expression_cost("(x-y)**2 + 0.5*(x+y)**2"), 34),
], ids=lambda v: v.label if isinstance(v, CostFunction) else str(v))
def test_solver_needs_no_more_iterations(cost, before):
    sol = solve_potential(cost, m=400)
    assert sol.iterations <= before  # measured 6-24
    assert _marginal_residual(sol) <= 1e-12
    reference = _damped_half_reference(cost, 400)
    assert np.abs(sol.a_values - reference).max() <= 2e-12  # measured 1.7e-12


def test_halving_drops_the_mixing_history():
    # measured 80 (the damped fixed point took 243); mixing across a
    # halving of theta, with the secant of the larger theta, took 280
    sol = solve_potential(expression_cost("10*sin(3*x)*sin(3*y)"), m=400,
                          damping=0.5)
    assert sol.iterations <= 243


def test_solver_iterations_at_large_m():
    # measured 7; the damped fixed point took 27
    assert solve_potential(quadratic_cost(2.0), m=3200).iterations <= 8


@pytest.mark.filterwarnings("ignore::permlim.SmoothnessWarning")
@pytest.mark.parametrize("cost", [quadratic_cost(8.0), quadratic_cost(16.0),
                                  absolute_cost(4.0)],
                         ids=lambda c: c.label)
def test_large_beta_converges(cost):
    # the damping must halve whenever the residual rises, also above 1
    solution = solve_potential(cost, m=64)
    assert _marginal_residual(solution) <= 1e-11


def test_c0_cost_warns():
    with pytest.warns(SmoothnessWarning):
        solve_potential(absolute_cost(1.0), m=32)


def test_residual_trace_recorded(quad_solution):
    trace = quad_solution.residual_trace
    assert len(trace) == quad_solution.iterations
    assert trace[-1] == quad_solution.final_residual
    assert trace[0] > trace[-1]


def test_evaluate_potential_reproduces_nodes(quad_solution):
    approx = evaluate_potential(quad_solution, quad_solution.nodes)
    assert np.abs(approx - quad_solution.a_values).max() <= 1e-11


def test_evaluate_potential_keeps_shape(quad_solution):
    x = np.array([[0.25, 1.0, 0.25], [0.0, 0.5, 1.0]])
    values = evaluate_potential(quad_solution, x)
    assert values.shape == x.shape
    flat = evaluate_potential(quad_solution, x.ravel())
    np.testing.assert_array_equal(values, flat.reshape(x.shape))
    with pytest.raises(ValueError):
        evaluate_potential(quad_solution, [0.5, -0.1])


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_evaluate_potential_on_empty_arguments(quad_solution, shape):
    values = evaluate_potential(quad_solution, np.empty(shape))
    assert values.shape == shape and values.dtype == float


@pytest.mark.parametrize("x", [[math.nan], [0.5, math.nan, 1.0],
                               [[math.nan, 0.0], [0.5, 1.0]]])
def test_evaluate_potential_rejects_nan_arguments(quad_solution, x):
    # nan is outside [0,1], and is rejected as such before the cost runs
    with pytest.raises(ValueError,
                       match=r"^potential arguments must lie in \[0,1\]$"):
        evaluate_potential(quad_solution, x)


def test_unallocatable_matrix_fails_before_the_work_that_precedes_it(
        monkeypatch):
    # an m x m matrix that cannot exist fails before the O(m^2) quadrature,
    # which would run for hours at m = 10**7, and an n x n kernel before
    # its potential is evaluated at the n nodes
    calls = []
    for module in (permlim.bridge, permlim.spectral):
        monkeypatch.setattr(module, "gauss_legendre", calls.append)
    for m in (10**7, 10**10):  # 8 m^2 bytes: beyond memory; beyond ssize_t
        with pytest.raises(MemoryError, match=f"^Unable to allocate a {m} x"):
            solve_potential(quadratic_cost(1.0), m=m)
        with pytest.raises(MemoryError, match=f"^Unable to allocate a {m} x"):
            centered_nystrom(constant_source(), m)
    source = DensitySource(lambda x, y: np.ones((x.size, y.size)),
                           potential=calls.append)
    with pytest.raises(MemoryError):
        source(np.broadcast_to(0.5, (10**7,)))
    assert calls == []


def test_bridge_source_zero_cost_all_ones():
    src = bridge_source(solve_potential(ZERO_COST, m=64))
    K = sample_kernel(src, 5)
    assert np.abs(K.entries - 1.0).max() <= 1e-14


def test_constant_source_trivial():
    src = constant_source()
    assert np.array_equal(src(np.array([0.3, 0.9])), np.ones((2, 2)))


def test_cosine_source_values_and_range():
    src = cosine_source(0.5)
    K = np.asarray(src(np.array([0.0, 1.0])))
    assert K[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert K[0, 1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        cosine_source(-0.1)
    with pytest.raises(ValueError):
        cosine_source(1.0)


def test_tabulated_source_interpolates():
    table = np.array([[1.0, 2.0], [2.0, 3.0]])
    src = tabulated_source(table)
    K = np.asarray(src(np.array([0.0, 0.5, 1.0])))
    assert K[0, 2] == 2.0
    assert K[1, 1] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        tabulated_source(np.ones((2, 3)))


@pytest.mark.parametrize("n", [3, 300])  # one tile, and 3 x 3 tiles
@pytest.mark.parametrize("where", ["first", "last"])
def test_max_asymmetry_propagates_nan(n, where):
    M = np.ones((n, n))
    M[(0, 1) if where == "first" else (n - 1, n - 2)] = np.nan
    assert math.isnan(max_asymmetry(M))


def test_tabulated_source_rejects_asymmetric_table():
    table = np.ones((5, 5))
    table[0, 4], table[4, 0] = 1.6, 0.4
    with pytest.raises(ValueError, match="asymmetry"):
        tabulated_source(table)
    table[0, 4], table[4, 0] = 1.0 + 1e-13, 1.0  # within 1e-12: accepted
    K = np.asarray(tabulated_source(table)(np.array([0.0, 1.0])))
    assert K[0, 1] == K[1, 0] == 1.0 + 1e-13  # rho(min, max) on both sides
