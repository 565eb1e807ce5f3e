import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from permlim import (ConvergenceError, CostFunction, OverflowGuardError,
                     PotentialSolution, SmoothnessWarning, absolute_cost,
                     bridge_source, constant_source, cosine_source,
                     evaluate_potential, expression_cost, gamma0,
                     gauss_legendre, grid_nodes, quadratic_cost,
                     sample_kernel, solve_potential, tabulated_source)
from permlim.bridge import max_asymmetry

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


def test_potential_solve_holds_one_gibbs_matrix():
    # The Gibbs matrix is filled in place block row by block row: 1.16 m^2
    # doubles at the peak, against 3.0 with whole-matrix C, -C and exp(-C).
    m = 1600
    tracemalloc.start()
    try:
        solve_potential(quadratic_cost(1.52), m=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * m * m * 8


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


def test_bridge_source_zero_cost_all_ones():
    src = bridge_source(solve_potential(ZERO_COST, m=64))
    K = sample_kernel(src, 5)
    assert np.abs(K.entries - 1.0).max() <= 1e-14


def test_constant_source_trivial():
    src = constant_source()
    assert np.array_equal(src(np.array([0.3, 0.9])), np.ones((2, 2)))


def test_cosine_source_values_and_range():
    src = cosine_source(0.5)
    K = src(np.array([0.0, 1.0]))
    assert K[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert K[0, 1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        cosine_source(-0.1)
    with pytest.raises(ValueError):
        cosine_source(1.0)


def test_tabulated_source_interpolates():
    table = np.array([[1.0, 2.0], [2.0, 3.0]])
    src = tabulated_source(table)
    K = src(np.array([0.0, 0.5, 1.0]))
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
    K = tabulated_source(table)(np.array([0.0, 1.0]))
    assert K[0, 1] == K[1, 0] == 1.0 + 1e-13  # rho(min, max) on both sides
