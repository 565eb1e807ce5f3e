import functools
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import permlim
import permlim.balance as balance_module
from permlim import (BalanceError, BalanceResult, KernelMatrix,
                     SingularSystemError, balance_fixed_point, bridge_source,
                     compute_Dn, cosine_source, norm_2n, quadratic_cost,
                     sample_kernel, solve_potential)
from permlim.bridge import _BLOCK, max_asymmetry
from test_grid import _NON_FINITE, _planted

COS2_U = np.array([math.sqrt(4.0 - 2.0 * math.sqrt(2.0)),
                   math.sqrt(2.0 - math.sqrt(2.0))])


def _kernel(M) -> KernelMatrix:
    """The symmetric array M, n <= _BLOCK, as the KernelMatrix that
    balancing takes: a source whose one block row is M, sampled on the
    grid of its size."""
    M = np.asarray(M, dtype=float)
    assert len(M) <= _BLOCK
    return permlim.DensitySource(lambda x, y: M)(permlim.grid_nodes(len(M)))


def _identity_residual(K, u) -> float:
    """max_i |u_i (K u)_i / n - 1| in long double, after asserting u > 0.

    A positive kernel has exactly one positive scaling u with
    u * (K u) / n = 1, so a small value identifies the answer.
    """
    assert u.min() > 0.0
    K, u = K.astype(np.longdouble), u.astype(np.longdouble)
    return float(np.abs(u * (K @ u) / len(u) - 1).max())


def test_constant_kernel_fixed_point(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 6))
    assert np.abs(res.h).max() == 0.0
    assert res.iterations == 1
    assert np.array_equal(res.balanced, np.ones((6, 6)))


def test_cosine_n2_closed_form(cosine_half):
    K = sample_kernel(cosine_half, 2)
    res = balance_fixed_point(K, tol=1e-13)
    assert np.abs(res.u - COS2_U).max() <= 1e-11
    # measured 3.4e-16 for the closed form and 4.0e-14 for the solver's u
    assert _identity_residual(K.entries, COS2_U) <= 1e-13
    assert _identity_residual(K.entries, res.u) <= 1e-13


def test_balanced_matrix_recomputable(cosine_half):
    K = sample_kernel(cosine_half, 8)
    res = balance_fixed_point(K)
    np.testing.assert_allclose(res.balanced,
                               np.outer(res.u, res.u) * K.entries, rtol=0)
    assert np.array_equal(res.balanced, res.balanced.T)
    assert res.u.min() > 0


def test_fixed_point_equation_residual(cosine_half):
    K = sample_kernel(cosine_half, 16)
    res = balance_fixed_point(K, tol=1e-12)
    n = np.asarray(K).shape[0]
    R = K.entries / n
    h = res.h
    F = h + R @ h + (R.sum(axis=1) - 1.0) + h * (R.sum(axis=1) - 1.0) + h * (R @ h)
    assert norm_2n(F) <= 1e-12
    rows = res.balanced.sum(axis=1) / n
    assert np.abs(rows - 1.0).max() <= 1e-11


# measured with tol 1e-12: 2.3e-16 here
def test_scaling_identity_cosine_n50(cosine_half):
    K = sample_kernel(cosine_half, 50)
    res = balance_fixed_point(K, tol=1e-12)
    assert _identity_residual(K.entries, res.u) <= 1e-11


# The sup-norm stopping rule bounds this defect by tol; on the three m = 400
# kernels a 2-norm rule at the same tol leaves 2.4e-12 to 2.7e-12.
@pytest.mark.parametrize("beta,m,n", [
    (1.0, 256, 100), (1.0, 400, 16), (1.5, 400, 22), (2.0, 400, 16)])
def test_scaling_identity_bridge(beta, m, n):
    solution = solve_potential(quadratic_cost(beta), m=m, tol=1e-12)
    K = sample_kernel(bridge_source(solution), n)
    res = balance_fixed_point(K, tol=1e-12)
    assert _identity_residual(K.entries, res.u) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than double here")
def test_prod_u_sq_is_rounded_once(quad_source):
    # a double product of the 2n factors was 3.2e-15 off at n = 800
    res = balance_fixed_point(sample_kernel(quad_source, 800))
    exact = math.prod(Fraction(float(v)) ** 2 for v in res.u)
    assert abs(Fraction(res.prod_u_sq) / exact - 1) <= 2.0**-53


def test_diagnostics_zero_perturbation(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 4))
    assert (res.norm_2n_h, res.norm_inf_h, res.sum_log, res.m_n) == (0, 0, 0, 0)
    assert res.prod_u_sq == 1.0


def test_diagnostics_two_point_example():
    h = np.array([0.1, -0.1])
    u = 1.0 + h
    res = BalanceResult(2, h, u, _kernel(np.outer(u, u)), 1, 0.0)
    assert res.m_n == 0.0
    assert res.sum_log == pytest.approx(math.log(1.1) + math.log(0.9), abs=1e-15)
    assert res.prod_u_sq == pytest.approx(0.9801, abs=1e-15)
    assert res.prod_u_sq == pytest.approx(math.exp(2.0 * res.sum_log), rel=1e-12)


def test_diagnostics_invariant_on_solved_instance(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 12))
    assert res.prod_u_sq == pytest.approx(math.exp(2.0 * res.sum_log), rel=1e-12)
    assert res.norm_2n_h <= res.norm_inf_h


def test_cosine_mean_defect_rate(cosine_half):
    scaled = {}
    for n in (100, 400):
        res = balance_fixed_point(sample_kernel(cosine_half, n))
        scaled[n] = n * n * abs(res.m_n)
    assert max(scaled.values()) / min(scaled.values()) <= 8.0


def test_ball_abort_far_from_doubly_stochastic():
    with pytest.raises(BalanceError, match="ball"):
        balance_fixed_point(_kernel(10.0 * np.ones((4, 4))))


def test_singular_system_detected():
    K = np.array([[0.0, 2.0], [2.0, 0.0]])  # I + K/2 has eigenvalue 0
    with pytest.raises(SingularSystemError):
        balance_fixed_point(_kernel(K))


@pytest.mark.parametrize("K", [
    np.array([[2.0, 4.0], [4.0, 2.0]]),
    np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((2, 2))),
    np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((50, 50))),
], ids=["2x2", "kron-m2", "kron-m50"])
def test_singular_system_on_positive_kernels(K):
    # I + K/n has eigenvalue 0 although every entry of K is positive
    with pytest.raises(SingularSystemError, match="numerically singular"):
        balance_fixed_point(_kernel(K))


def test_positive_definite_block_kernel_balances():
    # lambda_min(I + K/n) = 1/3: small, but the fixed point is well posed
    K = np.kron([[1.0, 3.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
                np.ones((30, 30)))
    res = balance_fixed_point(_kernel(K))
    assert np.abs(res.balanced.sum(axis=1) / len(K) - 1.0).max() <= 1e-11


@functools.lru_cache(maxsize=None)
def _bridge(beta):
    return bridge_source(solve_potential(quadratic_cost(beta), m=400))


def _bound(K):
    """The bound L <= lambda_min(I + K/n) that balancing computes, and the
    margin it must reach to skip the conjugate-gradient probe."""
    _, bound, margin = balance_module._prepare(K)
    return bound, margin


def _lambda_min(K):
    K = np.asarray(K)
    return float(np.linalg.eigvalsh(np.eye(len(K)) + K / len(K))[0])


# L measured 0.79, 0.59, 0.27 and -0.42 at n = 8; lambda_min is 1.000-1.001
@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 16.0])
def test_certificate_bound_below_lambda_min_on_bridge(beta, n):
    K = sample_kernel(_bridge(beta), n)
    assert _bound(K)[0] <= _lambda_min(K)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(1e-3, 10.0))))
def test_certificate_bound_below_lambda_min_on_positive_arrays(A):
    K = np.triu(A) + np.triu(A, 1).T
    bound, _ = _bound(_kernel(K))
    scale = 1.0 + K.sum(axis=1).max() / len(K)  # eigvalsh rounds relative to it
    assert bound <= _lambda_min(K) + 1e-13 * scale


@pytest.mark.parametrize("K,bound", [
    (np.array([[0.0, 2.0], [2.0, 0.0]]), 0.0),
    (np.array([[2.0, 4.0], [4.0, 2.0]]), 0.0),
    (np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((2, 2))), 0.0),
    (np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((50, 50))), 0.0),
    (np.kron([[1.0, 3.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
             np.ones((30, 30))), 1.0 / 3.0),
], ids=["anti-diagonal", "2x2", "kron-m2", "kron-m50", "block"])
def test_certificate_bound_is_tight(K, bound):
    # the singular kernels above and the block kernel, whose lambda_min is
    # 1/3: the bound equals lambda_min on each
    assert _bound(_kernel(K))[0] == pytest.approx(bound, rel=0, abs=1e-15)
    assert _lambda_min(K) == pytest.approx(bound, rel=0, abs=1e-14)


@pytest.mark.parametrize("beta,n,probed", [(1.0, 200, False), (16.0, 8, True)])
def test_probe_runs_only_where_the_bound_falls_short(monkeypatch, beta, n,
                                                     probed):
    calls = []
    probe = balance_module._check_invertible
    monkeypatch.setattr(balance_module, "_check_invertible",
                        lambda K: calls.append(K) or probe(K))
    K = sample_kernel(_bridge(beta), n)
    bound, margin = _bound(K)
    res = balance_fixed_point(K)  # the probe, when it runs, passes
    assert (bound < margin) == probed
    assert len(calls) == int(probed)
    assert res.residual <= 1e-12


# eps <= 0.25 keeps norm_2n(h) below 0.22 for every sign pattern tried;
# at eps = 0.5 a dominant row already leaves the ball of radius 0.5 at n = 40
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))),
    st.floats(0.0, 0.25))
def test_fixed_point_properties_near_constant(A, eps):
    n = A.shape[0]
    K = 1.0 + eps * (np.triu(A) + np.triu(A, 1).T)
    res = balance_fixed_point(_kernel(K), tol=1e-12)
    assert _identity_residual(K, res.u) <= 1e-11  # worst example 2.7e-12
    assert np.abs(res.balanced.sum(axis=1) / n - 1.0).max() <= 1e-11
    assert np.array_equal(res.balanced, res.balanced.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        st.permutations(range(n)))),
    st.floats(0.0, 0.25))
def test_balanced_matrix_identities(A_perm, eps):
    # balanced is formed on demand from u and the kernel; it must carry the
    # permanent identity and follow a relabelling of the nodes
    A, perm = A_perm
    perm = np.array(perm, dtype=int)
    K = 1.0 + eps * (np.triu(A) + np.triu(A, 1).T)
    res = balance_fixed_point(_kernel(K), tol=1e-12)
    assert compute_Dn(res.balanced).value == pytest.approx(
        compute_Dn(K).value * float(np.prod(res.u * res.u)), rel=1e-13, abs=0)
    moved = balance_fixed_point(_kernel(K[np.ix_(perm, perm)]), tol=1e-12)
    assert np.abs(moved.u - res.u[perm]).max() <= 1e-13
    assert np.abs(moved.balanced - res.balanced[np.ix_(perm, perm)]).max() \
        <= 1e-13


def test_sample_and_balance_hold_one_kernel_plus_blocks(quad_source):
    # One n x n kernel (8 MiB) plus block rows: the blocked sampler and the
    # copy-free balancer peak at 10.0 MiB here, whole-grid sampling with a
    # copied K / n and an eager balanced matrix at 24.1 MiB.
    n = 1024
    tracemalloc.start()
    try:
        K = sample_kernel(quad_source, n)
        balance_fixed_point(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K.entries.nbytes + 4 * _BLOCK * n * 8


def test_import_loads_no_scipy(source_env):
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permlim; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=source_env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_balance_study_loads_no_numpy_random(tmp_path, source_env):
    # the invertibility check's start vector is a fixed hash, so a
    # balance-study process never pays for importing numpy.random
    cfg = tmp_path / "study.ini"
    cfg.write_text("[cost]\nfamily = quadratic\n\n[study]\nn_list = 8 200\n\n"
                   f"[output]\ncsv_path = {tmp_path / 'bal.csv'}\n")
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from permlim.cli import main; "
         f"code = main(['balance-study', '--config', {str(cfg)!r}]); "
         "print(code, 'numpy.random' in sys.modules, file=sys.stderr)"],
        env=source_env, capture_output=True, text=True, check=True).stderr
    assert out.strip() == "0 False"


def test_zero_row_rejected():
    K = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(BalanceError, match="zero row"):
        balance_fixed_point(_kernel(K))


@pytest.mark.parametrize("K", [
    np.ones((2, 2)), np.array([[1.0, 2.0], [1.0, 1.0]]), np.ones((3, 4)),
    [[1.0, 1.0], [1.0, 1.0]]], ids=["symmetric", "asymmetric", "3x4", "list"])
def test_only_a_kernel_matrix_is_balanced(K):
    # a kernel is sampled from a density source; an array, symmetric or
    # not, square or not, is turned away before any other check
    with pytest.raises(TypeError, match="^balance_fixed_point takes a "
                       "sampled KernelMatrix; sample the density with "
                       "sample_kernel$"):
        balance_fixed_point(K)


def test_asymmetric_and_negative_rejected():
    # an asymmetric array is turned away by its type; a negative kernel by
    # the range its fill recorded
    with pytest.raises(TypeError, match="sampled KernelMatrix"):
        balance_fixed_point(np.array([[1.0, 2.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="kernel entries must be nonnegative"):
        balance_fixed_point(_kernel([[1.0, -0.5], [-0.5, 1.0]]))


@pytest.mark.parametrize("kind", ["KernelMatrix"])
def test_asymmetric_kernel_rejected_unless_sampled(kind):
    # a KernelMatrix is symmetric by its storage and is checked by the
    # range its fill recorded; arrays are refused by
    # test_only_a_kernel_matrix_is_balanced
    # rho = 1 + 1.8 cos(pi x) cos(pi y) is negative near two corners
    negative = cosine_source(0.9)(permlim.grid_nodes(300))
    assert type(negative).__name__ == kind
    assert negative.value_range[0] < 0.0
    with pytest.raises(ValueError, match="kernel entries must be nonnegative"):
        balance_fixed_point(negative)


@pytest.mark.parametrize("pair", _NON_FINITE.values(), ids=_NON_FINITE)
def test_non_finite_rejected(pair):
    # by the range the fill recorded
    with pytest.raises(ValueError,
                       match="^kernel contains non-finite entries$"):
        balance_fixed_point(_kernel(_planted(pair)))


def test_near_overflow_kernel_passes_the_finiteness_check():
    # finite entries whose row sums overflow reach the later checks
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="nonnegative"):
        balance_fixed_point(_kernel(_planted((-1.0, 1e308), 1e308)))


def test_overflowing_row_sums_rejected_before_iterating():
    # every entry is finite, every row sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^kernel row sums overflow"):
            balance_fixed_point(_kernel(np.full((4, 4), 1e308)))


def test_sampled_kernel_balanced_from_its_stored_triangle(quad_source,
                                                         monkeypatch):
    # balancing multiplies by the stored block rows, never reading the full
    # matrix, which would expand it
    def no_expansion(K):
        raise AssertionError("sampled kernel expanded")

    monkeypatch.setattr(KernelMatrix, "entries", property(no_expansion))
    n = 300
    res = balance_fixed_point(sample_kernel(quad_source, n), tol=1e-12)
    monkeypatch.undo()
    full = np.asarray(quad_source(permlim.grid_nodes(n)))
    assert _identity_residual(full, res.u) <= 1e-12
    assert np.array_equal(res.balanced, full * np.outer(res.u, res.u))


@pytest.mark.parametrize("i,j", [(5, _BLOCK + 7), (299, 297)],
                         ids=["off-diagonal tile", "trailing partial tile"])
def test_asymmetry_found_in_any_tile(i, j):
    # max_asymmetry, which tabulated_source and mccullagh_estimate use,
    # reads every tile of the upper triangle against its mirror
    K = np.ones((300, 300))
    K[i, j] += 2e-12
    assert max_asymmetry(K) == (1.0 + 2e-12) - 1.0
    K[i, j], K[j, i] = 2e-12, 1e-12
    assert max_asymmetry(K) == 2e-12 - 1e-12
    assert max_asymmetry(K.T) == max_asymmetry(K)


def test_nonconvergence_reports_iterations(cosine_half):
    K = sample_kernel(cosine_half, 8)
    with pytest.raises(BalanceError) as exc_info:
        balance_fixed_point(K, tol=1e-12, max_iter=1)
    assert exc_info.value.iterations == 1


def test_argument_checks(cosine_half):
    K = sample_kernel(cosine_half, 4)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            balance_fixed_point(K, tol=tol)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        balance_fixed_point(K, max_iter=0)
