import math
import os
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
from permlim import (BalanceError, BalanceResult, SingularSystemError,
                     balance_fixed_point, compute_Dn, norm_2n, sample_kernel)
from permlim.bridge import _BLOCK
from test_grid import _NON_FINITE, _planted

COS2_U = np.array([math.sqrt(4.0 - 2.0 * math.sqrt(2.0)),
                   math.sqrt(2.0 - math.sqrt(2.0))])


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


# measured with tol 1e-12: 1.4e-12 here and 6.3e-13 on the bridge kernel
def test_scaling_identity_cosine_n50(cosine_half):
    K = sample_kernel(cosine_half, 50)
    res = balance_fixed_point(K, tol=1e-12)
    assert _identity_residual(K.entries, res.u) <= 1e-11


def test_scaling_identity_bridge_n100(quad_source):
    K = sample_kernel(quad_source, 100)
    res = balance_fixed_point(K, tol=1e-12)
    assert _identity_residual(K.entries, res.u) <= 1e-11


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
    res = BalanceResult(2, h, u, np.outer(u, u), 1, 0.0)
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
        balance_fixed_point(10.0 * np.ones((4, 4)))


def test_singular_system_detected():
    K = np.array([[0.0, 2.0], [2.0, 0.0]])  # I + K/2 has eigenvalue 0
    with pytest.raises(SingularSystemError):
        balance_fixed_point(K)


@pytest.mark.parametrize("K", [
    np.array([[2.0, 4.0], [4.0, 2.0]]),
    np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((2, 2))),
    np.kron([[1.0, 3.0], [3.0, 1.0]], np.ones((50, 50))),
], ids=["2x2", "kron-m2", "kron-m50"])
def test_singular_system_on_positive_kernels(K):
    # I + K/n has eigenvalue 0 although every entry of K is positive
    with pytest.raises(SingularSystemError, match="numerically singular"):
        balance_fixed_point(K)


def test_positive_definite_block_kernel_balances():
    # lambda_min(I + K/n) = 1/3: small, but the fixed point is well posed
    K = np.kron([[1.0, 3.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
                np.ones((30, 30)))
    res = balance_fixed_point(K)
    assert np.abs(res.balanced.sum(axis=1) / len(K) - 1.0).max() <= 1e-11


# eps <= 0.25 keeps norm_2n(h) below 0.22 for every sign pattern tried;
# at eps = 0.5 a dominant row already leaves the ball of radius 0.5 at n = 40
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))),
    st.floats(0.0, 0.25))
def test_fixed_point_properties_near_constant(A, eps):
    n = A.shape[0]
    K = 1.0 + eps * (np.triu(A) + np.triu(A, 1).T)
    res = balance_fixed_point(K, tol=1e-12)
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
    res = balance_fixed_point(K, tol=1e-12)
    assert compute_Dn(res.balanced).value == pytest.approx(
        compute_Dn(K).value * float(np.prod(res.u * res.u)), rel=1e-13, abs=0)
    moved = balance_fixed_point(K[np.ix_(perm, perm)], tol=1e-12)
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


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(permlim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permlim; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_zero_row_rejected():
    K = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(BalanceError, match="zero row"):
        balance_fixed_point(K)


def test_asymmetric_and_negative_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        balance_fixed_point(np.array([[1.0, 2.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        balance_fixed_point(np.array([[1.0, -0.5], [-0.5, 1.0]]))


@pytest.mark.parametrize("pair", _NON_FINITE.values(), ids=_NON_FINITE)
def test_non_finite_rejected(pair):
    with pytest.raises(ValueError, match="^kernel contains non-finite entries$"):
        balance_fixed_point(_planted(pair))


def test_near_overflow_kernel_passes_the_finiteness_check():
    # finite entries whose row sums overflow reach the later checks
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="nonnegative"):
        balance_fixed_point(_planted((-1.0, 1e308), 1e308))


def test_overflowing_row_sums_rejected_before_iterating():
    # every entry is finite, every row sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^kernel row sums overflow"):
            balance_fixed_point(np.full((4, 4), 1e308))


@pytest.mark.parametrize("i,j", [(5, _BLOCK + 7), (299, 297)],
                         ids=["off-diagonal tile", "trailing partial tile"])
def test_asymmetry_found_in_any_tile(i, j):
    K = np.ones((300, 300))
    K[i, j] += 2e-12
    with pytest.raises(ValueError, match="symmetric"):
        balance_fixed_point(K)
    K[i, j], K[j, i] = 2e-12, 1e-12  # differ by exactly the tolerance
    res = balance_fixed_point(K)
    assert np.abs(res.balanced.sum(axis=1) / 300 - 1.0).max() <= 1e-11


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
    with pytest.raises(ValueError, match="square"):
        balance_fixed_point(np.ones((3, 4)))
