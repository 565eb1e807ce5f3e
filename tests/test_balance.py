import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import permlim
from permlim import (BalanceError, BalanceResult, SingularSystemError,
                     balance_diagnostics, balance_fixed_point,
                     balance_symmetric_scaling, norm_2n, sample_kernel)

COS2_U = np.array([math.sqrt(4.0 - 2.0 * math.sqrt(2.0)),
                   math.sqrt(2.0 - math.sqrt(2.0))])


def test_constant_kernel_fixed_point(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 6))
    assert np.abs(res.h).max() == 0.0
    assert res.iterations == 1
    assert np.array_equal(res.balanced, np.ones((6, 6)))
    assert res.method == "fixed-point"


def test_constant_kernel_symmetric_scaling(const_source):
    res = balance_symmetric_scaling(sample_kernel(const_source, 6))
    assert np.abs(res.h).max() == 0.0
    assert res.iterations == 1
    assert res.method == "symmetric-scaling"


@pytest.mark.parametrize("solver", [balance_fixed_point,
                                    balance_symmetric_scaling])
def test_cosine_n2_closed_form(cosine_half, solver):
    res = solver(sample_kernel(cosine_half, 2), tol=1e-13)
    assert np.abs(res.u - COS2_U).max() <= 1e-11


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
    R = K.entries / K.n
    h = res.h
    F = h + R @ h + (R.sum(axis=1) - 1.0) + h * (R.sum(axis=1) - 1.0) + h * (R @ h)
    assert norm_2n(F) <= 1e-12
    rows = res.balanced.sum(axis=1) / K.n
    assert np.abs(rows - 1.0).max() <= 1e-11


def test_methods_agree_cosine_n50(cosine_half):
    K = sample_kernel(cosine_half, 50)
    fp = balance_fixed_point(K, tol=1e-12)
    ss = balance_symmetric_scaling(K, tol=1e-12)
    assert np.abs(fp.u - ss.u).max() <= 1e-8


def test_methods_agree_bridge_n100(quad_source):
    K = sample_kernel(quad_source, 100)
    fp = balance_fixed_point(K, tol=1e-12)
    ss = balance_symmetric_scaling(K, tol=1e-12)
    assert np.abs(fp.u - ss.u).max() <= 1e-8


def test_diagnostics_zero_perturbation(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 4))
    d = balance_diagnostics(res)
    assert (d.norm_2n_h, d.norm_inf_h, d.sum_log, d.m_n) == (0, 0, 0, 0)
    assert d.prod_u_sq == 1.0


def test_diagnostics_two_point_example():
    h = np.array([0.1, -0.1])
    u = 1.0 + h
    res = BalanceResult(2, h, u, np.outer(u, u), "fixed-point", 1, 0.0)
    d = balance_diagnostics(res)
    assert d.m_n == 0.0
    assert d.sum_log == pytest.approx(math.log(1.1) + math.log(0.9), abs=1e-15)
    assert d.prod_u_sq == pytest.approx(0.9801, abs=1e-15)
    assert d.prod_u_sq == pytest.approx(math.exp(2.0 * d.sum_log), rel=1e-12)


def test_diagnostics_invariant_on_solved_instance(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 12))
    d = balance_diagnostics(res)
    assert d.prod_u_sq == pytest.approx(math.exp(2.0 * d.sum_log), rel=1e-12)
    assert d.norm_2n_h <= d.norm_inf_h


def test_cosine_mean_defect_rate(cosine_half):
    scaled = {}
    for n in (100, 400):
        d = balance_diagnostics(
            balance_fixed_point(sample_kernel(cosine_half, n)))
        scaled[n] = n * n * abs(d.m_n)
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
    ref = balance_symmetric_scaling(K, tol=1e-12)
    assert np.abs(res.u - ref.u).max() <= 1e-8
    assert np.abs(res.balanced.sum(axis=1) / n - 1.0).max() <= 1e-11
    assert np.array_equal(res.balanced, res.balanced.T)


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
        with pytest.raises(ValueError, match="tol must be positive"):
            balance_symmetric_scaling(K, tol=tol)
    with pytest.raises(ValueError):
        balance_symmetric_scaling(K, max_iter=0)
