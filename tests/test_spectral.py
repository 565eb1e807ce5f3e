import dataclasses
import math

import numpy as np
import pytest

from permlim import (RefinementWarning, SpectralGapError, SpectralGapWarning,
                     balance_fixed_point, bn_matrix, bridge_source,
                     centered_nystrom, compute_Dn, cosine_source,
                     eigen_symmetric, fredholm_limit, gamma0,
                     mccullagh_estimate, quadratic_cost, sample_kernel,
                     solve_potential, tabulated_source)


def _continuum_reference(beta, m=64):
    """gamma0 and the Fredholm limit of the cost beta (x - y)^2 by an
    independent Gauss-Legendre Nystrom iteration (numpy's leggauss rule)."""
    x, w = np.polynomial.legendre.leggauss(m)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    C = beta * (x[:, None] - x[None, :]) ** 2
    a = np.zeros(m)
    for _ in range(2000):
        t = np.log(np.exp(-C) @ (w * np.exp(-a)))
        if float(np.abs(np.expm1(t - a)).max()) <= 2e-16:
            break
        a = 0.5 * (a + t)  # damping 1/2 removes the gauge oscillation a -> t
    else:
        raise RuntimeError(f"reference potential did not converge (beta={beta})")
    sw = np.sqrt(w)
    S = sw[:, None] * np.expm1(-C - a[:, None] - a[None, :]) * sw[None, :]
    lam = np.linalg.eigvalsh(S)
    return (-2.0 * math.fsum(w * a),
            math.exp(-0.5 * math.fsum(np.log1p(-lam * lam))))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_gamma0_and_limit_match_continuum_reference(beta):
    g_ref, limit_ref = _continuum_reference(beta)
    sol = solve_potential(quadratic_cost(beta), m=64)
    report = fredholm_limit(bridge_source(sol), 64)
    assert gamma0(sol) == pytest.approx(g_ref, abs=1e-13)
    assert report.fredholm_limit == pytest.approx(limit_ref, rel=1e-12)
    assert report.converged and report.refinement_gap <= 1e-12


def test_eigen_symmetric_basics():
    np.testing.assert_allclose(eigen_symmetric(np.eye(3)), np.ones(3),
                               atol=1e-12)
    np.testing.assert_allclose(eigen_symmetric([[0.0, 1.0], [1.0, 0.0]]),
                               [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(eigen_symmetric(np.full((4, 4), 0.25)),
                               [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_eigen_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetry"):
        eigen_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_bn_constant_kernel_is_zero(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 5))
    assert np.abs(bn_matrix(res)).max() == 0.0


def test_bn_row_sums_vanish(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 2))
    B = bn_matrix(res)
    assert np.abs(B.sum(axis=1)).max() <= 1e-12


def test_bn_shifts_only_trivial_eigenvalue(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 12))
    A = res.balanced / res.n
    eig_A = eigen_symmetric(A)
    eig_B = eigen_symmetric(bn_matrix(res))
    # drop A's eigenvalue 1 and one zero of B; the rest must coincide
    rest_A = np.sort(eig_A)[:-1]
    eig_B_sorted = np.sort(eig_B)
    zero_idx = int(np.argmin(np.abs(eig_B_sorted)))
    rest_B = np.delete(eig_B_sorted, zero_idx)
    np.testing.assert_allclose(np.sort(rest_A), np.sort(rest_B), atol=1e-10)


def test_bn_rejects_unbalanced_input(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 8))
    fake = dataclasses.replace(res, balanced=res.balanced + 0.05)
    with pytest.raises(ValueError, match="annihilate"):
        bn_matrix(fake)


def test_mccullagh_uniform_matrix_is_exact():
    assert mccullagh_estimate(np.full((6, 6), 1.0 / 6.0)) == pytest.approx(
        1.0, abs=1e-12)


def test_mccullagh_identity_matrix_fails_gap():
    with pytest.raises(SpectralGapError):
        mccullagh_estimate(np.eye(2))


def test_mccullagh_requires_doubly_stochastic():
    with pytest.raises(ValueError, match="doubly stochastic"):
        mccullagh_estimate(np.array([[0.9, 0.2], [0.2, 0.9]]))
    cyclic = np.roll(np.eye(5), 1, axis=1)
    with pytest.raises(ValueError, match="asymmetry"):
        mccullagh_estimate(0.5 * (np.eye(5) + cyclic))


def test_mccullagh_rank_one_closed_form():
    # B = eps v v^T with v a unit vector orthogonal to the constants, so the
    # single nontrivial eigenvalue is eps and the estimate is (1-eps^2)^-1/2
    n, eps = 10, 0.5
    v = math.sqrt(2.0 / n) * np.cos(math.pi * (np.arange(1, n + 1) - 0.5) / n)
    A = np.full((n, n), 1.0 / n) + eps * np.outer(v, v)
    assert mccullagh_estimate(A) == pytest.approx(2.0 / math.sqrt(3.0),
                                                  rel=1e-14)


def test_mccullagh_matches_det_form_on_bridge_kernels():
    source = bridge_source(solve_potential(quadratic_cost(1.5), m=400))
    for n in (8, 12, 16, 22):
        A = balance_fixed_point(sample_kernel(source, n)).balanced / n
        J = np.full((n, n), 1.0 / n)
        sign, logdet = np.linalg.slogdet(np.eye(n) + J - A.T @ A)
        assert sign == 1.0
        assert mccullagh_estimate(A) == pytest.approx(math.exp(-0.5 * logdet),
                                                      rel=1e-12)


def test_mccullagh_improves_with_n(cosine_half):
    ratios = {}
    for n in (8, 16):
        res = balance_fixed_point(sample_kernel(cosine_half, n))
        mcc = mccullagh_estimate(res.balanced / n)
        ratios[n] = abs(mcc / compute_Dn(res.balanced).value - 1.0)
    assert ratios[16] < ratios[8]


def test_det_identity_symmetric_case(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 16))
    A = res.balanced / res.n
    n = res.n
    J = np.full((n, n), 1.0 / n)
    det_direct = np.linalg.det(np.eye(n) + J - A @ A)
    B = A - J
    det_b = np.linalg.det(np.eye(n) - B @ B)
    assert det_direct == pytest.approx(det_b, rel=1e-9)


def test_fredholm_constant_is_one(const_source):
    report = fredholm_limit(const_source, 64)
    assert report.fredholm_limit == pytest.approx(1.0, abs=1e-10)
    assert report.converged


def test_fredholm_cosine_matches_rank_one_value(cosine_half):
    report = fredholm_limit(cosine_half, 256)
    assert report.fredholm_limit == pytest.approx(2.0 / math.sqrt(3.0),
                                                  abs=1e-4)
    assert abs(report.lambda_star - 0.5) <= 1e-4


def test_fredholm_report_reconstructible(cosine_half):
    report = fredholm_limit(cosine_half, 64)
    assert report.fredholm_limit == report.det_I_minus_B2 ** -0.5
    lam = report.eigenvalues
    assert lam.size == 64
    recomputed = float(np.prod(1.0 - lam * lam))
    assert report.det_I_minus_B2 == pytest.approx(recomputed, rel=1e-10)
    assert report.lambda_star == np.abs(report.eigenvalues).max()


def test_fredholm_eigenvalue_at_or_above_one_fails():
    flat3 = tabulated_source(np.full((2, 2), 3.0))  # rho = 3, centered eig 2
    with pytest.raises(SpectralGapError):
        fredholm_limit(flat3, 32)


def test_fredholm_refinement_warning():
    rng = np.random.default_rng(11)
    T = rng.uniform(0.5, 1.5, (5, 5))
    src = tabulated_source(0.5 * (T + T.T))
    with pytest.warns(RefinementWarning):
        report = fredholm_limit(src, 32, refinement_tol=1e-14)
    assert not report.converged
    assert report.refinement_gap > 1e-14


def test_fredholm_argument_checks(const_source):
    with pytest.raises(ValueError):
        fredholm_limit(const_source, 16)


def test_spectral_gap_values(const_source, cosine_half):
    assert fredholm_limit(const_source, 64).lambda_star == pytest.approx(
        0.0, abs=1e-12)
    assert fredholm_limit(cosine_half, 256).lambda_star == pytest.approx(
        0.5, abs=1e-4)


def test_spectral_gap_warning_near_one():
    with pytest.warns(SpectralGapWarning):
        fredholm_limit(cosine_source(0.999), 128)


def test_finite_spectrum_tracks_nystrom(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 400))
    eig_B = eigen_symmetric(bn_matrix(res))
    top_B = np.sort(np.abs(eig_B))[-3:]
    eig_C = np.linalg.eigvalsh(centered_nystrom(cosine_half, 400))
    top_C = np.sort(np.abs(eig_C))[-3:]
    assert np.abs(top_B - top_C).max() <= 5e-3
