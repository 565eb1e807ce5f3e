import math
import sys

import numpy as np
import pytest

from permlim import (DensitySource, RefinementWarning, SpectralGapError,
                     SpectralGapWarning, absolute_cost, balance_fixed_point,
                     bridge_source, centered_nystrom, compute_Dn,
                     cosine_source, expression_cost, fredholm_limit, gamma0,
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


def _centered(res):
    """B = A - J for the balanced matrix A = balanced / n."""
    return res.balanced / res.n - 1.0 / res.n


def test_bn_constant_kernel_is_zero(const_source):
    res = balance_fixed_point(sample_kernel(const_source, 5))
    assert np.abs(_centered(res)).max() == 0.0


def test_bn_row_sums_vanish(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 2))
    B = _centered(res)
    assert np.abs(B.sum(axis=1)).max() <= 1e-12


def test_bn_shifts_only_trivial_eigenvalue(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 12))
    eig_A = np.linalg.eigvalsh(res.balanced / res.n)
    eig_B = np.linalg.eigvalsh(_centered(res))
    # drop A's eigenvalue 1 and one zero of B; the rest must coincide
    rest_A = np.sort(eig_A)[:-1]
    eig_B_sorted = np.sort(eig_B)
    zero_idx = int(np.argmin(np.abs(eig_B_sorted)))
    rest_B = np.delete(eig_B_sorted, zero_idx)
    np.testing.assert_allclose(np.sort(rest_A), np.sort(rest_B), atol=1e-10)


def test_bn_rejects_unbalanced_input(cosine_half):
    res = balance_fixed_point(sample_kernel(cosine_half, 8))
    with pytest.raises(ValueError, match="doubly stochastic"):
        mccullagh_estimate((res.balanced + 0.05) / res.n)


def test_mccullagh_uniform_matrix_is_exact():
    assert mccullagh_estimate(np.full((6, 6), 1.0 / 6.0)) == pytest.approx(
        1.0, abs=1e-12)


def test_mccullagh_identity_matrix_fails_gap():
    with pytest.raises(SpectralGapError):
        mccullagh_estimate(np.eye(2))


def test_mccullagh_requires_doubly_stochastic():
    with pytest.raises(ValueError, match="doubly stochastic"):
        mccullagh_estimate(np.array([[0.9, 0.2], [0.2, 0.9]]))
    for shape in ((2, 3), (4,)):
        with pytest.raises(ValueError, match="square"):
            mccullagh_estimate(np.full(shape, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mccullagh_rejects_non_finite(bad):
    A = np.full((3, 3), 1.0 / 3.0)
    A[0, 1] = A[1, 0] = bad  # symmetric, so only the sums can see it
    with pytest.raises(ValueError, match="doubly stochastic"):
        mccullagh_estimate(A)


def test_eigen_symmetric_rejects_asymmetry():
    # doubly stochastic but not symmetric
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
    lam = report.eigenvalues
    assert lam.size == 64
    recomputed = math.exp(-0.5 * math.fsum(np.log1p(-lam * lam)))
    assert report.fredholm_limit == recomputed
    assert report.fredholm_limit == pytest.approx(
        float(np.prod(1.0 - lam * lam)) ** -0.5, rel=1e-13)
    assert report.lambda_star == np.abs(report.eigenvalues).max()


def test_fredholm_eigenvalue_at_or_above_one_fails():
    flat3 = tabulated_source(np.full((2, 2), 3.0))  # rho = 3, centered eig 2
    with pytest.raises(SpectralGapError):
        fredholm_limit(flat3, 32)


@pytest.mark.filterwarnings("ignore::permlim.SmoothnessWarning")
def test_fredholm_refinement_warning():
    # the kink of beta |x - y| slows the Nystrom limit to algebraic
    # convergence: the m = 16 and m = 32 values differ by about 6e-3
    src = bridge_source(solve_potential(absolute_cost(3.0), m=64))
    with pytest.warns(RefinementWarning):
        report = fredholm_limit(src, 32)
    assert not report.converged
    assert report.refinement_gap > 1e-5


# err is the true relative error at m = 128 against m = 1024, gap the
# m // 2 = 64 check. Measured: quadratic both at most 2.2e-16;
# abs(x - y)**3, a C2 cost, converges as m^-4 and its gap/err ratio is
# 14.4-16.1 from m = 64 to 512; the kink of |x - y| gives m^-2 and a
# ratio of 2.9-4.0.
@pytest.mark.filterwarnings("ignore::permlim.SmoothnessWarning",
                            "ignore::permlim.RefinementWarning")
@pytest.mark.parametrize("cost, gate", [
    pytest.param(quadratic_cost(1.0), lambda gap, err: gap <= 1e-14,
                 id="quadratic"),
    pytest.param(expression_cost("abs(x - y)**3"),
                 lambda gap, err: err <= gap <= 20.0 * err, id="cubic"),
    pytest.param(absolute_cost(1.0), lambda gap, err: gap >= err > 0.0,
                 id="absolute"),
])
def test_fredholm_gap_bounds_error_against_large_m(cost, gate):
    src = bridge_source(solve_potential(cost))
    reference = fredholm_limit(src, 1024).fredholm_limit
    report = fredholm_limit(src, 128)
    err = abs(report.fredholm_limit / reference - 1.0)
    assert gate(report.refinement_gap, err), (report.refinement_gap, err)


@pytest.mark.parametrize("m", [32, 33, 128])
def test_fredholm_samples_at_m_and_half_m_only(quad_source, m):
    sizes = []

    def potential(t):  # called once per sampling of the source
        sizes.append(t.size)
        return quad_source.potential(t)

    fredholm_limit(DensitySource(quad_source.density, potential), m)
    assert sorted(sizes) == [m // 2, m]


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
    eig_B = np.linalg.eigvalsh(_centered(res))
    top_B = np.sort(np.abs(eig_B))[-3:]
    eig_C = np.linalg.eigvalsh(centered_nystrom(cosine_half, 400))
    top_C = np.sort(np.abs(eig_C))[-3:]
    assert np.abs(top_B - top_C).max() <= 5e-3


def _cosine_sum_source(eps, terms=150):
    """rho = 1 + 2 eps sum_{k <= terms} cos(k pi x) cos(k pi y): every
    nontrivial eigenvalue is eps, so the limit is (1 - eps^2)^(-terms/2)."""
    k = np.arange(1, terms + 1)

    def rho(x, y):
        cx = np.cos(math.pi * np.outer(x, k))
        cy = np.cos(math.pi * np.outer(y, k))
        return 1.0 + 2.0 * eps * (cx @ cy.T)

    return DensitySource(rho)


def test_fredholm_large_value_does_not_underflow():
    # the product of the factors 1 - eps^2 underflows to 0.0; the log-sum
    # gives (1 - eps^2)^(-75) ~ 2.749e202
    with pytest.warns(SpectralGapWarning), pytest.warns(RefinementWarning):
        report = fredholm_limit(_cosine_sum_source(0.999), 256)
    assert math.isfinite(report.fredholm_limit)
    assert report.fredholm_limit == pytest.approx((1.0 - 0.999**2) ** -75,
                                                  rel=1e-2)


def test_fredholm_aliased_check_level_is_infinite_gap():
    # 150 modes alias on the 128 nodes of the m // 2 level, to an
    # eigenvalue of modulus about 1.998: a gap error there, not at m
    with pytest.warns(SpectralGapWarning), \
            pytest.warns(RefinementWarning, match="moved by inf"):
        report = fredholm_limit(_cosine_sum_source(0.999), 256)
    assert report.refinement_gap == math.inf
    assert report.converged is False
    assert report.lambda_star == pytest.approx(0.999, abs=1e-6)


def test_fredholm_value_beyond_double_range_is_gap_error():
    # exponent -75 log(1 - eps^2) = 811.5 > log(DBL_MAX) = 709.78
    with pytest.raises(SpectralGapError, match="exceeds the double range") \
            as info:
        fredholm_limit(_cosine_sum_source(0.99999), 256)
    assert "\n" not in str(info.value)
    assert -75 * math.log1p(-0.99999**2) > math.log(sys.float_info.max)


def test_fredholm_and_mccullagh_share_the_gap_margin():
    with pytest.raises(SpectralGapError):
        fredholm_limit(cosine_source(1.0 - 1e-9), 64)
    n, eps = 10, 1.0 - 1e-9
    v = math.sqrt(2.0 / n) * np.cos(math.pi * (np.arange(1, n + 1) - 0.5) / n)
    with pytest.raises(SpectralGapError):
        mccullagh_estimate(np.full((n, n), 1.0 / n) + eps * np.outer(v, v))
