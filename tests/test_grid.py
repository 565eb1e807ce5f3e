import math

import numpy as np
import pytest

from permlim import (KernelMatrix, balance_fixed_point, bridge_source,
                     centered_nystrom, compute_Dn, constant_source,
                     cosine_source, evaluate_potential, gauss_legendre,
                     grid_nodes, load_matrix, norm_2n, norm_inf,
                     riemann_correction_check, sample_kernel, save_matrix,
                     tabulated_source)
from permlim.bridge import _BLOCK
from permlim.cost import bilinear_interpolant


def test_grid_nodes_right_endpoints():
    np.testing.assert_allclose(grid_nodes(4), [0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        grid_nodes(0)


def test_sample_constant_all_ones(const_source):
    K = sample_kernel(const_source, 3)
    assert np.array_equal(K.entries, np.ones((3, 3)))


def test_sample_cosine_n2(cosine_half):
    K = sample_kernel(cosine_half, 2)
    np.testing.assert_allclose(K.entries, [[1.0, 1.0], [1.0, 2.0]], atol=1e-15)


def test_sample_output_exactly_symmetric(quad_source):
    K = sample_kernel(quad_source, 37)
    assert np.array_equal(K.entries, K.entries.T)


TABLE = np.array([[1.0, 1.3, 0.9], [1.3, 1.1, 1.2], [0.9, 1.2, 0.8]])


def _rho_min_max(kind, t, solution):
    """rho(t_min(i,j), t_max(i,j)) from the elementwise formula of each kind."""
    i = np.arange(t.size)
    lo, hi = np.minimum(i[:, None], i), np.maximum(i[:, None], i)
    x, y = t[lo], t[hi]
    if kind == "bridge":
        a = evaluate_potential(solution, t)
        return np.exp(-solution.cost.evaluator(x, y) - a[lo] - a[hi])
    if kind == "cosine":
        return 1.0 + 2.0 * 0.3 * np.cos(math.pi * x) * np.cos(math.pi * y)
    if kind == "tabulated":
        return bilinear_interpolant(TABLE)[0](x, y)
    return np.ones_like(x)


def _full_grid(kind, t, solution):
    """The unblocked construction: rho on the whole tensor grid at once, then
    the upper triangle copied over the lower one row at a time."""
    x, y = t[:, None], t[None, :]
    if kind == "bridge":
        a = evaluate_potential(solution, t)
        rho = np.exp(-solution.cost.evaluator(x, y) - a[:, None] - a[None, :])
    elif kind == "cosine":
        c = np.cos(math.pi * t)
        rho = 1.0 + 2.0 * 0.3 * c[:, None] * c[None, :]
    elif kind == "tabulated":
        rho = bilinear_interpolant(TABLE)[0](x, y)
    else:
        rho = np.ones((t.size, t.size))
    for i in range(1, t.size):
        rho[i, :i] = rho[:i, i]
    return rho


@pytest.mark.parametrize("kind", ["bridge", "cosine", "tabulated", "constant"])
def test_sampled_matrices_are_rho_of_min_max_bit_for_bit(kind,
                                                         quad_solution_fine):
    # Both triangles hold rho(min, max) exactly, on the grid nodes and on the
    # Gauss-Legendre nodes of the Nystrom matrix. Unmirrored, the lower
    # triangle would differ in rounding for every kind but the constant (for
    # the cosine only with 2 eps != 1, hence 0.3). perfbench's balance
    # reference relies on this construction. The sizes put block edges of
    # the blocked sampler on every side of n.
    source = {"bridge": bridge_source(quad_solution_fine),
              "cosine": cosine_source(0.3),
              "tabulated": tabulated_source(TABLE),
              "constant": constant_source()}[kind]
    for n in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 37):
        t = grid_nodes(n)
        K = sample_kernel(source, n).entries
        for ref in (_rho_min_max, _full_grid):
            assert np.array_equal(K, ref(kind, t, quad_solution_fine)), n
    for m in (64, 2 * _BLOCK + 3):
        z, w = gauss_legendre(m)
        s = np.sqrt(w)
        S = centered_nystrom(source, m)
        for ref in (_rho_min_max, _full_grid):
            rho = ref(kind, z, quad_solution_fine)
            assert np.array_equal(S, (rho - 1.0) * np.outer(s, s)), m


def test_sample_nonpositive_rejected():
    with pytest.raises(ValueError, match="strictly positive"):
        sample_kernel(cosine_source(0.999), 8)


_NON_FINITE = {"nan": (np.nan, 1.0), "+inf": (np.inf, 1.0),
               "-inf": (-np.inf, 1.0), "+inf and -inf": (np.inf, -np.inf)}


def _planted(pair, base=1.0):
    """A symmetric 4 x 4 matrix of base with pair[0] at (0, 3) and pair[1]
    at (0, 2), mirrored: row 0 holds both."""
    M = np.full((4, 4), base)
    M[0, 3] = M[3, 0] = pair[0]
    M[0, 2] = M[2, 0] = pair[1]
    return M


@pytest.mark.parametrize("pair", _NON_FINITE.values(), ids=_NON_FINITE)
def test_sample_non_finite_rejected(pair):
    with pytest.raises(ValueError, match="^density evaluates to non-finite"):
        sample_kernel(lambda t: _planted(pair), 4)


def test_sample_near_overflow_kernel_is_finite():
    # every row sum overflows, yet every entry is finite
    K = sample_kernel(lambda t: np.full((4, 4), 1e308), 4)
    assert np.all(K.entries == 1e308)
    with pytest.raises(ValueError, match="strictly positive"):
        sample_kernel(lambda t: _planted((0.0, 1e308), 1e308), 4)


def test_kernel_matrix_immutable(const_source):
    K = sample_kernel(const_source, 3)
    with pytest.raises(ValueError):
        K.entries[0, 0] = 2.0


def test_kernel_matrix_is_its_read_only_entries(tmp_path, cosine_half):
    K = sample_kernel(cosine_half, 9)
    entries = np.asarray(K)
    assert np.shares_memory(entries, K.entries)
    assert not entries.flags.writeable
    assert np.shares_memory(balance_fixed_point(K).kernel, K.entries)
    assert compute_Dn(K).value.hex() == compute_Dn(K.entries).value.hex()
    save_matrix(tmp_path / "kernel.txt", K)
    assert np.array_equal(load_matrix(tmp_path / "kernel.txt"), K.entries)
    copied = np.array(K, copy=True)
    assert copied.flags.writeable and not np.shares_memory(copied, K.entries)
    # numpy 1.x calls __array__ with no arguments.
    assert np.shares_memory(K.__array__(), K.entries)


def test_kernel_matrix_built_directly_is_float_and_read_only():
    source = np.array([[2, 1], [1, 2]])
    K = KernelMatrix(source)
    assert K.entries.dtype == float and np.asarray(K).shape[0] == 2
    assert not np.asarray(K).flags.writeable
    floats = source.astype(float)
    assert np.shares_memory(KernelMatrix(floats).entries, floats)
    assert floats.flags.writeable  # the caller's array is left writable


def _row_defect(K):
    """q_i = (1/n) sum_j K[i, j] - 1, the row-sum defect of K / n."""
    return K.entries.sum(axis=1) / np.asarray(K).shape[0] - 1.0


def test_row_defect_constant_zero(const_source):
    assert np.abs(_row_defect(sample_kernel(const_source, 6))).max() == 0.0


def test_row_defect_cosine_n2(cosine_half):
    q = _row_defect(sample_kernel(cosine_half, 2))
    np.testing.assert_allclose(q, [0.0, 0.5], atol=1e-15)
    assert np.mean(q) == pytest.approx(0.25, abs=1e-15)


def test_row_defect_scaling_bridge(quad_source):
    # for a doubly stochastic density the defect is pure discretisation
    # error: its sup norm decays like 1/n and its mean like 1/n^2
    sups = {}
    bars = {}
    for n in (100, 200, 400, 800):
        q = _row_defect(sample_kernel(quad_source, n))
        sups[n] = n * norm_inf(q)
        bars[n] = n * n * abs(np.mean(q))
    assert max(sups.values()) / min(sups.values()) <= 4.0
    assert max(bars.values()) / min(bars.values()) <= 8.0


def test_norms():
    v = np.array([3.0, -4.0])
    assert norm_inf(v) == 4.0
    assert norm_2n(v) == pytest.approx(math.sqrt(12.5), abs=1e-15)


def test_riemann_correction_square():
    # the reference integral 1/3 is passed in extended precision: a double
    # reference alone would shift the n=1000 scaled residual by ~2e-11
    third = np.longdouble(1.0) / np.longdouble(3.0)
    report = riemann_correction_check(lambda t: t * t, third, [10, 100, 1000])
    for scaled in report.scaled:
        assert scaled == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_riemann_correction_linear_exact():
    report = riemann_correction_check(lambda t: t, 0.5, [10, 50])
    assert max(report.residuals) <= 1e-15


def test_riemann_correction_cosine_bounded():
    # the leading correction terms cancel for this integrand, so the scaled
    # residual is tiny rather than order one; boundedness is all the rate
    # statement promises
    report = riemann_correction_check(lambda t: np.cos(np.pi * t), 0.0,
                                      [10, 20, 40, 80])
    assert max(report.scaled) <= 1e-10


def test_riemann_correction_argument_checks():
    with pytest.raises(ValueError):
        riemann_correction_check(lambda t: t, 0.5, [])
    with pytest.raises(ValueError):
        riemann_correction_check(lambda t: t, 0.5, [0, 4])


def test_matrix_file_roundtrip(tmp_path, cosine_half):
    K = sample_kernel(cosine_half, 5)
    path = tmp_path / "kernel.txt"
    save_matrix(path, K)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, K.entries)


def test_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        load_matrix(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_matrix(empty)
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.txt", np.ones((2, 3)))
