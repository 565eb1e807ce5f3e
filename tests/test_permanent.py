import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import permlim.permanent as permanent_module
from permlim import (CapExceededError, KernelBuildError, RunConfig,
                     RuntimeBudgetWarning, balance_fixed_point, bridge_source,
                     compute_Dn, cosine_source, gamma0, grid_nodes,
                     load_config, permanent_brute, quadratic_cost,
                     run_converge, sample_kernel, solve_potential)
from permlim.cli import main
from oracles import _cosine_Dn, _exact_Dn, _rel_err

ORACLE_TOL = 1e-13  # relative, against the exact big-integer permanent


def _per(M, **kwargs):
    """per(M) as compute_Dn(M) * n!."""
    return compute_Dn(M, **kwargs).value * math.factorial(len(M))


def test_identity_and_ones():
    assert _per(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert _per(np.ones((3, 3))) == pytest.approx(6.0, abs=1e-12)
    assert permanent_brute(np.ones((4, 4))).value == pytest.approx(24.0, abs=1e-12)
    assert permanent_brute(np.eye(5)).value == pytest.approx(1.0, abs=1e-14)
    assert _per(np.zeros((3, 3))) == 0.0


def test_two_by_two():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _per(M) == pytest.approx(10.0, abs=1e-12)
    assert permanent_brute(M).value == pytest.approx(10.0, abs=1e-12)


def test_random_matrices_match_exact_permanent():
    rng = np.random.default_rng(2024)
    for n in range(3, 9):
        for _ in range(5):
            M = rng.uniform(0.0, 2.0, (n, n))
            assert _rel_err(compute_Dn(M).value, _exact_Dn(M)) <= 1e-12


def test_dominant_row_keeps_digits():
    # unscaled, Glynn's signed terms cancel to a relative error of ~1e4 here
    M = np.random.default_rng(5).uniform(0.1, 2.0, (8, 8))
    M[3] *= 1e4
    assert _rel_err(compute_Dn(M).value, _exact_Dn(M)) <= 1e-14


def test_row_scaling_multilinearity():
    rng = np.random.default_rng(99)
    for n in (3, 5, 7):
        M = rng.uniform(0.0, 2.0, (n, n))
        d1 = rng.uniform(0.5, 1.5, n)
        d2 = rng.uniform(0.5, 1.5, n)
        scaled = _per(np.diag(d1) @ M @ np.diag(d2))
        expected = _per(M) * np.prod(d1) * np.prod(d2)
        assert scaled == pytest.approx(expected, rel=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    M = rng.uniform(0.0, 2.0, (6, 6))
    base = _per(M)
    for _ in range(5):
        p = rng.permutation(6)
        assert _per(M[p][:, p]) == pytest.approx(base, rel=1e-12)


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)
_POSITIVE_SQUARE = st.integers(1, 10).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(0.1, 2.0)))


@_PROPERTY
@given(_POSITIVE_SQUARE, st.data())
def test_property_row_and_column_permutations(M, data):
    n = M.shape[0]
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(n)))
    assert _per(M[rows][:, cols]) == pytest.approx(_per(M), rel=1e-12)


@_PROPERTY
@given(_POSITIVE_SQUARE)
def test_property_transpose(M):
    assert _per(M.T) == pytest.approx(_per(M), rel=1e-12)


@_PROPERTY
@given(_POSITIVE_SQUARE, st.data(), st.floats(0.01, 100.0))
def test_property_row_scaling(M, data, c):
    k = data.draw(st.integers(0, M.shape[0] - 1))
    scaled = M.copy()
    scaled[k] *= c
    assert _per(scaled) == pytest.approx(c * _per(M), rel=1e-12)


@_PROPERTY
@given(_POSITIVE_SQUARE)
def test_property_Dn_is_normalised_permanent(M):
    pv = compute_Dn(M)
    err = _rel_err(pv.value, _exact_Dn(M))
    assert err <= 1e-12
    assert err <= pv.bound


def test_caps_and_validation():
    with pytest.raises(CapExceededError):
        compute_Dn(np.ones((5, 5)), cap=4)
    with pytest.raises(CapExceededError):
        permanent_brute(np.ones((10, 10)))
    # 2^63 terms overflow the loop's int64 index, whatever the cap says
    top = permanent_module.MAX_N
    assert top == 63
    with pytest.raises(CapExceededError, match=f"n={top + 1} exceeds {top}"):
        compute_Dn(np.ones((top + 1, top + 1)), cap=90)
    with pytest.raises(CapExceededError, match="permanent cap 26"):
        compute_Dn(np.ones((27, 27)))
    with pytest.raises(ValueError, match="non-finite"):
        compute_Dn(np.array([[1.0, np.nan], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        compute_Dn(np.ones((3, 3)), workers=0)
    for shape in ((3, 4), (3,), (0, 0)):
        with pytest.raises(ValueError, match="nonempty square"):
            compute_Dn(np.ones(shape))


def test_runtime_warning_threshold(monkeypatch):
    monkeypatch.setattr(permanent_module, "_WARN_ABOVE", 4)
    with pytest.warns(RuntimeBudgetWarning):
        compute_Dn(np.ones((5, 5)))


def test_worker_count_does_not_change_bits(cosine_half, monkeypatch):
    # n = 20 in the real granules of 2^18 terms (2 of them), and n = 12 in
    # granules of 2^7 (16); either way the thread pool runs for workers > 1
    for n, granule in ((20, permanent_module._GRANULE), (12, 1 << 7)):
        monkeypatch.setattr(permanent_module, "_GRANULE", granule)
        assert 1 << (n - 1) > granule
        K = sample_kernel(cosine_half, n)
        results = [compute_Dn(K, workers=w) for w in (1, 2, 5)]
        assert len({pv.value.hex() for pv in results}) == 1
        assert len({pv.bound.hex() for pv in results}) == 1


def test_compute_Dn_constant_is_one(const_source):
    for n in (1, 5, 12):
        pv = compute_Dn(sample_kernel(const_source, n))
        assert abs(pv.value - 1.0) <= 1e-11
        assert pv.n == n


def test_compute_Dn_small_cases(cosine_half):
    assert compute_Dn(sample_kernel(cosine_half, 1)).value == pytest.approx(
        2.0, abs=1e-14)  # the density at (1, 1)
    assert compute_Dn(sample_kernel(cosine_half, 2)).value == pytest.approx(
        1.5, abs=1e-14)


def test_normalized_mode_consistency(cosine_half):
    K = sample_kernel(cosine_half, 7)
    assert _rel_err(compute_Dn(K).value, _exact_Dn(K.entries)) <= 1e-10


def test_Dn_hat_equals_Dn_times_scaling(cosine_half):
    K = sample_kernel(cosine_half, 10)
    res = balance_fixed_point(K)
    Dn = compute_Dn(K).value
    Dh = compute_Dn(res.balanced).value
    prod_u_sq = float(np.prod(res.u * res.u))
    assert abs(Dh / (Dn * prod_u_sq) - 1.0) <= 1e-10


def test_Dn_hat_trivial_when_unperturbed(const_source):
    K = sample_kernel(const_source, 6)
    res = balance_fixed_point(K)
    assert compute_Dn(res.balanced).value == compute_Dn(K).value


def test_compute_Ln_values():
    """L_n = per(exp(-c(i/n, j/n)))/n!, the normalised partition function."""
    zero = quadratic_cost(0.0)
    for n in (1, 4):
        assert _Ln(zero, n) == pytest.approx(1.0, abs=1e-12)
    quad = quadratic_cost(1.0)
    assert _Ln(quad, 1) == pytest.approx(1.0, abs=1e-15)
    expected = (1.0 + math.exp(-0.5)) / 2.0
    assert _Ln(quad, 2) == pytest.approx(expected, abs=1e-14)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty private cache directory for the compiled Glynn kernel; the
    process-wide loader result is forgotten before and after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    permanent_module._compiled_kernel.cache_clear()
    yield tmp_path / "xdg" / "permlim"
    permanent_module._compiled_kernel.cache_clear()


@pytest.mark.parametrize("n", [12, 16])
def test_compute_Dn_matches_exact_permanent(n, cosine_half, quad_source):
    for source in (cosine_half, quad_source):
        K = sample_kernel(source, n)
        pv = compute_Dn(K)
        err = _rel_err(pv.value, _exact_Dn(K.entries))
        assert err <= ORACLE_TOL
        assert err <= pv.bound


@pytest.mark.parametrize("beta", [0.5, 2.0, 4.0, 16.0])
def test_bound_covers_exact_error_on_the_bridge(beta):
    # measured: errors 1e-17 to 1e-16, bounds 1.3e-16 to 6.2e-16
    source = bridge_source(solve_potential(quadratic_cost(beta), m=400))
    for n in (12, 16):
        K = sample_kernel(source, n)
        pv = compute_Dn(K)
        assert _rel_err(pv.value, _exact_Dn(K.entries)) <= pv.bound


def test_bound_covers_exact_error_when_column_sums_round():
    # An entry 2^-70 of its row's largest modulus puts the column sums off
    # the grid on which the double-double adds are exact, so the bound adds
    # its term for rounded column sums.
    rng = np.random.default_rng(3)
    for n in (6, 10, 14):
        M = rng.uniform(0.1, 2.0, (n, n))
        M[1, 2] = 2.0 ** -70
        pv = compute_Dn(M)
        assert _rel_err(pv.value, _exact_Dn(M)) <= pv.bound <= 1e-12


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_bound_at_the_cap_on_the_bridge(beta):
    # perfbench's beta range at n = 26: measured 1.7e-14 to 2.1e-14
    source = bridge_source(solve_potential(quadratic_cost(beta), m=400))
    assert compute_Dn(sample_kernel(source, 26), workers=2).bound <= 1e-13


# each n against the exact value; at n = 20 the sum spans two granules
@pytest.mark.parametrize("eps", [0.3, 0.45])
@pytest.mark.parametrize("n", [20, 22, 24, 26])
def test_compute_Dn_matches_rank_two_cosine(n, eps):
    if n == 20:
        assert 1 << (n - 1) > permanent_module._GRANULE
    exact = _cosine_Dn(n, eps)
    pv = compute_Dn(sample_kernel(cosine_source(eps), n), workers=2)
    err = abs(np.longdouble(pv.value) - exact) / exact
    assert err <= 1e-14
    assert err <= pv.bound  # measured: bounds 1.2e-15 to 1.6e-14


# each run of a fake compiler appends a line to its log, the file "$0.log"
_FAKE_COMPILERS = {
    "missing": None,
    "fails": "#!/bin/sh\necho run >> \"$0.log\"\nexit 1\n",
    "hangs": "#!/bin/sh\necho run >> \"$0.log\"\nexec sleep 30\n",
}


@pytest.mark.parametrize("failure", ["unwritable cache", "shared cache",
                                     "long double mismatch",
                                     *_FAKE_COMPILERS])
def test_failed_build_is_a_one_line_error(failure, kernel_cache, tmp_path,
                                          monkeypatch, capsys):
    if failure == "unwritable cache":  # XDG_CACHE_HOME is a regular file
        (tmp_path / "xdg").write_text("")
    elif failure == "shared cache":  # other users could plant a library
        kernel_cache.mkdir(parents=True)
        kernel_cache.chmod(0o777)
    elif failure == "long double mismatch":  # C and numpy disagree
        monkeypatch.setattr(permanent_module.ctypes, "sizeof", lambda t: 0)
    else:
        cc = tmp_path / "cc"
        if _FAKE_COMPILERS[failure] is not None:
            cc.write_text(_FAKE_COMPILERS[failure])
            cc.chmod(0o755)
        monkeypatch.setattr(permanent_module, "_COMPILER", str(cc))
        monkeypatch.setattr(permanent_module, "_COMPILE_TIMEOUT_S", 0.5)
    with pytest.raises(KernelBuildError) as info:
        compute_Dn(np.ones((3, 3)))
    message = str(info.value)
    assert "\n" not in message
    assert repr(permanent_module._COMPILER) in message
    config = tmp_path / "c.ini"
    config.write_text("[kernel]\nkind = cosine\neps = 0.5\n[study]\n"
                      "n_list = 4\n[output]\n"
                      f"csv_path = {tmp_path / 'o.csv'}\n")
    capsys.readouterr()
    assert main(["converge", "--config", str(config)]) == 6
    assert capsys.readouterr().err == f"permlim: {message}\n"
    if kernel_cache.is_dir():  # a failed compile leaves no file behind
        assert list(kernel_cache.iterdir()) == []
    if _FAKE_COMPILERS.get(failure):  # the failure is kept for the process
        log = tmp_path / "cc.log"
        assert log.read_text() == "run\n"
        permanent_module._compiled_kernel.cache_clear()  # as in a new process
        with pytest.raises(KernelBuildError):
            compute_Dn(np.ones((3, 3)))
        assert log.read_text() == "run\nrun\n"


def test_studies_without_permanents_need_no_compiler(kernel_cache, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(permanent_module, "_COMPILER", str(tmp_path / "cc"))
    for subcommand, study in [
            ("validate-cost", ""), ("solve-bridge", ""),
            ("balance-study", "[study]\nn_list = 8 16\n")]:
        config = tmp_path / f"{subcommand}.ini"
        config.write_text(f"[cost]\nfamily = quadratic\n{study}[output]\n"
                          f"csv_path = {tmp_path / 'o.csv'}\n")
        assert main([subcommand, "--config", str(config)]) == 0
    assert permanent_module._compiled_kernel.cache_info().misses == 0


def test_compiled_kernel_is_cached_on_disk(kernel_cache, monkeypatch,
                                           cosine_half):
    if shutil.which(permanent_module._COMPILER) is None:
        pytest.skip("no C compiler")
    runs = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    K = sample_kernel(cosine_half, 12)
    first = compute_Dn(K).value
    assert len(runs) == 1
    assert kernel_cache.stat().st_mode & 0o777 == 0o700
    (library,) = kernel_cache.iterdir()
    permanent_module._compiled_kernel.cache_clear()  # as in a new process
    assert compute_Dn(K).value == first
    assert len(runs) == 1
    assert list(kernel_cache.iterdir()) == [library]


def test_corrupt_cached_library_is_rebuilt(kernel_cache, cosine_half):
    if shutil.which(permanent_module._COMPILER) is None:
        pytest.skip("no C compiler")
    library = permanent_module._library_path()
    with open(library, "wb") as fh:  # a load fails on the truncated file
        fh.write(b"\x7fELF\x02\x01\x01")
    K = sample_kernel(cosine_half, 12)
    assert _rel_err(compute_Dn(K).value, _exact_Dn(K.entries)) <= ORACLE_TOL
    assert os.path.getsize(library) > 7
    assert [str(p) for p in kernel_cache.iterdir()] == [library]


def test_foreign_cached_library_is_replaced(kernel_cache, cosine_half):
    # A library that loads but lacks glynn_chunk stays loaded under its name
    # in this process; the rebuilt file is loaded from its temporary name,
    # so this process computes the permanent, and later ones load the file.
    if shutil.which(permanent_module._COMPILER) is None:
        pytest.skip("no C compiler")
    library = permanent_module._library_path()
    subprocess.run([permanent_module._COMPILER, "-shared", "-fPIC", "-x", "c",
                    "-", "-o", library], input="int other(void) { return 0; }",
                   text=True, check=True, capture_output=True)
    K = sample_kernel(cosine_half, 12)
    assert _rel_err(compute_Dn(K).value, _exact_Dn(K.entries)) <= ORACLE_TOL
    assert [str(p) for p in kernel_cache.iterdir()] == [library]
    subprocess.run([sys.executable, "-c", "import ctypes, sys; "
                    "ctypes.CDLL(sys.argv[1]).glynn_chunk", library],
                   check=True)


def test_import_and_config_build_nothing(tmp_path, source_env):
    """Start-up stays free of the compile: it happens on the first permanent."""
    marker = tmp_path / "compiler-ran"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / permanent_module._COMPILER
    cc.write_text(f"#!/bin/sh\ntouch {marker}\nexit 1\n")
    cc.chmod(0o755)
    config = tmp_path / "c.ini"
    config.write_text("[cost]\nfamily = quadratic\n[study]\nn_list = 4 8\n")
    env = dict(source_env, XDG_CACHE_HOME=str(tmp_path / "xdg"),
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permlim; "
         "permlim.load_config(sys.argv[1]); "
         "print(permlim.permanent._compiled_kernel.cache_info().misses)",
         str(config)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"
    assert not marker.exists()
    assert not (tmp_path / "xdg").exists()


def test_import_and_config_load_no_deferred_modules(tmp_path, source_env):
    # each is imported where it is used: by a parallel permanent and by a
    # compile on a cache miss; statistics, which nothing imports, stays out
    config = tmp_path / "c.ini"
    config.write_text("[cost]\nfamily = quadratic\n[study]\nn_list = 4 8\n")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permlim; "
         "permlim.load_config(sys.argv[1]); print(sorted(m for m in "
         "('concurrent.futures', 'statistics', 'subprocess') "
         "if m in sys.modules))", str(config)],
        env=source_env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_converge_derived_columns_match_exact_permanents(tmp_path, quad_cost):
    n = 12
    cfg = RunConfig(cost=quad_cost, n_list=(n,), nystrom_m=64,
                    csv_path=str(tmp_path / "row.csv"))
    (row,) = run_converge(cfg)
    solution = solve_potential(quad_cost, m=cfg.bridge_m, tol=cfg.bridge_tol)
    res = balance_fixed_point(sample_kernel(bridge_source(solution), n),
                              tol=cfg.balance_tol)
    t = grid_nodes(n)
    raw = np.exp(-quad_cost(t[:, None], t[None, :]))
    assert _rel_err(row.D_n_hat, _exact_Dn(res.balanced)) <= ORACLE_TOL
    Ln = row.L_n_scaled / math.exp(n * gamma0(solution))
    assert _rel_err(Ln, _exact_Dn(raw)) <= ORACLE_TOL


def _Ln(cost, n):
    t = grid_nodes(n)
    return compute_Dn(np.exp(-cost(t[:, None], t[None, :]))).value


def test_cosine_oracle_matches_exact_permanent():
    for eps in (0.3, 0.45):
        for n in range(1, 13):
            K = sample_kernel(cosine_source(eps), n)
            assert _rel_err(float(_cosine_Dn(n, eps)),
                            _exact_Dn(K.entries)) <= 1e-14


@pytest.mark.parametrize("eps", [0.3, 0.45])
def test_closed_form_cost_through_the_whole_chain(eps, tmp_path):
    # c = log(1 + 2 eps) - log(1 + 2 eps cos(pi x) cos(pi y)) has the
    # constant potential a* = -log(1 + 2 eps) / 2, since the integral of
    # cos(pi y) is 0, so gamma0 = log(1 + 2 eps), the sampled kernel is the
    # rank-two cosine kernel, L_n_scaled = D_n, and the limit is
    # (1 - eps^2)^(-1/2). The solve reaches a residual of about 1.5e-15 in
    # two products here, so tol = 1e-14 bounds the potential's error delta
    # on the nodes, and so the spread of a and the gamma0 error 2|mean delta|.
    tol = 1e-14
    path = tmp_path / "c.ini"
    path.write_text(f"""
[cost]
family = custom-expression
expression = log(1 + 2*{eps}) - log(1 + 2*{eps}*cos(pi*x)*cos(pi*y))

[bridge]
tol = {tol}

[study]
n_list = 20 22 24 26
workers = 2

[output]
csv_path = {tmp_path / "o.csv"}
""")
    cfg = load_config(str(path))
    records = run_converge(cfg)
    a = solve_potential(cfg.cost, m=cfg.bridge_m, tol=cfg.bridge_tol)
    assert np.ptp(a.a_values) <= tol  # measured 1.1e-15
    assert abs(gamma0(a) - math.log(1.0 + 2.0 * eps)) <= 2.0 * tol  # 1.2e-15
    # A potential error delta at the grid nodes scales K to
    # diag(exp(-delta)) K diag(exp(-delta)), so D_n moves by
    # exp(-2 sum_i delta_i): at most 2 n delta relative. L_n_scaled
    # multiplies D_n by exp(2 sum_i a(i/n) + n gamma0), which cancels the
    # sum and adds n |delta gamma0| <= 2 n delta. Rounding each entry by
    # up to 4 ulp moves a positive permanent by n * 4 ulp more, and the
    # permanent rounds within 1e-14. Measured: D_n 1.5e-14, L_n_scaled
    # 3.2e-14 at most; the bound is 5.5e-13 at n = 26.
    for r in records:
        bound = r.n * (2.0 * tol + 4.0 * np.finfo(float).eps) + 1e-14
        exact = float(_cosine_Dn(r.n, eps))
        assert _rel_err(r.D_n, exact) <= bound, r.n
        assert _rel_err(r.L_n_scaled, exact) <= bound, r.n
        assert _rel_err(r.fredholm_limit, (1.0 - eps * eps) ** -0.5) \
            <= 4.0 * np.finfo(float).eps  # measured 1.1e-16


def test_exact_oracle_matches_brute_force():
    rng = np.random.default_rng(11)
    assert _exact_Dn(np.ones((6, 6))) == 1
    for n in (1, 3, 6, 8, 9):
        M = rng.uniform(0.1, 2.0, (n, n))
        brute = permanent_brute(M).value / math.factorial(n)
        assert _rel_err(brute, _exact_Dn(M)) <= 1e-14


def test_brute_force_holds_no_permutation_table(peak_rss_growth):
    # Summed as the permutations are walked: a table of all n! of them,
    # kept per n, raised the process's peak by 75.8 MB over n = 1 ... 9.
    growth = peak_rss_growth(
        "import numpy as np\n"
        "from permlim import permanent_brute\n"
        "mats = [np.full((n, n), 0.5) for n in range(1, 10)]\n",
        "values = [permanent_brute(M).value for M in mats]\n")
    assert growth <= 2 * 10**6
