"""Acceptance suite: one test per criterion, each printing a verdict line.

Every test computes its quantities from scratch through the public API,
evaluates the criterion's tolerances, prints a single [PASS]/[FAIL] line
on the real terminal (bypassing capture), and then asserts.
"""

import math
import time
import warnings

import numpy as np

from permlim import (RunConfig, SpectralGapWarning, balance_diagnostics,
                     balance_fixed_point, bridge_source, compute_Dn,
                     cosine_source, fit_rate, fredholm_limit, gamma0,
                     grid_nodes, mccullagh_estimate, permanent_brute,
                     permanent_exact, quadratic_cost,
                     riemann_correction_check, run_converge, sample_kernel,
                     solve_potential)

LIMIT_COSINE_HALF = 2.0 / math.sqrt(3.0)


def _verdict(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_01_constant_kernel_identity_chain(capsys):
    t0 = time.perf_counter()
    sol = solve_potential(quadratic_cost(0.0), m=64)
    src = bridge_source(sol)
    ok = abs(gamma0(sol)) <= 1e-12
    for n in range(1, 13):
        K = sample_kernel(src, n)
        res = balance_fixed_point(K)
        ok = ok and np.abs(res.h).max() == 0.0
        ok = ok and abs(compute_Dn(K).value - 1.0) <= 1e-11
    report = fredholm_limit(src, 64)
    ok = ok and abs(report.fredholm_limit - 1.0) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(capsys, 1, "constant-kernel identity chain", ok,
             f"elapsed {elapsed:.2f} s")


def test_criterion_02_cosine_rate(capsys):
    t0 = time.perf_counter()
    src = cosine_source(0.5)
    report = fredholm_limit(src, 256)
    limit_ok = abs(report.fredholm_limit - LIMIT_COSINE_HALF) <= 1e-4
    n_list = (8, 16, 24)
    errors = [abs(compute_Dn(sample_kernel(src, n), workers=2).value
                  - LIMIT_COSINE_HALF) for n in n_list]
    decreasing = errors[0] > errors[1] > errors[2]
    alpha, _ = fit_rate(n_list, errors)
    alpha_ok = alpha is not None and 0.7 <= alpha <= 1.6
    elapsed = time.perf_counter() - t0
    ok = limit_ok and decreasing and alpha_ok and elapsed < 120.0
    _verdict(capsys, 2, "rank-one cosine limit and convergence rate", ok,
             f"errors {errors}, alpha {alpha}, elapsed {elapsed:.1f} s")


def test_criterion_03_permanent_oracle_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in range(3, 9):
        for _ in range(100):
            M = rng.uniform(0.0, 1.0, (n, n))
            ref = permanent_brute(M).value
            val = permanent_exact(M).value
            worst = max(worst, abs(val - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(capsys, 3, "Glynn permanent agrees with brute force", ok,
             f"worst relative gap {worst:.3e}, elapsed {elapsed:.1f} s")


def test_criterion_04_scaling_identity(capsys, quad_source):
    instances = []
    cos = cosine_source(0.5)
    for n in (4, 8, 12, 16):
        instances.append(sample_kernel(cos, n))
    for n in (8, 16):
        instances.append(sample_kernel(quad_source, n))
    instances.append(sample_kernel(cosine_source(0.0), 6))
    worst = 0.0
    for K in instances:
        res = balance_fixed_point(K)
        Dn = compute_Dn(K).value
        Dh = compute_Dn(res.balanced).value
        scaled = Dn * float(np.prod(res.u * res.u))
        worst = max(worst, abs(Dh - scaled) / abs(Dh))
    ok = worst <= 1e-10
    _verdict(capsys, 4, "balanced permanent equals scaled raw permanent", ok,
             f"worst relative gap {worst:.3e}")


def test_criterion_05_balance_perturbation_rates(capsys, quad_cost):
    t0 = time.perf_counter()
    sol = solve_potential(quad_cost, m=3200)
    src = bridge_source(sol)
    scaled = {"n_h2": [], "sqrtn_hinf": [], "n_sumlog": [], "n2_mn": []}
    rows_ok = True
    for n in (100, 200, 400, 800):
        res = balance_fixed_point(sample_kernel(src, n))
        row_sums = res.balanced.sum(axis=1) / n  # balanced/n is the DS matrix
        rows_ok = rows_ok and np.abs(row_sums - 1.0).max() <= 1e-11
        d = balance_diagnostics(res)
        scaled["n_h2"].append(n * d.norm_2n_h)
        scaled["sqrtn_hinf"].append(math.sqrt(n) * d.norm_inf_h)
        scaled["n_sumlog"].append(n * abs(d.sum_log))
        scaled["n2_mn"].append(n * n * abs(d.m_n))
    ratios = {k: max(v) / min(v) for k, v in scaled.items()}
    elapsed = time.perf_counter() - t0
    ok = (rows_ok and ratios["n_h2"] <= 4.0 and ratios["sqrtn_hinf"] <= 4.0
          and ratios["n_sumlog"] <= 4.0 and ratios["n2_mn"] <= 8.0
          and elapsed < 30.0)
    _verdict(capsys, 5, "balancing perturbation decays at the stated rates",
             ok, f"ratios {ratios}, elapsed {elapsed:.1f} s")


def test_criterion_06_determinant_estimate_sharpens(capsys):
    src = cosine_source(0.5)
    ratio = {}
    det_ok = True
    for n in (8, 16):
        res = balance_fixed_point(sample_kernel(src, n))
        A = res.balanced / n
        mcc = mccullagh_estimate(A)
        ratio[n] = abs(mcc / compute_Dn(res.balanced).value - 1.0)
        J = np.full((n, n), 1.0 / n)
        lhs = np.linalg.det(np.eye(n) + J - A.T @ A)
        rhs = np.linalg.det(np.eye(n) - (A - J) @ (A - J))
        det_ok = det_ok and abs(lhs / rhs - 1.0) <= 1e-9
    ok = ratio[16] < ratio[8] and det_ok
    _verdict(capsys, 6, "determinant estimate sharpens with n", ok,
             f"ratios {ratio}")


def test_criterion_07_scaled_raw_product_chain(capsys, quad_cost,
                                               quad_solution_fine,
                                               quad_source):
    g0 = gamma0(quad_solution_fine)
    gaps = []
    for n in (8, 12, 16):
        Dn = compute_Dn(sample_kernel(quad_source, n)).value
        t = grid_nodes(n)
        Ln = compute_Dn(np.exp(-quad_cost(t[:, None], t[None, :]))).value
        gaps.append(abs(Ln * math.exp(n * g0) / Dn - 1.0))
    ok = gaps[0] > gaps[1] > gaps[2]
    _verdict(capsys, 7, "scaled raw product approaches balanced permanent",
             ok, f"gaps {gaps}")


def test_criterion_08_riemann_endpoint_correction(capsys):
    third = np.longdouble(1.0) / np.longdouble(3.0)
    report = riemann_correction_check(lambda t: t * t, third,
                                      (10, 100, 1000))
    worst = max(abs(s - 1.0 / 6.0) for s in report.scaled)
    ok = worst <= 1e-12
    _verdict(capsys, 8, "endpoint-corrected Riemann residual is exact", ok,
             f"worst deviation from 1/6: {worst:.3e}")


def test_criterion_09_spectral_gap(capsys):
    lam = fredholm_limit(cosine_source(0.5), 256).lambda_star
    gap_ok = abs(lam - 0.5) <= 1e-4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fredholm_limit(cosine_source(0.999), 128)
    warned = any(issubclass(w.category, SpectralGapWarning) for w in caught)
    ok = gap_ok and warned
    _verdict(capsys, 9, "spectral gap located and near-critical warning", ok,
             f"lambda* {lam!r}")


def test_criterion_10_worker_count_determinism(capsys, tmp_path):
    paths = {}
    for workers in (1, 2, 4):
        csv = tmp_path / f"run_w{workers}.csv"
        cfg = RunConfig(kernel_source=cosine_source(0.5), n_list=(4, 6, 8),
                        nystrom_m=64, workers=workers, csv_path=str(csv))
        run_converge(cfg)
        paths[workers] = csv
    rows = {w: _read_rows(p) for w, p in paths.items()}
    ok = True
    detail = ""
    for w in (2, 4):
        for ref_row, row in zip(rows[1], rows[w]):
            for field, a in ref_row.items():
                if field.startswith("wall_ms"):
                    continue
                b = row[field]
                if not _close(a, b):
                    ok = False
                    detail = f"workers={w} field {field}: {a} vs {b}"
    _verdict(capsys, 10, "study output independent of worker count", ok,
             detail)


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (float(tok) for tok in line.split(","))))
            for line in lines[1:] if not line.startswith("#")]


def _close(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    if a == b:
        return True
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))
