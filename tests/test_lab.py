import dataclasses
import inspect
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import permlim
import permlim.lab as lab_module
from permlim import (BalanceError, ConfigError, RunConfig, SpectralGapWarning,
                     fit_rate, load_config, load_matrix, run_balance_study,
                     run_converge, run_solve_bridge, run_validate_cost)
from permlim.cli import main

CONVERGE_HEADER = ("n,D_n,D_n_bound,D_n_hat,L_n_scaled,mccullagh,"
                   "fredholm_limit,err_Dn,err_ratio_mcc,h_norm_2n,h_norm_inf,"
                   "sum_log,m_n,wall_ms_permanent,wall_ms_balance")
BALANCE_HEADER = ("n,h_norm_2n,h_norm_inf,sum_log,m_n,n_h_norm_2n,"
                  "sqrt_n_h_norm_inf,n_abs_sum_log,n2_abs_m_n,iterations,"
                  "residual,wall_ms_balance")


def _write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def constant_converge_cfg(tmp_path):
    return _write_config(tmp_path / "study.ini", f"""
[kernel]
kind = constant

[study]
n_list = 2 4 8
nystrom_m = 64

[output]
csv_path = {tmp_path / "out.csv"}
""")


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", """
[cost]
family = quadratic
beta = 2.5
"""))
    assert cfg.cost(0.0, 1.0) == 2.5
    assert cfg.bridge_m == 400
    assert cfg.balance_tol == 1e-12
    assert cfg.workers == 1
    assert cfg.n_list is None
    assert cfg.csv_path is None
    assert cfg.eigen_dump is False


def test_public_surface_read_by_perfbench(tmp_path):
    # perfbench/ reads exactly these names and fields; a change that drops
    # one fails here before it turns benchmark runs into failures
    cfg = permlim.load_config(_write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic
beta = 1.0

[bridge]
m = 32

[study]
n_list = 4

[output]
csv_path = {tmp_path / "o.csv"}
"""))
    solution = permlim.solve_potential(
        cfg.cost, m=cfg.bridge_m, tol=cfg.bridge_tol,
        max_iter=cfg.bridge_max_iter, damping=cfg.bridge_damping)
    assert solution.iterations >= 1
    t = permlim.grid_nodes(cfg.n_list[0])
    assert permlim.evaluate_potential(solution, t).shape == t.shape
    assert np.asarray(cfg.cost(t[:, None], t[None, :])).shape == (4, 4)
    assert math.isfinite(permlim.gamma0(solution))
    K = permlim.sample_kernel(permlim.bridge_source(solution), 4)
    assert type(K.entries) is np.ndarray and not K.entries.flags.writeable
    res = permlim.balance_fixed_point(K, tol=cfg.balance_tol,
                                      max_iter=cfg.balance_max_iter)
    assert res.u.shape == (4,) and res.balanced.shape == (4, 4)
    assert res.iterations >= 1 and res.residual <= cfg.balance_tol
    value = permlim.permanent_brute(np.ones((3, 3)))
    assert (value.n, value.value) == (3, 6.0)
    assert cfg.workers >= 1 and cfg.csv_path.endswith("o.csv")
    # the tracer wraps every public function of these modules as a span of
    # its own, so a new one would move time out of the spans above
    public = {name: sorted(
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__)
        for name, module in (("bridge", permlim.bridge),
                             ("balance", permlim.balance))}
    assert public == {
        "bridge": ["bridge_source", "check_damping", "constant_source",
                   "cosine_source", "evaluate_potential", "gamma0",
                   "gauss_legendre", "max_asymmetry", "solve_potential",
                   "tabulated_source"],
        "balance": ["balance_fixed_point"]}


def test_load_config_full_roundtrip(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[cost]
family = absolute
beta = 0.5
validate_grid = 30
validate_tol = 1e-7

[kernel]
kind = cosine
eps = 0.25

[bridge]
m = 48
tol = 1e-11
max_iter = 77
damping = 0.5

[study]
n_list = 2, 4, 6
permanent_cap = 20
balance_tol = 1e-10
balance_max_iter = 33
nystrom_m = 96
workers = 3

[output]
csv_path = {tmp_path / "out.csv"}
eigen_dump = yes
"""))
    assert cfg.cost(0.0, 1.0) == 0.5
    assert (cfg.validate_grid, cfg.validate_tol) == (30, 1e-7)
    np.testing.assert_allclose(cfg.kernel_source(np.array([0.0, 1.0])),
                               [[1.5, 0.5], [0.5, 1.5]], rtol=0, atol=1e-15)
    assert (cfg.bridge_m, cfg.bridge_tol, cfg.bridge_max_iter,
            cfg.bridge_damping) == (48, 1e-11, 77, 0.5)
    assert cfg.n_list == (2, 4, 6)
    assert cfg.permanent_cap == 20
    assert cfg.balance_tol == 1e-10
    assert cfg.balance_max_iter == 33
    assert cfg.nystrom_m == 96
    assert cfg.workers == 3
    assert cfg.csv_path == str(tmp_path / "out.csv")
    assert cfg.eigen_dump is True


def test_load_config_relative_paths(tmp_path):
    (tmp_path / "table.txt").write_text("2 0 1 1 0")
    cfg = load_config(_write_config(tmp_path / "c.ini", """
[cost]
family = tabulated
path = table.txt
"""))
    assert cfg.cost(0.0, 1.0) == 1.0 and cfg.cost(1.0, 1.0) == 0.0


@pytest.mark.parametrize("text,match", [
    ("[banana]\nkind = constant\n", "unknown config section"),
    ("[kernel]\nkind = constant\nfruit = 3\n", "unknown keys"),
    ("[kernel]\nkind = constant\n\n[study]\nn_list = 4 2\n",
     "strictly increasing"),
    ("[kernel]\nkind = constant\n\n[study]\nn_list = 0 2\n", "positive"),
    ("[kernel]\nkind = constant\n\n[study]\nn_list = 2 x\n", "bad n_list"),
    ("[kernel]\nkind = constant\n\n[study]\nmethod = cofactor\n",
     "unknown keys"),
    ("[kernel]\nkind = constant\n\n[study]\nworkers = many\n", "bad value"),
    ("[kernel]\nkind = constant\n\n[study]\neig_cutoff = 0\n", "unknown keys"),
    ("[kernel]\nkind = constant\n\n[output]\neigen_dump = maybe\n",
     "bad value for 'eigen_dump'"),
    ("[cost]\nfamily = quadratic\nbeta = steep\n", "bad value for 'beta'"),
    ("[cost]\nfamily = sinister\n", "unknown cost family"),
    ("[cost]\nfamily = tabulated\n", "path"),
    ("[cost]\nfamily = custom-expression\n", "requires expression"),
    ("[kernel]\nkind = tabulated\n", "tabulated kernel requires a path key"),
    ("[kernel]\nkind = cubic\n", "unknown kernel kind"),
    ("[kernel]\nkind = cosine\n", "eps"),
])
def test_load_config_rejects(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        load_config(_write_config(tmp_path / "c.ini", text))


def test_load_config_percent_in_path_is_literal(tmp_path, write_matrix):
    write_matrix(tmp_path / "t%1.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
    cfg = load_config(_write_config(tmp_path / "c.ini", """
[cost]
family = tabulated
path = t%1.txt
"""))
    assert cfg.cost(0.0, 1.0) == 1.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.ini"))


def test_both_sources_rejected(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic

[kernel]
kind = constant

[study]
n_list = 2

[output]
csv_path = {tmp_path / "o.csv"}
"""))
    with pytest.raises(ConfigError, match="pick one source"):
        run_converge(cfg)


def test_validate_cost_runner_pass(tmp_path, capsys):
    cfg = load_config(_write_config(tmp_path / "c.ini", """
[cost]
family = quadratic
validate_grid = 40
"""))
    report, code = run_validate_cost(cfg)
    assert code == 0
    assert not report.failed
    out = capsys.readouterr().out
    for name in ("finiteness", "nonnegativity", "symmetry", "diagonal",
                 "reflection"):
        assert name in out
    assert out.count("pass") == 5


def test_validate_cost_runner_fail(tmp_path, capsys):
    (tmp_path / "t.txt").write_text("2 0 1 0.5 0")
    cfg = load_config(_write_config(tmp_path / "c.ini", """
[cost]
family = tabulated
path = t.txt
"""))
    _, code = run_validate_cost(cfg)
    assert code == 2
    assert "fail" in capsys.readouterr().out


def test_validate_cost_requires_cost_section(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini",
                                    "[kernel]\nkind = constant\n"))
    with pytest.raises(ConfigError, match="cost"):
        run_validate_cost(cfg)


def test_solve_bridge_runner(tmp_path, capsys):
    csv = tmp_path / "potential.csv"
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic

[bridge]
m = 64

[output]
csv_path = {csv}
"""))
    solution = run_solve_bridge(cfg)
    lines = csv.read_text().splitlines()
    assert lines[0] == "node,weight,a_value"
    assert len(lines) == 65
    nodes, weights, values = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]]).T
    np.testing.assert_array_equal(nodes, solution.nodes)
    np.testing.assert_array_equal(weights, solution.weights)
    np.testing.assert_array_equal(values, solution.a_values)
    out = capsys.readouterr().out
    assert "residual" in out
    printed = float(out.split("gamma0 = ")[1].split()[0])
    assert -2.0 * math.fsum(weights * values) == pytest.approx(printed,
                                                               abs=1e-15)


def test_converge_constant_kernel(constant_converge_cfg, capsys):
    cfg = load_config(constant_converge_cfg)
    records = run_converge(cfg)
    assert [r.n for r in records] == [2, 4, 8]
    for r in records:
        assert r.D_n == pytest.approx(1.0, abs=1e-11)
        assert r.D_n_hat == pytest.approx(1.0, abs=1e-11)
        assert r.fredholm_limit == pytest.approx(1.0, abs=1e-11)
        assert math.isnan(r.L_n_scaled)  # synthetic kernel has no cost
    out = capsys.readouterr().out
    assert "rate: exact" in out
    assert "(m=64, gap 0.000e+00 from m=32, converged=True)" in out
    csv_lines = Path(cfg.csv_path).read_text().splitlines()
    assert csv_lines[0] == CONVERGE_HEADER
    assert len(csv_lines) == 4


def test_converge_cosine_with_eigen_dump(tmp_path):
    csv = tmp_path / "cosine.csv"
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[kernel]
kind = cosine
eps = 0.5

[study]
n_list = 4 8
nystrom_m = 64

[output]
csv_path = {csv}
eigen_dump = true
"""))
    records = run_converge(cfg)
    limit = 2.0 / math.sqrt(3.0)
    assert records[0].fredholm_limit == pytest.approx(limit, abs=1e-3)
    assert records[1].err_Dn < records[0].err_Dn
    eigs = [float(t) for t in (tmp_path / "cosine.eigs").read_text().split()]
    assert len(eigs) == 64
    assert eigs == sorted(eigs)
    assert max(abs(e) for e in eigs) == pytest.approx(0.5, abs=1e-3)


def test_converge_bridge_source_scaled_product(tmp_path, capsys):
    csv = tmp_path / "quad.csv"
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic

[bridge]
m = 200

[study]
n_list = 4 8
nystrom_m = 64

[output]
csv_path = {csv}
"""))
    records = run_converge(cfg)
    for r in records:
        assert math.isfinite(r.L_n_scaled)
        # scaled raw product and the balanced permanent approach each other
        assert abs(r.L_n_scaled / r.D_n - 1.0) < 0.2
    assert "fitted rate alpha" in capsys.readouterr().out
    # one row with err_Dn far above the floor gives no rate, not "exact"
    (record,) = run_converge(dataclasses.replace(cfg, n_list=(8,)))
    assert record.err_Dn > 1e-3
    out = capsys.readouterr().out
    assert "rate: not fitted" in out and "rate: exact" not in out


def test_cli_constant_cost_is_the_constant_kernel(tmp_path, capsys,
                                                  constant_converge_cfg):
    # c = 0.5 gives a = -1/4, gamma0 = 1/2 and rho = 1
    csv = tmp_path / "const.csv"
    cfg = _write_config(tmp_path / "c.ini", f"""
[cost]
family = custom-expression
expression = 0.5

[bridge]
m = 64

[study]
n_list = 2 4 8
nystrom_m = 64

[output]
csv_path = {csv}
""")
    assert main(["validate-cost", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "diagonal: warn" in out and out.count(": pass") == 4
    assert main(["solve-bridge", "--config", cfg]) == 0
    values = [float(ln.split(",")[2]) for ln in csv.read_text().splitlines()[1:]]
    np.testing.assert_allclose(values, -0.25, rtol=0, atol=1e-15)
    assert float(capsys.readouterr().out.split("gamma0 = ")[1].split()[0]) \
        == pytest.approx(0.5, abs=1e-15)
    expected = run_converge(load_config(constant_converge_cfg))
    for r, e in zip(run_converge(load_config(cfg)), expected, strict=True):
        assert r.D_n == pytest.approx(e.D_n, abs=1e-14)
        assert r.L_n_scaled == pytest.approx(e.D_n, abs=1e-14)
        assert r.fredholm_limit == pytest.approx(e.fredholm_limit, abs=1e-14)
    capsys.readouterr()


def test_converge_rejects_n_above_cap(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[kernel]
kind = constant

[study]
n_list = 2 30

[output]
csv_path = {tmp_path / "o.csv"}
"""))
    with pytest.raises(ConfigError, match="exceed permanent_cap"):
        run_converge(cfg)


def test_converge_rejects_n_above_max_n_before_any_stage(tmp_path,
                                                        monkeypatch):
    # load_config bounds permanent_cap by MAX_N, but a RunConfig built in
    # code is not loaded: compute_Dn's rule applies up front all the same,
    # else n = 64 would fail only after the Fredholm limit and the row's
    # balancing, leaving a CSV of the header and an abort line
    stages = []
    monkeypatch.setattr(lab_module, "_build_source",
                        lambda *args: stages.append(args))
    csv = tmp_path / "o.csv"
    cfg = RunConfig(kernel_source=permlim.constant_source(), n_list=(64,),
                    permanent_cap=100, csv_path=str(csv))
    with pytest.raises(ConfigError) as info:
        run_converge(cfg)
    assert str(info.value) == "n_list entries [64] exceed MAX_N=63"
    assert stages == []
    assert not csv.exists()


def test_converge_abort_writes_partial_csv(tmp_path, monkeypatch):
    csv = tmp_path / "abort.csv"
    cfg_path = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = cosine
eps = 0.5

[study]
n_list = 2 4 8
nystrom_m = 64

[output]
csv_path = {csv}
""")
    real = lab_module.balance_mod.balance_fixed_point

    def explode(K, **kwargs):
        if np.asarray(K).shape[0] == 8:
            raise BalanceError("forced failure", residual=1.0, iterations=3)
        return real(K, **kwargs)

    monkeypatch.setattr(lab_module.balance_mod, "balance_fixed_point", explode)
    with pytest.raises(BalanceError):
        run_converge(load_config(cfg_path))
    lines = csv.read_text().splitlines()
    assert lines[0] == CONVERGE_HEADER
    assert len(lines) == 4  # header + n=2 + n=4 + abort marker
    assert lines[-1] == "# aborted at n=8"
    assert main(["converge", "--config", cfg_path]) == 4


def test_balance_study_constant(tmp_path, capsys):
    csv = tmp_path / "bal.csv"
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[kernel]
kind = constant

[study]
n_list = 2 4 8

[output]
csv_path = {csv}
"""))
    records = run_balance_study(cfg)
    for r in records:
        assert r.h_norm_2n == 0.0
        assert r.n_h_norm_2n == 0.0
        assert r.n2_abs_m_n == 0.0
        assert r.iterations == 1
    lines = csv.read_text().splitlines()
    assert lines[0] == BALANCE_HEADER
    assert "max/min ratio" in capsys.readouterr().out


def test_balance_study_cosine_scaled_columns_bounded(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini", f"""
[kernel]
kind = cosine
eps = 0.5

[study]
n_list = 50 100 200

[output]
csv_path = {tmp_path / "bal.csv"}
"""))
    records = run_balance_study(cfg)
    for name in ("n_h_norm_2n", "sqrt_n_h_norm_inf", "n_abs_sum_log",
                 "n2_abs_m_n"):
        vals = [getattr(r, name) for r in records]
        assert max(vals) / min(vals) < 8.0


def test_fit_rate_recovers_exponent():
    n_list = [10, 20, 40, 80, 160]
    errors = [3.0 * n ** -1.3 for n in n_list]
    alpha, used = fit_rate(n_list, errors)
    assert alpha == pytest.approx(1.3, abs=1e-10)
    assert used == (40, 80, 160)


def test_fit_rate_exact_floor():
    assert fit_rate([2, 4, 8], [1e-14, 1e-13, 1e-12]) == (None, ())


def test_fit_rate_single_usable_point():
    assert fit_rate([2, 4], [0.0, 0.0]) == (None, ())


def test_runconfig_is_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.workers = 4


def test_readme_config_tables_match_schema():
    # every (section, key) row of README's "Config file reference" tables
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    reference = text.split("## Config file reference")[1].split("\n## ")[0]
    documented = set()
    for block in reference.split("\n### ")[1:]:
        section = block.split("`[", 1)[1].split("]`", 1)[0]
        documented |= {(section, line.split("`")[1])
                       for line in block.splitlines()
                       if line.startswith("| `")}
    assert documented == {(section, key)
                          for section, keys in lab_module._SCHEMA.items()
                          for key in keys}


def test_cli_exit_codes(tmp_path, constant_converge_cfg, capsys):
    assert main(["converge", "--config", constant_converge_cfg]) == 0
    assert main(["balance-study", "--config", constant_converge_cfg]) == 0
    assert main(["converge", "--config", str(tmp_path / "nope.ini")]) == 1
    capsys.readouterr()


def test_cli_validate_cost_failure_code(tmp_path, capsys):
    (tmp_path / "t.txt").write_text("2 0 1 0.5 0")
    cfg = _write_config(tmp_path / "c.ini", """
[cost]
family = tabulated
path = t.txt
""")
    assert main(["validate-cost", "--config", cfg]) == 2
    capsys.readouterr()


def test_cli_bridge_failure_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic
beta = 40

[bridge]
m = 32
max_iter = 2

[output]
csv_path = {tmp_path / "o.csv"}
""")
    assert main(["solve-bridge", "--config", cfg]) == 3
    assert "permlim:" in capsys.readouterr().err


def test_cli_negative_kernel_maps_to_validation_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = cosine
eps = 0.999

[study]
n_list = 2 8
nystrom_m = 64

[output]
csv_path = {tmp_path / "o.csv"}
""")
    with pytest.warns(SpectralGapWarning):  # lambda* = 0.999 at nystrom_m
        assert main(["converge", "--config", cfg]) == 2
    capsys.readouterr()


def test_cli_overflowing_constant_maps_to_validation_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.ini", f"""
[cost]
family = custom-expression
expression = 10**400 * (x - y)**2

[study]
n_list = 2

[output]
csv_path = {tmp_path / "o.csv"}
""")
    assert main(["validate-cost", "--config", cfg]) == 2
    assert "finiteness: fail" in capsys.readouterr().out
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["converge", "--config", cfg]) == 2
    assert [w.category for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite" in err[0]


def test_cli_overflowing_kernel_table_maps_to_validation_code(
        tmp_path, capsys, write_matrix):
    write_matrix(tmp_path / "k.txt", np.full((3, 3), 1e308))
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = tabulated
path = k.txt

[study]
n_list = 2

[output]
csv_path = {tmp_path / "o.csv"}
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["balance-study", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "row sums overflow" in err[0]


def test_cli_asymmetric_kernel_table_maps_to_config_code(tmp_path, capsys,
                                                        write_matrix):
    table = np.ones((5, 5))
    table[0, 4], table[4, 0] = 1.6, 0.4
    write_matrix(tmp_path / "k.txt", table)
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = tabulated
path = k.txt

[study]
n_list = 2 4
nystrom_m = 32

[output]
csv_path = {tmp_path / "o.csv"}
""")
    assert main(["converge", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert "asymmetry" in err[0]


def test_cli_matrix_size_below_one_maps_to_config_code(tmp_path, capsys):
    # four values match the count (-2)^2; the size line alone is wrong
    (tmp_path / "k.txt").write_text("-2\n1.0 1.0 1.0 1.0\n")
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = tabulated
path = k.txt

[study]
n_list = 2

[output]
csv_path = {tmp_path / "o.csv"}
""")
    assert main(["balance-study", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert "matrix size -2 in" in err[0] and "must be >= 1" in err[0]


def test_cli_unwritable_csv_maps_to_config_code(tmp_path, capsys,
                                                monkeypatch):
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = constant

[study]
n_list = 2 4
nystrom_m = 32

[output]
csv_path = {tmp_path / "missing" / "o.csv"}
""")

    def never(*args, **kwargs):
        raise AssertionError("the study ran before its output was checked")

    monkeypatch.setattr(lab_module.permanent_mod, "compute_Dn", never)
    monkeypatch.setattr(lab_module.balance_mod, "balance_fixed_point", never)
    for subcommand in ("converge", "balance-study"):
        assert main([subcommand, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("permlim: ")
        assert "does not exist" in err[0]


@pytest.mark.parametrize("section", ["[cost]\nfamily", "[kernel]\nkind"],
                         ids=["cost", "kernel"])
def test_cli_nonfinite_table_maps_to_config_code(tmp_path, capsys, section,
                                                 write_matrix):
    table = np.ones((3, 3))
    table[1, 1] = math.nan
    write_matrix(tmp_path / "t.txt", table)
    cfg = _write_config(tmp_path / "c.ini", f"""
{section} = tabulated
path = t.txt

[study]
n_list = 2 4
nystrom_m = 32

[output]
csv_path = {tmp_path / "o.csv"}
""")
    assert main(["converge", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert "finite" in err[0]


@pytest.mark.parametrize("family", ["expression", "table"])
def test_cli_asymmetric_cost_rejected_before_any_solve(
        tmp_path, capsys, monkeypatch, write_matrix, family):
    # The potential solve and the sampler read c on and above the diagonal
    # only, so a cost that validate-cost finds asymmetric never reaches them.
    table = np.ones((5, 5))
    table[0, 4], table[4, 0] = 1.6, 0.4
    write_matrix(tmp_path / "t.txt", table)
    cost = {"expression": "family = custom-expression\n"
                          "expression = (x - y)**2 + 0.5 * x",
            "table": "family = tabulated\npath = t.txt"}[family]
    csv = tmp_path / "o.csv"
    cfg = _write_config(tmp_path / "c.ini", f"""
[cost]
{cost}

[study]
n_list = 2 4

[output]
csv_path = {csv}
""")

    def never(*args, **kwargs):
        raise AssertionError("the potential was solved for an asymmetric cost")

    monkeypatch.setattr(lab_module.bridge_mod, "solve_potential", never)
    for subcommand in ("solve-bridge", "converge", "balance-study"):
        assert main([subcommand, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("permlim: ")
        assert "is not symmetric" in err[0] and "validate_tol" in err[0]
        assert not csv.exists()
    assert main(["validate-cost", "--config", cfg]) == 2
    assert "symmetry: fail" in capsys.readouterr().out


def test_cli_non_utf8_config_is_one_line(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_bytes(b"[cost]\n# \xff\xfe\nfamily = quadratic\n")
    assert main(["validate-cost", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert str(path) in err[0] and "UTF-8" in err[0]


_OUTPUT = "[output]\ncsv_path = {csv}\n"


@pytest.mark.parametrize("subcommand,text,match", [
    ("validate-cost", "[cost]\nfamily = quadratic\n[cost]\nbeta = 2\n",
     "section 'cost' already exists"),
    ("validate-cost", "[cost]\nfamily = quadratic\nfamily = absolute\n",
     "option 'family' in section 'cost' already exists"),
    ("validate-cost", "family = quadratic\n", "no section headers"),
    ("converge", "[kernel]\nkind = constant\n[study\nn_list = 2\n",
     "parsing errors"),
    ("validate-cost", "[cost]\nfamily = custom-expression\n"
     "expression = 100%x\n", "disallowed construct Mod"),
    ("validate-cost", "[cost]\nfamily = custom-expression\n"
     "expression = x*y\nsmoothness = C1\n", "smoothness_claim"),
    ("validate-cost", "[cost]\nfamily = custom-expression\n"
     "expression = x" + "+x" * 19999 + "\n", "nested too deeply"),
    ("converge", "[kernel]\nkind = constant\n[study]\nn_list = 2\n"
     "refinement_tol = 1e-6\n", "unknown keys"),
    ("solve-bridge", "[kernel]\nkind = constant\n" + _OUTPUT,
     "solve-bridge requires a [cost] section"),
    ("converge", "[kernel]\nkind = constant\n" + _OUTPUT,
     "converge requires n_list in [study]"),
    ("balance-study", "[study]\nn_list = 2\n" + _OUTPUT,
     "needs a [cost] or a [kernel] section"),
    ("converge", "[kernel]\nkind = constant\n[study]\nn_list = 2\n",
     "converge requires csv_path in [output]"),
], ids=["duplicate-section", "duplicate-key", "no-section-header",
        "unterminated-section", "percent", "bad-smoothness", "deep-expression",
        "refinement_tol-unknown", "solve-bridge-no-cost", "no-n_list",
        "no-source", "no-csv_path"])
def test_cli_config_error_is_one_line(tmp_path, capsys, subcommand, text,
                                      match):
    csv = tmp_path / "o.csv"
    cfg = _write_config(tmp_path / "c.ini", text.format(csv=csv))
    assert main([subcommand, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert match in err[0]
    assert not csv.exists()


def test_cli_nan_validate_tol_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.ini", """
[cost]
family = custom-expression
expression = (x - 2*y)**2 - 0.5
validate_tol = nan
""")
    assert main(["validate-cost", "--config", cfg]) != 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert "tol must be positive" in err[0]


def test_cli_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    csv = tmp_path / "bal.csv"
    cfg = _write_config(tmp_path / "c.ini", f"""
[kernel]
kind = constant

[study]
n_list = 2 10000000

[output]
csv_path = {csv}
""")
    real = lab_module.grid_mod.sample_kernel

    def sample(source, n):
        if n > 2:
            raise MemoryError("Unable to allocate 728. TiB for an array")
        return real(source, n)

    monkeypatch.setattr(lab_module.grid_mod, "sample_kernel", sample)
    assert main(["balance-study", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["permlim: out of memory: Unable to allocate 728. TiB "
                   "for an array"]
    lines = csv.read_text().splitlines()
    assert lines[0] == BALANCE_HEADER
    assert lines[1].startswith("2,")
    assert lines[2:] == ["# aborted at n=10000000"]


@pytest.mark.parametrize("subcommand,keys", [
    ("solve-bridge", "[bridge]\nm = 10000000"),
    ("converge", "[study]\nn_list = 4\nnystrom_m = 10000000"),
    ("balance-study", "[study]\nn_list = 8 10000000"),
], ids=["bridge m", "nystrom_m", "n_list"])
def test_cli_unallocatable_size_fails_fast(tmp_path, capsys, monkeypatch,
                                           subcommand, keys):
    # the m x m or n x n matrix is found not to fit before the O(m^2)
    # quadrature or the potential at n points, each of which takes longer
    # as the size grows: hours for the quadrature at m = 10**7
    sizes = []

    def spy(module, name, size):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: sizes.append(
            size(*args)) or real(*args))

    spy(permlim.bridge, "gauss_legendre", lambda m: m)
    spy(permlim.spectral, "gauss_legendre", lambda m: m)
    spy(permlim.bridge, "evaluate_potential", lambda sol, x: np.size(x))
    cfg = _write_config(tmp_path / "c.ini", f"""
[cost]
family = quadratic

{keys}

[output]
csv_path = {tmp_path / "out.csv"}
""")
    assert main([subcommand, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("permlim: out of memory: ")
    assert max(sizes, default=0) <= 400  # the default bridge m at most


# (section, key, subcommand that reads it) for every numeric INI key
_NUMERIC_KEYS = [
    ("cost", "validate_grid", "validate-cost"),
    ("cost", "validate_tol", "validate-cost"),
    ("cost", "beta", "solve-bridge"),
    ("kernel", "eps", "converge"),
    ("bridge", "m", "solve-bridge"),
    ("bridge", "tol", "solve-bridge"),
    ("bridge", "max_iter", "solve-bridge"),
    ("bridge", "damping", "solve-bridge"),
    ("study", "permanent_cap", "converge"),
    ("study", "balance_tol", "converge"),
    ("study", "balance_max_iter", "converge"),
    ("study", "nystrom_m", "converge"),
    ("study", "workers", "converge"),
]
_ZERO_ALLOWED = {"beta", "eps"}  # beta = 0 is a zero cost, eps = 0 rho = 1
_LOAD_CHECKED = {"validate_grid", "validate_tol", "m", "tol", "max_iter",
                 "damping", "permanent_cap", "balance_tol", "balance_max_iter",
                 "nystrom_m", "workers"}
# the first value past each stage limit that nan, -1, 0 and x do not probe
_PAST_LIMIT = [("cost", "validate_grid", "validate-cost", "1"),
               ("bridge", "m", "solve-bridge", "7"),
               ("bridge", "damping", "solve-bridge", "1.5"),
               ("study", "permanent_cap", "converge", "64"),
               ("study", "nystrom_m", "converge", "31")]
_BAD_VALUES = [case + (value,) for value in ("nan", "-1", "0", "x")
               for case in _NUMERIC_KEYS] + _PAST_LIMIT


@pytest.mark.parametrize("section,key,subcommand,value", _BAD_VALUES,
                         ids=[f"{key}-{value}" for _, key, _, value in _BAD_VALUES])
def test_cli_bad_numeric_value_is_one_line(tmp_path, capsys, section, key,
                                           subcommand, value):
    csv = tmp_path / "o.csv"
    sections = {"bridge": {"m": "16"}, "study": {"n_list": "2 4"},
                "output": {"csv_path": str(csv)}}
    if section == "kernel":
        sections["kernel"] = {"kind": "cosine"}
    elif section == "study":
        sections["kernel"] = {"kind": "constant"}
    else:
        sections["cost"] = {"family": "quadratic"}
    sections.setdefault(section, {})[key] = value
    cfg = _write_config(tmp_path / "c.ini", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    code = main([subcommand, "--config", cfg])
    err = capsys.readouterr().err.splitlines()
    if key in _ZERO_ALLOWED and value == "0":
        assert code == 0 and err == []
        return
    assert 1 <= code <= 5
    assert len(err) == 1 and err[0].startswith("permlim: ")
    assert not csv.exists()
    if key in _LOAD_CHECKED:
        assert code == 1 and f"bad value for '{key}'" in err[0]

