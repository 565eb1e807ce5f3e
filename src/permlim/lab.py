"""End-to-end studies wired together from the other modules.

A study is described by an INI config (sections [cost] or [kernel],
[bridge], [study], [output]) and executed by one of four runners:

* run_validate_cost: grid checks on the configured cost.
* run_solve_bridge:  potential solve, persisted as a node,weight,a_value CSV.
* run_converge:      per-n kernel -> balance -> one exact permanent ->
  determinant estimates, against the shared Fredholm limit; emits the
  convergence CSV and a fitted rate.
* run_balance_study: balancing diagnostics only (no permanents), with the
  scaled quantities that exhibit the decay rates of the perturbation.

Runners print human-readable tables and return the underlying records;
the CLI in :mod:`permlim.cli` maps their exceptions to exit codes.
"""

from __future__ import annotations

import configparser
import math
import os
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from . import balance as balance_mod
from . import bridge as bridge_mod
from . import cost as cost_mod
from . import grid as grid_mod
from . import permanent as permanent_mod
from . import spectral as spectral_mod
from .errors import ConfigError

_EXACT_FLOOR = 1e-11  # below this the rate fit would measure rounding noise


@dataclass(frozen=True)
class RunConfig:
    """Parsed study configuration with defaults applied."""

    cost: cost_mod.CostFunction | None = None
    validate_grid: int = 100
    validate_tol: float = 1e-9
    kernel_source: bridge_mod.DensitySource | None = None
    bridge_m: int = 400
    bridge_tol: float = 1e-12
    bridge_max_iter: int = 500
    bridge_damping: float = 1.0
    n_list: tuple[int, ...] | None = None
    permanent_cap: int = permanent_mod.DEFAULT_CAP
    balance_tol: float = 1e-12
    balance_max_iter: int = 200
    nystrom_m: int = 128
    workers: int = 1
    csv_path: str | None = None
    eigen_dump: bool = False


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of the convergence CSV; the fields are its columns, in order.

    L_n_scaled is L_n * exp(n Gamma0) and applies to bridge sources only;
    synthetic kernels have no cost, so the field is nan there. It equals
    D_n * exp(2 sum_i a(i/n) + n Gamma0), and by Euler-Maclaurin that
    exponent tends to a(1) - a(0), so L_n_scaled / D_n -> exp(a(1) - a(0)):
    the two columns share a limit only when a(1) = a(0), as for a cost
    symmetric under (x, y) -> (1 - x, 1 - y). Wall-clock fields are
    informational and not reproducible between runs.
    """

    n: int
    D_n: float
    D_n_hat: float
    L_n_scaled: float
    mccullagh: float
    fredholm_limit: float
    err_Dn: float
    err_ratio_mcc: float
    h_norm_2n: float
    h_norm_inf: float
    sum_log: float
    m_n: float
    wall_ms_permanent: float
    wall_ms_balance: float


@dataclass(frozen=True)
class BalanceStudyRecord:
    """One row of the balance-study CSV; the fields are its columns, in order."""

    n: int
    h_norm_2n: float
    h_norm_inf: float
    sum_log: float
    m_n: float
    n_h_norm_2n: float
    sqrt_n_h_norm_inf: float
    n_abs_sum_log: float
    n2_abs_m_n: float
    iterations: int
    residual: float
    wall_ms_balance: float


def _parse_n_list(text) -> tuple[int, ...]:
    try:
        ns = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad n_list: {text!r}") from exc
    if not ns or any(n < 1 for n in ns):
        raise ConfigError("n_list must contain positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n_list must be strictly increasing")
    return ns


def _parse_bool(text) -> bool:
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if state is None:
        raise ValueError(f"not a boolean: {text!r}")
    return state


def _parse_tol(text) -> float:
    tol = float(text)
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    return tol


def _at_least(minimum):
    """Parser of an integer >= minimum."""
    def parse(text) -> int:
        count = int(text)
        if count < minimum:
            raise ValueError(f"must be an integer >= {minimum}")
        return count
    return parse


# Every INI key: section -> key -> (RunConfig field, parser); RunConfig holds
# the defaults. Keys mapped to None are read by _build_cost or _build_kernel.
# A parser enforces the limit the key's stage enforces, from that stage's
# constant, so a bad value fails at load time instead of after earlier solves.
_SCHEMA = {
    "cost": dict.fromkeys(("family", "beta", "path", "expression",
                           "smoothness")) | {
        "validate_grid": ("validate_grid", _at_least(cost_mod.MIN_GRID)),
        "validate_tol": ("validate_tol", _parse_tol)},
    "kernel": dict.fromkeys(("kind", "eps", "path")),
    "bridge": {"m": ("bridge_m", _at_least(bridge_mod.MIN_NODES)),
               "tol": ("bridge_tol", _parse_tol),
               "max_iter": ("bridge_max_iter", _at_least(1)),
               "damping": ("bridge_damping",
                           lambda text: bridge_mod.check_damping(float(text)))},
    "study": {"n_list": ("n_list", _parse_n_list),
              "permanent_cap": ("permanent_cap", _at_least(1)),
              "balance_tol": ("balance_tol", _parse_tol),
              "balance_max_iter": ("balance_max_iter", _at_least(1)),
              "nystrom_m": ("nystrom_m",
                            _at_least(spectral_mod.MIN_RESOLUTION)),
              "workers": ("workers", _at_least(1))},
    "output": {"csv_path": ("csv_path", str),
               "eigen_dump": ("eigen_dump", _parse_bool)},
}


def load_config(path) -> RunConfig:
    """Parse an INI study config, rejecting unknown sections and keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)  # % is literal
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # a ParsingError spans several lines
        raise ConfigError(" ".join(str(exc).split())) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - set(_SCHEMA[section])
        if unknown:
            raise ConfigError(
                f"unknown keys {sorted(unknown)} in section [{section}]")

    kwargs = {}
    if parser.has_section("cost"):
        kwargs["cost"] = _build_cost(parser["cost"], path)
    if parser.has_section("kernel"):
        kwargs["kernel_source"] = _build_kernel(parser["kernel"], path)
    for section, keys in _SCHEMA.items():
        for key, entry in keys.items():
            if entry is not None and parser.has_option(section, key):
                field, parse = entry
                kwargs[field] = _parse(parser[section], key, parse)
    return RunConfig(**kwargs)


def run_validate_cost(config: RunConfig):
    """Validate the configured cost; returns (report, exit code 0 or 2)."""
    if config.cost is None:
        raise ConfigError("validate-cost requires a [cost] section")
    report = cost_mod.validate_cost(config.cost, config.validate_grid,
                                    config.validate_tol)
    print(f"cost {config.cost.label}: grid {report.grid_size}, "
          f"tol {config.validate_tol:g}")
    for check in report.checks:
        print(f"  {check.name}: {check.status} "
              f"(max violation {check.max_violation:.3e})")
    return report, (2 if report.failed else 0)


def run_solve_bridge(config: RunConfig) -> bridge_mod.PotentialSolution:
    """Solve the potential equation and persist (node, weight, a_value) rows."""
    if config.cost is None:
        raise ConfigError("solve-bridge requires a [cost] section")
    _require_csv_path(config, "solve-bridge")
    solution = _solve(config)
    with open(config.csv_path, "w") as fh:
        fh.write("node,weight,a_value\n")
        for row in zip(solution.nodes, solution.weights, solution.a_values):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"gamma0 = {bridge_mod.gamma0(solution)!r}")
    print(f"residual = {solution.final_residual:.3e} "
          f"after {solution.iterations} iterations")
    return solution


def run_converge(config: RunConfig) -> list[ConvergenceRecord]:
    """Full study: kernels, balancing, exact permanents, determinant limits."""
    over = [n for n in config.n_list or () if n > config.permanent_cap]
    if over:
        raise ConfigError(
            f"n_list entries {over} exceed permanent_cap={config.permanent_cap}")
    source, solution = _build_source(config, "converge")
    fredholm = spectral_mod.fredholm_limit(source, config.nystrom_m)
    if config.eigen_dump:
        _dump_eigenvalues(config.csv_path, fredholm.eigenvalues)
    g0 = bridge_mod.gamma0(solution) if solution is not None else math.nan
    records = _study_rows(config, ConvergenceRecord, lambda n: _converge_row(
        config, source, solution, g0, fredholm.fredholm_limit, n))

    for r in records:
        print(f"n={r.n:4d}  D_n={r.D_n:.12g}  D_n_hat={r.D_n_hat:.12g}  "
              f"mccullagh={r.mccullagh:.12g}  err_Dn={r.err_Dn:.3e}")
    print(f"fredholm_limit = {fredholm.fredholm_limit!r} "
          f"(m={config.nystrom_m}, gap {fredholm.refinement_gap:.3e} "
          f"from m={config.nystrom_m // 2}, converged={fredholm.converged})")
    alpha, used = fit_rate(config.n_list, [r.err_Dn for r in records])
    if alpha is not None:
        print(f"fitted rate alpha = {alpha:.3f} (fit on n in {list(used)})")
    elif all(r.err_Dn <= _EXACT_FLOOR for r in records):
        print("rate: exact (all errors at or below the numerical floor)")
    else:
        print("rate: not fitted (fewer than two rows with a nonzero error)")
    return records


def run_balance_study(config: RunConfig) -> list[BalanceStudyRecord]:
    """Balancing diagnostics across n_list, without any permanents."""
    source, _ = _build_source(config, "balance-study")
    records = _study_rows(config, BalanceStudyRecord,
                          lambda n: _balance_row(config, source, n))

    for r in records:
        print(f"n={r.n:5d}  n*|h|_2n={r.n_h_norm_2n:.6g}  "
              f"sqrt(n)*|h|_inf={r.sqrt_n_h_norm_inf:.6g}  "
              f"n*|sum_log|={r.n_abs_sum_log:.6g}  n^2*|m_n|={r.n2_abs_m_n:.6g}")
    for name in ("n_h_norm_2n", "sqrt_n_h_norm_inf", "n_abs_sum_log",
                 "n2_abs_m_n"):
        vals = [getattr(r, name) for r in records]
        print(f"{name} max/min ratio = {_ratio(vals):.6g}")
    return records


def fit_rate(n_list, errors):
    """Least-squares exponent of err ~ C n^-alpha on a log-log scale.

    Returns (alpha, n values used) or (None, ()) when every error sits at
    the numerical floor (the decay is then unmeasurable) or fewer than two
    usable points remain. Only n at or above the median of n_list enter
    the fit: small-n rows carry preasymptotic constants that bias alpha.
    """
    pairs = list(zip(n_list, errors))
    if all(e <= _EXACT_FLOOR for _, e in pairs):
        return None, ()
    med = statistics.median(n_list)
    use = [(n, e) for n, e in pairs if n >= med and e > 0.0]
    if len(use) < 2:
        use = [(n, e) for n, e in pairs if e > 0.0]
    if len(use) < 2:
        return None, ()
    ln = np.log([n for n, _ in use])
    le = np.log([e for _, e in use])
    slope = np.polyfit(ln, le, 1)[0]
    return float(-slope), tuple(n for n, _ in use)


def _study_rows(config: RunConfig, record_type, make_row) -> list:
    """make_row(n) for each n of n_list, written to the CSV as they stand.

    If a row raises, the rows before it and a `# aborted at n=<n>` line
    are written before the error propagates.
    """
    records = []
    try:
        for n in config.n_list:
            records.append(make_row(n))
    finally:
        aborted_at = (config.n_list[len(records)]
                      if len(records) < len(config.n_list) else None)
        _write_csv(config.csv_path, record_type, records, aborted_at)
    return records


def _balanced_kernel(config: RunConfig, source, n):
    """Sample the n x n kernel and balance it (timed)."""
    K = grid_mod.sample_kernel(source, n)
    t0 = time.perf_counter()
    res = balance_mod.balance_fixed_point(
        K, tol=config.balance_tol, max_iter=config.balance_max_iter)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    return K, res, wall_ms


def _converge_row(config, source, solution, g0, fredholm_value, n):
    K, res, wall_balance = _balanced_kernel(config, source, n)
    t0 = time.perf_counter()
    Dn = permanent_mod.compute_Dn(K, cap=config.permanent_cap,
                                  workers=config.workers).value
    wall_perm = 1e3 * (time.perf_counter() - t0)
    # One permanent per row: balanced = diag(u) K diag(u), and for bridge
    # sources K = diag(exp(-a)) exp(-C) diag(exp(-a)), so multilinearity
    # gives the other two permanents as D_n times a diagonal product.
    Dh = Dn * res.prod_u_sq
    if solution is not None:
        a = bridge_mod.evaluate_potential(solution, grid_mod.grid_nodes(n))
        ln_scaled = Dn * math.exp(2.0 * math.fsum(a) + n * g0)
    else:
        ln_scaled = math.nan

    mcc = spectral_mod.mccullagh_estimate(res.balanced / n)
    return ConvergenceRecord(
        n=n, D_n=Dn, D_n_hat=Dh, L_n_scaled=ln_scaled,
        mccullagh=mcc, fredholm_limit=fredholm_value,
        err_Dn=abs(Dn - fredholm_value),
        err_ratio_mcc=abs(mcc / Dh - 1.0),
        h_norm_2n=res.norm_2n_h, h_norm_inf=res.norm_inf_h,
        sum_log=res.sum_log, m_n=res.m_n, wall_ms_permanent=wall_perm,
        wall_ms_balance=wall_balance)


def _balance_row(config, source, n):
    _, res, wall_ms = _balanced_kernel(config, source, n)
    return BalanceStudyRecord(
        n=n, h_norm_2n=res.norm_2n_h, h_norm_inf=res.norm_inf_h,
        sum_log=res.sum_log, m_n=res.m_n,
        n_h_norm_2n=n * res.norm_2n_h,
        sqrt_n_h_norm_inf=math.sqrt(n) * res.norm_inf_h,
        n_abs_sum_log=n * abs(res.sum_log),
        n2_abs_m_n=n * n * abs(res.m_n),
        iterations=res.iterations, residual=res.residual,
        wall_ms_balance=wall_ms)


def _build_source(config: RunConfig, subcommand: str):
    """Check n_list and csv_path, then build the configured density source;
    returns it with the potential solution if any."""
    if config.n_list is None:
        raise ConfigError(f"{subcommand} requires n_list in [study]")
    _require_csv_path(config, subcommand)
    if config.cost is not None and config.kernel_source is not None:
        raise ConfigError("config has both [cost] and [kernel]; pick one source")
    if config.kernel_source is not None:
        return config.kernel_source, None
    if config.cost is None:
        raise ConfigError("config needs a [cost] or a [kernel] section")
    solution = _solve(config)
    return bridge_mod.bridge_source(solution), solution


def _build_cost(sec, path) -> cost_mod.CostFunction:
    family = sec.get("family", "").strip()
    try:
        if family in ("quadratic", "absolute"):
            beta = _parse(sec, "beta", float) if "beta" in sec else 1.0
            if family == "quadratic":
                return cost_mod.quadratic_cost(beta)
            return cost_mod.absolute_cost(beta)
        if family == "tabulated":
            if "path" not in sec:
                raise ConfigError("tabulated cost requires a path key")
            return cost_mod.tabulated_cost(
                grid_mod.load_matrix(_resolve(path, sec["path"].strip())))
        if family == "custom-expression":
            if "expression" not in sec:
                raise ConfigError("custom-expression cost requires expression")
            return cost_mod.expression_cost(
                sec["expression"].strip(), sec.get("smoothness", "C2").strip())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"invalid [cost] section: {exc}") from exc
    raise ConfigError(f"unknown cost family {family!r} in [cost] section")


def _build_kernel(sec, path) -> bridge_mod.DensitySource:
    kind = sec.get("kind", "").strip()
    try:
        if kind == "constant":
            return bridge_mod.constant_source()
        if kind == "cosine":
            if "eps" not in sec:
                raise ConfigError("cosine kernel requires eps")
            return bridge_mod.cosine_source(float(sec["eps"]))
        if kind == "tabulated":
            if "path" not in sec:
                raise ConfigError("tabulated kernel requires a path key")
            return bridge_mod.tabulated_source(
                grid_mod.load_matrix(_resolve(path, sec["path"].strip())))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"invalid [kernel] section: {exc}") from exc
    raise ConfigError(f"unknown kernel kind {kind!r} in [kernel] section")


def _parse(sec, key, conv):
    try:
        return conv(sec[key])
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {key!r}: {sec[key]!r} ({exc})") from exc


def _resolve(config_path, value):
    """Paths in a config file are relative to the file, not the cwd."""
    if os.path.isabs(value):
        return value
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), value)


def _require_csv_path(config: RunConfig, subcommand: str) -> None:
    """Fail before any work when the output CSV has nowhere to go."""
    if config.csv_path is None:
        raise ConfigError(f"{subcommand} requires csv_path in [output]")
    directory = os.path.dirname(os.path.abspath(config.csv_path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")


def _solve(config: RunConfig) -> bridge_mod.PotentialSolution:
    """The potential of the configured cost, once it passes validate_cost's
    symmetry check: the solve and the sampler read c above the diagonal."""
    report = cost_mod.validate_cost(config.cost, config.validate_grid,
                                    config.validate_tol)
    symmetry = next(c for c in report.checks if c.name == "symmetry")
    if symmetry.status == "fail":
        raise ConfigError(f"cost {config.cost.label} is not symmetric: max "
                          f"|c(x, y) - c(y, x)| = {symmetry.max_violation:.3e}"
                          f" exceeds validate_tol {config.validate_tol:g}")
    return bridge_mod.solve_potential(
        config.cost, m=config.bridge_m, tol=config.bridge_tol,
        max_iter=config.bridge_max_iter, damping=config.bridge_damping)


def _write_csv(csv_path, record_type, records, aborted_at) -> None:
    names = [field.name for field in fields(record_type)]
    with open(csv_path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, name)) for name in names) + "\n")
        if aborted_at is not None:
            fh.write(f"# aborted at n={aborted_at}\n")


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _dump_eigenvalues(csv_path, eigenvalues) -> None:
    stem, _ = os.path.splitext(csv_path)
    with open(stem + ".eigs", "w") as fh:
        for lam in eigenvalues:
            fh.write(f"{float(lam)!r}\n")


def _ratio(values) -> float:
    hi, lo = max(values), min(values)
    if lo > 0.0:
        return hi / lo
    return math.inf if hi > 0.0 else 0.0
