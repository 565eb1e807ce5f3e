"""Expected values for every CSV row of a study, and the row checks.

Expectations are built once per benchmark run, after the studies and
outside every timed region. The benchmark obtains the matrices the study
works on through permlim's public calls with the config's parameters
(``solve_potential``, ``bridge_source``, ``sample_kernel``,
``balance_fixed_point``, ``evaluate_potential`` and the cost evaluator)
and compares the study's numbers with references that use
none of permlim's solvers:

* permanents for n <= ORACLE_MAX_N against the exact big-integer oracle;
  larger rows against the multilinearity identities
  D_n_hat = D_n prod u_i^2 and L_n = D_n prod exp(2 a(i/n));
* the Fredholm limit against the Gauss-Legendre continuum reference;
* the balancing columns against the benchmark's own symmetric scaling;
* the determinant estimate against eigenvalues of the reference balancing.

A row fails when any check falls outside its tolerance. Tolerances state
what the program must deliver, not what it happens to deliver now.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from oracle import ExactPermanent
from reference import balance_reference, continuum_limit, mccullagh_reference

ORACLE_MAX_N = 16
PERM_TOL = 1e-8       # relative, every permanent column
LIMIT_TOL = 1e-4      # relative, Fredholm limit at the default resolutions
MCC_TOL = 1e-8        # relative, determinant estimate
DERIVED_TOL = 1e-15   # relative, columns the CSV derives from other columns
BALANCE_SLACK = 10.0  # error allowed per unit of balance_tol (see _balance)
DIGITS_CLIP = 16.0    # digits of an exact value, and of an empty minimum


@dataclass
class RowExpect:
    n: int
    balance: object
    perm: dict = field(default_factory=dict)   # column -> exact per/n!
    ident: dict = field(default_factory=dict)  # column -> factor times D_n
    mccullagh: float | None = None


@dataclass
class Expectations:
    subcommand: str
    n_list: tuple
    balance_tol: float
    rows: dict
    limit: float | None
    gamma0: float


def build(pl, config, subcommand: str, beta: float,
          oracle: ExactPermanent) -> Expectations:
    """Reference values for every row the study will write."""
    solution = pl.solve_potential(
        config.cost, m=config.bridge_m, tol=config.bridge_tol,
        max_iter=config.bridge_max_iter, damping=config.bridge_damping)
    source = pl.bridge_source(solution)
    converge = subcommand == "converge"
    rows = {}
    for n in config.n_list:
        # The kernel exp(-c(x, y) - a(min) - a(max)) is formed here from the
        # cost and the potential's off-grid values in the density source's
        # order of operations: bit-identical to the study's kernel at a
        # fraction of sample_kernel's cost at n = 3200.
        t = pl.grid_nodes(n)
        a = pl.evaluate_potential(solution, t)
        C = np.asarray(config.cost(t[:, None], t[None, :]))
        i = np.arange(n)
        ref_K = np.exp(-C - a[np.minimum(i[:, None], i)]
                       - a[np.maximum(i[:, None], i)])
        exp = RowExpect(n, balance_reference(ref_K))
        if converge:
            # Permanents need the study's own matrices bit for bit.
            K = pl.sample_kernel(source, n)
            res = pl.balance_fixed_point(K, tol=config.balance_tol,
                                         max_iter=config.balance_max_iter)
            exp.mccullagh = mccullagh_reference(ref_K, exp.balance.u)
            if n <= ORACLE_MAX_N:
                exp.perm = {"D_n": oracle.normalized(K.entries),
                            "D_n_hat": oracle.normalized(res.balanced),
                            "L_n": oracle.normalized(np.exp(-C))}
            else:
                exp.ident = {"D_n_hat": float(np.prod(res.u * res.u)),
                             "L_n": math.exp(2.0 * math.fsum(a))}
        rows[n] = exp
    return Expectations(
        subcommand, tuple(config.n_list), config.balance_tol, rows,
        continuum_limit(beta) if converge else None, pl.gamma0(solution))


DIGIT_METRICS = ("perm_digits", "limit_digits", "balance_digits")


@dataclass
class Verdict:
    """Outcome of checking study CSVs: row counts, digits, problems."""

    attempted: int = 0
    failed: int = 0
    perm_digits: list = field(default_factory=list)
    limit_digits: list = field(default_factory=list)
    balance_digits: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for name in DIGIT_METRICS:
            getattr(self, name).extend(getattr(other, name))
        self.problems += other.problems


def digit_metrics(verdicts: list) -> dict:
    """Median over configs of the minimum over each config's rows.

    The minimum is the accuracy a config achieved; the median over the
    run's configs keeps one unlucky stopping residual from setting the
    run's figure. A study without such a column reports the clip, the
    minimum over an empty set.
    """
    return {name: statistics.median(min(getattr(v, name), default=DIGITS_CLIP)
                                    for v in verdicts)
            for name in DIGIT_METRICS}


def check_csv(path, exp: Expectations, exit_code: int) -> Verdict:
    """Check every expected row of a study CSV; a missing row fails."""
    v = Verdict(attempted=len(exp.n_list))
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        lines = []
        v.problems.append(f"no CSV: {err}")
    aborted = any(line.startswith("# aborted") for line in lines)
    table = {}
    for rec in csv.DictReader(line for line in lines if not line.startswith("#")):
        try:
            table[int(rec["n"])] = {k: float(x) for k, x in rec.items()}
        except (KeyError, TypeError, ValueError):
            continue  # a malformed row counts as missing
    if exit_code != 0 or aborted:
        v.failed = v.attempted
        v.problems.append(f"study exit code {exit_code}, aborted={aborted}")
        return v
    for n in exp.n_list:
        if n not in table:
            v.failed += 1
            v.problems.append(f"row n={n} missing")
            continue
        try:
            bad = _check_row(table[n], exp.rows[n], exp, v)
        except KeyError as err:
            bad = [f"column {err} missing"]
        if bad:
            v.failed += 1
            v.problems += [f"n={n}: {b}" for b in bad]
    return v


def digits(rel_err: float) -> float:
    """Correct decimal digits, -log10 of a relative error, clipped to [0, 16]."""
    if not rel_err < 1.0:  # also nan
        return 0.0
    return DIGITS_CLIP if rel_err <= 1e-16 else -math.log10(rel_err)


def _rel(value: float, reference) -> float:
    if not math.isfinite(value):
        return math.inf
    if isinstance(reference, Fraction):
        return abs(float((Fraction(value) - reference) / reference))
    return abs(value - reference) / abs(reference)


def _check_row(row: dict, exp: RowExpect, study: Expectations, v: Verdict):
    bad = _balance(row, exp, study.balance_tol, v)
    if study.subcommand == "converge":
        return bad + _converge(row, exp, study, v)
    if not (row["iterations"] >= 1 and row["residual"] <= study.balance_tol):
        bad.append(f"stopped after {row['iterations']} iterations at "
                   f"residual {row['residual']:.2e}")
    return bad + _derived(row, exp.n)


def _balance(row, exp, tol, v):
    """h columns against the reference scaling.

    The study stops at a fixed-point residual of at most ``tol`` in the
    normalised 2-norm, so its h is off by O(tol) in that norm, by
    O(sqrt(n) tol) in the sup norm, and sum log(1 + h) by O(n tol).
    """
    n, ref = exp.n, exp.balance
    allowed = {"h_norm_2n": tol, "m_n": tol, "h_norm_inf": math.sqrt(n) * tol,
               "sum_log": n * tol}
    bad = []
    for col, scale in allowed.items():
        err = abs(row[col] - getattr(ref, col))
        if not err <= BALANCE_SLACK * scale:
            bad.append(f"{col} off by {err:.2e} (allowed "
                       f"{BALANCE_SLACK * scale:.1e})")
    v.balance_digits += [digits(_rel(row["h_norm_2n"], ref.h_norm_2n)),
                         digits(_rel(row["sum_log"], ref.sum_log))]
    return bad


def _converge(row, exp, study, v):
    bad = []
    values = {"D_n": row["D_n"], "D_n_hat": row["D_n_hat"],
              "L_n": row["L_n_scaled"] / math.exp(exp.n * study.gamma0)}
    for col, ref in exp.perm.items():
        err = _rel(values[col], ref)
        v.perm_digits.append(digits(err))
        if not err <= PERM_TOL:
            bad.append(f"{col} relative error {err:.2e} vs exact permanent")
    for col, factor in exp.ident.items():
        err = _rel(values[col], row["D_n"] * factor)
        if not err <= PERM_TOL:
            bad.append(f"{col} breaks its identity with D_n by {err:.2e}")
    err = _rel(row["fredholm_limit"], study.limit)
    v.limit_digits.append(digits(err))
    if not err <= LIMIT_TOL:
        bad.append(f"fredholm_limit relative error {err:.2e}")
    err = _rel(row["mccullagh"], exp.mccullagh)
    if not err <= MCC_TOL:
        bad.append(f"mccullagh relative error {err:.2e}")
    derived = {
        "err_Dn": abs(row["D_n"] - row["fredholm_limit"]),
        "err_ratio_mcc": abs(row["mccullagh"] / row["D_n_hat"] - 1.0),
    }
    return bad + _same(row, derived)


def _derived(row, n):
    derived = {
        "n_h_norm_2n": n * row["h_norm_2n"],
        "sqrt_n_h_norm_inf": math.sqrt(n) * row["h_norm_inf"],
        "n_abs_sum_log": n * abs(row["sum_log"]),
        "n2_abs_m_n": n * n * abs(row["m_n"]),
    }
    return _same(row, derived)


def _same(row, derived):
    return [f"{col} = {row[col]!r} but its definition gives {want!r}"
            for col, want in derived.items()
            if not abs(row[col] - want) <= DERIVED_TOL * abs(want)]
