#!/usr/bin/env python3
"""permlim benchmark: seeded CLI studies, timed next to their accuracy.

    python3 perfbench/run.py --workload converge-quadratic --seed 0 \
        --seconds 36 --trace 0
    python3 perfbench/run.py          # every workload, seed 0, untraced

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed. Each workload writes INI configs whose
quadratic-cost scale beta is drawn from the seed and runs one ``permlim``
study at a time (closed loop) as a subprocess, timing it from spawn to
exit, until ``--seconds`` are spent. Every CSV row is checked against
references built outside the timed region (see checks.py). ``--trace 1``
instead runs the study in-process, alternately plain and with every layer
wrapped by the span recorder (tracer.py), and reports per-layer numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and a run record.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

# One BLAS thread, so that the default single permanent worker plus BLAS
# stays within the two cores. Set before numpy is imported, here and in
# every study subprocess.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from tracer import Recorder, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

BETA_RANGE = (0.5, 2.0)
BETAS_PER_RUN = 3       # studies cycle through them; traced runs use the first
MIN_SETUPS = 7          # fresh interpreters per run, after one warm-up
MIN_STUDY_RUNS = BETAS_PER_RUN
HARD_LIMIT_S = 170.0    # the whole benchmark process, children included

# The benchmark's contract: workloads, metric names, units and run length.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# name -> (subcommand, INI sections besides [cost] and [output]); the
# reasons for each are in BENCHMARK.json and README.md.
WORKLOADS = {
    "converge-quadratic": ("converge", {"study": {
        "n_list": "8 12 16 20 22", "nystrom_m": "128"}}),
    "balance-quadratic": ("balance-study", {"study": {
        "n_list": "200 400 800 1600 3200"}}),
    "limit-quadratic": ("converge", {"bridge": {"m": "3200"}, "study": {
        "n_list": "8 12", "nystrom_m": "512"}}),
}


def seeded_betas(seed: int) -> list[float]:
    """One beta from each third of BETA_RANGE, in a seeded order.

    Digits depend smoothly on beta (the midpoint-rule error of the limit
    grows with it), so a single draw per run made the accuracy metrics
    spread by ~8% across seeds; one draw per stratum bounds that spread
    while every run still covers the whole range.
    """
    rng = np.random.default_rng(seed)
    lo, hi = BETA_RANGE
    k = BETAS_PER_RUN
    draws = [lo + (hi - lo) * (i + u) / k
             for i, u in enumerate(rng.uniform(size=k))]
    return [float(draws[i]) for i in rng.permutation(k)]


def write_ini(path: Path, sections: dict, beta: float, csv_name: str) -> None:
    sections = {"cost": {"family": "quadratic", "beta": repr(beta)},
                **sections, "output": {"csv_path": csv_name}}
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())


class Runner:
    """Spawns children with the benchmark's environment under one deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get(
                "PYTHONPATH", "").split(os.pathsep) if p])}

    def spawn(self, args):
        """(wall seconds, exit code, peak RSS in MB) of one child process."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return 0.0, -1, 0.0
        with open(self.workdir / "child.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.workdir,
                                    env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


@dataclasses.dataclass
class Study:
    """One seeded config and its files in the work dir."""

    beta: float
    ini: str
    csv: str
    config: object


def keep_output(runner, study, k, code, outputs) -> Path:
    """Move a study's CSV aside, to be checked after the timed region."""
    src = runner.workdir / study.csv
    dst = runner.workdir / f"out-{len(outputs)}.csv"
    if src.exists():
        src.replace(dst)
    outputs.append((k, dst, code))
    return dst


def timed_runs(studies, subcommand, runner, seconds):
    """End-to-end timings from fresh-interpreter set-ups and CLI studies."""
    setup_cmd = ["-c", "import sys, permlim; permlim.load_config(sys.argv[1])",
                 studies[0].ini]
    runner.spawn(setup_cmd)  # warm-up: byte-compiles permlim once
    setups, walls, rss, outputs = [], [], [], []
    t0 = time.perf_counter()
    while True:
        # Set-ups are interleaved with the studies, so both medians cover
        # the same stretch of time on a machine whose speed drifts.
        setups.append(runner.spawn(setup_cmd))
        k = len(walls) % len(studies)
        wall, code, peak = runner.spawn(
            ["-m", "permlim", subcommand, "--config", studies[k].ini])
        keep_output(runner, studies[k], k, code, outputs)
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - t0
        if code == -1 or (len(walls) >= MIN_STUDY_RUNS and
                          elapsed * (len(walls) + 1) / len(walls) > seconds):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn(setup_cmd))
    problems = [f"set-up exit code {code}" for _, code, _ in setups if code]
    metrics = {
        "study_s": statistics.median(walls),
        "setup_s": statistics.median(w for w, _, _ in setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {"study_runs": len(walls), "study_s_all": walls,
             "setup_s_all": [w for w, _, _ in setups], "peak_rss_mb_all": rss}
    return metrics, outputs, problems, notes


def traced_runs(study, subcommand, runner, seconds, spans_path):
    """Per-layer metrics from in-process runs, alternately plain and traced."""
    from permlim import balance, bridge, grid, lab, permanent, spectral
    modules = {"bridge": bridge, "grid": grid, "balance": balance,
               "permanent": permanent, "spectral": spectral, "lab": lab}
    attr = "run_converge" if subcommand == "converge" else "run_balance_study"
    plain = dataclasses.replace(study.config,
                                csv_path=str(runner.workdir / study.csv))
    outputs, problems = [], []
    walls = {False: [], True: []}
    layers, spans = [], []

    def one(traced):
        recorder = Recorder()
        cfg = recorder.traced_config(plain) if traced else plain
        undo = recorder.install(modules) if traced else (lambda: None)
        code = 0
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True):
                t0 = time.perf_counter()
                try:
                    getattr(lab, attr)(cfg)
                except Exception as err:  # a failing study is a result
                    code = 1
                    problems.append(f"in-process study raised {err!r}")
                wall = time.perf_counter() - t0
        finally:
            undo()
        csv_path = keep_output(runner, study, 0, code, outputs)
        walls[traced].append(wall)
        if traced:
            m = layer_metrics(recorder.spans, wall, plain.workers)
            m["lab.csv_bytes"] = float(csv_path.stat().st_size
                                       if csv_path.exists() else 0)
            layers.append(m)
            spans.append([dataclasses.asdict(x) for x in recorder.spans])

    t0 = time.perf_counter()
    pairs = 0
    while True:
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            one(traced)
        pairs += 1
        elapsed = time.perf_counter() - t0
        if (time.monotonic() > runner.deadline
                or elapsed * (pairs + 1) / pairs > seconds):
            break
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    TRACES.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
    notes = {"pairs": pairs, "plain_s": walls[False], "traced_s": walls[True],
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, outputs, problems, notes


def git_sha():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(name, seed, studies, notes):
    import scipy
    return {
        "workload": name, "seed": seed, "betas": [s.beta for s in studies],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "permanent_workers": studies[0].config.workers,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "git_sha": git_sha(), **notes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    import permlim as pl

    subcommand, sections = WORKLOADS[name]
    betas = seeded_betas(seed)[:1 if trace else None]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        problems = (oracle.self_check(pl.permanent_brute)
                    + reference.continuum_self_check())
        studies = []
        for k, beta in enumerate(betas):
            ini, csv_name = f"study-{k}.ini", f"study-{k}.csv"
            write_ini(workdir / ini, sections, beta, csv_name)
            studies.append(Study(beta, ini, csv_name,
                                 pl.load_config(workdir / ini)))
        runner = Runner(workdir, deadline)
        if trace:
            metrics, outputs, more, notes = traced_runs(
                studies[0], subcommand, runner, seconds,
                TRACES / f"{name}-seed{seed}.json")
        else:
            metrics, outputs, more, notes = timed_runs(
                studies, subcommand, runner, seconds)
        # References are built after the studies: outside the timed region,
        # and after every child has been spawned, because a child's peak
        # RSS from rusage includes this process's high-water mark at fork.
        exact = oracle.ExactPermanent()
        expects = [checks.build(pl, s.config, subcommand, s.beta, exact)
                   for s in studies]
        verdicts = [checks.Verdict() for _ in studies]
        for k, path, code in outputs:
            verdicts[k].merge(checks.check_csv(path, expects[k], code))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdict = checks.Verdict()
    for v in verdicts:
        verdict.merge(v)
    if not trace:
        metrics.update(checks.digit_metrics(verdicts))
        metrics["pass_share"] = 1.0 - verdict.failed / verdict.attempted
    problems += more + verdict.problems
    result = {
        "correct": verdict.failed == 0 and not problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in SPEC["per_layer" if trace else "end_to_end"]},
    }
    _report(name, seed, result, problems,
            run_record(name, seed, studies, notes))
    return result


def _report(name, seed, result, problems, record):
    betas = " ".join(f"{b:.6f}" for b in record["betas"])
    print(f"workload {name}  seed {seed}  beta {betas}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:<14.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':40s} {share:<14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} rows failed)")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print("run_record " + json.dumps(record))


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {HARD_LIMIT_S:.0f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permlim" / "__init__.py").is_file():
        print(f"perfbench: no permlim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(HARD_LIMIT_S) + 5)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), time.monotonic() + HARD_LIMIT_S)
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of this script, so none inherits
    another's memory high-water mark; the last line maps name -> result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
