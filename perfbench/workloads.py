"""The three end-to-end workloads, each a closed loop with one caller.

Every workload reports the same metrics, each measured with tracing off:

* ``setup_s`` -- median wall time of a fresh interpreter that imports
  ``evtrisk`` and builds the workload's config and ground truth;
* ``throughput_per_s`` -- units of work per second of operation time;
* ``peak_rss_mb`` -- peak resident set of the benchmark process.

Each run also prints the latency of one operation, as a median and as the
percentile at ``TAIL_LEVEL``: the highest one that keeps at least 10
samples beyond it at the workload's guaranteed operation count (the loop
runs on past ``--seconds`` until it has that many).  They carry no bound:
on a machine whose speed drifts between runs, a median over one run snaps
to the run's slower or faster phase, where the mean behind the throughput
averages over it.

An operation and its unit of work are, per workload:

========  ==================================================  ==========
workload  operation                                           unit
========  ==================================================  ==========
estimate  warm ``evt_estimate`` on each of the 48 data sets   call
grid      one ``run_experiment`` at ``workers=1``              trial
oracle    one ``monte_carlo_semideviation`` at n = 4e6         sample
========  ==================================================  ==========

``estimate`` also runs ``evtrisk estimate`` in fresh processes on a few of
its data sets, untimed, to check the command's output.  Every operation's
output is checked; a crash, an unexpected exit code or a failed check
counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import LAWS, make_datasets, write_csv
from reference import mismatches, reference_estimate

ALPHA = 0.01
SETUP_REPEATS = 5
CLI_CHECKS = 3
ORACLE_SAMPLES = 4_000_000
ORACLE_SE_LIMIT = 3.0
GRID_M_VALUES = (20, 35, 50, 65, 80, 99)
GRID_TRIALS = 160
# Fixed grid whose CSV was recorded at the commit that defined this
# benchmark (reference_grid.csv); every grid run re-runs and compares it.
GOLDEN_CONFIG = dict(distributions=LAWS, m_values=(20, 99), trials=50, master_seed=1729)
GOLDEN_RTOL = 1e-7                  # the CSV keeps 9 significant digits
HERE = Path(__file__).resolve().parent
GOLDEN_CSV = HERE / "reference_grid.csv"

# min_ops: operations every run makes; the tail is the highest percentile
# with 10 samples beyond it at that count.  cycle: runs end on whole input
# cycles, so each run weighs the inputs the same.
MIN_OPS = {"estimate": 1000, "grid": 25, "oracle": 24}
CYCLE = {"estimate": 1, "grid": 1, "oracle": len(LAWS)}
TAIL_LEVEL = {name: 1.0 - 10.0 / n for name, n in MIN_OPS.items()}
UNIT_OF_WORK = {"estimate": "call", "grid": "trial", "oracle": "sample"}


@dataclass(frozen=True)
class Scale:
    """Input sizes: full, or ``tiny`` for the harness's own smoke test."""

    tiny: bool = False

    def repeats(self, full: int) -> int:
        """How often to repeat a step that runs ``full`` times at full size."""
        return min(full, 2) if self.tiny else full

    @property
    def grid_trials(self) -> int:
        return 4 if self.tiny else GRID_TRIALS

    @property
    def oracle_samples(self) -> int:
        return 20_000 if self.tiny else ORACLE_SAMPLES


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


@dataclass(frozen=True)
class Env:
    """Where the measured program lives and how to start it fresh."""

    src: Path
    workdir: Path

    def child_env(self) -> dict:
        env = dict(os.environ)
        env.pop("EVTRISK_SEED", None)        # it would silently override seeds
        env["PYTHONPATH"] = str(self.src)
        return env

    def python(self, code: str, *args: str, flags=()) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                              text=True, env=self.child_env(), cwd=self.workdir, timeout=120)


def grid_config(seed: int, scale: Scale):
    import evtrisk
    return evtrisk.ExperimentConfig(distributions=LAWS, m_values=GRID_M_VALUES,
                                    trials=scale.grid_trials, master_seed=seed)


SETUP_CODE = {
    "estimate": "import evtrisk",
    "grid": (
        "import evtrisk\n"
        "cfg = evtrisk.ExperimentConfig(distributions={laws!r}, m_values={ms!r},"
        " trials={trials}, master_seed={seed})\n"
        "truth = [evtrisk.ground_truth_value(cfg, evtrisk.get_distribution(n))"
        " for n in cfg.distributions]"
    ),
    "oracle": (
        "import evtrisk\n"
        "truth = [d.extremal_semideviation({alpha}) for d in evtrisk.DISTRIBUTIONS.values()]"
    ),
}


def measure_setup(env: Env, workload: str, seed: int, scale: Scale, outcome: Outcome) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    code = SETUP_CODE[workload].format(laws=LAWS, ms=GRID_M_VALUES, trials=scale.grid_trials,
                                       seed=seed, alpha=ALPHA)
    code += "\nprint(evtrisk.__file__)"
    times = []
    for _ in range(scale.repeats(SETUP_REPEATS)):
        t0 = time.perf_counter()
        proc = env.python(code)
        times.append(time.perf_counter() - t0)
        where = Path(proc.stdout.strip() or ".").resolve()
        ok = proc.returncode == 0 and env.src in where.parents
        outcome.record(ok, f"setup: exit {proc.returncode}, evtrisk from {where}: "
                           f"{proc.stderr.strip()[-300:]}")
    return float(np.median(times))


def closed_loop(workload: str, run_one, seconds: float, scale: Scale, outcome: Outcome) -> list:
    """Call ``run_one(i)`` back to back until ``seconds`` have passed.

    ``run_one`` times its own operation and returns ``(seconds, ok, note)``,
    so checking the output stays outside the timed interval.  The loop keeps
    going past the deadline until it has the workload's minimum count and has
    finished a whole input cycle, but never more than a minute past it.
    """
    min_ops = 1 if scale.tiny else MIN_OPS[workload]
    cycle = CYCLE[workload]
    latencies = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    hard_stop = deadline + 60
    while True:
        now = time.perf_counter()
        at_cycle_end = len(latencies) % cycle == 0
        if at_cycle_end and latencies and (
                (now >= deadline and len(latencies) >= min_ops) or now >= hard_stop):
            return latencies
        elapsed, ok, note = run_one(len(latencies))
        latencies.append(elapsed)
        outcome.record(ok, note)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# estimate: warm evt_estimate on seeded data, plus `evtrisk estimate` checks
# --------------------------------------------------------------------------

CLI_CODE = "import sys; from evtrisk.cli import main; sys.exit(main())"


def check_cli(proc, want, values, label) -> tuple[bool, str]:
    if want is None:
        ok = proc.returncode == 1 and "fit error" in proc.stderr
        return ok, f"{label}: expected a fit error, got exit {proc.returncode}"
    if proc.returncode != 0:
        return False, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        got = json.loads(proc.stdout)
    except ValueError as exc:
        return False, f"{label}: unreadable JSON: {exc}"
    bad = mismatches(got, want, float(np.max(np.abs(values))))
    return not bad, f"{label}: fields differ from the reference: {bad}"


def report_as_json(report) -> dict:
    """An EstimateReport in the layout of the `evtrisk estimate` JSON."""
    p, a = report.params, report.assumptions
    return {
        "m": p.m, "k": p.k, "s": p.threshold, "gamma": p.gamma, "g_s": p.scale,
        "mu_m": report.sample_mean, "var_theta": report.var_tail,
        "cvar_theta": report.cvar_tail, "rho_evt": report.rho_evt,
        "rho_typical": report.rho_typical,
        "assumptions": {"alpha_lt_k_over_m": a.alpha_lt_k_over_m,
                        "var_ge_mean": a.var_ge_mean, "gamma_lt_1": a.gamma_lt_1},
        "warnings": list(report.warnings),
    }


def check_estimate(report, want, magnitude: float, label: str) -> str:
    """Why an ``evt_estimate`` outcome (None for a FitError) is wrong, or ''."""
    if report is None:
        return "" if want is None else f"{label}: unexpected FitError"
    if want is None:
        return f"{label}: expected a FitError"
    bad = mismatches(report_as_json(report), want, magnitude)
    return f"{label}: fields differ from the reference: {bad}" if bad else ""


def run_estimate(env: Env, seed: int, seconds: float, scale: Scale, outcome: Outcome):
    import evtrisk
    datasets = make_datasets(seed)
    values = [ds.values for ds in datasets]
    expected = [reference_estimate(v, ALPHA) for v in values]
    magnitude = [float(np.max(np.abs(v))) for v in values]
    evt_estimate, fit_error = evtrisk.evt_estimate, evtrisk.FitError
    clock = time.perf_counter

    def one_call(j):
        """(seconds, why it failed or '') for one timed call on data set j."""
        try:
            t0 = clock()
            report = evt_estimate(values[j], ALPHA)
            elapsed = clock() - t0
        except fit_error:
            elapsed, report = clock() - t0, None
        except Exception as exc:                      # a crash fails the pass
            return clock() - t0, f"set {j}: {_failure(exc)}"
        return elapsed, check_estimate(report, expected[j], magnitude[j], f"set {j}")

    def run_one(i):
        # One pass over every data set: a pass weighs the inputs the same
        # every time, where single calls differ by input.
        results = [one_call(j) for j in range(len(values))]
        problems = [why for _, why in results if why]
        return sum(t for t, _ in results), not problems, problems[0] if problems else ""

    latencies = closed_loop("estimate", run_one, seconds, scale, outcome)
    run_cli(env, datasets, expected, CLI_CHECKS, outcome)
    return latencies, len(latencies) * len(values)


def run_cli(env: Env, datasets, expected, count: int, outcome: Outcome) -> list:
    """``evtrisk estimate`` in fresh processes on ``count`` data sets, checked.

    The sets are the first ones plus the first whose fit must fail, so the
    error exit is exercised too.  Returns each process's wall time.
    """
    chosen = list(range(count))
    chosen += [j for j, want in enumerate(expected) if want is None][:1]
    times = []
    for j in chosen:
        path = env.workdir / f"set{j:02d}-{datasets[j].law}.csv"
        write_csv(datasets[j], path)
        t0 = time.perf_counter()
        try:
            proc = env.python(CLI_CODE, "estimate", "--input", str(path), "--alpha", str(ALPHA))
        except subprocess.TimeoutExpired as exc:
            outcome.record(False, f"{path.name}: {_failure(exc)}")
            continue
        times.append(time.perf_counter() - t0)
        outcome.record(*check_cli(proc, expected[j], datasets[j].values, path.name))
    return times


# --------------------------------------------------------------------------
# grid: the paper's experiment at workers=1, analytic ground truth
# --------------------------------------------------------------------------

def grid_csv(summaries) -> list:
    from evtrisk.cli import CSV_HEADER, summary_row
    return [CSV_HEADER] + [summary_row(s) for s in summaries]


def check_grid_rows(rows, trials: int) -> str:
    """Why the CSV rows of the workload's grid are malformed, or ''."""
    cells = len(LAWS) * len(GRID_M_VALUES)
    if len(rows) != cells + 1:
        return f"{len(rows) - 1} rows, expected {cells}"
    for row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 10 or int(fields[2]) != trials:
            return f"bad row {row!r}"
        if not 0.0 <= float(fields[3]) <= 1.0 or not all(
                math.isfinite(float(x)) for x in fields[4:7]):
            return f"bad row {row!r}"
    return ""


def golden_mismatches(rows) -> list:
    """CSV fields of the golden grid that differ from reference_grid.csv."""
    want = GOLDEN_CSV.read_text(encoding="utf-8").splitlines()
    if len(rows) != len(want) or rows[0] != want[0]:
        return ["header or row count"]
    bad = []
    for got_row, want_row in zip(rows[1:], want[1:]):
        got, ref = got_row.split(","), want_row.split(",")
        if got[:3] != ref[:3]:
            bad.append(f"{got_row} vs {want_row}")
            continue
        for a, b in zip(map(float, got[3:]), map(float, ref[3:])):
            same = (math.isnan(a) and math.isnan(b)) or math.isclose(
                a, b, rel_tol=GOLDEN_RTOL, abs_tol=1e-12)
            if not same:
                bad.append(f"{got_row} vs {want_row}")
                break
    return bad


def golden_rows():
    import evtrisk
    return grid_csv(evtrisk.run_experiment(evtrisk.ExperimentConfig(**GOLDEN_CONFIG)))


def run_grid(env: Env, seed: int, seconds: float, scale: Scale, outcome: Outcome):
    import evtrisk
    config = grid_config(seed, scale)
    digests = []

    def run_one(i):
        try:
            t0 = time.perf_counter()
            summaries = evtrisk.run_experiment(config, workers=1)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            return time.perf_counter() - t0, False, f"grid: {_failure(exc)}"
        rows = grid_csv(summaries)
        digests.append(hashlib.sha256("\n".join(rows).encode()).hexdigest())
        if digests[-1] != digests[0]:
            return elapsed, False, "grid: CSV differs from the run's first grid"
        problem = check_grid_rows(rows, config.trials)
        return elapsed, not problem, f"grid: {problem}"

    latencies = closed_loop("grid", run_one, seconds, scale, outcome)
    bad = golden_mismatches(golden_rows())
    outcome.record(not bad, f"golden grid differs: {bad[:3]}")
    return latencies, len(latencies) * len(LAWS) * len(GRID_M_VALUES) * config.trials


# --------------------------------------------------------------------------
# oracle: bulk Monte Carlo ground truth, all six laws
# --------------------------------------------------------------------------

def run_oracle(env: Env, seed: int, seconds: float, scale: Scale, outcome: Outcome):
    import evtrisk
    dists = [evtrisk.get_distribution(name) for name in LAWS]
    truth = [d.extremal_semideviation(ALPHA) for d in dists]
    first = {}
    n = scale.oracle_samples

    def run_one(i):
        j = i % len(dists)
        stream = evtrisk.RandomStream(seed)
        try:
            t0 = time.perf_counter()
            estimate, std_error = evtrisk.monte_carlo_semideviation(dists[j], ALPHA, n, stream)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            return time.perf_counter() - t0, False, f"{LAWS[j]}: {_failure(exc)}"
        z = (estimate - truth[j]) / std_error
        repeat = first.setdefault(j, estimate) == estimate
        ok = repeat and abs(z) <= ORACLE_SE_LIMIT
        return elapsed, ok, f"{LAWS[j]}: z = {z:+.2f}, same as first draw: {repeat}"

    latencies = closed_loop("oracle", run_one, seconds, scale, outcome)
    return latencies, len(latencies) * n


RUNNERS = {"estimate": run_estimate, "grid": run_grid, "oracle": run_oracle}


def measure(env: Env, workload: str, seed: int, seconds: float, scale: Scale,
            outcome: Outcome) -> tuple[dict, dict]:
    """End-to-end metrics of one run, plus how they were taken and the latencies."""
    setup = measure_setup(env, workload, seed, scale, outcome)
    latencies, work = RUNNERS[workload](env, seed, seconds, scale, outcome)
    lat = np.array(latencies)
    level = TAIL_LEVEL[workload]
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (work / float(lat.sum()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "unit_of_work": UNIT_OF_WORK[workload],
        "operations": len(lat),
        "latency_p50_ms": float(np.median(lat)) * 1e3,
        "latency_tail_ms": float(np.quantile(lat, level)) * 1e3,
        "tail_percentile": round(100 * level, 2),
        "setup_repeats": scale.repeats(SETUP_REPEATS),
    }
    return metrics, notes
