"""The traced run: per-layer metrics for every layer, from one sweep.

Layers are the package's modules.  The sweep is the same for every
workload; it drives each layer at the sizes the workloads use it:

* import -- ``python -X importtime -c "import evtrisk"`` in fresh processes;
* estimate -- ``load_csv`` and ``evt_estimate`` on the seeded data sets, and
  ``evtrisk estimate`` in fresh processes on a few of them;
* grid -- the grid workload's ``run_experiment``, alternately with the
  tracer off and on; the pairs give the tracer's own overhead;
* oracle -- one ``monte_carlo_semideviation`` per law at the oracle's size;
* ground truth -- ``Distribution.extremal_semideviation`` per law;
* pool -- the grid at ``workers=2`` against ``workers=1``, tracer off.

Grid figures are per traced trial (all time in one function's spans over
the trials), so that self times along the per-trial path add up; the
others are per call.  A sampler's time includes the rng calls it makes.
"""

from __future__ import annotations

import hashlib
import re
import time
from pathlib import Path

import numpy as np

from inputs import LAWS, make_datasets, write_csv
from reference import reference_estimate
from tracer import Tracer, self_times
from workloads import (ALPHA, GRID_M_VALUES, Env, Outcome, Scale, check_estimate,
                       check_grid_rows, grid_config, grid_csv, run_cli)

IMPORT_REPEATS = 3
ESTIMATE_PASSES = 10
GROUND_TRUTH_REPEATS = 20
WORDS_PROBE = 1_000
SAMPLE_M = 50                       # sample size that distributions.sample_us.* reports
GRID_PAIRS = (2, 6)                 # fewest and most untraced/traced grid pairs
POOL_REPEATS = 2
US = 1e-3                           # span times are in ns
IMPORTS = {                         # metric suffix -> module named by -X importtime
    "numpy": "numpy",
    "scipy_special": "scipy.special",
    "scipy_optimize": "scipy.optimize",
    "scipy_integrate": "scipy.integrate",
}
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(env: Env, repeats: int, outcome: Outcome) -> dict:
    """Cumulative import time of each heavy dependency, and the package's own (s).

    Cumulative figures nest: a module first imported inside another (as
    scipy.special inside scipy.optimize) counts in both.  A module the
    package no longer imports reads 0.
    """
    runs = []
    for _ in range(repeats):
        proc = env.python("import evtrisk", flags=("-X", "importtime"))
        outcome.record(proc.returncode == 0, f"importtime: {proc.stderr[-300:]}")
        cumulative, own = {}, 0
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                self_us, cum_us, module = match.groups()
                cumulative.setdefault(module, int(cum_us))
                if module == "evtrisk" or module.startswith("evtrisk."):
                    own += int(self_us)
        run = {key: cumulative.get(module, 0) / 1e6 for key, module in IMPORTS.items()}
        run["evtrisk_self"] = own / 1e6
        runs.append(run)
    return {key: float(np.median([run[key] for run in runs])) for key in runs[0]}


class Phases:
    """Spans of a tracer, split into the contiguous index range of each phase."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ranges: dict[str, tuple[int, int]] = {}
        self.traced_grids = 0

    def run(self, phase: str, body):
        first = len(self.tracer)
        result = body()
        previous = self.ranges.get(phase, (first, first))
        self.ranges[phase] = (previous[0], len(self.tracer))
        return result

    def finish(self):
        self.spans = self.tracer.arrays()
        self.own = self_times(self.spans)
        self.duration = self.spans["end"] - self.spans["start"]
        self.tag_text = np.array(self.tracer.tags, dtype=object)[self.spans["tag"]]

    def mask(self, phase: str, name: str, tag: str | None = None) -> np.ndarray:
        lo, hi = self.ranges.get(phase, (0, 0))
        ids = self.tracer.names
        out = np.zeros(len(self.own), dtype=bool)
        if name in ids:
            out[lo:hi] = self.spans["name"][lo:hi] == ids.index(name)
        if tag is not None:
            out &= self.tag_text == tag
        return out

    def mean(self, values: np.ndarray, mask: np.ndarray) -> float:
        return float(values[mask].mean()) if mask.any() else 0.0


def estimate_phase(env: Env, seed: int, passes: int, cli_runs: int, outcome: Outcome) -> dict:
    import evtrisk
    import evtrisk.cli
    datasets = make_datasets(seed)
    expected = [reference_estimate(ds.values, ALPHA) for ds in datasets]
    paths = []
    for i, ds in enumerate(datasets):
        paths.append(env.workdir / f"traced{i:02d}.csv")
        write_csv(ds, paths[-1])
    fit_errors = tied = 0                        # counted on the first pass
    for p in range(passes):
        first_pass = p == 0
        for path, want, ds in zip(paths, expected, datasets):
            values = evtrisk.cli.load_csv(str(path)).values
            try:
                report = evtrisk.evt_estimate(values, ALPHA)
            except evtrisk.FitError:
                report = None
                fit_errors += first_pass
            else:
                tied += first_pass and "tied-threshold" in report.warnings
            problem = check_estimate(report, want, float(np.max(np.abs(ds.values))), path.name)
            outcome.record(not problem, problem)
    fitted = len(datasets) - fit_errors
    processes = run_cli(env, datasets, expected, cli_runs, outcome)
    return {"fitting.fit_error_share": (fit_errors / len(datasets), "share"),
            "fitting.tied_threshold_share": (tied / max(fitted, 1), "share"),
            "cli.estimate_process_s": (float(np.median(processes)) if processes else 0.0, "s")}


def grid_phase(phases: Phases, seed: int, seconds: float, scale: Scale,
               outcome: Outcome) -> tuple[dict, str]:
    """Untraced/traced pairs of the grid workload's operation."""
    import evtrisk
    tracer = phases.tracer
    config = grid_config(seed, scale)
    trials = len(config.distributions) * len(config.m_values) * config.trials
    untraced, traced, digests = [], [], []
    deadline = time.perf_counter() + seconds / 2
    while len(traced) < GRID_PAIRS[1] and (
            len(traced) < GRID_PAIRS[0] or time.perf_counter() < deadline):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.install()
            try:
                t0 = time.perf_counter()
                summaries = phases.run("grid", lambda: evtrisk.run_experiment(config))
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            (traced if with_trace else untraced).append(elapsed)
            rows = grid_csv(summaries)
            digests.append(hashlib.sha256("\n".join(rows).encode()).hexdigest())
            problem = check_grid_rows(rows, config.trials)
            if digests[-1] != digests[0]:
                problem = "tracing changed the grid's CSV"
            outcome.record(not problem, f"traced grid: {problem}")
    valid = np.array([float(row.split(",")[3]) for row in rows[1:]])
    overhead = np.median(np.array(traced) / np.array(untraced)) - 1.0
    metrics = {
        "estimators.evt_valid_share": (float(valid.mean()), "share"),
        "trace.overhead_share": (float(overhead), "share"),
        "trace.untraced_trial_us": (float(np.median(untraced)) / trials * 1e6, "us"),
    }
    phases.traced_grids = len(traced)
    return metrics, digests[0]


def oracle_phase(phases: Phases, seed: int, scale: Scale, outcome: Outcome) -> None:
    import evtrisk
    for name in LAWS:
        dist = evtrisk.get_distribution(name)
        estimate, std_error = phases.run("oracle", lambda: evtrisk.monte_carlo_semideviation(
            dist, ALPHA, scale.oracle_samples, evtrisk.RandomStream(seed)))
        z = (estimate - dist.extremal_semideviation(ALPHA)) / std_error
        outcome.record(abs(z) <= 3.0, f"traced oracle {name}: z = {z:+.2f}")


def ground_truth_phase(phases: Phases, repeats: int) -> None:
    import evtrisk
    for name in LAWS:
        dist = evtrisk.get_distribution(name)
        for _ in range(repeats):
            phases.run("ground_truth", lambda: dist.extremal_semideviation(ALPHA))


def words_per_value(seed: int) -> dict:
    """Exact count of 64-bit rng words one sampled value consumes, per law."""
    import evtrisk
    out = {}
    for name in LAWS:
        stream = evtrisk.RandomStream(seed)
        evtrisk.get_distribution(name).sample(WORDS_PROBE, stream)
        out[f"rng.words_per_value.{name}"] = (stream.counter / WORDS_PROBE, "count")
    return out


def pool_speedup(seed: int, scale: Scale, digest: str, outcome: Outcome) -> float:
    """Grid time at workers=1 over workers=2, tracer off; indicative on shared cores."""
    import evtrisk
    config = grid_config(seed, scale)
    times = {1: [], 2: []}
    for repeat in range(POOL_REPEATS):
        for workers in ((1, 2) if repeat % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            summaries = evtrisk.run_experiment(config, workers=workers)
            times[workers].append(time.perf_counter() - t0)
            same = hashlib.sha256("\n".join(grid_csv(summaries)).encode()).hexdigest() == digest
            outcome.record(same, f"grid at workers={workers} differs from workers=1")
    return float(np.median(times[1]) / np.median(times[2]))


def traced_run(env: Env, seed: int, seconds: float, scale: Scale, outcome: Outcome,
               spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    phases = Phases(tracer)
    metrics = {f"cli.import_s.{key}": (value, "s") for key, value in
               import_times(env, scale.repeats(IMPORT_REPEATS), outcome).items()}

    tracer.install()
    try:
        metrics.update(phases.run("estimate", lambda: estimate_phase(
            env, seed, scale.repeats(ESTIMATE_PASSES), scale.repeats(IMPORT_REPEATS), outcome)))
        oracle_phase(phases, seed, scale, outcome)
        ground_truth_phase(phases, scale.repeats(GROUND_TRUTH_REPEATS))
    finally:
        tracer.uninstall()
    grid_metrics, digest = grid_phase(phases, seed, seconds, scale, outcome)
    metrics.update(grid_metrics)
    metrics.update(words_per_value(seed))
    metrics["benchmark.pool_speedup_w2"] = (pool_speedup(seed, scale, digest, outcome), "ratio")

    phases.finish()
    grid_trials = len(LAWS) * len(GRID_M_VALUES) * scale.grid_trials * phases.traced_grids
    metrics.update(span_metrics(phases, scale, grid_trials))
    tracer.save(spans_path)
    notes = {"spans": len(tracer), "spans_file": str(spans_path)}
    return dict(sorted(metrics.items())), notes


def span_metrics(ph: Phases, scale: Scale, grid_trials: int) -> dict:
    """Per-layer figures from the spans; a function never called reads 0."""
    dur, own = ph.duration, ph.own
    cells = grid_trials / scale.grid_trials

    def per_trial(values, name):
        return values[ph.mask("grid", name)].sum() / grid_trials * US

    out = {"cli.load_csv_us": (ph.mean(dur, ph.mask("estimate", "cli.load_csv")) * US, "us")}
    sample = ph.mask("grid", "distributions.sample")
    from_sampler = ph.mask("grid", "rng.uniform")
    from_sampler[from_sampler] = sample[ph.spans["parent"][from_sampler]]
    out.update({
        "rng.derive_seed_us": (per_trial(dur, "rng.derive_seed"), "us"),
        "rng.stream_uniform_us": (ph.mean(dur, from_sampler) * US, "us"),
        "fitting.sort_and_summarize_us": (per_trial(own, "fitting.sort_and_summarize"), "us"),
        "fitting.select_threshold_us": (per_trial(own, "fitting.select_threshold"), "us"),
        "fitting.pwm_fit_us": (per_trial(own, "fitting.pwm_fit"), "us"),
        "tail_model.closed_forms_us": (sum(per_trial(own, name) for name in (
            "tail_model.value_at_risk", "tail_model.cvar",
            "tail_model.extremal_semideviation")), "us"),
        "estimators.evt_estimate_self_us": (per_trial(own, "estimators.evt_estimate"), "us"),
        "estimators.typical_us": (per_trial(dur, "estimators.typical_semideviation"), "us"),
        "benchmark.run_trial_self_us": (per_trial(own, "benchmark.run_trial"), "us"),
        "benchmark.summarize_errors_us_per_cell": (
            dur[ph.mask("grid", "benchmark.summarize_errors")].sum() / cells * US, "us"),
        # The per-trial path: everything under run_trial, plus the seed
        # derivation the cell loop does before each trial.
        "trace.trial_path_us": (
            per_trial(dur, "benchmark.run_trial") + per_trial(dur, "rng.derive_seed"), "us"),
    })

    n = scale.oracle_samples
    uniform = ph.mask("oracle", "rng.uniform")
    drawn = sum(int(t) for t in ph.tag_text[uniform])
    out["rng.uniform_ns_per_value"] = (dur[uniform].sum() / max(drawn, 1), "ns")
    out["estimators.mc_oracle_self_s"] = (
        ph.mean(own, ph.mask("oracle", "estimators.monte_carlo_semideviation")) * 1e-9, "s")
    for name in LAWS:
        out[f"distributions.sample_us.{name}"] = (
            ph.mean(dur, ph.mask("grid", "distributions.sample", f"{name}:{SAMPLE_M}")) * US, "us")
        out[f"distributions.sample_ns_per_value.{name}"] = (
            ph.mean(dur, ph.mask("oracle", "distributions.sample", f"{name}:{n}")) / n, "ns")
        out[f"distributions.ground_truth_us.{name}"] = (
            ph.mean(dur, ph.mask("ground_truth", "distributions.ground_truth", name)) * US, "us")
    return out
