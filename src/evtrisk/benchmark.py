"""Repeated-trial benchmark of the two estimators against ground truth.

For every (distribution, sample size) cell in a configured grid, the
harness draws many independent small samples, runs both estimators on
each, and summarizes the signed errors against the exact (or Monte Carlo)
value of the target functional.  Per-trial seeds are derived by hashing
``(master_seed, distribution, m, trial_index)``, so the output is a pure
function of the configuration: execution order, threading, and process
count cannot change a single bit of it.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import DISTRIBUTIONS, Distribution, get_distribution
from .estimators import AssumptionChecks, estimate_rows, monte_carlo_semideviation
from .fitting import THRESHOLD_QUANTILE, min_sample_size
from .rng import RandomStream, derive_seed, derive_seeds

DEFAULT_M_VALUES = tuple(range(20, 100))
DEFAULT_TRIALS = 2_000
# Trials per kernel call: bounds the (trials x m) working set of a cell
# (Student-t draws six uniforms per value) without changing any result.
_CHUNK_TRIALS = 2_048
_MODE_PATTERN = re.compile(r"^monte_carlo\((\d+)\)$")


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark grid definition.

    ``ground_truth_mode`` is either ``"analytic"`` (exact closed forms) or
    ``"monte_carlo(N)"`` with N the oracle sample count, e.g.
    ``"monte_carlo(4000000)"``.  ``trials`` defaults to a desk-scale 2,000;
    raise it to 10,000 to match full-scale runs.
    """

    distributions: tuple[str, ...]
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    trials: int = DEFAULT_TRIALS
    alpha: float = 0.01
    master_seed: int = 1729
    ground_truth_mode: str = "analytic"

    def __post_init__(self):
        if not self.distributions:
            raise ValueError("at least one distribution is required")
        for name in self.distributions:
            if name not in DISTRIBUTIONS:
                valid = ", ".join(sorted(DISTRIBUTIONS))
                raise ValueError(f"unknown distribution {name!r}; valid names: {valid}")
        object.__setattr__(self, "distributions", tuple(self.distributions))
        if not self.m_values:
            raise ValueError("at least one sample size is required")
        least = min_sample_size(THRESHOLD_QUANTILE)
        if any(m < least for m in self.m_values):
            raise ValueError(
                f"all sample sizes must be >= {least}: below that the "
                f"{THRESHOLD_QUANTILE:g}-quantile threshold leaves fewer than 2 "
                "exceedances, so every tail fit would fail"
            )
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        parse_ground_truth_mode(self.ground_truth_mode)


def parse_ground_truth_mode(mode: str) -> tuple[str, int | None]:
    """Split a mode string into ('analytic', None) or ('monte_carlo', n)."""
    if mode == "analytic":
        return "analytic", None
    match = _MODE_PATTERN.match(mode)
    if match:
        n = int(match.group(1))
        if n < 10_000:
            raise ValueError("monte_carlo ground truth needs at least 10^4 samples")
        return "monte_carlo", n
    raise ValueError(
        f"ground_truth_mode must be 'analytic' or 'monte_carlo(N)', got {mode!r}"
    )


@dataclass(frozen=True)
class TrialRecord:
    """Errors of one trial; ``err_evt`` is None when the fit or an
    assumption check failed for that draw."""

    dist: str
    m: int
    trial_index: int
    err_typical: float
    err_evt: float | None
    assumptions: AssumptionChecks | None
    fit_failed: bool = False


@dataclass(frozen=True)
class SeriesSummary:
    """Error statistics for one (distribution, m) cell.

    The q25/q75 fields are empirical quartiles of the per-trial errors
    (linear interpolation between order statistics); together they give the
    50% band around the mean error curve.  EVT statistics are computed only
    over trials whose assumption checks held, with the retained fraction
    reported as ``evt_valid_fraction``; they are NaN if no trial was valid.
    """

    dist: str
    m: int
    trials_completed: int
    evt_valid_fraction: float
    mean_err_typical: float
    q25_typical: float
    q75_typical: float
    mean_err_evt: float
    q25_evt: float
    q75_evt: float


def trial_seed(master_seed: int, dist_name: str, m: int, trial_index: int) -> int:
    """Stream seed for one trial, independent of execution order."""
    return derive_seed(master_seed, dist_name, m, trial_index)


def ground_truth_value(config: ExperimentConfig, dist: Distribution) -> float:
    """Target value for one distribution under the configured mode."""
    kind, n = parse_ground_truth_mode(config.ground_truth_mode)
    if kind == "analytic":
        return dist.extremal_semideviation(config.alpha)
    stream = RandomStream(derive_seed(config.master_seed, "ground-truth", dist.name))
    estimate, _ = monte_carlo_semideviation(dist, config.alpha, n, stream)
    return estimate


def run_trial(dist: Distribution, m: int, alpha: float, seed: int,
              true_value: float, trial_index: int = 0) -> TrialRecord:
    """Draw one sample of size ``m``, run both estimators, record errors.

    Deterministic given ``seed``; the grid's batch kernel at a batch of
    one.  Fit failures never abort: the typical estimator is still
    evaluated (on the top ``k + 1`` order statistics, as on every trial)
    and the record is flagged where
    :func:`~evtrisk.estimators.evt_estimate` would raise.  An ``alpha``
    outside (0, 1) raises ``ValueError``.
    """
    est = estimate_rows(dist.sample(m, RandomStream(seed)), alpha)
    failed = bool(est.fits.failed)
    return TrialRecord(
        dist=dist.name, m=m, trial_index=trial_index,
        err_typical=float(est.rho_typical) - true_value,
        err_evt=float(est.rho_evt) - true_value if est.evt_valid else None,
        assumptions=None if failed else AssumptionChecks(
            alpha_lt_k_over_m=bool(est.alpha_ok), var_ge_mean=bool(est.evt_valid)),
        fit_failed=failed,
    )


def _summarize(dist: str, m: int, err_typical: np.ndarray,
               err_evt: np.ndarray) -> SeriesSummary:
    """Cell statistics from the typical errors of every trial and the EVT
    errors of the trials whose assumption checks held."""
    q25_t, q75_t = np.quantile(err_typical, [0.25, 0.75])
    if err_evt.size:
        mean_e = float(err_evt.mean())
        q25_e, q75_e = np.quantile(err_evt, [0.25, 0.75])
    else:
        mean_e = q25_e = q75_e = float("nan")
    return SeriesSummary(
        dist=dist,
        m=m,
        trials_completed=err_typical.size,
        evt_valid_fraction=err_evt.size / err_typical.size,
        mean_err_typical=float(err_typical.mean()),
        q25_typical=float(q25_t),
        q75_typical=float(q75_t),
        mean_err_evt=mean_e,
        q25_evt=float(q25_e),
        q75_evt=float(q75_e),
    )


def _run_cell(args) -> SeriesSummary:
    """Worker body: all trials of one (distribution, m) cell as array passes."""
    config, dist_name, m, true_value = args
    dist = get_distribution(dist_name)
    seeds = derive_seeds((config.master_seed, dist_name, m), np.arange(config.trials))
    err_typ, err_evt = [], []
    for start in range(0, config.trials, _CHUNK_TRIALS):
        est = estimate_rows(dist.sample_rows(seeds[start:start + _CHUNK_TRIALS], m),
                            config.alpha)
        err_typ.append(est.rho_typical - true_value)
        err_evt.append(est.rho_evt[est.evt_valid] - true_value)
    return _summarize(dist_name, m, np.concatenate(err_typ), np.concatenate(err_evt))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[SeriesSummary]:
    """Run the full benchmark grid and return summaries sorted by (dist, m).

    ``workers`` only controls how cells are distributed over processes;
    it is clamped to the number of cells and of CPUs.  Per-trial seeds
    are derived from the configuration, and ground truth is computed once
    per distribution up front, so output is byte-for-byte identical for
    any worker count.
    """
    truths = {name: ground_truth_value(config, get_distribution(name))
              for name in config.distributions}
    cells = [(config, name, m, truths[name])
             for name in config.distributions for m in config.m_values]
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        summaries = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_cell, cells))
    return sorted(summaries, key=lambda s: (s.dist, s.m))
