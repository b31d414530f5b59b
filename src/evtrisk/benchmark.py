"""Repeated-trial benchmark of the two estimators against ground truth.

For every (distribution, sample size) cell in a configured grid, the
harness draws many independent small samples, runs both estimators on
each, and summarizes the signed errors against the exact value of the
target functional, which every benchmark law has in closed form.
Per-trial seeds are derived by hashing ``(master_seed, distribution, m,
trial_index)``, so the output is a pure function of the configuration:
execution order, threading, process count and the environment cannot
change a single bit of it.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import BLOCK, Distribution, get_distribution
from .estimators import AssumptionChecks, estimate_rows
from .fitting import THRESHOLD_QUANTILE, min_sample_size
from .rng import RandomStream, _integer, derive_seed, derive_seeds

DEFAULT_M_VALUES = tuple(range(20, 100))
DEFAULT_TRIALS = 2_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark grid definition.

    Sizes and ``master_seed`` are integers (``operator.index``); a sample
    size may appear only once, and the seed lies in ``[0, 2**64)``, so no
    two seeds fold to the same trial streams.  ``trials`` defaults to a
    desk-scale 2,000; raise it to 10,000 to match full-scale runs.

    A cell draws and fits ``max(1, BLOCK // m)`` trials per pass
    (``distributions.BLOCK``), so its memory is O(``BLOCK`` + trials).
    One row of ``m`` values is the floor, so a cell needs O(m) memory, and
    ``m`` has no upper bound.  Each trial costs a fixed number of bytes,
    which is why ``trials`` has no upper bound either.
    """

    distributions: tuple[str, ...]
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    trials: int = DEFAULT_TRIALS
    alpha: float = 0.01
    master_seed: int = 1729

    def __post_init__(self):
        if not self.distributions:
            raise ValueError("at least one distribution is required")
        object.__setattr__(self, "distributions",
                           tuple(get_distribution(n).name for n in self.distributions))
        m_values = tuple(_integer("m_values", m) for m in self.m_values)
        if not m_values:
            raise ValueError("at least one sample size is required")
        repeated = [m for m, count in Counter(m_values).items() if count > 1]
        if repeated:
            raise ValueError(f"m_values: sample size {repeated[0]} is repeated")
        least = min_sample_size(THRESHOLD_QUANTILE)
        if min(m_values) < least:
            raise ValueError(
                f"all sample sizes must be >= {least}: below that the "
                f"{THRESHOLD_QUANTILE:g}-quantile threshold leaves fewer than 2 "
                "exceedances, so every tail fit would fail"
            )
        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        seed = _integer("master_seed", self.master_seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"master_seed: {seed} is outside [0, 2**64)")
        object.__setattr__(self, "master_seed", seed)


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

    The q25/q75 fields are empirical quartiles of the per-trial errors by
    numpy's default ``linear`` rule (Hyndman and Fan's type 7: position
    ``q (n - 1)`` in the sorted errors, interpolated between its two
    neighbours), equal bit for bit to ``np.quantile``; together they give
    the 50% band around the mean error curve.  EVT statistics are computed
    only over trials whose assumption checks held, with the retained
    fraction reported as ``evt_valid_fraction``; they are NaN if no trial
    was valid.
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
    """Stream seed for one trial, independent of execution order.

    ``master_seed``, ``m`` and ``trial_index`` are integers
    (``operator.index``), else ``ValueError`` naming the argument.
    """
    return derive_seed(_integer("master_seed", master_seed), dist_name,
                       _integer("m", m), _integer("trial_index", trial_index))


def ground_truth_value(config: ExperimentConfig, dist: Distribution) -> float:
    """The exact target value the errors of ``dist``'s cells are taken against."""
    return dist.extremal_semideviation(config.alpha)


def run_trial(dist: Distribution, m: int, alpha: float, seed: int,
              true_value: float, trial_index: int = 0) -> TrialRecord:
    """Draw one sample of size ``m``, run both estimators, record errors.

    Deterministic given ``seed``; the grid's batch kernel at a batch of
    one.  Fit failures never abort: the typical estimator is still
    evaluated (on the top ``k + 1`` order statistics, as on every trial)
    and the record is flagged where
    :func:`~evtrisk.estimators.evt_estimate` would raise.  An ``alpha``
    outside (0, 1) or a ``trial_index`` that is not an integer
    (``operator.index``) raises ``ValueError``.
    """
    trial_index = _integer("trial_index", trial_index)
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


def _quartiles(errors: np.ndarray) -> tuple[float, float]:
    """``np.quantile(errors, [0.25, 0.75])`` bit for bit, from one partition.

    numpy's ``linear`` rule: at ``pos = q (n - 1)``, with ``lo =
    floor(pos)`` and ``t = pos - lo``, the neighbours ``a = s[lo]`` and
    ``b = s[lo + 1]`` of the ordered errors ``s`` give ``a + (b - a) t``,
    or ``b - (b - a) (1 - t)`` when ``t >= 0.5``.  ``s`` is partitioned at
    the pivots ``np.quantile`` uses, not sorted: -0.0 and 0.0 compare
    equal, and only the same partition puts the same zero at ``lo``.  A
    NaN lands last and makes both quartiles NaN, as in numpy.
    """
    last = errors.size - 1
    pos = (0.25 * last, 0.75 * last)
    # At n = 1 numpy takes index -1 for both neighbours and t = pos + 1.
    lo = [min(math.floor(p), last - 1) for p in pos]
    s = np.partition(errors, sorted({0, -1, *lo, *(i + 1 for i in lo)}))
    if math.isnan(s[-1]):
        return math.nan, math.nan
    out = []
    for p, i in zip(pos, lo):
        t = p - i
        a, b = float(s[i]), float(s[i + 1])
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1]


def _summarize(dist: str, m: int, err_typical: np.ndarray,
               err_evt: np.ndarray) -> SeriesSummary:
    """Cell statistics from the typical errors of every trial and the EVT
    errors of the trials whose assumption checks held."""
    q25_t, q75_t = _quartiles(err_typical)
    if err_evt.size:
        mean_e = float(err_evt.mean())
        q25_e, q75_e = _quartiles(err_evt)
    else:
        mean_e = q25_e = q75_e = math.nan
    return SeriesSummary(
        dist=dist,
        m=m,
        trials_completed=err_typical.size,
        evt_valid_fraction=err_evt.size / err_typical.size,
        mean_err_typical=float(err_typical.mean()),
        q25_typical=q25_t,
        q75_typical=q75_t,
        mean_err_evt=mean_e,
        q25_evt=q25_e,
        q75_evt=q75_e,
    )


def _run_cell(args) -> SeriesSummary:
    """Worker body: all trials of one (distribution, m) cell as array passes
    of ``BLOCK // m`` rows (at least one); the errors are concatenated in
    trial order, so the pass size changes no bit (see
    ``distributions.BLOCK``)."""
    config, dist_name, m, true_value = args
    dist = get_distribution(dist_name)
    prefix = (config.master_seed, dist_name, m)
    rows = max(1, BLOCK // m)
    err_typ, err_evt = [], []
    for start in range(0, config.trials, rows):
        # A seed is a function of its trial index alone, so each pass
        # derives only its own.
        seeds = derive_seeds(prefix, np.arange(start, min(start + rows, config.trials)))
        est = estimate_rows(dist.sample_rows(seeds, m), config.alpha)
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
        # Imported here: it loads multiprocessing, which a single-process
        # run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_cell, cells))
    return sorted(summaries, key=lambda s: (s.dist, s.m))
