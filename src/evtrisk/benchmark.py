"""Repeated-trial benchmark of the two estimators against ground truth.

For every (distribution, sample size) cell in a configured grid, the
harness draws many independent small samples, runs both estimators on
each, and summarizes the signed errors against the exact value of the
target functional, which every benchmark law has in closed form.
Per-trial seeds are derived by hashing ``(master_seed, distribution, m,
trial_index)``, so the output is a pure function of the configuration:
execution order, the number of worker threads, their schedule and the
environment cannot change a single bit of it.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import BLOCK, Distribution, _workspace, get_distribution
from .estimators import AssumptionChecks, estimate_rows
from .fitting import _fit_error, min_sample_size
from .rng import RandomStream, _fold, _integer, _level, derive_seed

DEFAULT_M_VALUES = tuple(range(20, 100))
DEFAULT_TRIALS = 2_000


def _entries(name: str, value) -> tuple:
    """The entries of the sequence ``value``; a ``ValueError`` naming
    ``name`` if it is a bare string or cannot be iterated."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name}: expected a sequence such as a tuple, got {value!r}")


def _once(name: str, what: str, values: tuple) -> tuple:
    """``values``; a ``ValueError`` naming ``name`` if one of them repeats."""
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{name}: {what} {repeated[0]!r} is repeated")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark grid definition.

    ``distributions`` and ``m_values`` are sequences such as tuples or
    lists; a bare string or number is refused, so ``"pareto2"`` is never
    read as seven one-letter names.  Sizes and ``master_seed`` are
    integers (``operator.index``); a law (by its lower-cased name) and a
    sample size may each appear only once, and the seed lies in ``[0,
    2**64)``, so no two seeds fold to the same trial streams.  ``alpha``
    lies in (0, 1), where every ground truth
    (``Distribution.extremal_semideviation``) is finite.  ``trials``
    defaults to a desk-scale 2,000; raise it to 10,000 to match
    full-scale runs.  Every ``ValueError`` it raises starts with the name
    of the field at fault, so :func:`~evtrisk.cli.load_config` can name
    that field's line.

    The grid runs one sample size at a time, every law's trials in turn,
    and draws and fits ``max(1, BLOCK // m)`` of them per pass
    (``distributions.BLOCK``), so its memory is O(``BLOCK`` + trials ×
    laws).  One row of ``m`` values is the floor, so a pass needs O(m)
    memory, and ``m`` has no upper bound.  Each trial costs a fixed
    number of bytes, which is why ``trials`` has no upper bound either.
    """

    distributions: tuple[str, ...]
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    trials: int = DEFAULT_TRIALS
    alpha: float = 0.01
    master_seed: int = 1729

    def __post_init__(self):
        names = _entries("distributions", self.distributions)
        if not names:
            raise ValueError("distributions: at least one distribution is required")
        try:
            names = tuple(get_distribution(n).name for n in names)
        except ValueError as exc:
            raise ValueError(f"distributions: {exc}") from None
        object.__setattr__(self, "distributions", _once("distributions", "distribution", names))
        m_values = tuple(_integer("m_values", m) for m in _entries("m_values", self.m_values))
        if not m_values:
            raise ValueError("m_values: at least one sample size is required")
        if min(m_values) < min_sample_size():
            # Every fit of such a cell fails, for the reason _fit_error gives.
            raise ValueError(f"m_values: {_fit_error(min(m_values), 0)}")
        object.__setattr__(self, "m_values", _once("m_values", "sample size", m_values))
        object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
        # Every run takes its errors against the truths at alpha.
        _level("alpha", self.alpha)
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
        dist=dist, m=m, trials_completed=err_typical.size,
        evt_valid_fraction=err_evt.size / err_typical.size,
        mean_err_typical=float(err_typical.mean()), q25_typical=q25_t, q75_typical=q75_t,
        mean_err_evt=mean_e, q25_evt=q25_e, q75_evt=q75_e)


def _column_seeds(heads: np.ndarray, m: int, trials: int) -> np.ndarray:
    """Every law's trial seeds at sample size ``m``, one row per law.

    Entry ``[i, t]`` is ``trial_seed(master_seed, name, m, t)`` of the law
    whose ``derive_seed(master_seed, name)`` is ``heads[i]``, bit for bit:
    the folds of ``m`` and of the trial index, each one vectorized call
    for every law at once.
    """
    return _fold(_fold(heads, np.uint64(m))[:, None], np.arange(trials, dtype=np.uint64))


def _run_column(config: ExperimentConfig, truths: tuple, heads: np.ndarray,
                m: int) -> list[SeriesSummary]:
    """Worker body: every law's trials at one sample size ``m``.

    The column's rows run law-major, in ``config.distributions`` order,
    as array passes of ``max(1, BLOCK // m)`` rows (see
    ``distributions.BLOCK``).  A pass may straddle laws: each law draws
    its own rows straight into the pass's one matrix, and
    ``estimate_rows`` sorts and fits it in place, once.  Every row is a
    pure function of its seed, so the pass size and the neighbouring laws
    change no bit of a cell.  ``heads`` holds each law's
    ``derive_seed(master_seed, name)`` (see :func:`_column_seeds`).
    """
    names, trials = config.distributions, config.trials
    seeds = _column_seeds(heads, m, trials).ravel()
    typ, evt, valid = np.empty(seeds.size), np.empty(seeds.size), np.empty(seeds.size, bool)
    rows = max(1, BLOCK // m)
    plane, scratch = _workspace(min(rows, seeds.size) * m)
    for start in range(0, seeds.size, rows):
        stop = min(start + rows, seeds.size)
        matrix = plane[:(stop - start) * m].reshape(stop - start, m)
        # Law i owns rows [i * trials, (i + 1) * trials): cut the pass there.
        cuts = [start, *range(start - start % trials + trials, stop, trials), stop]
        for a, b in zip(cuts, cuts[1:]):
            get_distribution(names[a // trials])._draw(
                seeds[a:b], 0, matrix[a - start:b - start], scratch)
        est = estimate_rows(matrix, config.alpha)
        typ[start:stop], evt[start:stop], valid[start:stop] = (
            est.rho_typical, est.rho_evt, est.evt_valid)
        # Free the pass's estimates, a dozen arrays of ``rows`` values,
        # before the next pass draws.
        del est
    typ, evt, valid = (v.reshape(len(names), trials) for v in (typ, evt, valid))
    return [_summarize(name, m, typ[i] - truth, evt[i][valid[i]] - truth)
            for i, (name, truth) in enumerate(zip(names, truths))]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[SeriesSummary]:
    """Run the full benchmark grid and return summaries sorted by (dist, m).

    ``workers`` only controls how many threads of this process share out
    the sample sizes (each with every law); it is an integer >= 1
    (``operator.index``), else ``ValueError`` naming it, and is clamped
    to the number of sample sizes and of CPUs.  One worker runs every
    size in the calling thread.  Each thread draws in its own kept
    workspace (``distributions._workspace``).  Per-trial seeds are
    derived from the configuration, and ground truth and each law's seed
    prefix are computed once per distribution up front, so output is
    byte-for-byte identical for any worker count and thread schedule.
    """
    workers = _integer("workers", workers, 1)
    truths = tuple(ground_truth_value(config, get_distribution(name))
                   for name in config.distributions)
    heads = np.array([derive_seed(config.master_seed, name) for name in config.distributions],
                     dtype=np.uint64)
    column = partial(_run_column, config, truths, heads)
    workers = min(workers, len(config.m_values), os.cpu_count() or 1)
    if workers <= 1:
        # In this thread, whose kept workspace then serves later runs too.
        results = map(column, config.m_values)
    else:
        # Imported here: it loads logging, which a one-worker run never needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(column, config.m_values))
    return sorted((s for cells in results for s in cells), key=lambda s: (s.dist, s.m))
