"""Tests for the benchmark harness: determinism, grid shape, summaries."""

import ast
import concurrent.futures
import math
import re
import resource
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import evtrisk.benchmark as benchmark
import evtrisk.distributions as distributions
import evtrisk.fitting as fitting
from evtrisk import (
    DISTRIBUTIONS,
    ExperimentConfig,
    FitError,
    RandomStream,
    derive_seed,
    evt_estimate,
    get_distribution,
    ground_truth_value,
    monte_carlo_semideviation,
    run_experiment,
    run_trial,
    sort_and_summarize,
    trial_seed,
    typical_semideviation,
)
from evtrisk.cli import summary_row
from evtrisk.distributions import BLOCK
from evtrisk.estimators import estimate_rows
from evtrisk.rng import _GOLDEN, _MASK64, _RAMPS
from helpers import draw_rows


def small_config(**overrides):
    fields = dict(distributions=("uniform01", "exponential1"),
                  m_values=(20, 25), trials=12, alpha=0.01, master_seed=33)
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestConfigValidation:
    def test_defaults(self):
        cfg = ExperimentConfig(distributions=("pareto2",))
        assert cfg.m_values == tuple(range(20, 100))
        assert cfg.trials == 2_000
        assert cfg.alpha == 0.01

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError, match="valid names"):
            ExperimentConfig(distributions=("cauchy",))

    def test_distribution_names_are_case_insensitive(self):
        # The same name rule as get_distribution (and oracle --dist): the
        # config keeps canonical names, so seeds and output do not change.
        mixed = small_config(distributions=("Pareto2", "GUMBEL"), trials=20)
        assert mixed.distributions == ("pareto2", "gumbel")
        lower = small_config(distributions=("pareto2", "gumbel"), trials=20)
        assert run_experiment(mixed) == run_experiment(lower)

    @pytest.mark.parametrize("names", [("pareto2", "PARETO2"), ("gumbel", "pareto2", "gumbel")])
    def test_rejects_a_repeated_law(self, names):
        # As for a repeated size: the law would run twice, into two
        # identical rows per m.
        message = f"distributions: distribution {names[0].lower()!r} is repeated"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(distributions=names)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            ExperimentConfig(distributions=("pareto2",), m_values=(9,))

    def test_minimum_m_follows_the_threshold_rule(self):
        # At the 0.90 threshold every m in 10..19 leaves one exceedance, so
        # every fit of such a cell would fail; 20 is the first that fits.
        with pytest.raises(ValueError,
                           match="^m_values: 19 points .* at least 20 points are required$"):
            ExperimentConfig(distributions=("pareto2",), m_values=(19, 20))
        cfg = ExperimentConfig(distributions=("uniform01",), m_values=(20,), trials=5)
        assert cfg.m_values == (20,)

    @pytest.mark.parametrize("field, value, message", [
        ("m_values", (20.5,), "m_values: 20.5 is not an integer"),
        ("m_values", (20, 25.0), "m_values: 25.0 is not an integer"),
        ("m_values", ("30",), "m_values: '30' is not an integer"),
        ("trials", 2.5, "trials: 2.5 is not an integer"),
        ("m_values", (20, 30, 20), "m_values: sample size 20 is repeated"),
    ])
    def test_rejects_sizes_that_are_not_distinct_integers(self, field, value, message):
        # 20.5 used to run as m = 20, trials = 2.5 to fail inside numpy,
        # and a repeated m to write two identical rows.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("seed, message", [
        (2.5, "master_seed: 2.5 is not an integer"),
        ("7", "master_seed: '7' is not an integer"),
        (-1, "master_seed: -1 is outside [0, 2**64)"),
        (2**64, "master_seed: 18446744073709551616 is outside [0, 2**64)"),
    ])
    def test_rejects_master_seed_outside_uint64(self, seed, message):
        # 2.5 used to run as seed 2, "7" to hash as a string, and -1 and
        # 2**64 to alias the seeds 2**64 - 1 and 0.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(master_seed=seed)

    def test_master_seed_bounds_and_integer_likes(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(33)):
            cfg = small_config(master_seed=seed)
            assert type(cfg.master_seed) is int and cfg.master_seed == int(seed)
        assert run_experiment(small_config(master_seed=np.int64(33))) == run_experiment(
            small_config())

    # A bare string used to be split into one-letter names, and a bare
    # number to raise a TypeError that named no field.
    @pytest.mark.parametrize("field, value", [
        ("distributions", "pareto2"),
        ("m_values", 20),
        ("m_values", "20"),
        ("m_values", np.array(20)),
    ])
    def test_rejects_a_bare_string_or_number(self, field, value):
        message = f"{field}: expected a sequence such as a tuple, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    # Each used to raise a raw AttributeError or TypeError that named no field.
    @pytest.mark.parametrize("field, value, message", [
        ("distributions", (1,), "distributions: unknown distribution 1; valid names: "),
        ("distributions", ("gumbel", None), "distributions: unknown distribution None; "),
        ("alpha", "0.01", "alpha must be in (0, 1), got '0.01'"),
        ("alpha", None, "alpha must be in (0, 1), got None"),
        ("alpha", np.array([0.01, 0.02]), "alpha must be in (0, 1), got array([0.01, 0.02])"),
        ("alpha", np.array([0.01]), "alpha must be in (0, 1), got array([0.01])"),
    ])
    def test_rejects_a_law_or_alpha_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            small_config(**{field: value})

    def test_alpha_whose_complement_rounds_to_one(self):
        # 1 - alpha rounds to 1 at and below 2**-54; the truths take alpha
        # itself, so the config takes it and every cell runs, with finite
        # errors.
        for alpha in (1e-17, 2.0**-54, 5e-324):
            cfg = small_config(alpha=alpha)
            assert cfg.alpha == alpha
            for s in run_experiment(cfg):
                assert s.trials_completed == cfg.trials
                assert all(math.isfinite(v) for v in (s.mean_err_typical, s.mean_err_evt)), s

    def test_smallest_alpha_the_truths_take(self):
        alpha = 5e-324
        assert small_config(alpha=alpha).alpha == alpha
        assert small_config(alpha=1.0 - 2.0**-53).alpha == 1.0 - 2.0**-53

    def test_lists_and_ranges_keep_their_bytes(self):
        cfg = small_config(distributions=["uniform01", "exponential1"], m_values=range(20, 30, 5))
        assert cfg.distributions == ("uniform01", "exponential1")
        assert cfg.m_values == (20, 25)
        assert run_experiment(cfg) == run_experiment(small_config())

    def test_integer_like_sizes_become_ints(self):
        cfg = small_config(m_values=(np.int64(20), np.int32(25)), trials=np.int64(12))
        assert cfg.m_values == (20, 25) and cfg.trials == 12
        assert all(type(v) is int for v in (*cfg.m_values, cfg.trials))
        assert run_experiment(cfg) == run_experiment(small_config())


class TestGroundTruth:
    def test_analytic_matches_distribution_oracle(self):
        cfg = small_config()
        dist = get_distribution("uniform01")
        assert ground_truth_value(cfg, dist) == dist.extremal_semideviation(0.01)


class TestRunTrial:
    def test_bit_identical_repeats(self):
        dist = get_distribution("pareto2")
        seed = trial_seed(33, "pareto2", 20, 5)
        a = run_trial(dist, 20, 0.01, seed, 0.18, trial_index=5)
        b = run_trial(dist, 20, 0.01, seed, 0.18, trial_index=5)
        assert a == b

    def test_errors_finite_on_bounded_support(self):
        dist = get_distribution("uniform01")
        truth = dist.extremal_semideviation(0.01)
        for t in range(25):
            rec = run_trial(dist, 50, 0.01, trial_seed(1, "uniform01", 50, t), truth)
            assert math.isfinite(rec.err_typical)
            if rec.err_evt is not None:
                assert math.isfinite(rec.err_evt)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            run_trial(get_distribution("pareto2"), 20, alpha, seed=3, true_value=0.18)

    # A float index would be recorded as given (2.5); it is refused by
    # name instead, and integer likes are recorded as int.
    @pytest.mark.parametrize("index, message", [
        (2.5, r"^trial_index: 2\.5 is not an integer$"),
        (2.0, r"^trial_index: 2\.0 is not an integer$"),
        (np.int64(2), None),
    ])
    def test_trial_index_must_be_an_integer(self, index, message):
        args = (get_distribution("pareto2"), 20, 0.01, 3, 0.18)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                run_trial(*args, trial_index=index)
        else:
            rec = run_trial(*args, trial_index=index)
            assert rec == run_trial(*args, trial_index=2)
            assert type(rec.trial_index) is int

    # A float size or index would fold as its integer part (m = 20.9
    # would give m = 20's seed); it is refused by name instead.  Integer
    # likes keep every seed.
    @pytest.mark.parametrize("args, message", [
        ((1, "pareto2", 20.9, 0), r"^m: 20\.9 is not an integer$"),
        ((1, "pareto2", 20, 0.5), r"^trial_index: 0\.5 is not an integer$"),
        ((1.0, "pareto2", 20, 0), r"^master_seed: 1\.0 is not an integer$"),
        ((np.uint64(1), "pareto2", np.int64(20), np.int32(0)), None),
    ])
    def test_seed_coordinates_must_be_integers(self, args, message):
        if message is not None:
            with pytest.raises(ValueError, match=message):
                trial_seed(*args)
        else:
            assert trial_seed(*args) == trial_seed(1, "pareto2", 20, 0)

    def test_seed_depends_on_all_coordinates(self):
        base = trial_seed(33, "pareto2", 20, 5)
        assert trial_seed(34, "pareto2", 20, 5) != base
        assert trial_seed(33, "gumbel", 20, 5) != base
        assert trial_seed(33, "pareto2", 21, 5) != base
        assert trial_seed(33, "pareto2", 20, 6) != base


class TestSummarize:
    """Cell statistics from the typical errors of every trial and the EVT
    errors of the valid ones."""

    @staticmethod
    def summarize(err_typ, err_evt):
        return benchmark._summarize("uniform01", 20, np.array(err_typ, dtype=float),
                                    np.array(err_evt, dtype=float))

    def test_three_point_quartiles(self):
        s = self.summarize([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        assert s.mean_err_typical == 0.0
        assert s.q25_typical == -0.5  # linear interpolation between order stats
        assert s.q75_typical == 0.5
        assert s.q25_evt == -0.5 and s.q75_evt == 0.5
        assert s.evt_valid_fraction == 1.0

    def test_identical_errors(self):
        s = self.summarize([0.3] * 4, [])
        assert s.mean_err_typical == s.q25_typical == s.q75_typical == 0.3
        assert s.evt_valid_fraction == 0.0
        assert math.isnan(s.mean_err_evt)

    def test_single_record(self):
        s = self.summarize([0.7], [0.2])
        assert s.mean_err_typical == s.q25_typical == s.q75_typical == 0.7
        assert s.mean_err_evt == s.q25_evt == s.q75_evt == 0.2

    def test_quartile_ordering(self):
        rng = np.random.default_rng(2)
        s = self.summarize(rng.normal(size=101), rng.normal(size=101))
        assert s.q25_typical <= s.q75_typical
        assert s.q25_evt <= s.q75_evt
        assert 0.0 <= s.evt_valid_fraction <= 1.0


class TestQuartiles:
    """The cell quartiles from one partition equal ``np.quantile`` bit for bit."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(25)
        for n in (*range(1, 601), 2_000, 10_000):
            yield rng.normal(size=n)
            yield rng.integers(-2, 3, size=n) * 0.1                   # heavy ties
            yield rng.choice([0.0, -0.0, 1.5, -1.5], size=n)          # signed zeros
            yield rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300.0, 300.0, n)

    def test_bit_identical_to_np_quantile(self):
        for errors in self.arrays():
            got = np.array(benchmark._quartiles(errors))
            want = np.quantile(errors, [0.25, 0.75])
            assert got.tobytes() == want.tobytes(), (errors.size, got, want)

    def test_src_makes_no_np_quantile_call(self):
        calls = []
        for path in Path(benchmark.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("quantile", "percentile")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in ("np", "numpy")):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == []


class TestRunExperiment:
    def test_grid_shape(self):
        cfg = small_config()
        summaries = run_experiment(cfg)
        assert len(summaries) == 4  # 2 distributions x 2 sample sizes
        assert [(s.dist, s.m) for s in summaries] == [
            ("exponential1", 20), ("exponential1", 25),
            ("uniform01", 20), ("uniform01", 25)]
        assert all(s.trials_completed == 12 for s in summaries)

    def test_pure_function_of_config(self):
        cfg = small_config()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_worker_count_invariance(self):
        cfg = small_config()
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=3)

    def test_master_seed_changes_output(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(master_seed=34))
        assert a != b

    @pytest.mark.parametrize("workers, message", [
        (0, r"^workers must be >= 1, got 0$"),
        (-3, r"^workers must be >= 1, got -3$"),
        (2.5, r"^workers: 2\.5 is not an integer$"),
        ("2", r"^workers: '2' is not an integer$"),
    ])
    def test_workers_must_be_a_positive_integer(self, workers, message):
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(), workers=workers)

    def test_integer_like_workers(self):
        cfg = small_config()
        assert run_experiment(cfg, workers=np.int64(2)) == run_experiment(cfg)


def reference_trial(values, alpha=0.01):
    """Loop reference for one trial at alpha = 0.01, written from the method."""
    y = np.sort(values)
    m = y.size
    mean = y.mean()
    s = y[-(-9 * m // 10) - 1]                       # order statistic ceil(0.9 m)
    k = int(np.count_nonzero(y > s))
    typical = np.maximum(y[m - k - 1:] - mean, 0.0).sum() / m
    if k < 2:                                        # fit failed
        return dict(mean=mean, k=k, typical=typical)
    e = y[::-1][:k] - s
    p, q = e.mean(), np.mean(np.arange(k) / k * e)
    gamma, scale = (p - 4.0 * q) / (p - 2.0 * q), 2.0 * p * q / (p - 2.0 * q)
    log_r = math.log(m * alpha / k)
    var = s + scale * math.expm1(-gamma * log_r) / gamma
    rho = alpha * ((var + scale - gamma * s) / (1.0 - gamma) - mean)
    return dict(mean=mean, k=k, gamma=gamma, scale=scale, var=var, typical=typical,
                rho=rho if alpha < k / m and var >= mean else None)


class TestBatchKernel:
    """A cell's array passes against its batch-of-one views and a loop."""

    # (m, trials): one pass each, then passes of 32, 32 and 6 rows.
    CELLS = [(20, 200), (50, 200), (99, 200), (2000, 70)]

    @pytest.mark.parametrize("m, trials", CELLS, ids=[str(m) for m, _ in CELLS])
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_cell_matches_batch_of_one(self, name, m, trials):
        alpha, seed = 0.01, 11
        cfg = ExperimentConfig(distributions=(name,), m_values=(m,), trials=trials,
                               master_seed=seed)
        dist = get_distribution(name)
        truth = ground_truth_value(cfg, dist)
        seeds = [trial_seed(seed, name, m, t) for t in range(trials)]
        est = estimate_rows(draw_rows(dist, seeds, m), alpha)
        records = []
        for t, trial in enumerate(seeds):
            rec = run_trial(dist, m, alpha, trial, truth, trial_index=t)
            records.append(rec)
            data = dist.sample(m, RandomStream(trial))
            ref = reference_trial(data, alpha)
            assert rec.err_typical == est.rho_typical[t] - truth
            assert est.rho_typical[t] == ref["typical"]
            assert est.mean[t] == ref["mean"]
            assert est.fits.k[t] == ref["k"]
            assert rec.fit_failed == est.fits.failed[t] == (ref["k"] < 2)
            assert (rec.err_evt is None) == (not est.evt_valid[t]) == (ref.get("rho") is None)
            if rec.fit_failed:
                with pytest.raises(FitError):
                    evt_estimate(data, alpha)
                continue
            report = evt_estimate(data, alpha)
            assert est.fits.gamma[t] == report.params.gamma == ref["gamma"]
            assert est.fits.scale[t] == report.params.scale == ref["scale"]
            assert report.sample_mean == est.mean[t]
            assert report.rho_typical == est.rho_typical[t]
            if report.var_tail is not None:
                assert report.var_tail == pytest.approx(ref["var"], rel=1e-13, abs=0.0)
                assert est.var_tail[t] == pytest.approx(ref["var"], rel=1e-13, abs=0.0)
            if rec.err_evt is not None:
                assert report.rho_evt == pytest.approx(ref["rho"], rel=1e-13, abs=0.0)
                assert est.rho_evt[t] == pytest.approx(ref["rho"], rel=1e-13, abs=0.0)
        cell = benchmark._summarize(
            name, m, np.array([r.err_typical for r in records]),
            np.array([r.err_evt for r in records if r.err_evt is not None]))
        assert summary_row(run_experiment(cfg)[0]) == summary_row(cell)

    def test_ties_and_fit_failures_per_row(self):
        base = np.arange(1.0, 31.0)                  # m = 30: k is 3 without ties
        matrix = np.array([
            base,
            np.r_[base[:26], 27.0, 27.0, 29.0, 30.0],     # tied threshold, k = 2
            np.r_[base[:26], 27.0, 27.0, 27.0, 30.0],     # k = 1: fit fails
            np.full(30, 4.0),                             # k = 0: fit fails
            np.r_[base[:25], 27.0, 27.0, 28.0, 29.0, 30.0],  # tie below, k = 3
        ])[:, ::-1]                                  # the kernel sorts each row
        alpha = 0.01
        est = estimate_rows(matrix, alpha)
        assert est.fits.failed.tolist() == [False, False, True, True, False]
        assert est.evt_valid.tolist() == [True, True, False, False, True]
        for i, row in enumerate(matrix):
            if est.fits.failed[i]:
                with pytest.raises(FitError):
                    evt_estimate(row, alpha)
            else:
                report = evt_estimate(row, alpha)
                assert ("tied-threshold" in report.warnings) == (i in (1, 4))
                assert report.rho_evt == est.rho_evt[i]
            # One rule on every row, failed fits included: the top k + 1.
            want = typical_semideviation(sort_and_summarize(row), alpha,
                                         n_top=int(est.fits.k[i]))
            assert est.rho_typical[i] == want
        truth = 0.5
        summary = benchmark._summarize("hand", 30, est.rho_typical - truth,
                                       est.rho_evt[est.evt_valid] - truth)
        assert summary.trials_completed == 5
        assert summary.evt_valid_fraction == 0.6


class TestColumnKernel:
    """Every law at one m shares each pass's matrix, and no cell sees the
    laws beside it."""

    @pytest.mark.parametrize("trials", [25, 37])
    def test_laws_batched_equal_laws_alone(self, trials):
        # Passes of BLOCK // m rows: a whole column at m = 20 and 57, 16
        # rows at m = 4,000 and 3 at m = 20,000, so passes straddle laws.
        assert (BLOCK // 4_000, BLOCK // 20_000) == (16, 3)
        laws = tuple(sorted(DISTRIBUTIONS))
        fields = dict(m_values=(20, 57, 4_000, 20_000), trials=trials, master_seed=7)
        alone = [s for name in laws
                 for s in run_experiment(ExperimentConfig(distributions=(name,), **fields))]
        for order in (laws, laws[::-1]):
            batched = run_experiment(ExperimentConfig(distributions=order, **fields))
            # repr, not ==: it shows every bit, and NaN fields compare equal.
            assert list(map(repr, batched)) == list(map(repr, alone))


class TestCellMemory:
    """A column draws BLOCK values per pass, so its peak does not grow with m."""

    @staticmethod
    def column(laws, m, trials):
        """The column of every law of ``laws`` at ``m``, as a call."""
        cfg = ExperimentConfig(distributions=laws, m_values=(m,), trials=trials)
        # Computed once per law outside the columns, as run_experiment does.
        truths = tuple(ground_truth_value(cfg, get_distribution(name)) for name in laws)
        heads = np.array([derive_seed(cfg.master_seed, name) for name in laws], np.uint64)
        return lambda: benchmark._run_column(cfg, truths, heads, m)

    @staticmethod
    def traced(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peak(self, laws, m, trials):
        # Drop the thread's kept workspace, so the column allocates its own
        # inside the trace and the bound covers it.
        distributions._KEPT.__dict__.clear()
        return self.traced(self.column(laws, m, trials))

    @pytest.mark.parametrize("m", [20, 1_000, 4_000])
    def test_peak_bounded_by_block_and_trials(self, m):
        trials = 300
        peak = self.peak(("tstudent5",), m, trials)
        # About 96 bytes a block value: four 8-byte planes plus the
        # transform, sort and fit temporaries.
        assert peak <= 128 * BLOCK + 64 * trials, peak / BLOCK

    @pytest.mark.parametrize("m", [20, 1_000, 4_000])
    def test_six_laws_share_the_bound(self, m):
        # Passes straddle laws, and the column keeps a seed, two estimates
        # and a flag per trial of every law.
        laws, trials = tuple(sorted(DISTRIBUTIONS)), 300
        peak = self.peak(laws, m, trials)
        assert peak <= 128 * BLOCK + 64 * trials * len(laws), peak / BLOCK

    def test_row_past_block_takes_one_plane(self, monkeypatch):
        # A row of m > BLOCK values is drawn into a plane of its own, with
        # the kept workspace as its tiles' scratch: a warm column peaks at
        # 9.6 bytes a row value measured (1.26 MB); scratch planes of m
        # values each, allocated for the pass, would read 57.6 (7.55 MB).
        m, trials = 2 * BLOCK, 3
        column = self.column(("tstudent5",), m, trials)
        column()
        kept = distributions._workspace()
        peak = self.traced(column)
        assert peak < 16 * m, peak / m
        assert distributions._workspace() is kept
        rows = []

        def spy(matrix, alpha):
            rows.append(matrix.copy())
            return estimate_rows(matrix, alpha)

        monkeypatch.setattr(benchmark, "estimate_rows", spy)
        column()
        assert [r.shape for r in rows] == [(1, m)] * trials
        seed = trial_seed(ExperimentConfig.master_seed, "tstudent5", m, 1)
        assert rows[1][0].tobytes() == get_distribution("tstudent5").sample(
            m, RandomStream(seed)).tobytes()
        assert distributions._workspace() is kept


class TestWorkspace:
    """Each thread's kept draw workspace, which samples, oracles and the
    grid share: its old contents never reach a result, and a warm run
    maps no new pages."""

    M, ROWS = 37, 5

    def test_stale_workspace_draws_every_law(self):
        # Every law in turn into one poisoned workspace, each into its own
        # rows of the pass matrix, as a pass that straddles laws draws:
        # no law may leave its values in (or read them from) the planes
        # the next one reuses.
        plane, scratch = distributions._workspace()
        plane[...] = np.nan
        scratch[0][...] = np.nan
        scratch[1][...] = np.uint64(2**64 - 1)
        laws = sorted(DISTRIBUTIONS)
        matrix = plane[:len(laws) * self.ROWS * self.M].reshape(-1, self.M)
        seeds = {name: np.array([trial_seed(9, name, self.M, t) for t in range(self.ROWS)],
                                np.uint64) for name in laws}
        for i, name in enumerate(laws):
            get_distribution(name)._draw(seeds[name], 0, matrix[i * self.ROWS:(i + 1) * self.ROWS],
                                         scratch)
        for i, name in enumerate(laws):
            dist, rows = get_distribution(name), matrix[i * self.ROWS:(i + 1) * self.ROWS]
            for seed, row in zip(seeds[name], rows):
                assert row.tobytes() == dist.sample(self.M, RandomStream(int(seed))).tobytes()

    def test_poisoned_workspace_changes_no_run(self):
        cfg = small_config(distributions=tuple(sorted(DISTRIBUTIONS)), m_values=(20, 57))
        want = list(map(repr, run_experiment(cfg)))
        plane, (planes, words) = distributions._workspace()
        plane[...] = planes[...] = np.inf
        words[...] = np.uint64(12345)
        assert list(map(repr, run_experiment(cfg))) == want

    def test_kept_and_one_row_workspaces(self):
        # One set of five float planes (the pass's and Student-t's four)
        # and two hash planes, as the grid has always allocated, of one
        # size: a draw needs scratch for one tile of its rows, and a row
        # past BLOCK takes a pass plane of its own.
        kept = distributions._workspace()
        plane, (planes, words) = kept
        assert plane.base is planes.base
        assert [plane.shape, planes.shape, words.shape] == [(BLOCK,), (4, BLOCK), (2, BLOCK)]
        run_experiment(small_config(distributions=("tstudent5",), m_values=(BLOCK + 1,),
                                    trials=2))
        assert distributions._workspace() is kept

    def test_pool_threads_under_stress(self, monkeypatch):
        # A pool of more threads than cores, switching every microsecond,
        # grows the shared step ramps and fills fitting's shared caches
        # from nothing: the bytes of one worker.
        cfg = small_config(distributions=tuple(sorted(DISTRIBUTIONS)),
                           m_values=tuple(range(20, 32)), trials=40)
        want = [summary_row(s) for s in run_experiment(cfg)]
        monkeypatch.setattr(benchmark.os, "cpu_count", lambda: 64)
        _RAMPS.clear()
        fitting._weights.cache_clear()
        fitting._threshold_index.cache_clear()
        got, old = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=lambda: got.extend(
                summary_row(s) for s in run_experiment(cfg, workers=6)))
            thread.start()
            thread.join(timeout=300)
        finally:
            sys.setswitchinterval(old)
        assert not thread.is_alive()
        assert got == want

    def test_threads_keep_their_own_workspace(self):
        # Two threads draw at once, each in the workspace its thread keeps:
        # every law's sample and a 10**5-sample oracle before and after each
        # grid run.  A shared workspace would mix their draws, and one that
        # carried state from caller to caller would move a later one's bytes.
        cfg = small_config(distributions=tuple(sorted(DISTRIBUTIONS)),
                           m_values=(20, 57, 99), trials=200)

        def draws():
            samples = [get_distribution(name).sample(20_000, RandomStream(3)).tobytes()
                       for name in sorted(DISTRIBUTIONS)]
            oracle = monte_carlo_semideviation(get_distribution("tstudent5"), 0.01, 10**5,
                                               RandomStream(4))
            return samples, repr(oracle)

        def session():
            return draws(), [summary_row(s) for s in run_experiment(cfg, workers=1)], draws()

        def in_thread(target, *args):
            thread = threading.Thread(target=target, args=args)
            thread.start()
            return thread

        def join(thread):
            thread.join(timeout=300)
            assert not thread.is_alive()

        # The reference: one thread alone, with a workspace it allocates.
        want = {}
        join(in_thread(lambda: want.update(bytes=session())))
        # The counters' step ramps are shared, not kept per thread: both
        # threads grow them from nothing at once (m 20, 57, 99, then a
        # sample's tile), and a ramp that one replaced while the other
        # read it must still give the reference's bytes.
        _RAMPS.clear()
        start = threading.Barrier(2, timeout=60)
        got, workspaces = {}, {}

        def run(i):
            start.wait()
            for attempt in range(3):
                got[i, attempt] = session()
            workspaces[i] = distributions._workspace()

        for thread in [in_thread(run, i) for i in range(2)]:
            join(thread)
        assert len(got) == 6 and all(out == want["bytes"] for out in got.values())
        mine = distributions._workspace()
        assert len({id(w[0]) for w in (mine, *workspaces.values())}) == 3
        for stride, ramp in _RAMPS.items():
            step = np.uint64(stride * _GOLDEN & _MASK64)
            assert not ramp.flags.writeable
            assert ramp.tobytes() == (np.arange(ramp.size, dtype=np.uint64) * step).tobytes()

    @pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
    def test_column_seeds_fold_like_derive_seed(self, master_seed):
        laws = tuple(sorted(DISTRIBUTIONS))
        heads = np.array([derive_seed(master_seed, name) for name in laws], np.uint64)
        for m, trials in ((20, 300), (99, 7), (20_000, 1)):
            got = benchmark._column_seeds(heads, m, trials)
            assert got.shape == (len(laws), trials) and got.dtype == np.uint64
            for row, name in zip(got, laws):
                want = [derive_seed(master_seed, name, m, t) for t in range(trials)]
                assert row.tobytes() == np.array(want, np.uint64).tobytes()
                assert int(row[-1]) == trial_seed(master_seed, name, m, trials - 1)

    def test_warm_grid_maps_no_pages(self):
        # The perfbench grid's config. Its arrays of a pass size (up to 512
        # KiB) once cost about 500 to 1,400 minor page faults a run, as
        # glibc mapped and unmapped them; a warm run now touches pages it
        # already has. Bounded, not zero: the interpreter's own arenas may
        # map a page now and then.
        cfg = ExperimentConfig(distributions=tuple(sorted(DISTRIBUTIONS)),
                               m_values=(20, 35, 50, 65, 80, 99), trials=160)
        run_experiment(cfg)
        runs = 5
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(runs):
            run_experiment(cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 40 * runs, faults


class TestCallerArrays:
    """The pipeline sorts in place, but only arrays it owns."""

    def test_inputs_are_left_as_they_were(self):
        arr = get_distribution("pareto2").sample(50, RandomStream(4))
        before = arr.tobytes()
        evt_estimate(arr)
        sort_and_summarize(arr)
        assert arr.tobytes() == before and arr.flags.writeable
        frozen = arr.copy()
        frozen.setflags(write=False)
        assert evt_estimate(frozen) == evt_estimate(arr)

    def test_a_trial_leaves_earlier_draws_alone(self):
        dist = get_distribution("tstudent5")
        drawn = dist.sample(40, RandomStream(8))
        before = drawn.tobytes()
        record = run_trial(dist, 40, 0.01, 8, 0.0)
        assert drawn.tobytes() == before
        assert record == run_trial(dist, 40, 0.01, 8, 0.0)


class TestWorkerClamp:
    """--workers is clamped to the sample-size count and the CPU count."""

    class RecordingPool:
        created = []

        def __init__(self, max_workers):
            self.created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    @pytest.mark.parametrize("workers, cpus, want", [
        (5000, 64, 4),      # 2 laws x 4 sizes: never more workers than sizes
        (5000, 3, 3),
        (2, 64, 2),
        (5000, 1, None),    # a single CPU runs the columns in-process
        (1, 64, None),
    ])
    def test_pool_size(self, monkeypatch, workers, cpus, want):
        created = []
        monkeypatch.setattr(self.RecordingPool, "created", created)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", self.RecordingPool)
        monkeypatch.setattr(benchmark.os, "cpu_count", lambda: cpus)
        cfg = small_config(m_values=(20, 25, 30, 35), trials=3)
        assert run_experiment(cfg, workers=workers) == run_experiment(cfg)
        assert created == ([] if want is None else [want])
