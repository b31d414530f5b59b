"""Tests for the benchmark harness: determinism, grid shape, summaries."""

import dataclasses
import math

import numpy as np
import pytest

import evtrisk.benchmark as benchmark
from evtrisk import (
    DISTRIBUTIONS,
    ExperimentConfig,
    FitError,
    RandomStream,
    evt_estimate,
    get_distribution,
    ground_truth_value,
    run_experiment,
    run_trial,
    sort_and_summarize,
    trial_seed,
    typical_semideviation,
)
from evtrisk.benchmark import parse_ground_truth_mode
from evtrisk.cli import summary_row
from evtrisk.estimators import estimate_rows


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
        assert cfg.ground_truth_mode == "analytic"

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError, match="valid names"):
            ExperimentConfig(distributions=("cauchy",))

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            ExperimentConfig(distributions=("pareto2",), m_values=(9,))

    def test_minimum_m_follows_the_threshold_rule(self):
        # At the 0.90 threshold every m in 10..19 leaves one exceedance, so
        # every fit of such a cell would fail; 20 is the first that fits.
        with pytest.raises(ValueError, match=">= 20"):
            ExperimentConfig(distributions=("pareto2",), m_values=(19, 20))
        cfg = ExperimentConfig(distributions=("uniform01",), m_values=(20,), trials=5)
        assert cfg.m_values == (20,)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(distributions=("pareto2",),
                             ground_truth_mode="exact")

    def test_mode_parsing(self):
        assert parse_ground_truth_mode("analytic") == ("analytic", None)
        assert parse_ground_truth_mode("monte_carlo(4000000)") == ("monte_carlo", 4_000_000)
        with pytest.raises(ValueError):
            parse_ground_truth_mode("monte_carlo()")


class TestGroundTruth:
    def test_analytic_matches_distribution_oracle(self):
        cfg = small_config()
        dist = get_distribution("uniform01")
        assert ground_truth_value(cfg, dist) == dist.extremal_semideviation(0.01)

    def test_monte_carlo_mode(self):
        cfg = small_config(ground_truth_mode="monte_carlo(50000)")
        dist = get_distribution("exponential1")
        got = ground_truth_value(cfg, dist)
        want = dist.extremal_semideviation(0.01)
        assert got == pytest.approx(want, rel=0.25)
        # deterministic in the master seed
        assert ground_truth_value(cfg, dist) == got


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
    """A cell's one array pass against its batch-of-one views and a loop."""

    @pytest.mark.parametrize("m", [20, 50, 99])
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_cell_matches_batch_of_one(self, name, m):
        trials, alpha, seed = 200, 0.01, 11
        cfg = ExperimentConfig(distributions=(name,), m_values=(m,), trials=trials,
                               master_seed=seed)
        dist = get_distribution(name)
        truth = ground_truth_value(cfg, dist)
        seeds = [trial_seed(seed, name, m, t) for t in range(trials)]
        est = estimate_rows(dist.sample_rows(seeds, m), alpha)
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
                assert ("tied-threshold" in report.warnings) == est.fits.tied[i]
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


class TestWorkerClamp:
    """--workers is clamped to the cell count and the CPU count."""

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
        (5000, 64, 4),      # 2 laws x 2 sizes: never more workers than cells
        (5000, 3, 3),
        (2, 64, 2),
        (5000, 1, None),    # a single CPU runs the cells in-process
        (1, 64, None),
    ])
    def test_pool_size(self, monkeypatch, workers, cpus, want):
        created = []
        monkeypatch.setattr(self.RecordingPool, "created", created)
        monkeypatch.setattr(benchmark, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setattr(benchmark.os, "cpu_count", lambda: cpus)
        cfg = small_config(trials=3)
        assert run_experiment(cfg, workers=workers) == run_experiment(cfg)
        assert created == ([] if want is None else [want])
