"""Tests for threshold selection and the probability-weighted-moment fit."""

import numpy as np
import pytest

from evtrisk import (
    FitError,
    RandomStream,
    evt_estimate,
    get_distribution,
    pwm_fit,
    select_threshold,
    sort_and_summarize,
)
from evtrisk.fitting import _tie_warnings, fit_rows, min_sample_size


class TestSortAndSummarize:
    def test_basic(self):
        s = sort_and_summarize([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.m == 3

    def test_singleton(self):
        s = sort_and_summarize([5.0])
        assert s.values.tolist() == [5.0]
        assert s.mean == 5.0

    def test_large_sample_mean(self):
        data = get_distribution("exponential1").sample(10_000, RandomStream(555))
        s = sort_and_summarize(data)
        assert abs(s.mean - 1.0) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sort_and_summarize([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sort_and_summarize([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            sort_and_summarize([1.0, np.inf])

    def test_values_are_immutable(self):
        s = sort_and_summarize([2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestSelectThreshold:
    def test_m20_integers(self):
        s = sort_and_summarize(np.arange(1.0, 21.0))
        threshold, k = select_threshold(s)
        assert threshold == 18.0  # 1-based order statistic ceil(0.9 * 20) = 18
        assert k == 2

    def test_m10_single_exceedance_fails(self):
        s = sort_and_summarize(np.arange(1.0, 11.0))
        with pytest.raises(FitError):
            select_threshold(s)

    def test_constant_data_fails(self):
        s = sort_and_summarize(np.full(20, 3.5))
        with pytest.raises(FitError, match="no strict exceedances"):
            select_threshold(s)

    def test_too_small_sample(self):
        s = sort_and_summarize(np.arange(1.0, 9.0))
        with pytest.raises(ValueError):
            select_threshold(s)

    @pytest.mark.parametrize("m", [20, 30, 40, 50, 63, 99, 100, 1000])
    def test_index_rule_has_no_float_fuzz(self, m):
        s = sort_and_summarize(np.arange(1.0, m + 1.0))
        threshold, k = select_threshold(s, q=0.90)
        want_idx = -(-9 * m // 10)  # exact ceil(0.9 m) in integer arithmetic
        assert threshold == float(want_idx)
        assert k == m - want_idx


class TestMinSampleSize:
    def test_default_level(self):
        assert min_sample_size() == 20

    @pytest.mark.parametrize("q", [0.5, 0.75, 0.9, 0.95, 0.99])
    def test_is_the_smallest_size_leaving_two_exceedances(self, q):
        least = min_sample_size(q)
        for m in range(2, least + 30):
            s = sort_and_summarize(np.arange(1.0, m + 1.0))
            if m < least:
                with pytest.raises(FitError, match=f"at least {least} points"):
                    select_threshold(s, q)
            else:
                assert select_threshold(s, q)[1] >= 2


class TestFitRows:
    """The batched threshold rule and moment fit on a hand-built matrix."""

    @staticmethod
    def matrix():
        base = np.arange(1.0, 31.0)          # m = 30: threshold at index 27
        rows = [
            base,                            # k = 3, no tie
            np.r_[base[:26], 27.0, 27.0, 29.0, 30.0],   # tie above: k = 2
            np.r_[base[:26], 27.0, 27.0, 27.0, 30.0],   # tie above: k = 1
            np.full(30, 4.0),                # constant: k = 0
            np.r_[base[:25], 27.0, 27.0, 28.0, 29.0, 30.0],  # tie below: k = 3
        ]
        return np.array(rows)

    def test_per_row_counts_flags_and_failures(self):
        fits = fit_rows(self.matrix())
        assert fits.threshold.tolist() == [27.0, 27.0, 27.0, 4.0, 27.0]
        assert fits.k.tolist() == [3, 2, 1, 0, 3]
        assert fits.failed.tolist() == [False, False, True, True, False]
        assert [_tie_warnings(row, t) for row, t in zip(self.matrix(), fits.threshold)] \
            == [()] + 4 * [("tied-threshold",)]
        assert np.isnan(fits.gamma[fits.failed]).all()
        assert np.isnan(fits.scale[fits.failed]).all()

    def test_rows_match_the_scalar_fit(self):
        matrix = self.matrix()
        fits = fit_rows(matrix)
        for i, row in enumerate(matrix):
            sample = sort_and_summarize(row)
            if fits.failed[i]:
                with pytest.raises(FitError):
                    select_threshold(sample)
                continue
            threshold, k = select_threshold(sample)
            report = pwm_fit(sample, threshold, k)
            assert (threshold, k) == (fits.threshold[i], fits.k[i])
            assert report.params.gamma == fits.gamma[i]
            assert report.params.scale == fits.scale[i]
            assert ("tied-threshold" in report.warnings) == (i in (1, 4))

    def test_evt_estimate_warns_on_tied_rows_only(self):
        warned = []
        for i, row in enumerate(self.matrix()):
            try:
                report = evt_estimate(row, 0.01)
            except FitError:
                continue
            if "tied-threshold" in report.warnings:
                warned.append(i)
        assert warned == [1, 4]


class TestPwmFit:
    def test_hand_worked_two_point_case(self):
        # exceedances 3 and 1 above threshold 10: P = 2, Q = 1/4,
        # shape = (P - 4Q)/(P - 2Q) = 2/3, scale = 2PQ/(P - 2Q) = 2/3
        s = sort_and_summarize(list(range(1, 11)) + [13.0, 11.0] + [9.5] * 8)
        report = pwm_fit(s, 10.0, 2)
        assert report.params.gamma == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert report.params.scale == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert report.params.k == 2

    def test_equal_exceedances_give_zero_shape(self):
        c = 0.75
        s = sort_and_summarize([0.0] * 10 + [1.0 + c, 1.0 + c])
        report = pwm_fit(s, 1.0, 2)
        assert report.params.gamma == pytest.approx(0.0, abs=1e-14)
        assert report.params.scale == pytest.approx(c, rel=1e-12)

    def test_consistency_on_pareto2(self):
        # Pareto(2) exceedances are exactly GPD at any threshold, so the
        # standard 0.90 rule recovers the shape up to sampling noise.
        data = get_distribution("pareto2").sample(100_000, RandomStream(1))
        s = sort_and_summarize(data)
        threshold, k = select_threshold(s)
        report = pwm_fit(s, threshold, k)
        assert abs(report.params.gamma - 0.5) < 0.05

    def test_requires_two_exceedances(self):
        s = sort_and_summarize(np.arange(1.0, 11.0))
        with pytest.raises(FitError, match="only 1 exceedance"):
            pwm_fit(s, 9.0, 1)
        with pytest.raises(FitError, match="no strict exceedances"):
            pwm_fit(s, 10.0, 0)

    @pytest.mark.parametrize("k", [-1, 10, 11])
    def test_rejects_counts_outside_the_sample(self, k):
        s = sort_and_summarize(np.arange(1.0, 11.0))
        with pytest.raises(ValueError, match=r"must be in \[0, m\)"):
            pwm_fit(s, 0.5, k)

    # A float count would be truncated (3.7 would fit k = 3); it is
    # refused by name instead, and integer likes fit the same tail.
    @pytest.mark.parametrize("k, message", [
        (3.7, r"^n_exceed: 3\.7 is not an integer$"),
        (3.0, r"^n_exceed: 3\.0 is not an integer$"),
        ("3", r"^n_exceed: '3' is not an integer$"),
        (np.int64(3), None),
        (np.uint8(3), None),
    ])
    def test_count_must_be_an_integer(self, k, message):
        s = sort_and_summarize(np.arange(1.0, 31.0))
        if message is not None:
            with pytest.raises(ValueError, match=message):
                pwm_fit(s, 27.0, k)
        else:
            report = pwm_fit(s, 27.0, k)
            assert report == pwm_fit(s, 27.0, 3)
            assert type(report.params.k) is int

    @pytest.mark.parametrize("data, cause", [
        (np.r_[np.zeros(18), 1.0, 1e20], "shape rounds to 1.0"),
    ])
    def test_unresolved_moments_raise_fit_error(self, data, cause):
        sample = sort_and_summarize(data)
        threshold, k = select_threshold(sample)
        with pytest.raises(FitError, match=cause):
            pwm_fit(sample, threshold, k)

    def test_requires_strict_exceedance(self):
        s = sort_and_summarize([1.0] * 10 + [2.0, 2.0])
        with pytest.raises(ValueError):
            pwm_fit(s, 2.0, 2)

    def test_tied_threshold_warning(self):
        s = sort_and_summarize([1.0] * 5 + [5.0, 5.0, 5.0] + [6.0, 7.0])
        report = pwm_fit(s, 5.0, 2)
        assert "tied-threshold" in report.warnings

    def test_no_warning_without_ties(self):
        s = sort_and_summarize(np.arange(1.0, 21.0))
        report = pwm_fit(s, 18.0, 2)
        assert report.warnings == ()


class TestPwmProperties:
    """Structural guarantees of the moment fit over random exceedance sets."""

    @staticmethod
    def build_sample(rng, k):
        base = np.zeros(3 * k)
        exceedances = rng.uniform(1e-6, 10.0, size=k) ** rng.uniform(0.5, 3.0)
        return sort_and_summarize(np.concatenate([base, 1.0 + exceedances])), k

    def test_shape_below_one_and_scale_positive(self):
        rng = np.random.default_rng(97)
        for _ in range(2_000):
            k = int(rng.integers(2, 40))
            sample, k = self.build_sample(rng, k)
            report = pwm_fit(sample, 1.0, k)
            assert report.params.gamma < 1.0
            assert report.params.scale > 0.0

    def test_moment_gap_positive(self):
        # P - 2Q > 0 for strictly positive exceedances: with decreasing
        # weights on decreasing values the weighted sum stays above P/k.
        rng = np.random.default_rng(101)
        for _ in range(500):
            k = int(rng.integers(2, 40))
            e = np.sort(rng.lognormal(0.0, 2.0, size=k))[::-1]
            p_mom = e.mean()
            q_mom = np.mean(np.arange(k) / k * e)
            assert p_mom - 2.0 * q_mom > 0.0

    def test_shift_equivariance(self):
        data = get_distribution("gumbel").sample(200, RandomStream(31))
        base = sort_and_summarize(data)
        t0, k0 = select_threshold(base)
        fit0 = pwm_fit(base, t0, k0)
        for shift in (-5.0, 3.25):
            moved = sort_and_summarize(data + shift)
            t1, k1 = select_threshold(moved)
            fit1 = pwm_fit(moved, t1, k1)
            assert k1 == k0
            assert t1 == pytest.approx(t0 + shift, abs=1e-12)
            assert fit1.params.gamma == pytest.approx(fit0.params.gamma, abs=1e-12)
            assert fit1.params.scale == pytest.approx(fit0.params.scale, abs=1e-12)

    def test_scale_equivariance(self):
        data = get_distribution("pareto2").sample(200, RandomStream(37))
        base = sort_and_summarize(data)
        t0, k0 = select_threshold(base)
        fit0 = pwm_fit(base, t0, k0)
        for factor in (0.125, 40.0):
            scaled = sort_and_summarize(data * factor)
            t1, k1 = select_threshold(scaled)
            fit1 = pwm_fit(scaled, t1, k1)
            assert k1 == k0
            assert t1 == pytest.approx(t0 * factor, rel=1e-12)
            assert fit1.params.gamma == pytest.approx(fit0.params.gamma, abs=1e-12)
            assert fit1.params.scale == pytest.approx(fit0.params.scale * factor, rel=1e-12)
