"""Tests for the estimation pipeline and its verification oracles."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from evtrisk import (
    AssumptionViolation,
    FitError,
    UNIFORM01,
    RandomStream,
    TailParams,
    cvar,
    evt_estimate,
    extremal_semideviation,
    get_distribution,
    monte_carlo_semideviation,
    run_trial,
    semideviation_by_quadrature,
    sort_and_summarize,
    tail_approximation_error,
    typical_semideviation,
    value_at_risk,
)
from evtrisk.distributions import BLOCK, DISTRIBUTIONS, Distribution
from evtrisk.estimators import estimate_rows
from evtrisk.fitting import _ceil_scaled, fit_rows, pwm_fit, select_threshold
from evtrisk.tail_model import GAMMA_NEAR_ZERO
from helpers import exact_pareto2_params, random_params

# Admissible samples whose moment fit rounding breaks, with the cause the
# FitError names: exceedances spread past double precision round the
# shape to 1.
UNRESOLVED_FITS = [
    pytest.param(np.r_[np.zeros(18), 1.0, 1e20], "shape rounds to 1.0", id="spread"),
]


class TestTypicalEstimator:
    def test_hand_value_m10(self):
        # alpha = 0.05, m = 10: the default keeps only the maximum
        s = sort_and_summarize(np.arange(1.0, 11.0))
        assert typical_semideviation(s, 0.05) == pytest.approx(0.45, rel=1e-14)

    def test_hand_value_m100(self):
        # alpha = 0.01, m = 100: top two order statistics enter
        s = sort_and_summarize(np.arange(1.0, 101.0))
        assert typical_semideviation(s, 0.01) == pytest.approx(0.98, rel=1e-14)

    def test_constant_sample_is_zero(self):
        s = sort_and_summarize(np.full(25, 4.0))
        assert typical_semideviation(s, 0.01) == 0.0

    def test_explicit_top_count(self):
        s = sort_and_summarize(np.arange(1.0, 21.0))
        # top 3 values 18, 19, 20 against mean 10.5
        want = (7.5 + 8.5 + 9.5) / 20.0
        assert typical_semideviation(s, 0.01, n_top=2) == pytest.approx(want, rel=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = sort_and_summarize(rng.normal(size=30))
            assert typical_semideviation(s, rng.uniform(0.01, 0.9)) >= 0.0

    # A float count would be truncated (2.9 would use 2); it is refused
    # by name instead, and integer likes give the same value.
    @pytest.mark.parametrize("n_top, message", [
        (2.9, r"^n_top: 2\.9 is not an integer$"),
        (2.0, r"^n_top: 2\.0 is not an integer$"),
        (np.int32(2), None),
        (np.int64(2), None),
    ])
    def test_top_count_must_be_an_integer(self, n_top, message):
        s = sort_and_summarize(np.arange(1.0, 21.0))
        if message is not None:
            with pytest.raises(ValueError, match=message):
                typical_semideviation(s, 0.01, n_top=n_top)
        else:
            assert (typical_semideviation(s, 0.01, n_top=n_top)
                    == typical_semideviation(s, 0.01, n_top=2))

    def test_validation(self):
        s = sort_and_summarize(np.arange(1.0, 21.0))
        with pytest.raises(ValueError):
            typical_semideviation(s, 0.0)
        with pytest.raises(ValueError):
            typical_semideviation(s, 0.01, n_top=20)


class TestPipeline:
    def test_large_pareto2_sample(self):
        data = get_distribution("pareto2").sample(10_000, RandomStream(42))
        report = evt_estimate(data, alpha=0.01)
        assert abs(report.params.gamma - 0.5) < 0.1
        assert report.assumptions.all_hold()
        assert report.rho_evt == pytest.approx(0.18, rel=0.3)

    def test_mean_of_data_whose_sum_overflows(self):
        # Finite data near the top of the double range: the sum overflows,
        # but every field is the scaled data's, times the power of two.
        data = (np.random.default_rng(0).pareto(2, 40) + 1.0) * 3e306
        big, small = evt_estimate(data), evt_estimate(data * 2.0**-600)
        assert math.isfinite(sort_and_summarize(data).mean)
        for field in ("sample_mean", "rho_typical", "rho_evt"):
            assert getattr(big, field) == getattr(small, field) * 2.0**600, field
        assert big.params.threshold == small.params.threshold * 2.0**600
        assert big.params.scale == small.params.scale * 2.0**600
        assert (big.params.gamma, big.params.k) == (small.params.gamma, small.params.k)
        assert big.assumptions == small.assumptions and big.assumptions.all_hold()

    def test_constant_data_raises_fit_error(self):
        with pytest.raises(FitError):
            evt_estimate(np.full(20, 1.0), alpha=0.01)

    def test_large_alpha_flagged_not_raised(self):
        data = get_distribution("exponential1").sample(20, RandomStream(8))
        report = evt_estimate(data, alpha=0.5)
        assert report.assumptions.alpha_lt_k_over_m is False
        assert report.rho_evt is None
        assert report.var_tail is None
        assert report.rho_typical > 0.0

    def test_rho_evt_consistent_with_parts(self):
        data = get_distribution("gumbel").sample(500, RandomStream(12))
        report = evt_estimate(data, alpha=0.01)
        assert report.assumptions.all_hold()
        want = report.alpha * (report.cvar_tail - report.sample_mean)
        assert report.rho_evt == pytest.approx(want, rel=1e-14)
        assert report.var_tail == pytest.approx(
            value_at_risk(report.params, 0.01), rel=1e-14)

    def test_typical_uses_fit_exceedance_count(self):
        data = get_distribution("pareto2").sample(20, RandomStream(4))
        report = evt_estimate(data, alpha=0.01)
        sample = sort_and_summarize(data)
        assert report.rho_typical == pytest.approx(
            typical_semideviation(sample, 0.01, n_top=report.params.k), rel=1e-14)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            evt_estimate(np.arange(5.0), alpha=0.01)

    @pytest.mark.parametrize("m", range(10, 20))
    def test_below_twenty_points_names_the_cause(self, m):
        data = get_distribution("pareto2").sample(m, RandomStream(m))
        with pytest.raises(FitError, match=f"{m} points .* at least 20 points"):
            evt_estimate(data, alpha=0.01)

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_fit_is_exact_under_powers_of_two(self, power):
        # P*Q of the raw exceedances would overflow or underflow here.
        data = get_distribution("pareto2").sample(50, RandomStream(1))
        base = evt_estimate(data, alpha=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evt_estimate(np.ldexp(data, power), alpha=0.01)
        assert report.params.k == base.params.k
        assert report.params.gamma == base.params.gamma
        assert report.params.scale == np.ldexp(base.params.scale, power)

    def test_subnormal_data_fit(self):
        report = evt_estimate(np.arange(1, 21) * 1e-320, alpha=0.01)
        assert report.params.scale > 0.0
        assert report.params.gamma < 1.0

    @pytest.mark.parametrize("data, cause", UNRESOLVED_FITS)
    def test_unresolved_fit_names_the_cause(self, data, cause):
        with pytest.raises(FitError, match=cause):
            evt_estimate(data, alpha=0.01)

    @pytest.mark.parametrize("data, cause", UNRESOLVED_FITS)
    def test_unresolved_fit_is_not_evt_valid_in_a_batch(self, data, cause):
        # The grid's path: the row next to a regular sample is counted as
        # failed, as evt_estimate refuses it, and does not spoil its
        # neighbour.
        regular = get_distribution("pareto2").sample(data.size, RandomStream(3))
        est = estimate_rows(np.stack([data, regular]), 0.01)
        assert est.fits.failed.tolist() == [True, False]
        assert est.evt_valid.tolist() == [False, True]
        alone = estimate_rows(data, 0.01)
        assert alone.fits.failed and not alone.evt_valid
        assert est.rho_evt[1] == evt_estimate(regular, alpha=0.01).rho_evt

    @pytest.mark.parametrize("data, cause", UNRESOLVED_FITS)
    def test_unresolved_fit_is_a_failed_trial(self, data, cause):
        # A benchmark trial reads the same rule as evt_estimate.
        law = dataclasses.replace(UNIFORM01, _quantile=lambda u, out: np.positive(data, out=out))  # always draws data
        rec = run_trial(law, data.size, 0.01, seed=5, true_value=0.0)
        assert rec.fit_failed
        assert rec.err_evt is None and rec.assumptions is None


def random_matrices(count=200, seed=2024):
    """Seeded ``(n, m)`` sample matrices; some rounded so that thresholds
    tie and ``k`` varies between rows, down to k < 2."""
    rng = np.random.default_rng(seed)
    draws = (lambda n, m: rng.pareto(2.0, (n, m)) + 1.0,
             lambda n, m: rng.standard_normal((n, m)),
             lambda n, m: rng.uniform(0.0, 1.0, (n, m)),
             lambda n, m: rng.exponential(1.0, (n, m)))
    for i in range(count):
        n, m = int(rng.integers(1, 41)), int(rng.integers(20, 100))
        matrix = draws[i % len(draws)](n, m)
        if i % 3:
            matrix = np.round(matrix, int(rng.integers(1, 3)))
        yield matrix


class TestRowIndependence:
    """A row's result does not depend on the rows batched with it."""

    @staticmethod
    def fields(est, i=...):
        fits = est.fits._asdict()
        rest = {key: value for key, value in est._asdict().items() if key != "fits"}
        return {key: np.asarray(value[i]) for key, value in {**fits, **rest}.items()}

    def test_estimate_rows_bitwise_per_row(self):
        low_k = mixed = 0
        for matrix in random_matrices():
            est = estimate_rows(matrix, 0.01)
            low_k += int(np.count_nonzero(est.fits.k < 2))
            mixed += len(np.unique(est.fits.k)) > 1
            for i, row in enumerate(matrix):
                got, want = self.fields(est, i), self.fields(estimate_rows(row, 0.01))
                for key in want:
                    assert got[key].dtype == want[key].dtype, key
                    # Bitwise, except that any two NaNs match: the sign of
                    # a NaN from an invalid operation (a failed row's VaR)
                    # differs between numpy's vector and scalar loops.
                    assert (got[key].tobytes() == want[key].tobytes()
                            or np.isnan(got[key]) and np.isnan(want[key])), key
        # The inputs reach the per-k scatter path and the failed fits.
        assert low_k > 0 and mixed > 0

    def test_one_sample_gives_numpy_scalars(self):
        # One sample's fields are scalars, as the docstrings say, not 0-d
        # arrays: the threshold column and the VaR select once were.
        rows = [matrix[0] for matrix in random_matrices(count=12)]
        for row in [*rows, np.ones(30), np.arange(40.0)]:
            est = estimate_rows(row.copy(), 0.01)
            fields = {**est.fits._asdict(), **est._asdict()}
            del fields["fits"]
            for key, value in fields.items():
                assert isinstance(value, np.generic), (key, type(value))

    def test_rows_whose_sum_overflows(self):
        # One row's sum overflows, so the whole pass takes the checked sum;
        # only that row is summed again, and every row is its own result.
        rng = np.random.default_rng(4)
        big = (rng.pareto(2.0, 40) + 1.0) * 3e306
        matrix = np.stack([rng.exponential(1.0, 40), big, 2.5e306 + rng.random(40) * 1e305,
                           -big])
        est = estimate_rows(matrix, 0.01)
        assert np.isfinite(est.mean).all()
        for i, row in enumerate(matrix):
            got, want = self.fields(est, i), self.fields(estimate_rows(row, 0.01))
            for key in want:
                assert (got[key].tobytes() == want[key].tobytes()
                        or np.isnan(got[key]) and np.isnan(want[key])), (i, key)

    def test_fit_rows_matches_scalar_fit(self):
        for matrix in random_matrices():
            fits = fit_rows(np.sort(matrix, axis=-1))
            for i, row in enumerate(matrix):
                sample = sort_and_summarize(row)
                if fits.failed[i]:
                    with pytest.raises(FitError):
                        pwm_fit(sample, *select_threshold(sample))
                    continue
                threshold, k = select_threshold(sample)
                report = pwm_fit(sample, threshold, k)
                assert (threshold, k) == (fits.threshold[i], fits.k[i])
                assert report.params.gamma == fits.gamma[i]
                assert report.params.scale == fits.scale[i]
                # Tied exactly when a neighbour of the threshold's order
                # statistic equals it.
                ordered, j = np.sort(row), _ceil_scaled(0.9 * row.size) - 1
                tied = ordered[j - 1] == ordered[j] or ordered[j + 1] == ordered[j]
                assert ("tied-threshold" in report.warnings) == tied


class TestMonteCarloOracle:
    def test_uniform_half_level(self):
        # true value: integral_{1/2}^{1} (y - 1/2) dy = 1/8
        est, se = monte_carlo_semideviation(get_distribution("uniform01"), 0.5,
                                            100_000, RandomStream(60))
        assert abs(est - 0.125) <= 3.0 * se

    def test_pareto2_and_exponential(self):
        for name, want in (("pareto2", 0.18),
                           ("exponential1", math.log(100.0) / 100.0)):
            est, se = monte_carlo_semideviation(get_distribution(name), 0.01,
                                                200_000, RandomStream(61))
            assert abs(est - want) <= 3.0 * se

    def test_standard_error_scaling(self):
        # doubling the sample should shrink the error bar by about sqrt(2)
        dist = get_distribution("exponential1")
        ratios = []
        for seed in range(5):
            _, se_small = monte_carlo_semideviation(dist, 0.01, 10_000,
                                                    RandomStream(seed))
            _, se_big = monte_carlo_semideviation(dist, 0.01, 20_000,
                                                  RandomStream(1000 + seed))
            ratios.append(se_big / se_small)
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            monte_carlo_semideviation(get_distribution("gumbel"), 0.01, 999,
                                      RandomStream(1))

    def test_sample_size_not_integer(self):
        with pytest.raises(ValueError, match=r"^n: 10000\.7 is not an integer$"):
            monte_carlo_semideviation(get_distribution("gumbel"), 0.01, 10000.7,
                                      RandomStream(1))

    def test_numpy_integer_sample_size(self):
        dist = get_distribution("gumbel")
        assert (monte_carlo_semideviation(dist, 0.01, np.int64(10_000), RandomStream(1))
                == monte_carlo_semideviation(dist, 0.01, 10_000, RandomStream(1)))

    @staticmethod
    def reference(dist, alpha, n, stream):
        """The oracle's formula on the whole draw at once: the mean, the
        empirical quantile by one partition, the ``y >= v`` mask and
        ``std``."""
        y = dist.sample(n, stream)
        idx = _ceil_scaled((1.0 - alpha) * n)
        v = np.partition(y, idx - 1)[idx - 1]
        summand = np.where(y >= v, np.maximum(y - y.mean(), 0.0), 0.0)
        return summand.mean(), summand.std(ddof=1) / np.sqrt(n), v, y

    def assert_matches_reference(self, dist, alpha, n):
        streamed, whole = RandomStream(9), RandomStream(9)
        got = monte_carlo_semideviation(dist, alpha, n, streamed)
        want = self.reference(dist, alpha, n, whole)
        # The sums run block by block instead of pairwise over n, so only
        # the last bits may move.
        assert got == pytest.approx(want[:2], rel=1e-12, abs=0.0)
        assert streamed.counter == whole.counter
        return want

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("n", [10**4, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5, 2 * 10**5])
    @pytest.mark.parametrize("alpha", [0.01, 0.5])
    def test_streaming_matches_whole_draw(self, name, n, alpha):
        self.assert_matches_reference(get_distribution(name), alpha, n)

    @pytest.mark.parametrize("levels", [2, 50])
    @pytest.mark.parametrize("n", [10**4, 3 * BLOCK + 5, 10**6])
    @pytest.mark.parametrize("alpha", [0.01, 0.5])
    def test_ties_at_the_quantile_all_count(self, levels, n, alpha):
        # Atoms 0, 1, ..., levels - 1 of equal mass, so hundreds of draws
        # equal v (at 2 levels, half of them).  At alpha = 0.01 the cut
        # lands on the atom at v, and at 2 levels and n = 10**6 its draws
        # outgrow the kept set's first allocation.
        steps = Distribution(name=f"steps{levels}", gamma_ref=-math.inf,
                             right_endpoint=levels - 1.0, mean=(levels - 1) / 2,
                             _cdf=None, _quantile=lambda p, out=None: np.floor(levels * p, out=out),
                             _tail_semidev=None)
        _, _, v, y = self.assert_matches_reference(steps, alpha, n)
        top = n - _ceil_scaled((1.0 - alpha) * n) + 1
        assert np.count_nonzero(y == v) > 100 and np.count_nonzero(y >= v) > top

    @staticmethod
    def traced_peak(dist, alpha, n):
        tracemalloc.start()
        try:
            monte_carlo_semideviation(dist, alpha, n, RandomStream(5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_peak_memory_blocks_plus_tail(self, name):
        # One block of BLOCK draws, one sample tile of BLOCK hashed words
        # (its planes and temporaries, the same size for every law) and a
        # kept set of at most 2 * (alpha * n + BLOCK) values; nothing grows
        # with n itself.
        dist = get_distribution(name)
        peak = self.traced_peak(dist, 0.01, 10**6)
        assert peak <= 10 * 8 * BLOCK + 4 * 8 * 0.01 * 10**6, peak / (8 * BLOCK)
        # Ten times the draws at the same alpha * n: the same peak.
        assert self.traced_peak(dist, 0.001, 10**7) <= 1.1 * peak


class TestQuadratureOracle:
    def test_pareto2_exact_case(self):
        got = semideviation_by_quadrature(exact_pareto2_params(), 0.01, 2.0)
        assert got == pytest.approx(0.18, rel=1e-9)

    def test_zero_at_cvar_mean(self):
        p = TailParams(k=5, m=40, gamma=0.3, threshold=2.0, scale=1.5)
        alpha = 0.05
        v = value_at_risk(p, alpha)
        got = semideviation_by_quadrature(p, alpha, v)
        want = alpha * (cvar(p, alpha) - v)
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            p = random_params(rng)
            alpha = rng.uniform(1e-4, p.tail_fraction * 0.99)
            mean = value_at_risk(p, alpha) - abs(rng.normal()) * p.scale
            got = semideviation_by_quadrature(p, alpha, mean)
            want = extremal_semideviation(p, alpha, mean)
            assert got == pytest.approx(want, rel=1e-8)

    def test_raises_below_mean(self):
        p = TailParams(k=5, m=40, gamma=0.3, threshold=2.0, scale=1.5)
        v = value_at_risk(p, 0.05)
        with pytest.raises(AssumptionViolation):
            semideviation_by_quadrature(p, 0.05, v + 1.0)

    @pytest.mark.parametrize("gamma", [np.nextafter(-GAMMA_NEAR_ZERO, -1.0),
                                       -GAMMA_NEAR_ZERO,
                                       np.nextafter(-GAMMA_NEAR_ZERO, 0.0)])
    def test_matches_closed_form_at_the_bounded_edge(self, gamma):
        p = TailParams(k=5, m=40, gamma=float(gamma), threshold=2.0, scale=1.5)
        mean = value_at_risk(p, 0.05) - 1.0
        got = semideviation_by_quadrature(p, 0.05, mean)
        assert got == pytest.approx(extremal_semideviation(p, 0.05, mean), rel=1e-8)

    # Shapes near 1 decay like z^(-1/gamma), too slowly for an adaptive rule
    # on [v, inf) to see; gamma = -50 has its endpoint 0.03 above the
    # threshold.
    @pytest.mark.parametrize("gamma", [0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-8, -50.0])
    def test_matches_closed_form_at_extreme_shapes(self, gamma):
        p = TailParams(k=5, m=40, gamma=gamma, threshold=2.0, scale=1.5)
        mean = value_at_risk(p, 0.05) - 1.0
        got = semideviation_by_quadrature(p, 0.05, mean)
        assert got == pytest.approx(extremal_semideviation(p, 0.05, mean), rel=1e-8)

    def test_matches_adaptive_quadrature(self):
        # QUADPACK on the density in z, over criterion 1's draws: a reference
        # that shares neither the coordinate nor the rule.
        from scipy.integrate import IntegrationWarning, quad

        rng = np.random.default_rng(20_01)
        for _ in range(1_000):
            p = random_params(rng, gamma_range=(-2.0, 0.95))
            alpha = rng.uniform(1e-4, p.tail_fraction * 0.99)
            mean = value_at_risk(p, alpha) - abs(rng.normal()) * p.scale
            v = value_at_risk(p, alpha)
            gamma, s, scale = p.gamma, p.threshold, p.scale

            def integrand(z):
                x = (z - s) / scale
                if abs(gamma) < GAMMA_NEAR_ZERO:
                    log_density = -x
                else:
                    log_density = (-1.0 / gamma - 1.0) * np.log1p(gamma * x)
                return (z - v) * p.tail_fraction / scale * np.exp(log_density)

            upper, points = p.support.upper, None
            if upper < np.inf:
                # Breakpoints keep the subdivision near the mass of a finite
                # but enormous support (tiny |gamma|).
                points = [v + scale * 2.0**j for j in range(48)
                          if v + scale * 2.0**j < upper] or None
            with warnings.catch_warnings():
                # The tolerance sits near roundoff for some shapes.
                warnings.simplefilter("ignore", IntegrationWarning)
                excess, _ = quad(integrand, v, upper, epsabs=0.0, epsrel=1e-10,
                                 limit=400, points=points)
            want = excess + alpha * (v - mean)
            assert semideviation_by_quadrature(p, alpha, mean) == pytest.approx(want, rel=1e-8)


class TestTailApproximationError:
    def test_exponential_tail_is_exact(self):
        dist = get_distribution("exponential1")
        p = TailParams(k=2, m=20, gamma=0.0, threshold=2.5, scale=1.0)
        grid = np.linspace(2.5, 2.5 + 15.0, 100)
        assert tail_approximation_error(dist, p, grid).max() <= 1e-14

    def test_pareto2_tail_is_exact(self):
        dist = get_distribution("pareto2")
        s = 3.0
        p = TailParams(k=2, m=20, gamma=0.5, threshold=s, scale=s / 2.0)
        grid = np.linspace(s, 60.0, 100)
        assert tail_approximation_error(dist, p, grid).max() <= 1e-14

    def test_zero_at_threshold(self):
        dist = get_distribution("gumbel")
        p = TailParams(k=2, m=20, gamma=0.0, threshold=4.0, scale=1.0)
        assert tail_approximation_error(dist, p, [4.0])[0] == 0.0

    def test_gumbel_error_small_but_nonzero(self):
        # the Gumbel tail is only asymptotically exponential, so the error
        # is positive yet tiny at a threshold this deep
        dist = get_distribution("gumbel")
        p = TailParams(k=2, m=20, gamma=0.0, threshold=4.0, scale=1.0)
        grid = np.linspace(4.0, 10.0, 50)
        errs = tail_approximation_error(dist, p, grid)
        assert errs.max() < 1e-3
        assert errs.max() > 0.0

    def test_rejects_points_outside_support(self):
        dist = get_distribution("uniform01")
        p = TailParams(k=2, m=20, gamma=-1.0, threshold=0.9, scale=0.1)
        with pytest.raises(ValueError):
            tail_approximation_error(dist, p, [0.5])
        with pytest.raises(ValueError):
            tail_approximation_error(dist, p, [1.0])

    @pytest.mark.parametrize("grid", [math.nan, [4.5, math.nan]])
    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_rejects_nan(self, gamma, grid):
        p = TailParams(k=2, m=20, gamma=gamma, threshold=4.0, scale=1.0)
        with pytest.raises(ValueError, match="inside the model support"):
            tail_approximation_error(get_distribution("gumbel"), p, grid)
