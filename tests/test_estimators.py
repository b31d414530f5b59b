"""Tests for the estimation pipeline and its verification oracles."""

import dataclasses
import decimal
import hashlib
import itertools
import json
import math
import operator
import sys
import tracemalloc
import warnings
from collections import Counter

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
from evtrisk.cli import main
from evtrisk.distributions import BLOCK, DISTRIBUTIONS
from evtrisk.estimators import AssumptionChecks, EstimateReport, estimate_rows
from evtrisk.fitting import _ceil_scaled, _fit_error, _floor_scaled, fit_rows, pwm_fit, select_threshold
from evtrisk.rng import _RAMPS, _TILE
from evtrisk.tail_model import GAMMA_NEAR_ZERO
from helpers import (
    avx512_targets,
    exact_pareto2_params,
    random_params,
    run_without_avx512,
    steps_law,
    traced_peaks,
)

# Admissible samples whose moment fit rounding breaks, with the cause the
# FitError names: exceedances spread past double precision round the
# shape to 1, and exceedances near the top of the range give a scale past
# it, exactly inf, with no overflow warning (an error in this suite).
UNRESOLVED_FITS = [
    pytest.param(np.r_[np.zeros(18), 1.0, 1e20], "shape rounds to 1.0", id="spread"),
    pytest.param(np.r_[np.zeros(27), 1.5e308, 1.49e308, 1.48e308],
                 "fitted scale is inf: the 3 exceedances are too large", id="scale-overflows"),
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
        # The least sample is 2 points: max(3 - 2, 0) / 2.
        assert typical_semideviation(sort_and_summarize(np.array([1.0, 3.0])), 0.01) == 0.5
        with pytest.raises(ValueError, match="need at least 2 points"):
            typical_semideviation(sort_and_summarize(np.array([1.0])), 0.01)


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

    def test_closed_forms_at_the_top_of_the_double_range(self):
        # Shape 0.899: at 2**1016 the CVaR lies beyond the double range, but
        # rho = alpha (CVaR - mean), about 2.17e305, does not; at 2**1019 the
        # VaR does too.  Each present field is the unscaled one's, times
        # the power of two, bit for bit.
        data = get_distribution("pareto2").sample(50, RandomStream(1))
        base = evt_estimate(data, alpha=0.001)
        for power, var_tail in ((1016, np.ldexp(base.var_tail, 1016)), (1019, None)):
            report = evt_estimate(np.ldexp(data, power), alpha=0.001)
            assert report.rho_evt == np.ldexp(base.rho_evt, power)
            assert report.rho_typical == np.ldexp(base.rho_typical, power)
            assert report.var_tail == var_tail and report.cvar_tail is None
            assert report.assumptions.all_hold()
        est = estimate_rows(np.stack([data, np.ldexp(data, 1016)]), 0.001)
        assert est.evt_valid.tolist() == [True, True] and np.isinf(est.cvar_tail[1])
        assert est.rho_evt[1] == np.ldexp(est.rho_evt[0], 1016)

    def test_overflow_where_alpha_is_past_k_over_m_stays_silent(self):
        # In range, and yet the VaR overflows: the shape is -308 and alpha
        # is past k/m, so r = m alpha / k = 9.9 and scale * expm1(-gamma
        # log r) is -inf.  Only the alpha flag reports it; without the
        # pipeline's np.errstate the overflow would warn, here an error.
        data = np.r_[np.linspace(0.0, 1.0, 2790), np.full(310, 10.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evt_estimate(data, alpha=0.99)
            est = estimate_rows(np.stack([data, data]), 0.99)
        assert (report.params.k, round(report.params.gamma)) == (310, -308)
        assert not report.assumptions.alpha_lt_k_over_m
        assert report.var_tail is None and report.rho_evt is None
        assert np.isneginf(est.var_tail).all() and not est.alpha_ok.any()
        assert not est.evt_valid.any()

    def test_constant_data_raises_fit_error(self):
        with pytest.raises(FitError):
            evt_estimate(np.full(20, 1.0), alpha=0.01)

    def test_large_alpha_flagged_not_raised(self):
        data = get_distribution("exponential1").sample(20, RandomStream(8))
        # 0.1 is k/m itself: the hypothesis alpha < k/m is strict.
        for alpha in (0.5, 0.1):
            report = evt_estimate(data, alpha=alpha)
            assert report.params.k / report.params.m == 0.1
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


SWEEP_ALPHAS = (0.001, 0.01, 0.05, 0.2)
# SHA-256 of the sweep's report lines (one repr, or the FitError's message,
# per input; see sweep_text), by whether numpy dispatches its AVX-512
# kernels: below them, np.log and np.expm1 give other last bits in _var.
# Both were recorded on one x86-64 CPU (numpy 2.4.6), the lower one with
# the AVX-512 targets off and again with X86_V3 off too.
SWEEP_SHA256 = {
    "AVX-512": "61c3344e35881377519b404bad1090303b750eba82fdc5d639c107db2d7e5b78",
    "below AVX-512": "2e2742af82f0cddc4af4e0ce48f45292d3908a1ca3d34d0a9f08cfdbb625e161",
}


def scaled_sweep(groups=120, rows=4, seed=2207):
    """Seeded ``(matrix, alpha, exponents)`` groups: each row a Pareto(2),
    normal, or normal rounded to 0 or 1 decimals (so tied) body of the
    group's size m in 20..300, times its own power of two ``2**j``, j in
    ``exponents`` from -1000 to 1000; alpha cycles over ``SWEEP_ALPHAS``.
    No scaled value leaves the normal range, so ``ldexp(row, -j)`` is the
    body.  Its 480 inputs take about 0.15 s."""
    rng = np.random.default_rng(seed)
    bodies = (lambda m: rng.pareto(2.0, m) + 1.0,
              rng.standard_normal,
              lambda m: np.round(rng.standard_normal(m), int(rng.integers(0, 2))))
    for g in range(groups):
        m = int(rng.integers(20, 301))
        drawn, exponents = [], []
        for r in range(rows):
            drawn.append(bodies[(g + r) % len(bodies)](m))
            exponents.append(int(rng.integers(-1000, 1001)))
        yield (np.ldexp(np.stack(drawn), np.array(exponents)[:, None]),
               SWEEP_ALPHAS[g % len(SWEEP_ALPHAS)], exponents)


def sweep_text() -> bytes:
    """The scaled sweep's reports (:meth:`TestScaledSweep.reports`), one
    line each: its ``repr``, or the ``FitError``'s message."""
    lines, failed, scaled = [], 0, 0
    for row, _, report in TestScaledSweep.reports(scaled_sweep()):
        scaled += not 2.0**-400 <= np.abs(row).max() <= 2.0**400
        failed += isinstance(report, FitError)
        lines.append(f"FitError: {report}" if isinstance(report, FitError) else repr(report))
    # Both sides of the range test, and failed fits, are reached.
    assert failed > 0 and 0 < scaled < len(lines)
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestScaledSweep:
    """``evt_estimate`` is the batch's row, bit for bit, at any scale."""

    @staticmethod
    def row_report(est, i, m, alpha, tied):
        """The report ``evt_estimate`` owes for row ``i`` of ``est``."""
        fits = est.fits
        params = TailParams(k=int(fits.k[i]), m=m, gamma=float(fits.gamma[i]),
                            threshold=float(fits.threshold[i]), scale=float(fits.scale[i]))
        ok, valid = bool(est.alpha_ok[i]), bool(est.evt_valid[i])

        def present(value):
            # None past k/m, or beyond the double range.
            return float(value) if ok and np.isfinite(value) else None

        return EstimateReport(
            alpha=alpha, params=params, sample_mean=float(est.mean[i]),
            rho_typical=float(est.rho_typical[i]),
            var_tail=present(est.var_tail[i]),
            cvar_tail=present(est.cvar_tail[i]),
            rho_evt=float(est.rho_evt[i]) if valid else None,
            assumptions=AssumptionChecks(alpha_lt_k_over_m=ok, var_ge_mean=valid),
            warnings=("tied-threshold",) if tied else ())

    @classmethod
    def reports(cls, sweep):
        """Each input's ``evt_estimate`` report, or its ``FitError``,
        checked to be its row of the group's ``estimate_rows``."""
        for matrix, alpha, *_ in sweep:
            est = estimate_rows(matrix.copy(), alpha)
            for i, row in enumerate(matrix):
                fits, m = est.fits, row.size
                try:
                    report = evt_estimate(row, alpha)
                except FitError as exc:
                    assert fits.failed[i]
                    want = _fit_error(m, int(fits.k[i]), float(fits.gamma[i]),
                                      float(fits.scale[i]))
                    assert str(exc) == str(want)
                    yield row, alpha, exc
                    continue
                assert not fits.failed[i]
                ordered, j = np.sort(row), _ceil_scaled(0.9 * m) - 1
                tied = ordered[j - 1] == ordered[j] or ordered[j + 1] == ordered[j]
                # repr round-trips every float, -0.0 included.
                assert repr(report) == repr(cls.row_report(est, i, m, alpha, tied))
                if est.alpha_ok[i]:
                    cls.check_scalar_forms(report, est, i)
                yield row, alpha, report

    @staticmethod
    def check_scalar_forms(report, est, i):
        """The scalar closed forms on the report's fit and mean are row
        ``i`` of ``est``, bit for bit, at any magnitude: past 2**400 both
        evaluate in units of a power of two."""
        p, alpha, mean = report.params, report.alpha, report.sample_mean
        assert (repr((value_at_risk(p, alpha), cvar(p, alpha)))
                == repr((float(est.var_tail[i]), float(est.cvar_tail[i]))))
        if est.evt_valid[i]:
            assert repr(extremal_semideviation(p, alpha, mean)) == repr(float(est.rho_evt[i]))
        else:
            with pytest.raises(AssumptionViolation):
                extremal_semideviation(p, alpha, mean)

    def test_reports_are_the_batch_rows(self):
        level = "AVX-512" if avx512_targets() else "below AVX-512"
        assert hashlib.sha256(sweep_text()).hexdigest() == SWEEP_SHA256[level]

    def test_reports_without_avx512_kernels(self):
        # The same machine's next level down, in a child process; the
        # default level's run above pins the other literal.
        targets = avx512_targets()
        if not targets:
            pytest.skip("numpy dispatches no AVX-512 kernels on this CPU, "
                        "so there is no lower level to compare with")
        proc = run_without_avx512(targets, "from test_estimators import sweep_text\n"
                                           "sys.stdout.buffer.write(sweep_text())")
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest == SWEEP_SHA256["below AVX-512"]

    @staticmethod
    def report_or_error(row, alpha):
        try:
            return evt_estimate(row, alpha)
        except FitError as exc:
            return exc

    def test_reports_scale_by_powers_of_two(self):
        # Each scaled input's report is the unscaled body's, every scale
        # field times 2**j exactly, wherever both are normal; the shape,
        # k, m, the flags and the warnings do not move.
        same = operator.attrgetter("alpha", "params.k", "params.m", "params.gamma",
                                   "assumptions", "warnings")
        compared = 0
        for matrix, alpha, exponents in scaled_sweep():
            for row, j in zip(matrix, exponents):
                body = np.ldexp(row, -j)
                assert np.array_equal(np.ldexp(body, j), row)
                scaled, unscaled = self.report_or_error(row, alpha), self.report_or_error(body, alpha)
                assert isinstance(scaled, FitError) == isinstance(unscaled, FitError)
                if isinstance(scaled, FitError):
                    continue
                assert same(scaled) == same(unscaled)
                for field in ("sample_mean", "rho_typical", "var_tail", "cvar_tail", "rho_evt",
                              "params.threshold", "params.scale"):
                    got, want = (operator.attrgetter(field)(r) for r in (scaled, unscaled))
                    if all(v is not None and sys.float_info.min <= abs(v) <= sys.float_info.max
                           for v in (got, want)):
                        assert got == math.ldexp(want, j), (field, got, want, j)
                        compared += 1
        assert compared > 0


def heavy_sweep(groups=1000, rows=4, seed=2311):
    """Seeded ``(matrix, alpha)`` groups: each row a Cauchy body, or a
    log-uniform one spanning up to 260 decades, of the group's size m in
    20..300; alpha cycles over ``SWEEP_ALPHAS``.  Rows are scaled by a
    power of two in turn drawn from 2**-1100 to the largest that keeps
    them finite, from the 40 largest, and from 2**-1100 to 2**-1000, where
    the values are subnormal or zero.  Its 4,000 inputs take about 1 s."""
    rng = np.random.default_rng(seed)
    bodies = (rng.standard_cauchy,
              lambda m: np.exp(rng.uniform(-1.0, 1.0, m) * rng.uniform(1.0, 300.0)))
    for g in range(groups):
        m = int(rng.integers(20, 301))
        matrix = []
        for r in range(rows):
            body = bodies[(g + r) % len(bodies)](m)
            top = 1023 - int(np.frexp(np.abs(body).max())[1])
            low, high = ((-1100, top), (top - 40, top), (-1100, -1000))[(g + r) % 3]
            matrix.append(np.ldexp(body, int(rng.integers(low, high + 1))))
        yield np.stack(matrix), SWEEP_ALPHAS[g % len(SWEEP_ALPHAS)]


def tiny_alpha_inputs():
    """``(matrix, alpha)`` of a log-uniform body of 88 values from 1e-50 to
    1e100, well inside the range, at alpha = 1e-300: its VaR and CVaR
    overflow while rho, about alpha times the CVaR, is near 1e71."""
    rng = np.random.default_rng(0)
    m = int(rng.integers(20, 100))
    yield (10.0 ** rng.uniform(-50, 100, m))[None], 1e-300


def refuse_constant(name):
    """``json.loads``'s hook for NaN and the infinities, which are not JSON."""
    raise ValueError(f"{name} is not JSON (RFC 8259)")


class TestHeavySweep:
    """Heavy and wide bodies from the subnormals to the top of the range:
    a ``FitError`` that names its cause, or a finite, signed report."""

    def test_reports_are_finite_and_signed(self, tmp_path, capsys):
        seen = Counter()
        inputs = itertools.chain(heavy_sweep(), tiny_alpha_inputs())
        for i, (row, alpha, report) in enumerate(TestScaledSweep.reports(inputs)):
            if isinstance(report, FitError):
                seen["FitError"] += 1
                continue
            fields = (report.sample_mean, report.rho_typical, report.params.threshold,
                      report.params.scale, report.params.gamma, report.var_tail,
                      report.cvar_tail, report.rho_evt)
            assert all(math.isfinite(v) for v in fields if v is not None), report
            assert report.rho_typical >= 0.0, report
            assert report.rho_evt is None or report.rho_evt >= 0.0, report
            beyond = report.assumptions.alpha_lt_k_over_m and report.cvar_tail is None
            seen["report"] += 1
            seen["beyond the range"] += beyond
            seen["beyond the range from data in it"] += beyond and np.abs(row).max() <= 2.0**400
            seen["top"] += np.abs(row).max() > 2.0**1000
            seen["subnormal"] += np.abs(row).min() < 2.0**-1022
            if beyond or i % 50 == 0:
                # The command's stdout is strict JSON: no NaN or Infinity.
                path = tmp_path / "data.csv"
                path.write_text("".join(f"{v!r}\n" for v in row.tolist()))
                assert main(["estimate", "--input", str(path), "--alpha", str(alpha)]) == 0
                payload = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
                assert (payload["cvar_theta"], payload["rho_evt"]) == (report.cvar_tail,
                                                                       report.rho_evt)
        assert all(seen[key] > 0 for key in ("FitError", "report", "beyond the range",
                                             "beyond the range from data in it", "top",
                                             "subnormal")), seen


class TestTinyAlpha:
    """Where ``r ** -gamma`` overflows the VaR and the CVaR, ``rho_evt`` is
    still ``alpha * (cvar - mean)``, taken in a form that does not."""

    @pytest.mark.parametrize("alpha", [1e-250, 1e-300, 5e-324])
    def test_rho_matches_exact_arithmetic(self, alpha):
        (matrix, _), = tiny_alpha_inputs()
        report = evt_estimate(matrix[0], alpha)
        assert report.var_tail is None and report.assumptions.all_hold()
        p = report.params
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, t, s, g, mean = map(decimal.Decimal, (alpha, p.threshold, p.scale, p.gamma,
                                                     report.sample_mean))
            var = t + s * ((p.m * a / p.k) ** -g - 1) / g
            want = a * ((var + s - g * t) / (1 - g) - mean)
        assert report.rho_evt == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.5, 0.95])
    def test_subnormal_alpha_matches_exact_arithmetic(self, gamma):
        # m alpha / k is subnormal here, a multiple of 2**-1074 (11 for
        # 10.67), so the VaR takes its log from 2**600 alpha instead.
        p, alpha, mean = TailParams(k=6, m=64, gamma=gamma, threshold=0.0, scale=1.0), 5e-324, 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, g = decimal.Decimal(alpha), decimal.Decimal(gamma)
            var = ((p.m * a / p.k) ** -g - 1) / g
            rho = a * ((var + 1) / (1 - g) - decimal.Decimal(mean))
        assert value_at_risk(p, alpha) == pytest.approx(float(var), rel=1e-13)
        assert extremal_semideviation(p, alpha, mean) == pytest.approx(float(rho), rel=1e-13, abs=0.0)


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
        # The oracle sums tile by tile, the reference pairwise over all n
        # draws, so only the last bits may move.
        assert got == pytest.approx(want[:2], rel=1e-12, abs=0.0)
        assert streamed.counter == whole.counter
        return want

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("n", [10**4, _TILE - 1, _TILE + 1, BLOCK - 1, BLOCK + 1,
                                   3 * BLOCK + 5, 2 * 10**5])
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
        _, _, v, y = self.assert_matches_reference(steps_law(levels), alpha, n)
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
        # A kept set of at most 2 * (alpha * n + _TILE) values, into which
        # each tile is drawn, and one tile's transients: its mask and its
        # survivors, 9 bytes a value; nothing grows with n itself.  The
        # tile's planes are the thread's kept workspace, allocated once, by
        # its first draw, as are the ramps of strides no earlier draw used
        # (all threads keep those), and the first call keeps nothing else.
        # 0.47 MiB measured; a free tail of 2 * BLOCK values would peak at
        # 1.33 MiB and fail.
        dist, alpha, n = get_distribution(name), 0.01, 10**6
        kept = 8 * min(n, 2 * (_floor_scaled(alpha * n) + 1) + 2 * _TILE)
        ramps_before = dict(_RAMPS)
        cold, peak, workspace = traced_peaks(
            lambda: monte_carlo_semideviation(dist, alpha, n, RandomStream(5)))
        ramps = sum(r.nbytes for s, r in _RAMPS.items() if ramps_before.get(s) is not r)
        assert peak <= kept + 9 * _TILE + 2**12, peak / kept
        assert cold - peak <= workspace + ramps + 2**12, (cold - peak) / (8 * BLOCK)
        # Ten times the draws at the same alpha * n: the same peak.
        assert self.traced_peak(dist, 0.001, 10**7) <= 1.1 * peak

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_peak_memory_is_the_kept_buffer(self, name):
        # Tiles are drawn, filtered and cut in the kept buffer itself, so a
        # warm call's peak is that buffer plus one tile's transients: about
        # 1.07 times the buffer at alpha = 0.2.  Drawing each block of BLOCK
        # values into an array of its own and copying what a raise of the
        # cut keeps read 1.62.
        dist, alpha, n = get_distribution(name), 0.2, 10**6
        kept = 8 * min(n, 2 * (_floor_scaled(alpha * n) + 1) + 2 * _TILE)
        _, peak, _ = traced_peaks(
            lambda: monte_carlo_semideviation(dist, alpha, n, RandomStream(5)))
        assert peak <= 1.25 * kept, peak / kept


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
        cases = []
        for _ in range(200):
            p = random_params(rng)
            alpha = rng.uniform(1e-4, p.tail_fraction * 0.99)
            cases.append((p, alpha, value_at_risk(p, alpha) - abs(rng.normal()) * p.scale))
        # Subnormal alphas, where m alpha / k has lost bits: both sides
        # take log r from 2**600 alpha.  Their values are near 1e-160, so
        # approx's default absolute tolerance would pass anything.
        p = TailParams(k=6, m=64, gamma=0.5, threshold=0.0, scale=1.0)
        cases += [(p, 5e-324, 1.0), (p, 1e-320, 1.0)]
        for p, alpha, mean in cases:
            got = semideviation_by_quadrature(p, alpha, mean)
            want = extremal_semideviation(p, alpha, mean)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_raises_below_mean(self):
        p = TailParams(k=5, m=40, gamma=0.3, threshold=2.0, scale=1.5)
        v = value_at_risk(p, 0.05)
        with pytest.raises(AssumptionViolation):
            semideviation_by_quadrature(p, 0.05, v + 1.0)

    def test_raises_where_the_var_overflows(self):
        # The tiny-alpha input's VaR lies beyond the double range, so the
        # boundary term alpha * (v - mean) cannot be formed, while the
        # closed form it checks is finite.
        (matrix, alpha), = tiny_alpha_inputs()
        report = evt_estimate(matrix[0], alpha)
        p, mean = report.params, report.sample_mean
        assert value_at_risk(p, alpha) == math.inf
        assert math.isfinite(extremal_semideviation(p, alpha, mean))
        with pytest.raises(ValueError, match="value-at-risk at alpha 1e-300 lies beyond "
                                             "the double range"):
            semideviation_by_quadrature(p, alpha, mean)

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
