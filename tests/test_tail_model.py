"""Tests for the GPD tail model and its closed-form risk functionals."""

import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from evtrisk import (
    UNIFORM01,
    AssumptionViolation,
    RandomStream,
    TailParams,
    cvar,
    extremal_semideviation,
    gpd_survival,
    tail_cdf,
    tail_quantile,
    value_at_risk,
)
from evtrisk.tail_model import GAMMA_NEAR_ZERO
from helpers import exact_pareto2_params, random_params

LN10 = math.log(10.0)
EPS = np.finfo(float).eps
# The negative near-zero edge: bounded at and below it, unbounded one ulp
# toward zero.
BOUNDED_EDGE = (np.nextafter(-GAMMA_NEAR_ZERO, -1.0), -GAMMA_NEAR_ZERO)
UNBOUNDED_EDGE = np.nextafter(-GAMMA_NEAR_ZERO, 0.0)
# Shapes within four ulp of +-GAMMA_NEAR_ZERO.
NEAR_ZERO_SHAPES = [float(g + i * np.spacing(g))
                    for g in (GAMMA_NEAR_ZERO, -GAMMA_NEAR_ZERO) for i in range(-4, 5)]


class TestGpdSurvival:
    def test_at_zero_is_one(self):
        for gamma in (-1.5, -0.5, 0.0, 0.5, 2.0):
            assert gpd_survival(gamma, 0.0) == 1.0

    def test_simple_values(self):
        assert gpd_survival(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert gpd_survival(-0.5, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_near_zero_shape_matches_exponential(self):
        # Inside the zero branch the survival is exactly exponential; just
        # outside it the exact GPD differs by about shape * z^2 / 2, so the
        # branch switch at 1e-10 introduces no discontinuity beyond that.
        z = np.linspace(0.0, 20.0, 7)
        np.testing.assert_allclose(gpd_survival(1e-13, z), np.exp(-z), rtol=1e-12)
        np.testing.assert_allclose(gpd_survival(2e-10, z), np.exp(-z), rtol=1e-7)
        np.testing.assert_allclose(gpd_survival(-2e-10, z), np.exp(-z), rtol=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gpd_survival(0.5, -0.1)
        with pytest.raises(ValueError):
            gpd_survival(-0.5, 2.0)  # domain is [0, 2)

    # A shape that is not finite has no survival function: NaN and +inf
    # would give NaN, -inf an empty domain; each is refused by name.
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_shape_must_be_finite(self, gamma):
        message = rf"^gpd_survival requires a finite shape, got {gamma}$"
        with pytest.raises(ValueError, match=message):
            gpd_survival(gamma, 1.0)

    @pytest.mark.parametrize("z", [math.nan, [1.0, math.nan]])
    @pytest.mark.parametrize("gamma", [0.5, 0.0, -0.5])
    def test_nan_is_refused(self, gamma, z):
        # NaN compares false with both ends: only a check that every point
        # lies inside refuses it.
        with pytest.raises(ValueError, match="z >= 0"):
            gpd_survival(gamma, z)

    def test_infinity_on_an_unbounded_shape(self):
        assert gpd_survival(0.5, math.inf) == 0.0
        assert gpd_survival(0.0, [1.0, math.inf])[1] == 0.0


class TestNearZeroEdge:
    """Support, survival domain and CDF agree on which shapes are bounded."""

    @staticmethod
    def params(gamma):
        return TailParams(k=2, m=20, gamma=float(gamma), threshold=0.0, scale=1.0)

    @pytest.mark.parametrize("gamma", BOUNDED_EDGE)
    def test_bounded_side(self, gamma):
        upper = -1.0 / gamma
        assert self.params(gamma).support.upper == upper
        with pytest.raises(ValueError, match="survival domain"):
            gpd_survival(gamma, 2e10)
        assert gpd_survival(gamma, np.nextafter(upper, 0.0)) == 0.0
        for z in (np.nextafter(upper, 0.0), upper, 2e10):
            assert tail_cdf(self.params(gamma), z) == 1.0

    def test_unbounded_side(self):
        assert math.isinf(self.params(UNBOUNDED_EDGE).support.upper)
        assert gpd_survival(UNBOUNDED_EDGE, 2e10) == 0.0
        assert tail_cdf(self.params(UNBOUNDED_EDGE), 2e10) == 1.0

    @pytest.mark.parametrize("gamma", (*BOUNDED_EDGE, UNBOUNDED_EDGE))
    def test_either_side_is_finite_and_exponential(self, gamma):
        z = np.linspace(0.0, 30.0, 7)
        np.testing.assert_allclose(gpd_survival(gamma, z), np.exp(-z), rtol=1e-7)
        f = tail_cdf(self.params(gamma), np.array([0.0, 30.0, 1e9, 1e10, 2e10, np.inf]))
        assert np.all((f >= 0.9) & (f <= 1.0))


class TestTailParamsValidation:
    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            TailParams(k=1, m=10, gamma=0.0, threshold=0.0, scale=1.0)

    def test_rejects_k_at_m(self):
        with pytest.raises(ValueError):
            TailParams(k=10, m=10, gamma=0.0, threshold=0.0, scale=1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            TailParams(k=2, m=10, gamma=0.0, threshold=0.0, scale=0.0)

    def test_rejects_shape_at_one(self):
        with pytest.raises(ValueError):
            TailParams(k=2, m=10, gamma=1.0, threshold=0.0, scale=1.0)

    # A fractional count would be kept and used by every closed form; it
    # is refused by name instead, and integer likes are stored as int.
    @pytest.mark.parametrize("k, m, message", [
        (2.5, 20, r"^k: 2\.5 is not an integer$"),
        (2, 20.7, r"^m: 20\.7 is not an integer$"),
        (2.0, 20, r"^k: 2\.0 is not an integer$"),
        (2, "20", r"^m: '20' is not an integer$"),
        (np.int64(2), np.int32(20), None),
    ])
    def test_counts_must_be_integers(self, k, m, message):
        fields = dict(gamma=0.3, threshold=1.0, scale=2.0)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                TailParams(k=k, m=m, **fields)
        else:
            p = TailParams(k=k, m=m, **fields)
            assert (type(p.k), type(p.m)) == (int, int)
            assert p == TailParams(k=2, m=20, **fields)

    def test_support_interval(self):
        p = TailParams(k=2, m=10, gamma=-0.5, threshold=1.0, scale=2.0)
        assert p.support == (1.0, 5.0)
        q = TailParams(k=2, m=10, gamma=0.3, threshold=1.0, scale=2.0)
        assert q.support.lower == 1.0 and math.isinf(q.support.upper)


class TestTailCdf:
    def test_below_threshold(self):
        p = TailParams(k=2, m=10, gamma=0.7, threshold=2.0, scale=1.0)
        assert tail_cdf(p, 1.0) == 0.0
        assert tail_cdf(p, -1e6) == 0.0

    def test_atom_value(self):
        p = TailParams(k=2, m=10, gamma=0.0, threshold=2.0, scale=1.0)
        assert tail_cdf(p, 1.0) == 0.0
        assert tail_cdf(p, 2.0) == pytest.approx(0.8, rel=1e-15)

    def test_exponential_branch_value(self):
        # shape 0, unit scale: F(s + ln 10) = 1 - (k/m) / 10
        p = TailParams(k=2, m=20, gamma=0.0, threshold=2.0, scale=1.0)
        assert tail_cdf(p, 2.0 + LN10) == pytest.approx(0.99, rel=1e-14)

    def test_saturates_at_finite_endpoint(self):
        p = TailParams(k=2, m=10, gamma=-0.5, threshold=0.0, scale=1.0)
        assert tail_cdf(p, 2.0) == 1.0
        assert tail_cdf(p, 100.0) == 1.0
        assert tail_cdf(p, 2.0 - 1e-3) < 1.0

    def test_monotone_right_continuous_with_limits(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_params(rng)
            lower, upper = p.support
            hi = upper if math.isfinite(upper) else lower + 50.0 * p.scale
            grid = np.concatenate([
                np.linspace(lower - 3.0 * p.scale, hi + 2.0 * p.scale, 401),
                [lower, np.nextafter(lower, lower + 1.0)],
            ])
            grid = np.sort(grid)
            f = tail_cdf(p, grid)
            assert np.all(np.diff(f) >= 0.0)
            assert np.all((f >= 0.0) & (f <= 1.0))
            # limits: 0 well below the threshold, 1 approached far right
            assert tail_cdf(p, lower - 1e12) == 0.0
            assert tail_cdf(p, hi + 1e12) > 1.0 - 1e-10
            # right-continuity at the atom: value jumps to 1 - k/m at s
            assert tail_cdf(p, lower) == pytest.approx(1.0 - p.tail_fraction, rel=1e-12)
            assert tail_cdf(p, np.nextafter(lower, -np.inf)) == 0.0


class TestTailQuantile:
    def test_atom_levels_map_to_threshold(self):
        p = TailParams(k=3, m=30, gamma=0.4, threshold=5.0, scale=2.0)
        assert tail_quantile(p, 0.0) == 5.0
        assert tail_quantile(p, 1.0 - p.tail_fraction) == 5.0
        assert tail_quantile(p, 0.5) == 5.0

    def test_exponential_branch(self):
        p = TailParams(k=10, m=100, gamma=0.0, threshold=0.0, scale=1.0)
        assert tail_quantile(p, 0.99) == pytest.approx(LN10, rel=1e-14)

    def test_rejects_level_one(self):
        p = TailParams(k=2, m=10, gamma=0.0, threshold=0.0, scale=1.0)
        with pytest.raises(ValueError):
            tail_quantile(p, 1.0)

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan]])
    def test_rejects_nan(self, u):
        # NaN fails every comparison, so unchecked it would take the atom
        # branch and return the threshold.
        p = TailParams(k=2, m=10, gamma=0.3, threshold=1.0, scale=1.0)
        with pytest.raises(ValueError, match="0 <= u < 1"):
            tail_quantile(p, u)

    def test_inverse_of_cdf(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng)
            u = rng.uniform(1.0 - p.tail_fraction + 1e-6, 1.0 - 1e-9, size=20)
            z = tail_quantile(p, u)
            np.testing.assert_allclose(tail_cdf(p, z), u, rtol=0.0, atol=1e-11)


class TestRoundTrip:
    """``tail_cdf`` and ``tail_quantile`` invert each other on the tail
    branch, to within what the density's conditioning allows."""

    @staticmethod
    def sweep(seed):
        rng = np.random.default_rng(seed)
        params = [random_params(rng) for _ in range(300)]
        params += [dataclasses.replace(random_params(rng), gamma=g) for g in NEAR_ZERO_SHAPES]
        return rng, params

    @staticmethod
    def density(p, u):
        # Tail density at the level u: (k/m)/scale * r**(1 + gamma), with
        # r = (1 - u)/(k/m) the survival ratio.
        return p.tail_fraction / p.scale * ((1.0 - u) / p.tail_fraction) ** (1.0 + p.gamma)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cdf_of_quantile(self, seed):
        # Rounding x costs about eps*|x| in x, so f(x)*eps*|x| in level;
        # near a finite endpoint with shape < -1 the density diverges.
        rng, params = self.sweep(seed)
        for p in params:
            u = rng.uniform(1.0 - p.tail_fraction, 1.0 - 1e-9 * p.tail_fraction, 50)
            x = tail_quantile(p, u)
            bound = 8.0 * EPS * (1.0 + np.abs(x) * self.density(p, u))
            assert np.all(np.abs(tail_cdf(p, x) - u) <= bound), p

    @pytest.mark.parametrize("seed", [0, 1])
    def test_quantile_of_cdf(self, seed):
        # A level is rounded to about eps, which moves x by eps/f(x).
        rng, params = self.sweep(seed)
        for p in params:
            hi = min(p.support.upper, p.threshold + 30.0 * p.scale)
            x = rng.uniform(p.threshold, hi, 50)
            u = tail_cdf(p, x)
            x, u = x[u < 1.0], u[u < 1.0]
            bound = 8.0 * EPS * (np.abs(x) + 1.0 / self.density(p, u))
            assert np.all(np.abs(tail_quantile(p, u) - x) <= bound), p


class TestValueAtRisk:
    def test_exponential_case(self):
        p = TailParams(k=10, m=100, gamma=0.0, threshold=0.0, scale=1.0)
        assert value_at_risk(p, 0.01) == pytest.approx(LN10, rel=1e-14)
        assert value_at_risk(p, 0.01) == pytest.approx(tail_quantile(p, 0.99), rel=1e-14)

    def test_pareto2_exact_quantile(self):
        assert value_at_risk(exact_pareto2_params(), 0.01) == pytest.approx(10.0, rel=1e-13)

    def test_approaches_threshold_at_tail_fraction(self):
        p = TailParams(k=10, m=100, gamma=0.3, threshold=4.0, scale=1.0)
        assert value_at_risk(p, p.tail_fraction * (1.0 - 1e-12)) == \
            pytest.approx(p.threshold, abs=1e-10)

    def test_rejects_alpha_at_tail_fraction(self):
        p = TailParams(k=10, m=100, gamma=0.3, threshold=4.0, scale=1.0)
        with pytest.raises(ValueError):
            value_at_risk(p, 0.1)

    def test_rejects_alpha_zero(self):
        p = TailParams(k=10, m=100, gamma=0.3, threshold=4.0, scale=1.0)
        for form in (value_at_risk, cvar, lambda p, alpha: extremal_semideviation(p, alpha, 4.0)):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, k/m\)"):
                form(p, 0.0)

    def test_rejects_alpha_of_one_entry(self):
        # It used to pass the range check and die on the array with a raw
        # TypeError.
        p = TailParams(k=10, m=100, gamma=0.3, threshold=4.0, scale=1.0)
        for form in (value_at_risk, cvar, lambda p, alpha: extremal_semideviation(p, alpha, 4.0)):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, k/m\)"):
                form(p, np.array([0.01]))
            assert form(p, np.array(0.01)) == form(p, 0.01)

    def test_level_identity_and_interiority(self):
        # F(VaR) = 1 - alpha to 1e-12 and VaR strictly inside the support.
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_params(rng)
            alpha = rng.uniform(1e-5, p.tail_fraction * 0.999)
            v = value_at_risk(p, alpha)
            assert abs(tail_cdf(p, v) - (1.0 - alpha)) <= 1e-12
            lower, upper = p.support
            assert lower < v < upper

    def test_strictly_decreasing_in_alpha(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_params(rng)
            alphas = np.linspace(1e-4, p.tail_fraction * 0.999, 40)
            vs = np.array([value_at_risk(p, a) for a in alphas])
            assert np.all(np.diff(vs) < 0.0)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 1e-12, 0.5])
    @pytest.mark.parametrize("alpha", [0.1, 1e-300, 5e-324])
    def test_inf_beyond_the_double_range(self, gamma, alpha):
        # No overflow warning (the suite makes warnings errors).  At a tiny
        # alpha rho's value is in range, but the overflow-free form, which
        # divides by the shape, overflows on these parameters: it may
        # leave rho infinite, never NaN, negative or a ZeroDivisionError.
        p = TailParams(k=2, m=3, gamma=gamma, threshold=1e308, scale=1e308)
        assert (value_at_risk(p, alpha), cvar(p, alpha)) == (math.inf, math.inf)
        assert extremal_semideviation(p, alpha, 0.0) >= 0.0

    def test_rho_past_2_to_the_400_matches_exact_arithmetic(self):
        # Parameters near the top of the range are evaluated in units of
        # 2**e, as a batch row is: the VaR and the CVaR lie beyond the
        # range, while rho, about 7e10, is finite and accurate.
        p, alpha = TailParams(k=2, m=3, gamma=0.0, threshold=1e308, scale=1e308), 1e-300
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, t, s = map(decimal.Decimal, (alpha, p.threshold, p.scale))
            var = t - s * (p.m * a / p.k).ln()
            want = a * (var + s)
        assert (value_at_risk(p, alpha), cvar(p, alpha)) == (math.inf, math.inf)
        assert extremal_semideviation(p, alpha, 0.0) == pytest.approx(float(want), rel=1e-12)


class TestCvar:
    def test_exponential_case(self):
        p = TailParams(k=10, m=100, gamma=0.0, threshold=0.0, scale=1.0)
        assert cvar(p, 0.01) == pytest.approx(LN10 + 1.0, rel=1e-14)

    def test_pareto2_exact_value(self):
        # Pareto(2) conditional tail mean: a v / (a - 1) = 2 * 10
        assert cvar(exact_pareto2_params(), 0.01) == pytest.approx(20.0, rel=1e-13)

    def test_exceeds_value_at_risk(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = random_params(rng)
            alpha = rng.uniform(1e-5, p.tail_fraction * 0.999)
            assert cvar(p, alpha) > value_at_risk(p, alpha)

    def test_averaging_identity(self):
        # CVaR equals the average of the quantile over the top alpha levels.
        rng = np.random.default_rng(19)
        for _ in range(60):
            p = random_params(rng)
            alpha = rng.uniform(1e-4, p.tail_fraction * 0.99)
            avg, _ = quad(lambda t: value_at_risk(p, t), 0.0, alpha,
                          epsabs=0.0, epsrel=1e-11, limit=300)
            assert cvar(p, alpha) == pytest.approx(avg / alpha, rel=1e-8)


class TestExtremalSemideviation:
    def test_zero_when_mean_equals_cvar(self):
        p = TailParams(k=5, m=50, gamma=0.2, threshold=1.0, scale=0.5)
        mean = cvar(p, 0.02)
        # mean > VaR here, so the hypothesis check fires first
        with pytest.raises(AssumptionViolation):
            extremal_semideviation(p, 0.02, mean)

    def test_zero_at_mean_equal_var_boundary(self):
        p = TailParams(k=5, m=50, gamma=0.2, threshold=1.0, scale=0.5)
        v = value_at_risk(p, 0.02)
        got = extremal_semideviation(p, 0.02, v)
        assert got == pytest.approx(0.02 * (cvar(p, 0.02) - v), rel=1e-14)
        assert got >= 0.0

    def test_pareto2_exact_value(self):
        got = extremal_semideviation(exact_pareto2_params(), 0.01, 2.0)
        assert got == pytest.approx(0.18, abs=1e-12)

    def test_exponential_hand_value(self):
        p = TailParams(k=10, m=100, gamma=0.0, threshold=0.0, scale=1.0)
        got = extremal_semideviation(p, 0.01, 0.5)
        assert got == pytest.approx(0.01 * (LN10 + 1.0 - 0.5), rel=1e-13)
        assert got == pytest.approx(0.028025851, abs=1e-9)

    def test_raises_below_mean(self):
        p = TailParams(k=10, m=100, gamma=0.0, threshold=0.0, scale=1.0)
        v = value_at_risk(p, 0.01)
        with pytest.raises(AssumptionViolation):
            extremal_semideviation(p, 0.01, v + 1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_params(rng)
            alpha = rng.uniform(1e-5, p.tail_fraction * 0.999)
            mean = value_at_risk(p, alpha) - abs(rng.normal()) * p.scale
            assert extremal_semideviation(p, alpha, mean) >= 0.0


def survival_tail_integral(p, b):
    """Quadrature of 1 - F(x + b) over [0, inf); equals E[model] - b.

    Below the threshold the survival is identically 1, so that stretch is
    added exactly and quadrature only handles the tail piece (with
    breakpoints when the support is finite but much wider than the scale).
    """
    lower, upper = p.support
    kink = lower - b
    with warnings.catch_warnings():
        # the requested tolerance can sit below attainable roundoff; the
        # assertions compare at 1e-6 relative which quad comfortably meets
        warnings.simplefilter("ignore", IntegrationWarning)
        if math.isfinite(upper):
            points, step = [], p.scale
            while kink + step < upper - b and len(points) < 48:
                points.append(kink + step)
                step *= 2.0
            tail, _ = quad(lambda x: 1.0 - tail_cdf(p, x + b), kink, upper - b,
                           epsabs=1e-13, epsrel=1e-10, limit=400,
                           points=points or None)
        else:
            tail, _ = quad(lambda x: 1.0 - tail_cdf(p, x + b), kink, np.inf,
                           epsabs=1e-13, epsrel=1e-10, limit=400)
    return kink + tail


class TestIntegrability:
    """The model's mean is finite for shape < 1 and matches both the tail
    integral of the survival function and large Monte Carlo draws."""

    def test_tail_integral_equals_mean(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = random_params(rng)
            b = p.threshold - abs(rng.normal()) - 0.1
            integral = survival_tail_integral(p, b)
            assert math.isfinite(integral)
            assert integral == pytest.approx(p.mean() - b, rel=1e-6)

    def test_monte_carlo_mean_agreement(self):
        # CLT band is meaningful only where the model variance is finite
        # (shape < 1/2), so the sweep stays below 0.45.
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_params(rng, gamma_range=(-2.0, 0.45))
            stream = RandomStream(int(rng.integers(1 << 30)))
            draws = tail_quantile(p, UNIFORM01.sample(1_000_000, stream))
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(draws.mean() - p.mean()) <= 4.0 * se

    def test_heavy_shape_mean_still_finite(self):
        # For shape in (1/2, 1) the closed-form mean must match quadrature
        # even though the variance no longer exists.
        p = TailParams(k=10, m=100, gamma=0.9, threshold=1.0, scale=2.0)
        assert survival_tail_integral(p, 0.0) == pytest.approx(p.mean(), rel=1e-6)
