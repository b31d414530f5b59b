"""Tests for the benchmark distributions and their ground-truth oracles.

The extremal-semideviation closed forms are checked against an independent
quadrature oracle built here from each law's density, and the samplers are
checked against the exact CDFs by Kolmogorov-Smirnov distance.
"""

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from evtrisk import DISTRIBUTIONS, RandomStream, derive_seed, get_distribution
from evtrisk.distributions import _T5_COEF, _TILE, BLOCK, _workspace
from evtrisk.rng import uniform_planes
from helpers import draw_rows, traced_peaks

ALL_NAMES = sorted(DISTRIBUTIONS)

# Densities for the quadrature oracle, independent of the library closed forms.
DENSITIES = {
    "pareto2": (lambda y: 2.0 * y ** -3.0, 1.0, np.inf),
    "tstudent5": (lambda y: _T5_COEF * (1.0 + y * y / 5.0) ** -3.0, -np.inf, np.inf),
    "exponential1": (lambda y: np.exp(-y), 0.0, np.inf),
    # density underflows to exactly 0 below -50, and scipy's pdf overflows
    # internally at the extreme probe points of an infinite lower limit
    "gumbel": (lambda y: stats.gumbel_r.pdf(y), -50.0, np.inf),
    "uniform01": (lambda y: 1.0, 0.0, 1.0),
    "beta12": (lambda y: 2.0 * (1.0 - y), 0.0, 1.0),
}


def semideviation_oracle(name: str, alpha: float) -> float:
    """Adaptive quadrature of (y - mean) * density over the worst-alpha tail."""
    dist = get_distribution(name)
    density, _, hi = DENSITIES[name]
    w = max(dist.quantile(1.0 - alpha), dist.mean)
    value, err = quad(lambda y: (y - dist.mean) * density(y), w, hi,
                      epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-10
    return value


class TestExactValues:
    """Hand-derived and trivially-known values."""

    def test_pareto2_cdf_at_10(self):
        assert get_distribution("pareto2").cdf(10.0) == pytest.approx(0.99, abs=1e-15)

    def test_pareto2_quantile(self):
        assert get_distribution("pareto2").quantile(0.99) == pytest.approx(10.0, rel=1e-12)

    def test_exponential_support_boundary(self):
        assert get_distribution("exponential1").cdf(0.0) == 0.0

    def test_exponential_quantile(self):
        got = get_distribution("exponential1").quantile(0.99)
        assert got == pytest.approx(math.log(100.0), rel=1e-12)

    def test_beta_right_endpoint(self):
        assert get_distribution("beta12").cdf(1.0) == 1.0

    def test_uniform_median(self):
        assert get_distribution("uniform01").quantile(0.5) == 0.5

    def test_means(self):
        assert get_distribution("pareto2").mean == 2.0
        assert get_distribution("tstudent5").mean == 0.0
        assert get_distribution("exponential1").mean == 1.0
        assert get_distribution("gumbel").mean == pytest.approx(0.5772157, abs=5e-8)
        assert get_distribution("uniform01").mean == 0.5
        assert get_distribution("beta12").mean == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_gamma_refs_and_endpoints(self):
        refs = {"pareto2": 0.5, "tstudent5": 0.2, "exponential1": 0.0,
                "gumbel": 0.0, "uniform01": -1.0, "beta12": -0.5}
        for name, ref in refs.items():
            dist = get_distribution(name)
            assert dist.gamma_ref == ref
            if name in ("uniform01", "beta12"):
                assert dist.right_endpoint == 1.0
            else:
                assert math.isinf(dist.right_endpoint)

    def test_semideviation_hand_values(self):
        # Pareto(2): integral_10^inf (y-2) 2y^-3 dy = 2/10 - 2/100 = 0.18
        assert get_distribution("pareto2").extremal_semideviation(0.01) == \
            pytest.approx(0.18, abs=1e-10)
        # Exponential(1): v e^-v at v = ln 100
        assert get_distribution("exponential1").extremal_semideviation(0.01) == \
            pytest.approx(math.log(100.0) / 100.0, rel=1e-12)
        # Uniform(0,1): integral_0.99^1 (y - 0.5) dy
        assert get_distribution("uniform01").extremal_semideviation(0.01) == \
            pytest.approx(0.00495, rel=1e-12)


class TestSemideviationOracle:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5])
    def test_closed_form_matches_quadrature(self, name, alpha):
        got = get_distribution(name).extremal_semideviation(alpha)
        want = semideviation_oracle(name, alpha)
        assert got == pytest.approx(want, rel=1e-9)

    def test_mean_matches_quadrature(self):
        # Spot-check the nontrivial means against the density integral.
        for name in ("gumbel", "tstudent5", "beta12"):
            dist = get_distribution(name)
            density, lo, hi = DENSITIES[name]
            mean, _ = quad(lambda y: y * density(y), lo, hi, epsabs=1e-13)
            assert dist.mean == pytest.approx(mean, abs=1e-10)


class TestQuantileInverse:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_generalized_inverse(self, name):
        dist = get_distribution(name)
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
            q = dist.quantile(p)
            assert dist.cdf(q) >= p - 1e-12
            eps = 1e-7 * (1.0 + abs(q))
            assert dist.cdf(q - eps) < p

    def test_tstudent_symmetry(self):
        dist = get_distribution("tstudent5")
        for p in (0.6, 0.9, 0.99):
            assert dist.quantile(p) == pytest.approx(-dist.quantile(1.0 - p), rel=1e-10)


class TestTStudentCdf:
    def test_against_scipy(self):
        # scipy.stats.t goes through a separate code path (stdtr), so this
        # is an independent check of the incomplete-beta composition.
        z = np.array([-30.0, -4.0, -1.3, -0.2, 0.0, 0.4, 1.7, 5.0, 25.0])
        got = get_distribution("tstudent5").cdf(z)
        np.testing.assert_allclose(got, stats.t.cdf(z, 5), atol=1e-13)

    def test_against_density_quadrature(self):
        dist = get_distribution("tstudent5")
        density, _, _ = DENSITIES["tstudent5"]
        for z in (-2.0, 0.7, 3.5):
            want, _ = quad(density, -np.inf, z, epsabs=1e-14)
            assert dist.cdf(z) == pytest.approx(want, abs=1e-12)

    def test_near_zero_against_thirty_digits(self):
        # 5 / (5 + z^2) rounds to 1 for |z| below about 2.4e-8, so a CDF
        # through that argument returns exactly 0.5 here; the references
        # are mpmath's incomplete beta.
        t5 = get_distribution("tstudent5")
        assert relative_error(t5.cdf(-2.05e-8), "0.499999992218062858638864212303") <= 2**-53
        assert relative_error(t5.cdf(2.05e-8), "0.500000007781937141361135787697") <= 2**-53

    def test_symmetric_bit_for_bit(self):
        z = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 6001)])
        t5 = get_distribution("tstudent5")
        np.testing.assert_array_equal(t5.cdf(z), 1.0 - t5.cdf(-z))

    def test_monotone_from_minus_to_plus_1e300(self):
        side = np.geomspace(1e-300, 1e300, 6001)
        z = np.concatenate([-side[::-1], [0.0], side])
        cdf = get_distribution("tstudent5").cdf(z)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0

    def test_against_betainc(self):
        # The CDF is 1/2 + sign(z) I_y(1/2, 5/2) / 2 with y = z^2 / (5 + z^2);
        # that argument keeps full precision near 0, where 1 - y does not.
        side = np.geomspace(1e-2, 1e150, 3000)
        z = np.concatenate([-side, side])
        half = 0.5 * special.betainc(0.5, 2.5, z * z / (5.0 + z * z))
        want = np.where(z >= 0.0, 0.5 + half, 0.5 - half)
        got = get_distribution("tstudent5").cdf(z)
        assert np.max(np.abs(got - want)) <= 1e-15
        # The lower tail to a few ulp relative, where I_x(5/2, 1/2) with
        # x = 5 / (5 + z^2) is accurate.
        z = np.geomspace(1.0, 1e50, 3000)
        tail = 0.5 * special.betainc(2.5, 0.5, 5.0 / (5.0 + z * z))
        got = get_distribution("tstudent5").cdf(-z)
        assert np.max(np.abs(got - tail) / tail) <= 4e-15


def relative_error(got: float, want: str) -> float:
    """|got - want| / |want|, exact in rational arithmetic."""
    want = Fraction(want)
    return float(abs(Fraction(got) - want) / abs(want))


class TestGroundTruthAccuracy:
    """The Student-t quantile and the truths, against 50-digit values.

    The references were computed with mpmath: the Student-t quantile by
    root-finding on its regularized incomplete beta survival, the truths
    by their closed forms with ``mpmath.e1`` for Gumbel.  The table's
    quantiles and truths are at the level ``1 - alpha`` rounded to a
    double (its tail ``1 - float(1 - alpha)`` is exact), so the truths are
    asked for at that tail; the small-``alpha`` truths are at ``alpha``
    itself, which they take without forming ``1 - alpha``.
    """

    # alpha, then tstudent5 quantile(1 - alpha), tstudent5 and gumbel truths.
    REFERENCE = [
        (1e-10, "156.825590113280687844", "1.9603769695420422954e-8",
         "2.3448637122422330805e-9"),
        (1e-08, "62.4045060481847609717", "7.80199370299382200593e-7",
         "1.88434651662099492268e-7"),
        (1e-06, "24.7710297203724885639", "0.0000309997757988722517507",
         "0.0000142382946434433477514"),
        (0.0001, "9.67756630088281416421", "0.00121882998046857647555",
         "0.000963309970637922338316"),
        (0.01, "3.36492999890721777874", "0.0445242911181797339288",
         "0.0502544754521670497464"),
        (0.1, "1.47588404882448125163", "0.230222989535554159145",
         "0.269964187253703716206"),
        (0.3, "0.559429644469360609791", "0.420252723852465101239",
         "0.463346539765527584672"),
        (0.45, "0.132175175231687381796", "0.471209743661360185739",
         "0.491534282441267261969"),
    ]

    @pytest.mark.parametrize("alpha, quantile, tstudent5, gumbel", REFERENCE)
    def test_against_fifty_digits(self, alpha, quantile, tstudent5, gumbel):
        t5, tail = get_distribution("tstudent5"), 1.0 - (1.0 - alpha)
        assert relative_error(t5.quantile(1.0 - alpha), quantile) <= 2e-15
        assert relative_error(t5.extremal_semideviation(tail), tstudent5) <= 5e-15
        truth = get_distribution("gumbel").extremal_semideviation(tail)
        assert relative_error(truth, gumbel) <= 5e-15

    # alpha, then the tstudent5 and gumbel truths at alpha.
    @pytest.mark.parametrize("alpha, tstudent5, gumbel", [
        (1e-9, "1.23680554413996996359e-7", "2.11460501717948795502e-8"),
        (1e-12, "4.92448465840556646826e-10", "2.80538054510267648035e-11"),
        (1e-15, "1.96048956031054718405e-12", "3.49615607300091547887e-14"),
    ])
    def test_small_alpha_against_closed_forms(self, alpha, tstudent5, gumbel):
        # At these levels 1 - alpha keeps only a few of alpha's digits: a
        # truth evaluated from it read pareto2 4e-4 off at 1e-15.  The four
        # elementary closed forms are evaluated here in 50-digit decimals.
        with localcontext() as ctx:
            ctx.prec = 50
            a = Decimal(alpha)
            want = {"pareto2": 2 * a.sqrt() - 2 * a, "exponential1": -a * a.ln(),
                    "uniform01": a * (1 - a) / 2, "beta12": 2 * (1 - a.sqrt()) * a / 3,
                    "tstudent5": tstudent5, "gumbel": gumbel}
        for name in ALL_NAMES:
            got = get_distribution(name).extremal_semideviation(alpha)
            assert relative_error(got, want[name]) <= 5e-15, name

    def test_quantile_matches_stdtrit(self):
        # stdtrit overflows to inf below about p = 1e-270 (scipy 1.17), so
        # the grid stops well above that, at 1e-100; the 50-digit and
        # monotonicity tests cover the far tail.
        from scipy.special import stdtrit

        t5 = get_distribution("tstudent5")
        tails = np.geomspace(1e-100, 0.5, 1500)[:-1]
        upper = 1.0 - tails
        for p in [*tails, *upper[upper < 1.0], 1.0 - 2.0**-53]:
            want = stdtrit(5.0, p)
            assert abs(t5.quantile(p) - want) <= 1e-14 * abs(want), p

    def test_quantile_symmetric_finite_and_monotone(self):
        t5 = get_distribution("tstudent5")
        assert t5.quantile(0.5) == 0.0
        tails = np.geomspace(1e-300, 0.5, 2250)[:-1]
        upper = 1.0 - tails
        upper = upper[upper < 1.0]
        for p in upper:
            # 1 - p is exact for p > 1/2, so both calls see the same tail.
            assert t5.quantile(p) == -t5.quantile(1.0 - p), p
        levels = np.unique([*tails, 0.5, *upper, 1.0 - 2.0**-53])
        q = np.array([t5.quantile(p) for p in levels])
        assert np.all(np.isfinite(q))
        assert np.all(np.diff(q) >= 0.0)


class TestSampling:
    def test_uniform_support(self):
        u = get_distribution("uniform01").sample(5_000, RandomStream(1))
        assert np.all((u > 0.0) & (u < 1.0))

    def test_pareto_support(self):
        y = get_distribution("pareto2").sample(5_000, RandomStream(2))
        assert np.all(y >= 1.0)

    def test_beta_support(self):
        y = get_distribution("beta12").sample(5_000, RandomStream(3))
        assert np.all((y > 0.0) & (y < 1.0))

    @pytest.mark.parametrize("seed", [11, 12])
    def test_exponential_mean_large_sample(self, seed):
        y = get_distribution("exponential1").sample(1_000_000, RandomStream(seed))
        assert abs(y.mean() - 1.0) < 0.01

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_ks_distance_below_percent(self, name):
        dist = get_distribution(name)
        y = np.sort(dist.sample(100_000, RandomStream(314159)))
        f = dist.cdf(y)
        i = np.arange(1, y.size + 1)
        ks = max(np.max(i / y.size - f), np.max(f - (i - 1) / y.size))
        assert ks < 0.01

    def test_sample_size_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            get_distribution("gumbel").sample(0, RandomStream(1))

    def test_sample_size_not_integer(self):
        with pytest.raises(ValueError, match=r"^n: 2\.5 is not an integer$"):
            get_distribution("pareto2").sample(2.5, RandomStream(1))

    def test_sample_rows_size_not_integer(self):
        # A whole float too, for a law of six words a value: the size check
        # that guarded the former many-row draw now guards sample alone.
        with pytest.raises(ValueError, match=r"^n: 20\.0 is not an integer$"):
            get_distribution("tstudent5").sample(20.0, RandomStream(1))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_numpy_integer_size(self, name):
        dist = get_distribution(name)
        want = dist.sample(7, RandomStream(3))
        np.testing.assert_array_equal(dist.sample(np.int64(7), RandomStream(3)), want)
        np.testing.assert_array_equal(draw_rows(dist, [3], np.int64(7))[0], want)

    def test_determinism(self):
        d = get_distribution("tstudent5")
        np.testing.assert_array_equal(d.sample(50, RandomStream(5)),
                                      d.sample(50, RandomStream(5)))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rows_equal_per_stream_draws(self, name):
        dist = get_distribution(name)
        seeds = [3, 2**64 - 1, 987654321]
        rows = draw_rows(dist, seeds, 37)
        assert rows.shape == (3, 37)
        for seed, row in zip(seeds, rows):
            np.testing.assert_array_equal(row, dist.sample(37, RandomStream(seed)))


class TestBlockedSampling:
    """A large sample is drawn in blocks; the splice must be invisible."""

    @staticmethod
    def one_pass(dist, n, stream):
        if dist.name != "tstudent5":
            return dist._quantile(stream.uniform(n))
        # Six uniforms per value from one pass of the stream; the sampler's
        # arithmetic on columns 0, 1, 2 and 4 (3 and 5 are counted, unused).
        u = stream.uniform(6 * n).reshape(n, 6)
        radius = np.sqrt(-2.0 * np.log(u[:, 0]))
        angle = (2.0 * np.pi) * u[:, 1]
        z1 = np.sin(angle) * radius
        chi2_5 = z1 * z1 - 2.0 * np.log(u[:, 2]) - 2.0 * np.log(u[:, 4])
        return np.cos(angle) * radius / np.sqrt(chi2_5 / 5.0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    # Sizes inside one tile, then around the cuts of Student-t's tiles of
    # BLOCK // 4 values and the one-word laws' tiles of BLOCK values,
    # ending with a short tile.
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 24581,
                                   BLOCK // 4 - 1, BLOCK // 4, BLOCK // 4 + 1,
                                   BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK // 4 + 3,
                                   3 * BLOCK + 5])
    def test_blocks_equal_one_pass(self, name, n):
        dist = get_distribution(name)
        for seed in (0, 2**64 - 1):
            blocked, whole = RandomStream(seed), RandomStream(seed)
            np.testing.assert_array_equal(dist.sample(n, blocked),
                                          self.one_pass(dist, n, whole))
            assert blocked.counter == whole.counter

    @pytest.mark.parametrize("name", ALL_NAMES)
    # A stream resumed mid-way, also past six of Student-t's tiles of words
    # and at a counter that is not a whole number of its values.
    @pytest.mark.parametrize("counter", [1, 5, 6 * BLOCK + 3])
    @pytest.mark.parametrize("n", [7, BLOCK // 4 + 1, BLOCK + 1])
    def test_resumed_stream_equals_one_pass(self, name, counter, n):
        dist = get_distribution(name)
        for seed in (0, 2**64 - 1):
            blocked, whole = RandomStream(seed, counter), RandomStream(seed, counter)
            np.testing.assert_array_equal(dist.sample(n, blocked),
                                          self.one_pass(dist, n, whole))
            assert blocked.counter == whole.counter

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rows_equal_one_pass(self, name):
        dist = get_distribution(name)
        seeds = [derive_seed(11, name, t) for t in range(300)]
        for m in (20, 57, 99):
            rows = draw_rows(dist, seeds, m)
            for seed, row in zip(seeds, rows):
                np.testing.assert_array_equal(row, self.one_pass(dist, m, RandomStream(seed)))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_peak_memory_one_tile_past_the_output(self, name):
        # Beyond the n-value output, a warm call allocates nothing of a
        # tile's size, whatever n: a tile's planes are the thread's kept
        # workspace and its counters one addition of the kept ramp. A cold
        # call adds the workspace, which its thread keeps, and at most one
        # tile's ramp, which all threads keep.
        n = 10**6
        cold, warm, workspace = traced_peaks(
            lambda: get_distribution(name).sample(n, RandomStream(5)))
        assert warm - 8 * n <= 2**12, warm - 8 * n
        assert cold - warm <= workspace + 8 * _TILE + 2**12, (cold - warm) / (8 * BLOCK)


class TestTiledDraw:
    """``Distribution._draw`` is the one place that cuts a draw into tiles
    of ``_TILE`` values: its tiles of every row splice into one untiled
    fetch of the rows, bit for bit, also where a counter passes 2**64
    inside the draw."""

    # Four rows, so a tile of every row, 4 * _TILE values, fills the kept
    # workspace's planes of BLOCK values.
    SEEDS = np.array([[0, 2**63 + 5], [2**64 - 1, 0x9E3779B97F4A7C15]], np.uint64)

    @staticmethod
    def untiled(dist, seeds, start, n):
        """One ``uniform_planes`` fetch of every row, mapped by the law's
        quantile or transform, into fresh buffers of the draw's shape."""
        shape = np.shape(seeds) + (n,)
        u = np.empty((len(dist._word_offsets),) + shape)
        uniform_planes(seeds, start, n, dist._words_per_value, dist._word_offsets, u,
                       np.empty((2,) + shape, np.uint64))
        if dist._transform is None:
            return dist._quantile(u[0], out=u[0])
        return dist._transform(u, np.empty(shape))

    def drawn(self, dist, start, n):
        assert 4 * _TILE == BLOCK
        out = np.empty(self.SEEDS.shape + (n,))
        dist._draw(self.SEEDS, start, out, _workspace()[1])
        return out

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [1, 99, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_tiles_splice_into_one_fetch(self, name, n):
        dist = get_distribution(name)
        for start in (0, 7, 6 * _TILE + 3):
            got = self.drawn(dist, start, n)
            assert got.tobytes() == self.untiled(dist, self.SEEDS, start, n).tobytes()

    @pytest.mark.parametrize("name", ["uniform01", "tstudent5"])
    def test_counter_wraps_past_two_to_the_64(self, name):
        # The counter passes 2**64 in the draw's second tile, at value
        # _TILE + 5; a word is that of its counter modulo 2**64.
        dist = get_distribution(name)
        n, stride = _TILE + 10, dist._words_per_value
        start = 2**64 - stride * (_TILE + 5)
        want = self.untiled(dist, self.SEEDS, start, n)
        assert self.drawn(dist, start, n).tobytes() == want.tobytes()
        head = self.untiled(dist, self.SEEDS, 0, 5)
        assert want[..., _TILE + 5:].tobytes() == head.tobytes()


class TestTStudentConstruction:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_six_normals_to_four_ulp(self, seed):
        # Z over the root of a scaled chi-square built from six Box-Muller
        # normals; the sampler replaces two of the pairs' squared sums by
        # -2 log u, equal in real arithmetic, so only rounding may differ.
        n = 100_000
        u = RandomStream(seed).uniform(6 * n).reshape(n, 3, 2)
        radius = np.sqrt(-2.0 * np.log(u[..., 0]))
        angle = 2.0 * np.pi * u[..., 1]
        z = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(n, 6)
        want = z[:, 0] / np.sqrt(np.sum(z[:, 1:] ** 2, axis=-1) / 5.0)
        got = get_distribution("tstudent5").sample(n, RandomStream(seed))
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))


class TestValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            get_distribution("pareto3")

    def test_quantile_domain(self):
        dist = get_distribution("uniform01")
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                dist.quantile(p)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            get_distribution("pareto2").extremal_semideviation(0.0)

    @pytest.mark.parametrize("name", [None, 1, b"pareto2"])
    def test_name_that_is_not_a_string(self, name):
        # Refused by the lookup's own message, not an AttributeError on .lower().
        with pytest.raises(ValueError, match=f"^unknown distribution {re.escape(repr(name))}; "
                                             "valid names: beta12, "):
            get_distribution(name)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_alpha_whose_complement_rounds_to_one(self, name):
        # 1 - alpha rounds to 1 at and below 2**-54, but the truths take
        # alpha itself: finite, not negative, and not falling as alpha
        # rises, down to the smallest subnormal.
        dist = get_distribution(name)
        truths = [dist.extremal_semideviation(alpha) for alpha in (5e-324, 1e-17, 2.0**-54, 2.0**-53)]
        assert all(0.0 <= t < math.inf for t in truths), truths
        assert truths == sorted(truths)


class TestMonteCarloAgreement:
    """The analytic values agree with a seeded Monte Carlo evaluation."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_within_three_standard_errors(self, name):
        from evtrisk import monte_carlo_semideviation

        dist = get_distribution(name)
        est, se = monte_carlo_semideviation(dist, 0.01, 200_000, RandomStream(77))
        want = dist.extremal_semideviation(0.01)
        assert abs(est - want) <= 3.0 * se
