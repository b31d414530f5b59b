"""Benchmark cost distributions with exact ground-truth risk functionals.

Six laws spanning the tail-heaviness spectrum, each with a known extreme
value index: Pareto(2) and Student-t (5 d.o.f.) are heavy-tailed
(index 0.5 and 0.2), Exponential(1) and standard Gumbel are light-tailed
(index 0), Uniform(0,1) and Beta(1,2) have a finite right endpoint
(index -1 and -0.5).

Every distribution exposes seedable sampling, an exact CDF and quantile
function, and a closed-form (or special-function) evaluation of the
extremal upper-semideviation

    semidev(alpha) = integral of (y - mean) over {y >= q(1 - alpha)},

the expected exceedance of the cost above its mean restricted to the worst
``alpha`` fraction of outcomes.  These serve as the ground truth that the
estimator benchmark is scored against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import RandomStream, _integer, uniform_planes

EULER_GAMMA = float(np.euler_gamma)

# Student-t(5) density normalization:
# Gamma(3) / (sqrt(5*pi) * Gamma(5/2)) = 8 / (3*pi*sqrt(5)).
_T5_COEF = float(8.0 / (3.0 * np.pi * np.sqrt(5.0)))

# The size of a pass over draws, under two rules:
# - a sample is filled in tiles of ``BLOCK`` hashed words, so Student-t,
#   which counts six words per value and hashes four, fills tiles of
#   ``BLOCK // 4`` values; the Monte Carlo oracle streams
#   ``BLOCK``-value samples;
# - a grid cell draws ``BLOCK // m`` rows of ``m`` values (at least one)
#   per pass, whatever the law.
# So a pass's planes and temporaries stay a few ``BLOCK``s in size
# whatever ``n``, ``m`` or the trial count.  Tiles and rows are whole
# values, so a Student-t group never straddles a cut.  The grid stays on
# the value rule because the word rule measured no faster there.
BLOCK = 2**16


@dataclass(frozen=True)
class Distribution:
    """One benchmark law together with its exact risk oracles.

    Attributes
    ----------
    name : str
        Canonical lowercase identifier (``"pareto2"``, ``"tstudent5"``,
        ``"exponential1"``, ``"gumbel"``, ``"uniform01"``, ``"beta12"``).
    gamma_ref : float
        The distribution's extreme value index (tail-heaviness shape).
    right_endpoint : float
        Supremum of the support (``inf`` for unbounded tails).
    mean : float
        Exact mean.
    """

    name: str
    gamma_ref: float
    right_endpoint: float
    mean: float
    _cdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # Elementwise on arrays too: sampling maps open-interval uniforms
    # through it.
    _quantile: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _tail_semidev: Callable[[float], float] = field(repr=False)
    # A value takes ``_words_per_value`` words of the stream, of which the
    # uniforms at ``_word_offsets`` are drawn, one contiguous plane each.
    # A law sampled through ``_quantile`` uses the one plane of offset 0;
    # otherwise ``_transform`` maps the planes (stacked on the first axis,
    # any shape after it) to values of the law.
    _words_per_value: int = field(default=1, repr=False)
    _word_offsets: tuple[int, ...] = field(default=(0,), repr=False)
    _transform: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def cdf(self, z):
        """Exact distribution function F(z); accepts scalars or arrays."""
        arr = np.asarray(z, dtype=float)
        out = self._cdf(arr)
        if np.ndim(z) == 0:
            return float(out)
        return out

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{z : F(z) >= p} for p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        return float(self._quantile(float(p)))

    def sample(self, n: int, stream: RandomStream) -> np.ndarray:
        """Draw ``n`` i.i.d. values using ``stream``.

        All laws except Student-t use the inverse-CDF transform of one
        open-interval uniform per value.  Student-t(5) takes six words of
        the stream per value but hashes only the four it reads (offsets 0,
        1, 2 and 4), and forms Z over the root of a scaled chi-square with
        5 d.o.f. (see ``_t5_from_uniforms``).  The stream's counter
        advances by six words per value all the same.

        The sample is filled in tiles of ``BLOCK`` hashed words, that is
        ``BLOCK // len(_word_offsets)`` values (16,384 for Student-t,
        ``BLOCK`` for the others), so a tile's planes and temporaries are
        the same size for every law and none grows with ``n``.  The tiles
        splice exactly: every word is a function of its counter alone, and
        tiles are whole values, so a Student-t group of six words never
        straddles a cut.  The values and the stream's counter are those of
        one pass.  ``n`` must be an integer >= 1 (``operator.index``), else
        ``ValueError``; it is checked once, and the sample's words are
        reserved on ``stream`` at once, before any tile is filled.
        """
        out = np.empty(_integer("n", n, 1))
        first = stream.take(self._words_per_value * out.size)
        size = BLOCK // len(self._word_offsets)
        for start in range(0, out.size, size):
            tile = out[start:start + size]
            tile[...] = self._draw(stream.seed, first + self._words_per_value * start,
                                   tile.size)
        return out

    def sample_rows(self, seeds, n: int) -> np.ndarray:
        """One row of ``n`` draws per seed, shape ``(len(seeds), n)``.

        Row ``i`` equals ``sample(n, RandomStream(seeds[i]))``: the counter-
        based stream makes every row a pure function of its seed, so a
        whole batch is drawn with one array pass.  ``n`` is checked as in
        :meth:`sample`; callers bound the batch (see ``BLOCK``).
        """
        return self._draw(seeds, 0, _integer("n", n, 1))

    def _draw(self, seeds, start: int, n: int) -> np.ndarray:
        """``n`` values of the stream of each seed (a scalar or an array),
        from word ``start`` on: the one fetch of this law's uniform planes."""
        u = uniform_planes(seeds, start, n, self._words_per_value, self._word_offsets)
        return self._quantile(u[0]) if self._transform is None else self._transform(u)

    def extremal_semideviation(self, alpha: float) -> float:
        """Exact expected exceedance above the mean in the worst alpha fraction.

        Computed as the tail integral of ``(y - mean)`` from
        ``max(quantile(1 - alpha), mean)`` to the right endpoint, using the
        closed form attached to each law.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        w = max(self.quantile(1.0 - alpha), self.mean)
        return float(self._tail_semidev(w))


# ---------------------------------------------------------------------------
# Pareto(2): F(z) = 1 - z**-2 on [1, inf), mean 2, extreme value index 1/2.
# ---------------------------------------------------------------------------


def _pareto2_cdf(z):
    safe = np.maximum(z, 1.0)
    return np.where(z < 1.0, 0.0, 1.0 - safe ** -2.0)


def _pareto2_tail_semidev(w):
    # integral of (y - 2) * 2 y**-3 over [w, inf) = 2/w - 2/w**2
    return 2.0 / w - 2.0 / (w * w)


# ---------------------------------------------------------------------------
# Student-t, 5 degrees of freedom: symmetric, mean 0, extreme value index
# 1/5; CDF via the regularized incomplete beta function.
# ---------------------------------------------------------------------------


def _t5_cdf(z):
    from scipy.special import betainc

    x = 5.0 / (5.0 + z * z)
    half_tail = 0.5 * betainc(2.5, 0.5, x)
    return np.where(z >= 0.0, 1.0 - half_tail, half_tail)


def _t5_quantile(p):
    from scipy.special import stdtrit

    return stdtrit(5.0, p)


def _t5_from_uniforms(u):
    # Z over the root of a chi-square with 5 d.o.f. scaled by 1/5, from a
    # group of six uniforms w0..w5 per value.  Box-Muller would turn the
    # pairs (w0, w1), (w2, w3), (w4, w5) into six normals z0..z5; the
    # squares of a pair sum to -2 log of its first uniform (cos^2 + sin^2
    # = 1), so only z0 and z1 need trig, and w3 and w5 are never hashed.
    # ``u`` holds the planes of w0, w1, w2 and w4.
    radius = np.sqrt(-2.0 * np.log(u[0]))
    angle = (2.0 * np.pi) * u[1]
    z1 = np.sin(angle) * radius
    chi2_5 = z1 * z1 - 2.0 * np.log(u[2]) - 2.0 * np.log(u[3])
    return np.cos(angle) * radius / np.sqrt(chi2_5 / 5.0)


def _t5_tail_semidev(w):
    # integral of y * c (1 + y^2/5)^-3 over [w, inf) = c * (5/4) (1 + w^2/5)^-2
    return _T5_COEF * 1.25 * (1.0 + w * w / 5.0) ** -2.0


# ---------------------------------------------------------------------------
# Exponential(1): F(z) = 1 - exp(-z), mean 1, index 0.
# ---------------------------------------------------------------------------


def _exp1_cdf(z):
    return np.where(z < 0.0, 0.0, -np.expm1(-np.maximum(z, 0.0)))


def _exp1_tail_semidev(w):
    # integral of (y - 1) e^-y over [w, inf) = w e^-w
    return w * np.exp(-w)


# ---------------------------------------------------------------------------
# Gumbel (location 0, scale 1): F(z) = exp(-exp(-z)), mean Euler-Mascheroni,
# index 0.  Tail semideviation needs the exponential integral E1.
# ---------------------------------------------------------------------------


def _gumbel_tail_semidev(w):
    # With a = exp(-w):  integral of (y - euler) dF over [w, inf)
    #   = exp(-a) * (euler - w) + E1(a)
    from scipy.special import exp1

    a = np.exp(-w)
    return np.exp(-a) * (EULER_GAMMA - w) + exp1(a)


# ---------------------------------------------------------------------------
# Uniform(0, 1): mean 1/2, right endpoint 1, index -1.
# ---------------------------------------------------------------------------


def _uniform_tail_semidev(w):
    # integral of (y - 1/2) over [w, 1] = (1/4 - (w - 1/2)^2) / 2
    return 0.5 * (0.25 - (w - 0.5) ** 2)


# ---------------------------------------------------------------------------
# Beta(1, 2): density 2(1 - y) on [0, 1], mean 1/3, index -1/2.
# ---------------------------------------------------------------------------


def _beta12_cdf(z):
    c = np.clip(z, 0.0, 1.0)
    return c * (2.0 - c)


def _beta12_tail_semidev(w):
    # integral of (y - 1/3) * 2(1 - y) over [w, 1] = (2/3) w (1 - w)^2
    return (2.0 / 3.0) * w * (1.0 - w) ** 2


PARETO2 = Distribution(
    name="pareto2",
    gamma_ref=0.5,
    right_endpoint=np.inf,
    mean=2.0,
    _cdf=_pareto2_cdf,
    _quantile=lambda p: (1.0 - p) ** -0.5,
    _tail_semidev=_pareto2_tail_semidev,
)

TSTUDENT5 = Distribution(
    name="tstudent5",
    gamma_ref=0.2,
    right_endpoint=np.inf,
    mean=0.0,
    _cdf=_t5_cdf,
    _quantile=_t5_quantile,
    _tail_semidev=_t5_tail_semidev,
    _words_per_value=6,
    _word_offsets=(0, 1, 2, 4),
    _transform=_t5_from_uniforms,
)

EXPONENTIAL1 = Distribution(
    name="exponential1",
    gamma_ref=0.0,
    right_endpoint=np.inf,
    mean=1.0,
    _cdf=_exp1_cdf,
    _quantile=lambda p: -np.log1p(-p),
    _tail_semidev=_exp1_tail_semidev,
)

GUMBEL = Distribution(
    name="gumbel",
    gamma_ref=0.0,
    right_endpoint=np.inf,
    mean=EULER_GAMMA,
    _cdf=lambda z: np.exp(-np.exp(-z)),
    _quantile=lambda p: -np.log(-np.log(p)),
    _tail_semidev=_gumbel_tail_semidev,
)

UNIFORM01 = Distribution(
    name="uniform01",
    gamma_ref=-1.0,
    right_endpoint=1.0,
    mean=0.5,
    _cdf=lambda z: np.clip(z, 0.0, 1.0),
    _quantile=lambda p: p,
    _tail_semidev=_uniform_tail_semidev,
)

BETA12 = Distribution(
    name="beta12",
    gamma_ref=-0.5,
    right_endpoint=1.0,
    mean=1.0 / 3.0,
    _cdf=_beta12_cdf,
    _quantile=lambda p: 1.0 - np.sqrt(1.0 - p),
    _tail_semidev=_beta12_tail_semidev,
)

DISTRIBUTIONS: dict[str, Distribution] = {
    d.name: d
    for d in (PARETO2, TSTUDENT5, EXPONENTIAL1, GUMBEL, UNIFORM01, BETA12)
}


def get_distribution(name: str) -> Distribution:
    """Look up a benchmark distribution by its canonical name."""
    try:
        return DISTRIBUTIONS[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(DISTRIBUTIONS))
        raise ValueError(f"unknown distribution {name!r}; valid names: {valid}") from None
