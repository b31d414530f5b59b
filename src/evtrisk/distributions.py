"""Benchmark cost distributions with exact ground-truth risk functionals.

Six laws spanning the tail-heaviness spectrum, each with a known extreme
value index: Pareto(2) and Student-t (5 d.o.f.) are heavy-tailed
(index 0.5 and 0.2), Exponential(1) and standard Gumbel are light-tailed
(index 0), Uniform(0,1) and Beta(1,2) have a finite right endpoint
(index -1 and -0.5).

Every distribution exposes seedable sampling, an exact CDF and quantile
function, and a closed-form (or rapidly convergent series) evaluation of
the extremal upper-semideviation

    semidev(alpha) = integral of (y - mean) over {y >= q(1 - alpha)},

the expected exceedance of the cost above its mean restricted to the worst
``alpha`` fraction of outcomes.  These serve as the ground truth that the
estimator benchmark is scored against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import RandomStream, _integer, _level, _like, uniform_planes

EULER_GAMMA = float(np.euler_gamma)

# Student-t(5) density normalization:
# Gamma(3) / (sqrt(5*pi) * Gamma(5/2)) = 8 / (3*pi*sqrt(5)).
_T5_COEF = float(8.0 / (3.0 * np.pi * np.sqrt(5.0)))

# The size of a pass over draws, under two rules:
# - every draw (``Distribution._draw``) cuts each row into tiles of
#   ``_TILE = BLOCK // 4`` values, whatever the law, so a one-row tile's
#   hash planes, uniforms and output stay within a core's L2 (Student-t,
#   with four planes of uniforms, touches about 0.9 MiB, a one-word law
#   about 0.4 MiB); the Monte Carlo oracle draws, sums and filters such
#   tiles in its kept buffer, one at a time;
# - the grid draws ``BLOCK // m`` rows of ``m`` values (at least one)
#   per pass, whatever the law: one sample size at a time, every law's
#   trials in turn, so a pass may hold rows of two or more laws.
# So a tile of a pass, ``rows * min(m, _TILE)`` values, never exceeds
# ``BLOCK``, and every draw's scratch comes from one owner,
# ``_workspace``, which keeps one set of ``BLOCK``-value buffers per
# thread from call to call: a draw hashes in its two uint64 planes and
# writes its values in place, so no draw (a sample, an oracle's tile, a
# trial or a grid pass) allocates scratch of that size, and glibc never
# maps or unmaps one.  Tiles and rows are whole values, so a Student-t
# group never straddles a cut.  The grid stays on the value rule because
# the word rule measured no faster there.
BLOCK = 2**16
_TILE = BLOCK // 4


# Each thread's workspace, kept from call to call (see _workspace).
_KEPT = threading.local()


def _workspace() -> tuple[np.ndarray, tuple]:
    """This thread's kept buffers, ``BLOCK`` values each: a pass plane,
    which the grid shapes into its pass matrix, and a draw scratch that
    any law's :meth:`Distribution._draw` takes as it is.

    Each thread allocates its workspace on its first draw and keeps it
    for every later draw: samples, the Monte Carlo oracle's tiles, trials
    and grid runs alike.  A draw needs scratch for one tile, at most
    ``BLOCK`` values (see ``BLOCK``), so the workspace never grows; only
    a grid pass of one row of ``m > BLOCK`` values needs a pass plane of
    its own.  Draws that allocate and free their arrays make glibc map
    and unmap them, with a zeroing and a page fault a page, or keep them
    only as its dynamic mmap threshold happens to allow.  Every draw
    overwrites what it reads of the workspace, so no caller sees
    another's values.
    """
    kept = vars(_KEPT)
    if "workspace" not in kept:
        # Plane 0 is the pass's; the scratch holds the most planes any law
        # draws (Student-t's four) and the hash's two.
        planes = np.empty((1 + max(len(d._word_offsets) for d in DISTRIBUTIONS.values()), BLOCK))
        kept["workspace"] = planes[0], (planes[1:], np.empty((2, BLOCK), np.uint64))
    return kept["workspace"]


def _leading(buffers: np.ndarray, shape: tuple) -> np.ndarray:
    """The first ``prod(shape)`` values of each row of ``buffers``, each
    shaped ``shape``; a view, since each row's slice is contiguous."""
    return buffers[:, :math.prod(shape)].reshape((len(buffers),) + shape)


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
    # Called on scalars by ``quantile``, and, for the laws sampled through
    # it, on arrays of open-interval uniforms with ``out=`` the array
    # itself, so the draw is mapped in place: ``_quantile(p, out=None)``
    # writes each step to ``out`` when one is given.
    _quantile: Callable[..., np.ndarray] = field(repr=False)
    # ``_tail_semidev(a)`` is the integral of (y - mean) over the top ``a``
    # of the law, y >= q(1 - a), for ``0 < a <= _mean_tail``, the survival
    # at the mean, past which the truth stops growing.  It is evaluated
    # from ``a`` itself, since ``1 - a`` would round ``a`` to a multiple
    # of 2**-53.
    _tail_semidev: Callable[[float], float] = field(repr=False)
    _mean_tail: float = field(repr=False)
    # A value takes ``_words_per_value`` words of the stream, of which the
    # uniforms at ``_word_offsets`` are drawn, one contiguous plane each.
    # A law sampled through ``_quantile`` uses the one plane of offset 0;
    # otherwise ``_transform(u, out)`` maps the planes ``u`` (stacked on
    # the first axis, any shape after it) to values of the law in ``out``,
    # overwriting ``u``.
    _words_per_value: int = field(default=1, repr=False)
    _word_offsets: tuple[int, ...] = field(default=(0,), repr=False)
    _transform: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def cdf(self, z):
        """Exact distribution function F(z); accepts scalars or arrays."""
        return _like(z, self._cdf(np.asarray(z, dtype=float)))

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{z : F(z) >= p} for p in (0, 1)."""
        _level("quantile level", p)
        return float(self._quantile(float(p)))

    def sample(self, n: int, stream: RandomStream) -> np.ndarray:
        """Draw ``n`` i.i.d. values using ``stream``.

        All laws except Student-t use the inverse-CDF transform of one
        open-interval uniform per value.  Student-t(5) takes six words of
        the stream per value but hashes only the four it reads (offsets 0,
        1, 2 and 4), and forms Z over the root of a scaled chi-square with
        5 d.o.f. (see ``_t5_from_uniforms``).  The stream's counter
        advances by six words per value all the same.

        The sample is one :meth:`_draw`, which fills it in tiles of
        ``_TILE`` (16,384) values, whatever the law, so that a tile's
        working set stays in L2.  Each tile is hashed and mapped in the
        thread's kept workspace (:func:`_workspace`) and written in place
        into its slice of the output, and its counters are one addition of
        a kept ramp (``rng._ramp``), so a warm call allocates its output
        and nothing of a tile's size.  The values and the stream's counter
        are those of one pass.  ``n`` must be an integer >= 1
        (``operator.index``), else ``ValueError``; it is checked once, and
        the sample's words are reserved on ``stream`` at once, before any
        tile is filled.
        """
        return self._fill(np.empty(_integer("n", n, 1)), stream)

    def _fill(self, out: np.ndarray, stream: RandomStream) -> np.ndarray:
        """Fill the 1-D array ``out`` with the next ``out.size`` values of
        ``stream``, as :meth:`sample` does: reserve their words, then one
        :meth:`_draw` in the thread's kept workspace; return ``out``."""
        first = stream.take(self._words_per_value * out.size)
        self._draw(stream.seed, first, out, _workspace()[1])
        return out

    def _draw(self, seeds, start: int, out: np.ndarray, scratch: tuple) -> None:
        """Fill ``out``, shaped ``np.shape(seeds) + (n,)``, with ``n`` values
        of the stream of each seed (a scalar or an array) from word
        ``start`` on: the one fetch of this law's uniform planes, and the
        one place that cuts a draw into tiles.

        Each row is cut into tiles of ``_TILE`` values, and a tile of every
        row at once is hashed, mapped and written in place into its slice
        of ``out``.  The tiles splice exactly: every word is a function of
        its counter alone, and tiles are whole values, so a Student-t
        group of six words never straddles a cut.  ``scratch`` is
        ``(planes, words)``, a workspace's scratch (see
        :func:`_workspace`): the words are hashed in ``words``, two uint64
        buffers, and a law with a transform draws its planes into
        ``planes``, one float64 buffer per offset; each buffer holds at
        least one tile of every row, ``np.size(seeds) * min(n, _TILE)``
        values, and their contents are overwritten.  A law sampled through
        its quantile draws its one plane into ``out`` and maps it in
        place.
        """
        for c in range(0, out.shape[-1], _TILE):
            tile = out[..., c:c + _TILE]
            u = (tile[None] if self._transform is None
                 else _leading(scratch[0][:len(self._word_offsets)], tile.shape))
            uniform_planes(seeds, start + self._words_per_value * c, self._words_per_value,
                           self._word_offsets, u, _leading(scratch[1], tile.shape))
            if self._transform is None:
                self._quantile(tile, out=tile)
            else:
                self._transform(u, tile)

    def extremal_semideviation(self, alpha: float) -> float:
        """Exact expected exceedance above the mean in the worst alpha fraction.

        The tail integral of ``(y - mean)`` from ``max(q(1 - alpha), mean)``
        to the right endpoint, by the closed form attached to each law.
        The form takes the tail level ``min(alpha, survival at the mean)``
        itself, never ``1 - alpha``, so it keeps its precision at any
        ``alpha`` in (0, 1), down to the smallest subnormal; an ``alpha``
        outside (0, 1) raises ``ValueError``.
        """
        _level("alpha", alpha)
        return float(self._tail_semidev(min(alpha, self._mean_tail)))


# ---------------------------------------------------------------------------
# Pareto(2): F(z) = 1 - z**-2 on [1, inf), mean 2, extreme value index 1/2.
# ---------------------------------------------------------------------------


def _pareto2_cdf(z):
    safe = np.maximum(z, 1.0)
    return np.where(z < 1.0, 0.0, 1.0 - safe ** -2.0)


def _pareto2_quantile(p, out=None):
    # 1 / sqrt(1 - p): each step is correctly rounded, so, unlike pow, the
    # bits depend on no SIMD kernel or libm.
    q = np.sqrt(np.subtract(1.0, p, out=out), out=out)
    return np.divide(1.0, q, out=out)


def _pareto2_tail_semidev(a):
    # integral of (y - 2) * 2 y**-3 over [w, inf) = 2/w - 2/w**2, at w = a**-1/2
    return 2.0 * math.sqrt(a) - 2.0 * a


# ---------------------------------------------------------------------------
# Student-t, 5 degrees of freedom: symmetric, mean 0, extreme value index
# 1/5; CDF and quantile from the elementary CDF of odd degrees of freedom
# (Abramowitz & Stegun 26.7.3) in the tail angle phi = arctan(sqrt(5)/|t|).
# ---------------------------------------------------------------------------


# Taylor coefficients of g(phi) below, phi**5 to phi**33: the terms of
# phi**1 and phi**3 cancel, and at phi < 1 the next would be under 1e-20.
_T5_TAIL_SERIES = tuple(
    (-1) ** n * 2 ** (2 * n + 1) * (2 ** (2 * n + 1) - 8) / (12 * math.factorial(2 * n + 1))
    for n in range(2, 17)
)


def _t5_tail_angle(phi):
    # pi times the survival at |t| = sqrt(5) / tan(phi), elementwise:
    #   g(phi) = phi - (2/3) sin 2phi + (1/12) sin 4phi,  g' = (8/3) sin^4 phi.
    # Below phi = 1 the trig form cancels (g ~ 8/15 phi^5), so sum the series.
    x = phi * phi
    series = 0.0
    for c in reversed(_T5_TAIL_SERIES):
        series = series * x + c
    trig = phi - (2.0 / 3.0) * np.sin(2.0 * phi) + np.sin(4.0 * phi) / 12.0
    return np.where(phi >= 1.0, trig, series * x * x * phi)


def _t5_cdf(z):
    # The angle keeps full precision at every |z|: near 0, where
    # 5 / (5 + z^2) rounds to 1, and past 1e154, where z^2 overflows.
    tail = _t5_tail_angle(np.arctan2(math.sqrt(5.0), np.abs(z))) / math.pi
    return np.where(z >= 0.0, 1.0 - tail, tail)


def _t5_quantile(p):
    # Solve g(phi) = pi * min(p, 1 - p) by Newton's method from the small-
    # angle asymptote g ~ (8/15) phi^5, which lies above g, so the start is
    # left of the root.  g is convex on (0, pi/2] and g(pi/2) = pi/2, so
    # the first step, capped at pi/2, lands right of the root and the rest
    # descend to it.  1 - p is exact for p > 1/2, so quantile(p) ==
    # -quantile(1 - p) there, bit for bit.
    tail = min(p, 1.0 - p)
    if tail == 0.5:
        return 0.0
    target = math.pi * tail
    phi = (1.875 * target) ** 0.2
    for _ in range(64):
        step = (_t5_tail_angle(phi) - target) / ((8.0 / 3.0) * math.sin(phi) ** 4)
        phi = min(phi - step, 0.5 * math.pi)
        if abs(step) <= 4e-16 * phi:
            break
    t = math.sqrt(5.0) / math.tan(phi)
    return t if p > 0.5 else -t


def _t5_from_uniforms(u, out):
    # Z over the root of a chi-square with 5 d.o.f. scaled by 1/5, from a
    # group of six uniforms w0..w5 per value.  Box-Muller would turn the
    # pairs (w0, w1), (w2, w3), (w4, w5) into six normals z0..z5; the
    # squares of a pair sum to -2 log of its first uniform (cos^2 + sin^2
    # = 1), so only z0 and z1 need trig, and w3 and w5 are never hashed.
    # ``u`` holds the planes of w0, w1, w2 and w4; each step overwrites a
    # plane or ``out``, and the steps are those of
    #   radius = sqrt(-2 log w0),  angle = (2 pi) w1,  z1 = sin(angle) radius,
    #   chi2_5 = z1 z1 - 2 log w2 - 2 log w4,
    #   out = cos(angle) radius / sqrt(chi2_5 / 5),
    # in that order, so working in place changes no bit.
    radius, angle, w2, w4 = u
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    np.sin(angle, out=out)
    out *= radius
    out *= out
    np.log(w2, out=w2)
    w2 *= 2.0
    out -= w2
    np.log(w4, out=w4)
    w4 *= 2.0
    out -= w4
    np.cos(angle, out=angle)
    angle *= radius
    out /= 5.0
    np.sqrt(out, out=out)
    return np.divide(angle, out, out=out)


def _t5_tail_semidev(a):
    # integral of y * c (1 + y^2/5)^-3 over [w, inf) = c * (5/4) (1 + w^2/5)^-2,
    # at w = q(1 - a) = -q(a), which _t5_quantile solves from a itself.
    w = _t5_quantile(a)
    return _T5_COEF * 1.25 * (1.0 + w * w / 5.0) ** -2.0


# ---------------------------------------------------------------------------
# Exponential(1): F(z) = 1 - exp(-z), mean 1, index 0.
# ---------------------------------------------------------------------------


def _exp1_cdf(z):
    return np.where(z < 0.0, 0.0, -np.expm1(-np.maximum(z, 0.0)))


def _exp1_quantile(p, out=None):
    # -log1p(-p)
    return np.negative(np.log1p(np.negative(p, out=out), out=out), out=out)


def _exp1_tail_semidev(a):
    # integral of (y - 1) e^-y over [w, inf) = w e^-w, at w = -log a
    return -a * math.log(a)


# ---------------------------------------------------------------------------
# Gumbel (location 0, scale 1): F(z) = exp(-exp(-z)), mean Euler-Mascheroni,
# index 0.  Tail semideviation from the power series of the exponential
# integral E1 (Abramowitz & Stegun 5.1.11).
# ---------------------------------------------------------------------------

# (-1)^(k+1) / (k k!) for k = 1..18: at a <= exp(-euler) < 0.562 the next
# term is under 1e-22.
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 19))


def _gumbel_quantile(p, out=None):
    # -log(-log p)
    q = np.negative(np.log(p, out=out), out=out)
    return np.negative(np.log(q, out=out), out=out)


def _gumbel_tail_semidev(tail):
    # With a = exp(-w):  integral of (y - euler) dF over [w, inf)
    #   = exp(-a) (euler - w) + E1(a),
    # and E1(a) = -euler + w + sum_k (-1)^(k+1) a^k / (k k!), so the
    # euler - w terms cancel exactly:
    #   = (w - euler) (1 - exp(-a)) + sum_k (-1)^(k+1) a^k / (k k!).
    # At w = q(1 - tail), a = -log(1 - tail) and 1 - exp(-a) = tail.
    # w >= mean keeps a <= exp(-euler), where the series converges fast.
    a = -math.log1p(-tail)
    series = 0.0
    for c in reversed(_E1_SERIES):
        series = series * a + c
    return (-math.log(a) - EULER_GAMMA) * tail + a * series


# ---------------------------------------------------------------------------
# Uniform(0, 1): mean 1/2, right endpoint 1, index -1.
# ---------------------------------------------------------------------------


def _uniform_tail_semidev(a):
    # integral of (y - 1/2) over [w, 1] = (1/4 - (w - 1/2)^2) / 2, at w = 1 - a
    return 0.5 * a * (1.0 - a)


# ---------------------------------------------------------------------------
# Beta(1, 2): density 2(1 - y) on [0, 1], mean 1/3, index -1/2.
# ---------------------------------------------------------------------------


def _beta12_cdf(z):
    c = np.clip(z, 0.0, 1.0)
    return c * (2.0 - c)


def _beta12_quantile(p, out=None):
    # 1 - sqrt(1 - p)
    return np.subtract(1.0, np.sqrt(np.subtract(1.0, p, out=out), out=out), out=out)


def _beta12_tail_semidev(a):
    # integral of (y - 1/3) * 2(1 - y) over [w, 1] = (2/3) w (1 - w)^2,
    # at w = 1 - sqrt(a)
    return (2.0 / 3.0) * (1.0 - math.sqrt(a)) * a


PARETO2 = Distribution(
    name="pareto2",
    gamma_ref=0.5,
    right_endpoint=np.inf,
    mean=2.0,
    _cdf=_pareto2_cdf,
    _quantile=_pareto2_quantile,
    _tail_semidev=_pareto2_tail_semidev,
    _mean_tail=0.25,
)

TSTUDENT5 = Distribution(
    name="tstudent5",
    gamma_ref=0.2,
    right_endpoint=np.inf,
    mean=0.0,
    _cdf=_t5_cdf,
    _quantile=_t5_quantile,
    _tail_semidev=_t5_tail_semidev,
    _mean_tail=0.5,
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
    _quantile=_exp1_quantile,
    _tail_semidev=_exp1_tail_semidev,
    _mean_tail=math.exp(-1.0),
)

GUMBEL = Distribution(
    name="gumbel",
    gamma_ref=0.0,
    right_endpoint=np.inf,
    mean=EULER_GAMMA,
    _cdf=lambda z: np.exp(-np.exp(-z)),
    _quantile=_gumbel_quantile,
    _tail_semidev=_gumbel_tail_semidev,
    _mean_tail=-math.expm1(-math.exp(-EULER_GAMMA)),
)

UNIFORM01 = Distribution(
    name="uniform01",
    gamma_ref=-1.0,
    right_endpoint=1.0,
    mean=0.5,
    _cdf=lambda z: np.clip(z, 0.0, 1.0),
    _quantile=lambda p, out=None: p,
    _tail_semidev=_uniform_tail_semidev,
    _mean_tail=0.5,
)

BETA12 = Distribution(
    name="beta12",
    gamma_ref=-0.5,
    right_endpoint=1.0,
    mean=1.0 / 3.0,
    _cdf=_beta12_cdf,
    _quantile=_beta12_quantile,
    _tail_semidev=_beta12_tail_semidev,
    _mean_tail=4.0 / 9.0,
)

DISTRIBUTIONS: dict[str, Distribution] = {
    d.name: d
    for d in (PARETO2, TSTUDENT5, EXPONENTIAL1, GUMBEL, UNIFORM01, BETA12)
}


def get_distribution(name: str) -> Distribution:
    """Look up a benchmark distribution by its canonical name, in any case;
    anything else, a name that is not a string included, raises
    ``ValueError``."""
    if isinstance(name, str) and name.lower() in DISTRIBUTIONS:
        return DISTRIBUTIONS[name.lower()]
    valid = ", ".join(sorted(DISTRIBUTIONS))
    raise ValueError(f"unknown distribution {name!r}; valid names: {valid}")
