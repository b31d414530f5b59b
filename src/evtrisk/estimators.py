"""Estimators for the extremal upper-semideviation, plus their oracles.

Two estimators are provided for the expected exceedance of a cost above
its mean in the worst ``alpha`` fraction of outcomes:

* the *typical* empirical estimator, which averages the exceedances of the
  largest order statistics above the sample mean; and
* the *EVT* estimator, which fits a Generalized Pareto tail model to the
  sample and evaluates the target functional on the model in closed form,
  extrapolating beyond the observed range.

The module also houses the independent verification routes: a seeded
Monte Carlo evaluation of the true functional, a direct quadrature
evaluation of the tail-model integral (checking the closed form), and a
pointwise probe of the GPD tail-approximation error against an exact CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Distribution
from .fitting import (
    RowFits,
    SortedSample,
    _as_sample,
    _fit_report,
    _floor_scaled,
    _per_group,
    _sort_rows,
    fit_rows,
)
from .rng import _TILE, RandomStream, _inside, _integer, _level
from .tail_model import (
    GAMMA_NEAR_ZERO,
    TailParams,
    _closed_forms,
    _forms_at,
    _log_ratio,
    _survival_unchecked,
)


@dataclass(frozen=True)
class AssumptionChecks:
    """Validity flags for the EVT estimator's closed form.

    ``gamma_lt_1`` is always true: a fit whose shape is not below 1 is
    unusable and raises :class:`~evtrisk.fitting.FitError` instead.
    """

    alpha_lt_k_over_m: bool
    var_ge_mean: bool
    gamma_lt_1: bool = True

    def all_hold(self) -> bool:
        return self.alpha_lt_k_over_m and self.var_ge_mean and self.gamma_lt_1


@dataclass(frozen=True)
class EstimateReport:
    """Full output of the estimation pipeline on one data set.

    ``rho_evt`` (and the tail model's VaR/CVaR) are present only when every
    assumption flag holds; otherwise they are ``None`` and the flags say
    which hypothesis failed.  A VaR or CVaR beyond the double range is
    ``None`` too (see :func:`evt_estimate`).
    """

    alpha: float
    params: TailParams
    sample_mean: float
    rho_typical: float
    var_tail: float | None
    cvar_tail: float | None
    rho_evt: float | None
    assumptions: AssumptionChecks
    warnings: tuple[str, ...] = ()


class RowEstimates(NamedTuple):
    """Both estimators on samples, one per row; see :func:`estimate_rows`.

    ``var_tail``, ``cvar_tail`` and ``rho_evt`` are evaluated on every row
    and mean something only where the flags say so: the model VaR and CVaR
    where the fit is usable and ``alpha_ok`` (infinite where their value
    lies beyond the double range), ``rho_evt`` where ``evt_valid``, i.e.
    where moreover the VaR is at least the mean; it is finite there.
    """

    mean: np.ndarray
    fits: RowFits
    rho_typical: np.ndarray
    var_tail: np.ndarray
    cvar_tail: np.ndarray
    rho_evt: np.ndarray
    alpha_ok: np.ndarray
    evt_valid: np.ndarray


def typical_rows(ordered: np.ndarray, mean, n_top):
    """The typical estimator along the last axis of ascending samples.

    Each sample (row) averages ``max(y - mean, 0)`` over its ``n_top + 1``
    largest values, divided by ``m``; ``mean`` and ``n_top`` hold one entry
    per row, and rows sharing a count are one array pass.
    """
    m = ordered.shape[-1]

    def group(n, rows):
        top = ordered[rows, m - n - 1:] - mean[rows, None]
        return (np.add.reduce(np.maximum(top, 0.0), axis=-1) / m,)

    return _per_group(n_top, group)[0]


def estimate_rows(samples: np.ndarray, alpha: float) -> RowEstimates:
    """Both estimators and the assumption flags for every sample (row).

    ``samples`` is one sample of size ``m`` or an ``(n, m)`` matrix of
    them; the fields of the result are scalars or length-``n`` arrays
    accordingly.  This is the one pipeline behind :func:`evt_estimate`
    (one sample) and the benchmark (one matrix per grid pass): sort each
    row, fit its tail (:func:`~evtrisk.fitting.fit_rows`), evaluate the
    closed forms elementwise.  ``alpha`` is checked here, once for both;
    of the samples, only finiteness is, at the ends of the sorted rows
    (``ValueError``).  The rows of ``samples`` are sorted in place, so
    callers pass an array they own (the public entry points copy their
    data once, in :func:`~evtrisk.fitting._as_sample`).
    """
    _level("alpha", alpha)
    ordered, mean, e = _sort_rows(samples)
    m = ordered.shape[-1]
    fits = fit_rows(ordered)
    # Out of range (see _sort_rows), the typical estimator is evaluated in
    # units of 2**e and multiplied back, as _closed_forms evaluates its own.
    mu, top = mean, ordered
    if e is not None:
        mu, top = np.ldexp(mean, -e), np.ldexp(ordered, -np.asarray(e)[..., None])
    # Failed rows carry NaN or unusable parameters (and k = 0 divides by
    # zero), and a row with alpha >= k/m can overflow (a shape far below
    # 0 raises r = m alpha / k >= 1 to a large power); the flags mask them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha_ok = alpha < fits.k / m
        # rho stays finite where a tiny alpha overflows the VaR.
        var, cvar_tail, rho_evt = _closed_forms(fits.threshold, fits.scale, fits.gamma, fits.k,
                                                m, mean, alpha, e)
        # One exceedance count for both estimators on every row, failed
        # fits included: the typical estimator averages the top k + 1
        # order statistics, the smallest of which is the threshold.
        rho_typical = typical_rows(top, mu, fits.k)
        evt_valid = np.logical_not(fits.failed) & alpha_ok & (var >= mean)
        if e is not None:
            rho_typical = np.ldexp(rho_typical, e)
    # Positional, as fit_rows builds its fits (see _fit_above).
    return RowEstimates(mean, fits, rho_typical, var, cvar_tail, rho_evt, alpha_ok, evt_valid)


def typical_semideviation(sample: SortedSample, alpha: float,
                          n_top: int | None = None) -> float:
    """Empirical estimator from the largest order statistics.

    Averages ``max(y - sample_mean, 0)`` over the ``n_top + 1`` largest
    values, divided by the full sample size.  When ``n_top`` is omitted it
    defaults to ``m - ceil((1 - alpha) * m)``, which makes the smallest
    order statistic entering the sum the standard empirical
    ``(1 - alpha)``-quantile; for ``alpha = 0.01`` and fewer than 100
    points that default degenerates to the sample maximum alone.  A given
    ``n_top`` is an integer (``operator.index``) in ``[0, m)``, else
    ``ValueError``.  The estimation pipeline (:func:`estimate_rows`) does
    not call this function: it evaluates the same sum with
    :func:`typical_rows` at the tail-fit exceedance count, so that both
    estimators share one ``k``; ``n_top=k`` reproduces that value here.
    """
    _level("alpha", alpha)
    m = sample.m
    if m < 2:
        raise ValueError("need at least 2 points")
    if n_top is None:
        n_top = _floor_scaled(alpha * m)
    n_top = _integer("n_top", n_top)
    if not 0 <= n_top < m:
        raise ValueError(f"n_top must be in [0, m), got {n_top}")
    return float(typical_rows(sample.values, np.float64(sample.mean), np.int64(n_top)))


def _in_double_range(value) -> float | None:
    """``value`` as a float, or None if it lies beyond the double range."""
    value = float(value)
    return value if math.isfinite(value) else None


def evt_estimate(data, alpha: float = 0.01) -> EstimateReport:
    """Run the full small-sample estimation pipeline on raw data.

    Sorts the data, places the threshold, fits the tail model by
    probability-weighted moments, evaluates both estimators, and checks the
    closed form's hypotheses.  Failed hypothesis checks are reported as
    flags with ``rho_evt`` omitted -- they do not raise -- so that batch
    callers can record them.  An unusable fit (constant data, too few
    exceedances, parameters rounding broke) raises
    :class:`~evtrisk.fitting.FitError`.

    Every field is finite.  A VaR or CVaR whose value lies beyond the
    double range (past about 1.8e308, for data near the top of it or a
    tiny ``alpha``) is reported as None, while the flags keep stating the
    hypotheses, so None under flags that hold names that cause.
    ``rho_evt``, a fraction ``alpha`` of the CVaR's excess, is reported
    all the same: its value is a fraction of the data's magnitude, and it
    is evaluated in units of a power of two for data near the top of the
    range, and in a form without the VaR where the VaR overflows.
    """
    values = _as_sample(data)
    est = estimate_rows(values, alpha)
    params, warnings = _fit_report(values, est.fits)
    ok = bool(est.alpha_ok)
    return EstimateReport(
        alpha=alpha,
        params=params,
        sample_mean=float(est.mean),
        rho_typical=float(est.rho_typical),
        var_tail=_in_double_range(est.var_tail) if ok else None,
        cvar_tail=_in_double_range(est.cvar_tail) if ok else None,
        rho_evt=float(est.rho_evt) if est.evt_valid else None,
        assumptions=AssumptionChecks(alpha_lt_k_over_m=ok, var_ge_mean=bool(est.evt_valid)),
        warnings=warnings,
    )


def monte_carlo_semideviation(dist: Distribution, alpha: float, n: int,
                              stream: RandomStream) -> tuple[float, float]:
    """Monte Carlo ground truth for the extremal upper-semideviation.

    Draws ``n`` samples (an integer >= 10^4, else ``ValueError``), plugs
    in the empirical mean and the empirical ``(1 - alpha)``-quantile ``v``
    of the same draw, and averages ``max(y - mean, 0)`` over the samples
    at or above ``v``.

    The draw is one streaming pass of tiles of at most ``rng._TILE``
    values; tiles splice exactly, so the draws and the stream's final
    counter are those of ``dist.sample(n, stream)``.  The summand is zero
    below ``v``, the ``top``-th largest draw, so the pass keeps only the
    running sum and the draws at or above a cut, in one buffer.  Each
    tile is drawn straight into the buffer's free tail
    (``Distribution._fill``, in the thread's kept workspace), summed
    there, and its draws below the cut are squeezed out in place; a tile
    whose draws all survive does not move.  Whenever the kept set reaches
    ``2 * top + _TILE`` values, the cut rises to its ``top``-th largest
    value and what falls below it is dropped, again in place.  That value
    is the ``top``-th largest of a prefix of the draw, so the cut never
    exceeds ``v``, and values equal to the cut are kept: every draw at or
    above ``v``, ties at ``v`` included, survives to the end.  The running
    sum adds ``np.add.reduce`` of each tile, so ``_TILE`` is the one unit
    of both the draw and the sum.

    Memory is the kept buffer, ``min(n, 2 * top + 2 * _TILE)`` values for
    a law without atoms, plus the workspace and the transients of at most
    one tile (its mask and its survivors); draws tied at the cut are all
    kept, so an atom at ``v`` adds its count, and the buffer grows when
    they outgrow it.

    Returns
    -------
    (estimate, std_error) : tuple of float
        ``std_error`` is the standard deviation of the per-sample summand
        divided by ``sqrt(n)``.  For very heavy tails the summand variance
        is large (or infinite at tail index 2), so treat the error bar as
        indicative rather than exact there.
    """
    n = _integer("n", n, 10_000)
    _level("alpha", alpha)
    top = _floor_scaled(alpha * n) + 1      # v is the top-th largest
    cut, size, total = -np.inf, 0, 0.0
    kept = np.empty(min(n, 2 * top + 2 * _TILE))
    for start in range(0, n, _TILE):
        # The next tile, into the free tail: its sum, and the draws at or
        # above the cut kept.
        count = min(_TILE, n - start)
        if size + count > kept.size:        # only with ties at the cut
            kept = np.resize(kept, 2 * (size + count))
        y = kept[size:size + count]
        dist._fill(y, stream)
        total += np.add.reduce(y)
        keep = y >= cut
        survivors = np.count_nonzero(keep)
        if survivors < count:
            # compress, not a mask index, which branches on every value.
            y[:survivors] = np.compress(keep, y)
        size += survivors
        if size >= 2 * top + _TILE:
            cut, size = _raise_cut(kept, size, top)
    _, size = _raise_cut(kept, size, top)       # the cut is now v
    s = kept[:size]
    # Summed in ascending order, which the values alone fix: the partition
    # leaves them in an order that depends on numpy's SIMD kernel.
    s.sort()
    s -= total / n
    np.maximum(s, 0.0, out=s)
    # The summand is s on these draws and 0 on the other n - size.
    estimate = np.add.reduce(s) / n
    s -= estimate
    s *= s
    variance = (np.add.reduce(s) + (n - size) * estimate**2) / (n - 1)
    return float(estimate), float(np.sqrt(variance) / np.sqrt(n))


def _raise_cut(kept: np.ndarray, size: int, top: int) -> tuple[float, int]:
    """Move the values of ``kept[:size]`` at or above its ``top``-th
    largest to the front, ties included; return that value and their count.

    The values come in the partition's order: first the ties left of its
    point, in their own order (they may differ in the sign of a zero),
    then its top values, moved by one forward overlapping copy, which
    numpy makes in place.
    """
    live = kept[:size]
    live.partition(size - top)
    cut = live[size - top]
    left = live[:size - top]
    ties = left[left == cut]
    live[ties.size:ties.size + top] = live[size - top:]
    live[:ties.size] = ties
    return cut, ties.size + top


# Exp-sinh rule on [0, inf) (Takahasi & Mori, 1974): nodes
# exp((pi/2) sinh(jh)) at step h = 1/32 for jh in [-4, 3.5], from 2.4e-19 to
# 1.9e11, so no node or weight overflows.
_EXP_SINH_STEPS = np.arange(-128, 113) / 32.0
_EXP_SINH_NODES = np.exp(0.5 * np.pi * np.sinh(_EXP_SINH_STEPS))
_EXP_SINH_WEIGHTS = (0.5 * np.pi / 32.0) * np.cosh(_EXP_SINH_STEPS) * _EXP_SINH_NODES


def semideviation_by_quadrature(params: TailParams, alpha: float,
                                sample_mean: float) -> float:
    """Direct numerical evaluation of the tail-model semideviation integral.

    Integrates ``(z - v) * density(z)`` over the tail above the model's
    value-at-risk ``v`` and adds the boundary mass term
    ``alpha * (v - sample_mean)``.  This is the independent check of the
    closed form in :func:`~evtrisk.tail_model.extremal_semideviation`: the
    two must agree to better than 1e-8 relative error, and the quadrature
    takes the closed forms' VaR alone, never their CVaR.  A VaR beyond the
    double range leaves the boundary term unformed and raises
    ``ValueError``.

    The integral is taken in the log-survival coordinate ``t``, where the
    tail's survival is ``(k/m) e^-t``: ``z = threshold + scale *
    expm1(gamma t) / gamma`` (``threshold + scale t`` for ``|gamma| <
    GAMMA_NEAR_ZERO``), so ``density(z) dz = (k/m) e^-t dt`` and ``[v,
    upper)`` maps onto ``[t_v, inf)`` for every shape, with ``e^-t_v = m
    alpha / k``.  One exp-sinh rule, scaled by ``1 / (1 - gamma)``,
    integrates it, bounded support or not.  Its excess term takes ``r **
    (1 - gamma)`` as ``exp((1 - gamma) log r)``, with ``log r`` from
    ``tail_model._log_ratio``, as the VaR takes it, so a subnormal
    ``alpha`` keeps its precision.
    """
    v = _forms_at(params, alpha, sample_mean,
                  "the integral check has the same hypothesis as the closed form")[0]
    if math.isinf(v):
        raise ValueError(f"value-at-risk at alpha {alpha} lies beyond the double range, "
                         f"so the boundary term alpha * (v - sample_mean) cannot be formed")
    gamma = params.gamma
    # With u = t - t_v and r = e^-t_v,
    #   (z - v) e^-t = scale r^(1 - gamma) e^-u expm1(gamma u) / gamma.
    # Its scale in u is 1 / (1 - gamma): its decay for gamma > 0, where
    # expm1 turns for gamma < 0.  Written as e^((max(gamma, 0) - 1) u)
    # expm1(-|gamma| u) / -|gamma|, no factor overflows and none cancels.
    u = _EXP_SINH_NODES / (1.0 - gamma)
    a = abs(gamma)
    rise = u if a < GAMMA_NEAR_ZERO else np.expm1(-a * u) / -a
    integral = np.dot(_EXP_SINH_WEIGHTS, np.exp((max(gamma, 0.0) - 1.0) * u) * rise)
    r_power = math.exp((1.0 - gamma) * _log_ratio(params.m, alpha, params.k))
    excess = params.tail_fraction * params.scale * r_power * integral / (1.0 - gamma)
    return float(excess + alpha * (v - sample_mean))


def tail_approximation_error(dist: Distribution, params: TailParams,
                             z_grid) -> np.ndarray:
    """Pointwise error of the GPD tail approximation against an exact CDF.

    For each grid point ``z`` in the model's support, returns

        | (1 - F(z)) - (1 - F(threshold)) * S((z - threshold)/scale) |

    where ``F`` is the exact distribution function and ``S`` the GPD
    survival.  The error vanishes identically (to roundoff) when the
    distribution's tail is itself exactly GPD, e.g. Exponential(1) with
    shape 0 and unit scale, or Pareto(2) with shape 1/2 and scale
    ``threshold / 2``.
    """
    grid = np.atleast_1d(np.asarray(z_grid, dtype=float))
    lower, upper = params.support
    if not _inside(grid, lower, upper):
        raise ValueError("grid points must lie inside the model support")
    survival_exact = 1.0 - dist.cdf(grid)
    survival_at_s = 1.0 - dist.cdf(lower)
    model = survival_at_s * _survival_unchecked(params.gamma,
                                                (grid - lower) / params.scale)
    return np.abs(survival_exact - model)
