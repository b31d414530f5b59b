"""Threshold selection and probability-weighted-moment tail fitting.

The fitting recipe targets very small samples (a few dozen points):

1. take the threshold at the 0.90 empirical quantile (1-based order
   statistic ``ceil(0.90 * m)``), so roughly the top tenth of the sample
   is treated as tail data;
2. count the strict exceedances above the threshold (ties are excluded
   and flagged);
3. estimate the GPD shape and scale of the exceedances from their first
   two probability-weighted moments.

With exceedances ordered largest first, ``e[0] >= e[1] >= ...``, the two
moments are

    P = mean(e)                    (plain average),
    Q = mean((i / k) * e[i])       (weight i/k on the (i+1)-th largest),

and the fitted parameters are ``shape = (P - 4Q)/(P - 2Q)`` and
``scale = 2PQ/(P - 2Q)``.  For strictly positive exceedances ``P - 2Q``
is positive (the weights decrease while the values decrease, so the
weighted sum cannot drop below P/k), which makes the fitted shape
strictly less than 1 and the scale strictly positive -- exactly the
conditions the closed-form risk functionals require.  The plotting-
position variant of the weights ((i - 0.35)/k, Hosking-Wallis) is not
implemented; it loses the guaranteed shape < 1.

Double precision can still break those guarantees, so a fit is *usable*
only if its scale is positive and finite and its shape is below 1; a
sample with fewer than 2 exceedances has NaN parameters and is unusable
too.  That one rule is the ``failed`` field of :func:`fit_rows`, and
:func:`_fit_error` words the cause for every caller that raises.

The recipe is implemented once, along the last axis of an array of
samples (:func:`fit_rows`), so one call fits a whole batch;
:func:`select_threshold` and :func:`pwm_fit` are its single-sample views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import _integer, _level
from .tail_model import TailParams

THRESHOLD_QUANTILE = 0.90
# Half the largest double: a margin for rounding in the bound on a sum.
_HALF_MAX = 0.5 * float(np.finfo(float).max)


class FitError(ValueError):
    """The sample cannot support a tail fit (e.g. fewer than 2 exceedances)."""


def _ceil_scaled(x: float) -> int:
    """``ceil(x)`` for a product ``x`` of a decimal level and a count.

    A product within 4 ulps of an integer is taken as that integer: there
    the exact decimal product is whole, and only the rounding of the level
    and of the product moved it.  The snap is relative, so it holds at any
    count.
    """
    nearest = round(x)
    return nearest if abs(x - nearest) <= 4.0 * math.ulp(x) else math.ceil(x)


def _floor_scaled(x: float) -> int:
    """``floor(x)``, snapped as :func:`_ceil_scaled` snaps.

    ``floor(alpha * n)`` counts the values above the empirical ``(1 -
    alpha)``-quantile of ``n``, ``n - ceil((1 - alpha) n)``, without
    forming ``1 - alpha``: its rounding error is relative to ``alpha``, so
    at large ``n`` it moves the product by many ulps.
    """
    return -_ceil_scaled(-x)


def min_sample_size(q: float = THRESHOLD_QUANTILE) -> int:
    """Smallest sample size whose level-``q`` threshold leaves 2 points above it.

    Below it the threshold rule admits at most one exceedance whatever the
    data, so every fit fails; at the default ``q = 0.90`` it is 20.
    """
    _level("quantile level", q)
    # m - ceil(q m) <= (1 - q) m, so no smaller m can leave 2 points.
    m = max(2, int(1.99 / (1.0 - q)))
    while m - _ceil_scaled(q * m) < 2:
        m += 1
    return m


def _fit_error(m: int, k: int, gamma: float = math.nan, scale: float = math.nan,
               q: float | None = THRESHOLD_QUANTILE) -> FitError:
    """Why a fit of ``k`` exceedances in ``m`` points is not usable.

    Fewer than 2 exceedances cannot be fitted; with a threshold level
    ``q`` the cause is named as too few points where the rule itself
    leaves fewer than 2.  Otherwise rounding broke the moment fit's
    guarantees (see the module docstring): exceedances spread over too
    many orders of magnitude make the shape round to 1, and at the edges
    of the double range the scale can round to 0 or overflow.
    """
    if k < 2:
        least = 0 if q is None else min_sample_size(q)
        if m < least:
            return FitError(
                f"{m} points leave at most {m - _ceil_scaled(q * m)} above the "
                f"{q:g}-quantile threshold, and the fit needs 2 exceedances: "
                f"at least {least} points are required"
            )
        if k == 0:
            return FitError("no strict exceedances above the threshold")
        return FitError(f"only {k} exceedance above the threshold; at least 2 are needed")
    if not 0.0 < scale < math.inf:
        size = "too small (subnormal)" if scale <= 0.0 else "too large"
        return FitError(
            f"the fitted scale is {scale!r}: the {k} exceedances are {size} "
            "for double precision to fit"
        )
    return FitError(
        f"the fitted shape rounds to {gamma!r}: the {k} exceedances span "
        "more orders of magnitude than double precision resolves"
    )


def _as_sample(data) -> np.ndarray:
    """Validate raw data as a non-empty, finite 1-d float array, a copy
    the caller of this function owns (the pipeline sorts it in place)."""
    arr = np.array(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a non-empty 1-d sequence")
    if not np.isfinite(arr).all():
        raise ValueError("data contains non-finite values")
    return arr


def _per_group(keys, fn):
    """Evaluate ``fn(key, rows)`` once per distinct entry of ``keys``.

    ``fn`` returns a tuple of results for the rows it is given.  When
    every entry is the same (the common case, and always so for a single
    sample) ``rows`` is ``...`` and the results are returned as ``fn``
    gave them; otherwise ``rows`` holds the indices of each group and the
    results are scattered into arrays shaped like ``keys``.
    """
    first = keys.item(0)
    if keys.size == 1 or (keys == first).all():
        return fn(first, ...)
    outs = None
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        results = fn(int(key), rows)
        if outs is None:
            outs = [np.empty(keys.shape, np.result_type(r)) for r in results]
        for out, r in zip(outs, results):
            out[rows] = r
    return tuple(outs)


def _pwm(excess_desc: np.ndarray):
    """Shape and scale from exceedances ordered largest first.

    Works along the last axis, so one call fits every row of a matrix
    whose rows share one exceedance count.  The moments are taken of the
    exceedances divided by ``2**e``, with ``e`` the binary exponent of the
    largest one, and the scale is multiplied back.  Powers of two scale
    exactly, so shape and scale are bit for bit those of the unscaled
    formulas wherever these neither overflow nor underflow, and ``P*Q``
    stays in range at any magnitude of the data.
    """
    k = excess_desc.shape[-1]
    e = np.frexp(excess_desc[..., 0])[1]
    excess = np.ldexp(excess_desc, -e[..., None])
    p_mom = np.add.reduce(excess, axis=-1) / k
    q_mom = np.add.reduce(np.arange(k) / k * excess, axis=-1) / k
    denom = p_mom - 2.0 * q_mom
    return (p_mom - 4.0 * q_mom) / denom, np.ldexp(2.0 * p_mom * q_mom / denom, e)


@dataclass(frozen=True)
class SortedSample:
    """A data set held as read-only ascending order statistics plus its mean.

    Build via :func:`sort_and_summarize`, which validates the data once.
    """

    values: np.ndarray
    mean: float

    @property
    def m(self) -> int:
        """Sample size."""
        return int(self.values.size)


@dataclass(frozen=True)
class FitReport:
    """Result of a tail fit: parameters plus bookkeeping."""

    params: TailParams
    warnings: tuple[str, ...] = ()


class RowFits(NamedTuple):
    """Tail fits of samples, one per row; see :func:`fit_rows`.

    ``failed`` marks the rows whose fit is not usable: fewer than 2
    exceedances (``gamma`` and ``scale`` are NaN there), or a scale that
    is not positive and finite or a shape that is not below 1.
    """

    threshold: np.ndarray
    k: np.ndarray
    gamma: np.ndarray
    scale: np.ndarray
    failed: np.ndarray


def _threshold_rule(ordered: np.ndarray, q: float):
    """Threshold and exceedance count along the last axis; numpy scalars
    for one sample.

    The threshold of an ascending sample of size ``m`` is its order
    statistic ``ceil(q * m)`` (1-based), and ``k`` counts the values
    strictly above it; rows ascend, so only the columns after it can be.
    """
    idx = _ceil_scaled(q * ordered.shape[-1])
    threshold = ordered[..., idx - 1][()]
    k = np.add.reduce(ordered[..., idx:] > threshold[..., None], axis=-1)
    return threshold, k


def _tie_warnings(values: np.ndarray, threshold) -> tuple[str, ...]:
    """``("tied-threshold",)`` if more than one value equals the threshold."""
    return ("tied-threshold",) if np.count_nonzero(values == threshold) > 1 else ()


def fit_rows(ordered: np.ndarray) -> RowFits:
    """Threshold rule and moment fit along the last axis of ascending samples.

    ``ordered`` is one ascending sample of size ``m``, or an ``(n, m)``
    matrix of them; the fields of the result are scalars or length-``n``
    arrays accordingly.  The threshold is at the 0.90 level.
    """
    return _fit_above(ordered, *_threshold_rule(ordered, THRESHOLD_QUANTILE))


def _fit_above(ordered, threshold, k) -> RowFits:
    """Moment fit of the top ``k`` values of each row above its threshold.

    Ties make ``k`` differ between rows, so the moments are computed per
    group of rows sharing one ``k``, each group as one array pass.  NaN
    parameters (fewer than 2 exceedances) compare false, so one test
    marks every unusable fit.
    """
    m = ordered.shape[-1]

    def fit_group(kk, rows):
        if kk < 2:     # NaN shape and scale
            return (np.full(np.shape(threshold[rows]), np.nan)[()],) * 2
        return _pwm(ordered[rows, m - kk:][..., ::-1] - threshold[rows, None])

    gamma, scale = _per_group(k, fit_group)
    failed = ~((scale > 0.0) & (scale < np.inf) & (gamma < 1.0))
    return RowFits(threshold=threshold, k=k, gamma=gamma, scale=scale, failed=failed)


def _sort_rows(samples: np.ndarray):
    """Each sample (row, along the last axis) sorted ascending in place,
    and its mean; returns the sorted ``samples`` and the means.

    No partial sum of a row exceeds ``m`` times its largest magnitude, so
    rows are summed as they are unless one is that close to the top of
    the double range.  Then a row whose sum is not finite is summed a
    second time, divided by ``2**e`` with ``e`` the binary exponent of its
    largest magnitude, and its mean multiplied back, as in :func:`_pwm`.
    Powers of two scale exactly, so that mean is bit for bit the unscaled
    formula's on data small enough for it.
    """
    samples.sort(axis=-1)
    ordered = samples
    m = ordered.shape[-1]
    lo, hi = ((ordered[0], ordered[-1]) if ordered.ndim == 1
              else (ordered[..., 0].min(), ordered[..., -1].max()))
    if max(-lo, hi) < _HALF_MAX / m:
        return ordered, np.add.reduce(ordered, axis=-1) / m
    rows = ordered.reshape(-1, m)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(rows, axis=-1) / m
    for i in np.flatnonzero(~np.isfinite(mean)):
        e = np.frexp(max(-rows[i, 0], rows[i, -1]))[1]
        mean[i] = np.ldexp(np.add.reduce(np.ldexp(rows[i], -e)) / m, e)
    return ordered, mean.reshape(ordered.shape[:-1])[()]


def _fit_report(values: np.ndarray, fits: RowFits, q: float | None = THRESHOLD_QUANTILE):
    """The one fit in ``fits``, of the sample ``values``, as public values.

    A usable fit becomes its :class:`TailParams` and the sample's tie
    warnings (the fields of a :class:`FitReport`); an unusable one raises
    the :class:`FitError` that :func:`_fit_error` words for it, with the
    threshold level ``q``.
    """
    m, k = values.size, int(fits.k)
    if fits.failed:
        raise _fit_error(m, k, float(fits.gamma), float(fits.scale), q=q)
    params = TailParams(k=k, m=m, gamma=float(fits.gamma),
                        threshold=float(fits.threshold), scale=float(fits.scale))
    return params, _tie_warnings(values, fits.threshold)


def sort_and_summarize(data) -> SortedSample:
    """Sort a raw data sequence ascending and attach its mean.

    The mean is finite for any finite data (see :func:`_sort_rows`).
    """
    ordered, mean = _sort_rows(_as_sample(data))
    ordered.setflags(write=False)
    return SortedSample(values=ordered, mean=float(mean))


def select_threshold(sample: SortedSample, q: float = THRESHOLD_QUANTILE) -> tuple[float, int]:
    """Pick the tail threshold and count its strict exceedances.

    Parameters
    ----------
    sample : SortedSample
        The data; at the default level it needs at least 20 points to
        leave 2 exceedances (see :func:`min_sample_size`).
    q : float, optional
        Empirical quantile level for the threshold; the default 0.90
        makes the threshold an estimate of the cost exceeded 10% of the
        time.

    Returns
    -------
    (threshold, n_exceed) : tuple of float and int
        ``threshold`` is the order statistic at 1-based index
        ``ceil(q * m)``; ``n_exceed`` counts values strictly above it.

    Raises
    ------
    FitError
        If fewer than 2 values exceed the threshold (the moment fit is
        degenerate below that, and impossible with none).
    """
    _level("quantile level", q)
    threshold, k = _threshold_rule(sample.values, q)
    if k < 2:
        raise _fit_error(sample.m, int(k), q=q)
    return float(threshold), int(k)


def pwm_fit(sample: SortedSample, threshold: float, n_exceed: int) -> FitReport:
    """Fit GPD shape and scale to the exceedances by probability-weighted moments.

    The top ``n_exceed`` order statistics must all exceed ``threshold``
    strictly (as produced by :func:`select_threshold`); fewer than 2 of
    them, or a fit that rounding made unusable, raise a :class:`FitError`.
    ``n_exceed`` is an integer (``operator.index``), else ``ValueError``.
    """
    k, m = _integer("n_exceed", n_exceed), sample.m
    if not 0 <= k < m:
        raise ValueError(f"exceedance count {k} must be in [0, m) for a sample of m = {m}")
    if not np.all(sample.values[m - k:] > threshold):
        raise ValueError("the top n_exceed values must exceed the threshold strictly")
    fits = _fit_above(sample.values, np.float64(threshold), np.int64(k))
    return FitReport(*_fit_report(sample.values, fits, q=None))
