"""Generalized Pareto tail model and its closed-form risk functionals.

A fitted tail model is a random variable whose distribution puts an atom of
mass ``1 - k/m`` at a threshold and spreads the remaining ``k/m`` over a
Generalized Pareto (GPD) exceedance law above it.  Its CDF is

    F(z) = 0                                   for z below the threshold,
    F(z) = 1 - (k/m) * S((z - threshold)/scale)  on the support interval,
    F(z) = 1                                   past the upper endpoint
                                               (finite only for shape
                                               <= -GAMMA_NEAR_ZERO),

with ``S`` the GPD survival function.  Because the quantile, CVaR, and
extremal upper-semideviation of this model all have closed forms, fitting
it to a small sample gives cheap tail extrapolation; the closed forms are
implemented here and verified elsewhere against direct numerical
integration of the tail density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import _inside, _integer, _like

# Below this magnitude the shape parameter is treated as exactly zero:
# the stable expm1/log1p forms still cancel catastrophically when the
# exponent 1/shape overflows the working precision.
GAMMA_NEAR_ZERO = 1e-10
# The magnitudes that need no power-of-two scaling; see _in_range.
_LOW, _HIGH = 2.0**-400, 2.0**400


def _in_range(largest, smallest=_LOW) -> bool:
    """Whether values of magnitudes from ``smallest`` to ``largest`` need
    no power-of-two scaling: the one edge-of-range rule, of the mean
    (``fitting._sort_rows``), of the moment fit (``fitting._pwm``) and of
    the closed forms (:func:`_closed_forms`).

    On magnitudes from 2**-400 to 2**400 and counts below 2**40, every
    sum, product and quotient of those formulas stays normal, both in the
    data's units and in units of ``2**e``, with ``e`` the binary exponent
    of the largest value.  Powers of two scale exactly between normal
    numbers, so the formulas give the scaled ones' bits without the
    scaling.  The mean and the closed forms are scaled only for large
    magnitudes, so they pass only ``largest``.
    """
    return smallest >= _LOW and largest <= _HIGH


def _bounded(gamma) -> bool:
    """Whether the shape has a finite upper endpoint, ``-scale/gamma``.

    The complement of the near-zero test on the negative side, so a shape
    takes either the power form with its endpoint or the exponential form
    without one.
    """
    return gamma <= -GAMMA_NEAR_ZERO


class AssumptionViolation(ValueError):
    """The closed-form estimator's hypothesis (VaR >= sample mean) fails."""


class SupportInterval(NamedTuple):
    """Support of the continuous tail part, ``[lower, upper)``."""

    lower: float
    upper: float


def gpd_survival(gamma: float, z):
    """GPD survival function: (1 + gamma*z)**(-1/gamma), or exp(-z) at zero.

    Parameters
    ----------
    gamma : float
        Shape parameter (extreme value index).
    z : float or array
        Points in the survival function's domain: ``z >= 0`` and, for
        shapes at or below ``-GAMMA_NEAR_ZERO``, ``z < -1/gamma``.  NaN
        is in neither, and raises ``ValueError`` as they do.

    Returns
    -------
    float or ndarray
        Survival probabilities in (0, 1].  Evaluated in log space as
        ``exp(-log1p(gamma*z)/gamma)`` so that values stay accurate for
        shapes arbitrarily close to zero.
    """
    arr = np.asarray(z, dtype=float)
    # Closed at +inf, where an unbounded shape's survival is 0; NaN fails.
    if not np.all(arr >= 0.0):
        raise ValueError("gpd_survival requires z >= 0")
    if _bounded(gamma) and not _inside(arr, 0.0, -1.0 / gamma):
        raise ValueError(
            f"z outside the survival domain [0, {-1.0 / gamma}) for shape {gamma}"
        )
    return _like(z, _survival_unchecked(gamma, arr))


def _survival_unchecked(gamma: float, x):
    """GPD survival on pre-validated points (vectorized, log-space stable)."""
    if abs(gamma) < GAMMA_NEAR_ZERO:
        return np.exp(-x)
    with np.errstate(divide="ignore"):
        # log1p(-1) = -inf at the upper support endpoint; exp then gives the
        # correct survival of exactly 0 there.
        return np.exp(-np.log1p(gamma * x) / gamma)


@dataclass(frozen=True)
class TailParams:
    """Fitted tail-model parameters.

    Attributes
    ----------
    k : int
        Number of threshold exceedances (at least 2; the probability-
        weighted-moment fit degenerates to shape 1 when k = 1).
    m : int
        Total sample count, strictly greater than ``k``.

    ``k`` and ``m`` are integers (``operator.index``, stored as ``int``);
    a float such as 2.5 raises ``ValueError`` naming the field.
    gamma : float
        Fitted shape (extreme value index); must be < 1 so the model is
        integrable and its CVaR exists.
    threshold : float
        Location of the atom; lower edge of the tail.
    scale : float
        Positive GPD scale of the exceedance law.
    """

    k: int
    m: int
    gamma: float
    threshold: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "k", _integer("k", self.k))
        object.__setattr__(self, "m", _integer("m", self.m))
        if not 2 <= self.k < self.m:
            raise ValueError(f"need 2 <= k < m, got k={self.k}, m={self.m}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.gamma < 1.0:
            raise ValueError(f"shape must be < 1 for integrability, got {self.gamma}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.threshold)
                and math.isfinite(self.scale)):
            raise ValueError("tail parameters must be finite")

    @property
    def tail_fraction(self) -> float:
        """Probability mass carried by the continuous tail, k/m."""
        return self.k / self.m

    @property
    def support(self) -> SupportInterval:
        """Support of the tail part; upper endpoint is finite iff
        ``gamma <= -GAMMA_NEAR_ZERO``."""
        if _bounded(self.gamma):
            return SupportInterval(self.threshold,
                                   self.threshold - self.scale / self.gamma)
        return SupportInterval(self.threshold, math.inf)

    def mean(self) -> float:
        """Exact mean: threshold + (k/m) * scale / (1 - gamma)."""
        return self.threshold + self.tail_fraction * self.scale / (1.0 - self.gamma)


def tail_cdf(params: TailParams, z):
    """Distribution function of the tail model; accepts scalars or arrays."""
    arr = np.asarray(z, dtype=float)
    x = (arr - params.threshold) / params.scale
    x_upper = -1.0 / params.gamma if _bounded(params.gamma) else math.inf
    inside = np.clip(x, 0.0, np.nextafter(x_upper, 0.0))
    out = 1.0 - params.tail_fraction * _survival_unchecked(params.gamma, inside)
    out = np.where(x >= x_upper, 1.0, out)
    return _like(z, np.where(x < 0.0, 0.0, out))


def tail_quantile(params: TailParams, u):
    """Generalized inverse of :func:`tail_cdf` for levels ``0 <= u < 1``.

    The model has an atom of mass ``1 - k/m`` at the threshold, so every
    level up to that mass maps to the threshold itself; higher levels invert
    the continuous tail branch.  Vectorized over ``u`` (used for
    inverse-transform sampling of the model).  The tail branch is
    :func:`_var` at the survival ratio ``r = (1 - u) / (k/m)``; atom
    levels take ``r = 1``, where it gives the threshold exactly.
    """
    arr = np.asarray(u, dtype=float)
    if not _inside(arr, 0.0, 1.0):
        raise ValueError("quantile level must satisfy 0 <= u < 1")
    r = np.where(arr > 1.0 - params.tail_fraction,
                 (1.0 - arr) / params.tail_fraction, 1.0)
    return _like(u, _var(params.threshold, params.scale, params.gamma, np.log(r)))


def _var(threshold, scale, gamma, log_r):
    """Tail-branch quantile at the survival ratio ``r``, given by its log
    ``log_r``; a ufunc over arrays.

    At ``r = m * alpha / k`` it is the model value-at-risk, the
    (1 - alpha)-quantile of the continuous tail branch:
    ``threshold + scale * ((r ** -gamma) - 1) / gamma``, or
    ``threshold - scale * log(r)`` for shapes within ``GAMMA_NEAR_ZERO``
    of zero, both in the stable ``expm1``/``log`` form.
    """
    near_zero = np.abs(gamma) < GAMMA_NEAR_ZERO
    # Near-zero rows divide by gamma + 1, and the select throws them away;
    # most calls have none, and skip it.
    power = threshold + scale * np.expm1(-gamma * log_r) / (gamma + near_zero)
    return (np.where(near_zero, threshold - scale * log_r, power)[()]
            if np.count_nonzero(near_zero) else power)


def _cvar(var, threshold, scale, gamma):
    """Model CVaR from its value-at-risk; a ufunc over arrays."""
    return (var + scale - gamma * threshold) / (1.0 - gamma)


def _log_ratio(m, alpha: float, k):
    """``log r`` of the survival ratio ``r = m * alpha / k`` at level
    ``alpha``; a ufunc over the counts.

    Below ``alpha = 2**-1022`` the ratio would be subnormal, with fewer
    bits, so its log is taken of ``2**600 * r``, formed from the exact
    ``ldexp(alpha, 600)``, less ``600 log 2``.
    """
    if alpha < 2.0**-1022:
        return np.log(np.float64(m * math.ldexp(alpha, 600)) / k) - 600 * math.log(2.0)
    # A numpy float over the count: numpy divides a Python float by a
    # numpy int on its slow path, with the same bits.
    return np.log(np.float64(m * alpha) / k)


def _closed_forms(threshold, scale, gamma, k, m: int, sample_mean, alpha: float, e):
    """The model VaR, CVaR and semideviation ``alpha * (cvar -
    sample_mean)`` at level ``alpha`` of fits of ``k`` exceedances among
    ``m`` values; ufuncs over arrays.  The one evaluation of the three:
    the scalar functions are it at batch size one (:func:`_forms_at`),
    and ``estimators.estimate_rows`` is it on a batch.

    ``e`` is None where the magnitudes are in range (:func:`_in_range`),
    and otherwise each row's binary exponent, 0 for a row in range: the
    threshold, scale and mean are divided by ``2**e``, the three are
    evaluated in those units, and each is multiplied back, so that a
    semideviation whose value is in range is finite, and each is the bits
    of the unscaled formula wherever that formula overflows nowhere.  The
    VaR takes ``log r`` from :func:`_log_ratio`, which keeps its precision
    down to ``alpha = 5e-324``.

    At a tiny ``alpha`` the power ``r ** -gamma`` of a positive shape can
    overflow the VaR and the CVaR while the semideviation, a fraction of
    the data's magnitude, is in range.  Where it overflowed, it is taken
    in a form with no overflowing step: ``alpha * (threshold -
    sample_mean - scale / gamma)`` plus ``scale * (k / m) ** gamma *
    alpha ** (1 - gamma) / (gamma * (1 - gamma))``, whose powers are at
    most 1 and which takes ``alpha`` itself, so a subnormal ``alpha``
    keeps its precision.  The semideviation of an overflowed CVaR is
    positive, so a form that is not (a shape of 0, or a term of its own
    overflowing) leaves the infinity.  Every other entry keeps the bits of
    the three closed forms.  In the units of ``2**e`` the magnitudes lie
    within 2**400, so the mean exceedance ``scale / (1 - gamma)`` is at
    most 2**401, and the CVaR, at most that times ``r ** -gamma / gamma``
    past the threshold, can overflow only where ``r ** -gamma > 2**600``,
    which takes ``alpha < r < 2**-600``: a larger ``alpha`` skips the test.
    """
    if e is not None:
        threshold, scale, sample_mean = (np.ldexp(v, -e) for v in (threshold, scale, sample_mean))
    var = _var(threshold, scale, gamma, _log_ratio(m, alpha, k))
    cvar_value = _cvar(var, threshold, scale, gamma)
    rho = alpha * (cvar_value - sample_mean)
    if alpha < 2.0**-600 and np.isinf(rho).any():
        tiny = (alpha * (threshold - sample_mean - scale / gamma) + scale * (k / m) ** gamma
                * alpha ** (1.0 - gamma) / (gamma * (1.0 - gamma)))
        rho = np.where(np.isinf(rho) & (tiny > 0.0), tiny, rho)[()]
    if e is not None:
        var, cvar_value, rho = (np.ldexp(v, e) for v in (var, cvar_value, rho))
    return var, cvar_value, rho


def _forms_at(params: TailParams, alpha: float, sample_mean: float = 0.0,
              consequence: str | None = None) -> tuple[float, float, float]:
    """:func:`_closed_forms` of ``params`` at batch size one: the model
    VaR, CVaR and semideviation as floats, with the bits of a batch row of
    the same parameters.  Past 2**400 (:func:`_in_range`) the largest of
    ``|threshold|``, ``scale`` and ``|sample_mean|`` gives the units
    ``2**e``, ``e`` its binary exponent, as the largest value of a row
    gives a batch's.

    Requires ``0 < alpha < k/m``, one number, not an array of one entry
    (``ValueError``).  A VaR or CVaR whose value lies beyond the double
    range is ``inf``, without a warning.
    Given ``consequence``, a VaR below ``sample_mean`` raises
    :class:`AssumptionViolation` ending in it: the hypothesis of the
    closed form and of every check of it.
    """
    if not ((isinstance(alpha, float) or np.ndim(alpha) == 0)
            and 0.0 < alpha < params.tail_fraction):
        raise ValueError(
            f"alpha must be in (0, k/m) = (0, {params.tail_fraction}), got {alpha}"
        )
    largest = max(abs(params.threshold), params.scale, abs(sample_mean))
    e = None if _in_range(largest) else math.frexp(largest)[1]
    # The batch's float type for the shape: at a shape of 0 the overflow
    # form then divides by zero to a result it discards, as the batch
    # does, and raises no ZeroDivisionError.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forms = _closed_forms(params.threshold, params.scale, np.float64(params.gamma),
                              params.k, params.m, sample_mean, alpha, e)
    var, cvar_value, rho = map(float, forms)
    if consequence is not None and var < sample_mean:
        raise AssumptionViolation(
            f"value-at-risk {var} is below the sample mean {sample_mean}; {consequence}"
        )
    return var, cvar_value, rho


def value_at_risk(params: TailParams, alpha: float) -> float:
    """The (1 - alpha)-quantile of the tail model, in closed form.

    Requires ``0 < alpha < k/m`` so that the level lands strictly inside
    the continuous tail branch (where the closed form is exact and the
    result lies in the interior of the support).  On the fit of a sample
    of any magnitude it is that sample's ``var_tail`` in
    ``estimators.estimate_rows``, bit for bit: past 2**400 both evaluate
    in units of a power of two.  It is ``inf``, without a warning, where
    its value lies beyond the double range.
    """
    return _forms_at(params, alpha)[0]


def cvar(params: TailParams, alpha: float) -> float:
    """Conditional value-at-risk of the tail model at level alpha.

    Equals the average of the value-at-risk over all levels below alpha;
    for this model the average collapses to
    ``(value_at_risk + scale - gamma * threshold) / (1 - gamma)``.  Like
    :func:`value_at_risk`, it is the sample's ``cvar_tail`` in
    ``estimators.estimate_rows``, bit for bit at any magnitude, and
    ``inf`` beyond the double range.
    """
    return _forms_at(params, alpha)[1]


def extremal_semideviation(params: TailParams, alpha: float,
                           sample_mean: float) -> float:
    """Closed-form extremal upper-semideviation of the tail model.

    This is the tail integral of ``max(z - sample_mean, 0)`` over the worst
    ``alpha`` fraction of the model's outcomes, which collapses to
    ``alpha * (cvar - sample_mean)`` whenever the value-at-risk is at least
    the sample mean.  On the fit and mean of a sample of any magnitude it
    is ``rho_evt`` of ``estimators.evt_estimate``, bit for bit: finite
    wherever its value is, also where the VaR and the CVaR overflow, at a
    tiny ``alpha`` or for parameters near the top of the double range.

    Raises
    ------
    AssumptionViolation
        If ``value_at_risk(params, alpha) < sample_mean``; callers that must
        not abort (e.g. the benchmark harness) check the hypothesis first
        and record a flag instead.
    """
    return _forms_at(params, alpha, sample_mean, "the closed form does not apply")[2]
