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
    return _like(u, _var(params.threshold, params.scale, params.gamma, r))


def _var(threshold, scale, gamma, r):
    """Tail-branch quantile at the survival ratio ``r``; a ufunc over arrays.

    At ``r = m * alpha / k`` it is the model value-at-risk, the
    (1 - alpha)-quantile of the continuous tail branch:
    ``threshold + scale * ((r ** -gamma) - 1) / gamma``, or
    ``threshold - scale * log(r)`` for shapes within ``GAMMA_NEAR_ZERO``
    of zero, both in the stable ``expm1``/``log`` form.
    """
    log_r = np.log(r)
    near_zero = np.abs(gamma) < GAMMA_NEAR_ZERO
    # Near-zero rows divide by gamma + 1, and the select throws them away.
    return np.where(near_zero, threshold - scale * log_r,
                    threshold + scale * np.expm1(-gamma * log_r) / (gamma + near_zero))[()]


def _cvar(var, threshold, scale, gamma):
    """Model CVaR from its value-at-risk; a ufunc over arrays."""
    return (var + scale - gamma * threshold) / (1.0 - gamma)


def _semideviation(cvar_value, sample_mean, alpha):
    """``alpha * (cvar - sample_mean)``, valid when VaR >= sample_mean."""
    return alpha * (cvar_value - sample_mean)


def value_at_risk(params: TailParams, alpha: float) -> float:
    """The (1 - alpha)-quantile of the tail model, in closed form.

    Requires ``0 < alpha < k/m`` so that the level lands strictly inside
    the continuous tail branch (where the closed form is exact and the
    result lies in the interior of the support).
    """
    if not 0.0 < alpha < params.tail_fraction:
        raise ValueError(
            f"alpha must be in (0, k/m) = (0, {params.tail_fraction}), got {alpha}"
        )
    return float(_var(params.threshold, params.scale, params.gamma,
                      params.m * alpha / params.k))


def cvar(params: TailParams, alpha: float) -> float:
    """Conditional value-at-risk of the tail model at level alpha.

    Equals the average of the value-at-risk over all levels below alpha;
    for this model the average collapses to
    ``(value_at_risk + scale - gamma * threshold) / (1 - gamma)``.
    """
    v = value_at_risk(params, alpha)
    return float(_cvar(v, params.threshold, params.scale, params.gamma))


def extremal_semideviation(params: TailParams, alpha: float,
                           sample_mean: float) -> float:
    """Closed-form extremal upper-semideviation of the tail model.

    This is the tail integral of ``max(z - sample_mean, 0)`` over the worst
    ``alpha`` fraction of the model's outcomes, which collapses to
    ``alpha * (cvar - sample_mean)`` whenever the value-at-risk is at least
    the sample mean.

    Raises
    ------
    AssumptionViolation
        If ``value_at_risk(params, alpha) < sample_mean``; callers that must
        not abort (e.g. the benchmark harness) check the hypothesis first
        and record a flag instead.
    """
    v = _var_at_least_mean(params, alpha, sample_mean, "the closed form does not apply")
    c = _cvar(v, params.threshold, params.scale, params.gamma)
    return float(_semideviation(c, sample_mean, alpha))


def _var_at_least_mean(params: TailParams, alpha: float, sample_mean: float,
                       consequence: str) -> float:
    """The model value-at-risk, or :class:`AssumptionViolation` ending in
    ``consequence`` if it is below ``sample_mean``: the hypothesis of the
    closed form and of every check of it."""
    v = value_at_risk(params, alpha)
    if v < sample_mean:
        raise AssumptionViolation(
            f"value-at-risk {v} is below the sample mean {sample_mean}; {consequence}"
        )
    return v
