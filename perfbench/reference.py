"""Independent numpy reference for one `estimate` call.

Written from the method's definition, not from the package: the threshold
is the order statistic ``ceil(0.9 m)``, the GPD shape and scale come from
the first two probability-weighted moments of the strict exceedances, and
VaR, CVaR and the semideviation are the tail model's closed forms.  The
result uses the keys of the ``evtrisk estimate`` JSON report.
"""

from __future__ import annotations

import math

import numpy as np

# Agreement required between the program and this reference: each number
# must match to RTOL relative to the larger of its own magnitude and the
# data's largest magnitude (so values near zero are not held to a
# tolerance below the data's own rounding).
RTOL = 1e-9
GAMMA_NEAR_ZERO = 1e-10
THRESHOLD_NUM, THRESHOLD_DEN = 9, 10            # threshold quantile 0.9

FLOAT_KEYS = ("s", "gamma", "g_s", "mu_m", "var_theta", "cvar_theta",
              "rho_evt", "rho_typical")
INT_KEYS = ("m", "k")
FLAG_KEYS = ("alpha_lt_k_over_m", "var_ge_mean", "gamma_lt_1")


def reference_estimate(data, alpha: float) -> dict | None:
    """The expected report, or None when fewer than 2 values exceed the threshold."""
    y = np.sort(np.asarray(data, dtype=float))
    m = y.size
    mean = float(y.mean())
    idx = -(-THRESHOLD_NUM * m // THRESHOLD_DEN)     # ceil(0.9 m), exact
    s = float(y[idx - 1])
    k = int(np.count_nonzero(y > s))
    if k < 2:
        return None
    excess = y[::-1][:k] - s                         # largest first
    p = float(excess.mean())
    q = float(np.mean(np.arange(k) / k * excess))
    gamma = (p - 4.0 * q) / (p - 2.0 * q)
    scale = 2.0 * p * q / (p - 2.0 * q)
    rho_typical = float(np.maximum(y[m - k - 1:] - mean, 0.0).sum() / m)

    alpha_ok = alpha < k / m
    gamma_ok = gamma < 1.0
    var = cvar = rho = None
    var_ok = False
    if alpha_ok and gamma_ok:
        log_r = math.log(m * alpha / k)
        if abs(gamma) < GAMMA_NEAR_ZERO:
            var = s - scale * log_r
        else:
            var = s + scale * math.expm1(-gamma * log_r) / gamma
        cvar = (var + scale - gamma * s) / (1.0 - gamma)
        var_ok = var >= mean
        if var_ok:
            rho = alpha * (cvar - mean)
    return {
        "alpha": alpha, "m": m, "k": k, "s": s, "gamma": gamma, "g_s": scale,
        "mu_m": mean, "var_theta": var, "cvar_theta": cvar, "rho_evt": rho,
        "rho_typical": rho_typical,
        "assumptions": {"alpha_lt_k_over_m": alpha_ok, "var_ge_mean": var_ok,
                        "gamma_lt_1": gamma_ok},
        "tied_threshold": int(np.count_nonzero(y == s)) > 1,
    }


def mismatches(got: dict, want: dict, data_scale: float) -> list[str]:
    """Fields where a report in the JSON layout differs from the reference."""
    bad = [key for key in INT_KEYS if got.get(key) != want[key]]
    flags = got.get("assumptions", {})
    bad += [key for key in FLAG_KEYS if flags.get(key) != want["assumptions"][key]]
    for key in FLOAT_KEYS:
        a, b = got.get(key), want[key]
        if (a is None) != (b is None):
            bad.append(key)
        elif a is not None:
            span = max(abs(a), abs(b), data_scale, 1.0 if key == "gamma" else 0.0)
            if not abs(a - b) <= RTOL * span:
                bad.append(key)
    if ("tied-threshold" in got.get("warnings", ())) != want["tied_threshold"]:
        bad.append("warnings")
    return bad
