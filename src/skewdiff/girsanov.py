"""Change of measure turning the moving-frame process X into Y = X + gamma.

The density removes the deterministic drift h(s) = (8*gamma'(s) +
sigma^2*b*gamma(s)) / (4*sigma):  log dQ/dP = -int h dB - (1/2) int h^2 ds.
The stochastic integral uses left-endpoint (Ito) sums of h(t_k)*g_k over
the Gaussian draws, added left to right: the path engine accumulates them in
its step loop (``PathBatch.girsanov_sums``), and retained draws give the
same sums bit for bit.  The compensator uses the trapezoid rule.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Curve, ModelParams, drift_integrand

__all__ = [
    "girsanov_log_weights",
    "log_weights_from_sums",
    "self_normalized",
]


def log_weights_from_sums(sums: np.ndarray, curve: Curve,
                          params: ModelParams, grid):
    """Log-weights from each path's sum of h(t_k)*g_k over its steps.

    Returns (log_weight, stochastic_term, compensator_term) arrays.
    """
    dt = grid.dt
    h_all = drift_integrand(curve, params, grid.times())
    # dB_j = sqrt(dt) * g_j, left-endpoint evaluation of h
    stoch = -math.sqrt(dt) * sums
    comp = -0.5 * float(np.trapezoid(h_all ** 2, dx=dt))
    return stoch + comp, stoch, np.full_like(stoch, comp)


def girsanov_log_weights(gauss: np.ndarray, curve: Curve, params: ModelParams,
                         grid):
    """Vectorized log-weights for a (n_paths, n_steps) matrix of draws.

    Returns (log_weight, stochastic_term, compensator_term) arrays.
    """
    h_left = drift_integrand(curve, params, grid.times()[:-1])
    # a running sum, as the path engine accumulates it
    sums = np.cumsum(gauss * h_left, axis=1)[:, -1]
    return log_weights_from_sums(sums, curve, params, grid)


def self_normalized(w: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Self-normalized estimate sum(w*f)/sum(w) and its delta-method SE.

    The ratio estimator of importance sampling (Owen, *Monte Carlo theory,
    methods and examples*, ch. 9), from weights and payoff values.
    """
    est = float(np.sum(w * f) / np.sum(w))
    se = float(np.std(w * (f - est), ddof=1) / math.sqrt(w.size)
               / float(np.mean(w)))
    return est, se
