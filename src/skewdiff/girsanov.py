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
from dataclasses import dataclass

import numpy as np

from .analytics import mean_se
from .errors import DegenerateWeights, MissingDraws, WrongFrame
from .model import Curve, ModelParams, drift_integrand
from .paths import Frame, Path

__all__ = [
    "GirsanovWeight",
    "girsanov_weight",
    "girsanov_log_weights",
    "log_weights_from_sums",
    "drift_integrand",
    "shifted_brownian",
    "reweighted_expectation",
    "self_normalized",
    "ReweightedEstimate",
]


@dataclass(frozen=True)
class GirsanovWeight:
    log_weight: float
    stochastic_term: float
    compensator_term: float

    @property
    def weight(self) -> float:
        return math.exp(self.log_weight)


def _check_path(path: Path):
    if path.frame is not Frame.X:
        raise WrongFrame(f"expected frame X, got {path.frame.name}")
    if path.gauss is None:
        raise MissingDraws("path does not retain its Gaussian draws")


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


def girsanov_weight(x_path: Path, curve: Curve,
                    params: ModelParams) -> GirsanovWeight:
    """Density dQ/dP along one X-frame path up to its horizon."""
    _check_path(x_path)
    logs, stoch, comp = girsanov_log_weights(x_path.gauss[None, :], curve,
                                             params, x_path.grid)
    return GirsanovWeight(log_weight=float(logs[0]),
                          stochastic_term=float(stoch[0]),
                          compensator_term=float(comp[0]))


def shifted_brownian(x_path: Path, curve: Curve, params: ModelParams) -> np.ndarray:
    """W on the grid: the path's Brownian motion plus the removed drift."""
    _check_path(x_path)
    times = x_path.grid.times()
    dt = x_path.grid.dt
    b_increments = math.sqrt(dt) * x_path.gauss
    b = np.concatenate([[0.0], np.cumsum(b_increments)])
    h = drift_integrand(curve, params, times)
    # cumulative trapezoid of h
    drift = np.concatenate([[0.0], np.cumsum(0.5 * (h[:-1] + h[1:]) * dt)])
    return b + drift


@dataclass
class ReweightedEstimate:
    estimate: float          # self-normalized
    std_error: float
    unnormalized_mean: float
    unnormalized_se: float
    mean_weight: float
    mean_weight_se: float
    ess: float
    n: int


def self_normalized(w: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Self-normalized estimate sum(w*f)/sum(w) and its delta-method SE.

    The ratio estimator of importance sampling (Owen, *Monte Carlo theory,
    methods and examples*, ch. 9), from weights and payoff values.
    """
    est = float(np.sum(w * f) / np.sum(w))
    se = float(np.std(w * (f - est), ddof=1) / math.sqrt(w.size)
               / float(np.mean(w)))
    return est, se


def reweighted_expectation(payoff, x_paths: list[Path],
                           curve: Curve) -> ReweightedEstimate:
    """Importance-sampling estimate of E[f(Y_T)] from X-frame paths.

    Self-normalized mean with delta-method standard error, plus the
    unnormalized mean (whose expectation-one weight doubles as the
    martingale diagnostic).
    """
    if not x_paths:
        raise ValueError("empty path batch")
    params = x_paths[0].params
    grid = x_paths[0].grid
    gam_T = float(curve.gamma(grid.T))

    gauss = np.stack([p.gauss for p in x_paths])
    for p in x_paths:
        _check_path(p)
    logs, _, _ = girsanov_log_weights(gauss, curve, params, grid)
    w = np.exp(logs)
    terminals = np.array([p.values[-1] for p in x_paths]) + gam_T
    f = np.asarray(payoff(terminals), dtype=float)
    if not np.all(np.isfinite(f * w)):
        raise ValueError("payoff * weight overflowed")

    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    if ess < 10:
        raise DegenerateWeights(f"effective sample size {ess:.2f} < 10")
    wbar, wbar_se = mean_se(w)
    est, se = self_normalized(w, f)
    un_mean, un_se = mean_se(w * f)
    return ReweightedEstimate(estimate=est, std_error=se,
                              unnormalized_mean=un_mean, unnormalized_se=un_se,
                              mean_weight=wbar, mean_weight_se=wbar_se,
                              ess=ess, n=w.size)
