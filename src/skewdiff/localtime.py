"""Semimartingale local-time estimators along discretized paths.

Two routes: occupation-band estimators (upper / lower / symmetric, using the
quadratic variation rate (sigma^2/4) of the square-root frame) and the
residual of Tanaka's formula with the point-symmetric sign (sgn(0) = 0).
The symmetric local time is always (upper + lower)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch
from .model import Curve
from .paths import Frame, Path, PathBatch

__all__ = [
    "LocalTimeEstimate",
    "band_increments",
    "occupation_rows",
    "relloc_rows",
    "default_band",
    "occupation_estimate",
    "tanaka_residual",
    "check_relloc",
    "RellocReport",
]


@dataclass
class LocalTimeEstimate:
    """Accumulated local-time trajectories on the path's grid."""

    times: np.ndarray
    upper: np.ndarray | None
    lower: np.ndarray | None
    symmetric: np.ndarray


def _barrier_on_grid(path: Path, barrier) -> np.ndarray:
    t = path.grid.times()
    if callable(barrier):
        return np.asarray(barrier(t), dtype=float) * np.ones_like(t)
    return np.full_like(t, float(barrier))


def _check_frame(path: Path):
    if path.frame not in (Frame.Y, Frame.X):
        raise FrameMismatch(f"occupation estimators expect frame Y or X, "
                            f"got {path.frame.name}")


def band_increments(diff, sigma: float, dt: float, eps: float):
    """Upper and lower occupation-band increments, elementwise.

    ``diff`` is the value minus the barrier at each step's left endpoint: a
    step in [0, eps) adds (sigma^2/4)*dt/eps to the upper local time, one in
    (-eps, 0] to the lower.
    """
    rate = sigma ** 2 / 4.0 * dt / eps
    d_up = np.where((diff >= 0.0) & (diff < eps), rate, 0.0)
    d_lo = np.where((diff > -eps) & (diff <= 0.0), rate, 0.0)
    return d_up, d_lo


def occupation_rows(values, lam, sigma: float, dt: float, eps: float):
    """Cumulative upper and lower occupation along the last axis of ``values``.

    Rows of n+1 points, ``lam`` the barrier at their n left endpoints; both
    results start at 0 and are sequential sums.
    """
    d_up, d_lo = band_increments(values[..., :-1] - lam, sigma, dt, eps)
    zero = np.zeros(values.shape[:-1] + (1,))
    return (np.concatenate([zero, np.cumsum(d_up, axis=-1)], axis=-1),
            np.concatenate([zero, np.cumsum(d_lo, axis=-1)], axis=-1))


def occupation_estimate(path: Path, barrier, eps: float) -> LocalTimeEstimate:
    """Upper, lower and symmetric occupation estimates of a Y/X-frame path."""
    _check_frame(path)
    if eps <= 0:
        raise ValueError("eps must be positive")
    kappa = _barrier_on_grid(path, barrier)
    up, lo = occupation_rows(path.values, kappa[:-1], path.params.sigma,
                             path.grid.dt, eps)
    return LocalTimeEstimate(times=path.grid.times(), upper=up, lower=lo,
                             symmetric=(up + lo) / 2.0)


def default_band(path: Path | PathBatch) -> float:
    """One one-step diffusion standard deviation, (sigma/2)*sqrt(dt)."""
    return path.params.sigma / 2.0 * np.sqrt(path.grid.dt)


def tanaka_residual(path: Path, barrier) -> LocalTimeEstimate:
    """Symmetric local time as the residual of Tanaka's formula.

    ``sym[k] = |X_k - kappa_k| - |X_0 - kappa_0|
    - sum_{j<k} sgn(X_j - kappa_j) * d(X - kappa)_j`` with the
    point-symmetric sign and left-endpoint (non-anticipating) sums.

    No experiment calls it.  It is kept as the independent oracle of the
    tests, which check :func:`occupation_estimate`'s symmetric local time
    against it: a second route to the same quantity, sharing no band code.
    """
    _check_frame(path)
    kappa = _barrier_on_grid(path, barrier)
    diff = path.values - kappa
    signs = np.sign(diff[:-1])  # sgn(0) = 0
    increments = np.diff(diff)
    zero = np.zeros(1)
    integral = np.concatenate([zero, np.cumsum(signs * increments)])
    sym = np.abs(diff) - abs(diff[0]) - integral
    return LocalTimeEstimate(times=path.grid.times(), upper=None, lower=None,
                             symmetric=sym)


@dataclass
class RellocReport:
    """Residual of the local-time product identity 2*sqrt(R) dl(Y) = dl(R)."""

    r_terminal: float   # symmetric local time of R at lambda^2
    y_weighted: float   # sum of 2*sqrt(R) * dl(Y - lambda)
    residual: float


def relloc_rows(r, y, lam, sigma: float, dt: float, eps: float):
    """Both sides of the identity 2*sqrt(R) dl(Y) = dl(R), per row.

    ``r`` and ``y`` hold the same paths in the R and Y frames, ``lam`` the
    barrier at the left endpoints.  The R-frame band, eps_R(t) =
    max(2*lambda(t)*eps, eps^2), targets the same barrier neighborhood.
    Returns the R-frame local time at lambda^2, the 2*sqrt(R)-weighted
    Y-frame one and their relative residual.
    """
    r, y = r[..., :-1], y[..., :-1]
    eps_r = np.maximum(2.0 * lam * eps, eps * eps)
    # d<R> = sigma^2 * R dt; symmetric band of half-width eps_r
    a = np.sum(np.where(np.abs(r - lam ** 2) < eps_r,
                        sigma ** 2 * r * dt / (2.0 * eps_r), 0.0), axis=-1)
    d_up, d_lo = band_increments(y - lam, sigma, dt, eps)
    b = np.sum(2.0 * np.sqrt(r) * ((d_up + d_lo) / 2.0), axis=-1)
    return a, b, np.abs(a - b) / np.maximum(a, 1e-300)


def check_relloc(r_path: Path, y_path: Path, curve: Curve,
                 eps: float) -> RellocReport:
    """Compare the R-frame local time with the 2*sqrt(R)-weighted Y-frame one."""
    if r_path.frame is not Frame.R or y_path.frame is not Frame.Y:
        raise FrameMismatch("check_relloc expects (frame R, frame Y)")
    if r_path.grid != y_path.grid:
        raise FrameMismatch("paths must share the time grid")
    if not np.allclose(r_path.values, y_path.values ** 2, rtol=1e-10, atol=1e-12):
        raise FrameMismatch("r_path is not the elementwise square of y_path")
    t = y_path.grid.times()[:-1]
    lam = np.asarray(curve.lam(t), dtype=float) * np.ones_like(t)
    a, b, residual = relloc_rows(r_path.values, y_path.values, lam,
                                 y_path.params.sigma, y_path.grid.dt, eps)
    return RellocReport(r_terminal=float(a), y_weighted=float(b),
                        residual=float(residual))
