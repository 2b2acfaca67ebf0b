"""Model parameters, barrier curves, reference density and regime checks.

The model is the square-root diffusion with skew reflection on a moving
barrier ``lambda(t)``: parameters ``(sigma, delta, b, p)`` plus an optional
double-square-root drift coefficient ``c``.  The barrier decomposes as
``lambda = beta + gamma`` with ``beta`` nonincreasing and ``gamma``
nondecreasing, which defines the moving domain ``x >= -gamma(t)`` and the
piecewise reference density used by the regime checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BNegative,
    DeltaBelowOne,
    NegativeCurve,
    NonIntegrableDerivative,
    NotNormalizable,
    POutOfRange,
    SigmaNonpositive,
)

__all__ = [
    "ModelParams",
    "Curve",
    "RegimeReport",
    "validate_params",
    "decompose_curve",
    "drift_integrand",
    "CURVE_KINDS",
    "builtin_curve",
    "curve_from_csv",
    "reference_density",
    "check_monotonicity",
    "stationary_density_constant_barrier",
]


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter tuple (sigma, delta, b, p[, dsr_c])."""

    sigma: float
    delta: float
    b: float
    p: float
    dsr_c: float | None = None

    def __post_init__(self):
        if not (self.sigma > 0):
            raise SigmaNonpositive(f"sigma must be positive, got {self.sigma}")
        if self.delta < 1:
            raise DeltaBelowOne(
                f"delta={self.delta} < 1 is no longer in the semimartingale regime "
                "and is not supported here"
            )
        if self.b < 0:
            raise BNegative(f"b must be nonnegative, got {self.b}")
        if abs(self.p) > 1:
            raise POutOfRange(
                f"p={self.p}: for |p| > 1 no solution exists -- the barrier local "
                "time would be identically zero, forcing the classical process"
            )
        if not (0 < self.p < 1):
            raise POutOfRange(
                f"p={self.p} must lie strictly in (0, 1); no construction is known "
                "for the extreme cases p = 0 and p = 1"
            )
        if self.dsr_c is not None and self.dsr_c < 0:
            raise POutOfRange(f"dsr_c must be nonnegative, got {self.dsr_c}")


def validate_params(sigma, delta, b, p, dsr_c=None) -> ModelParams:
    """Validate a raw parameter tuple; raises a typed error when out of regime."""
    return ModelParams(float(sigma), float(delta), float(b), float(p),
                       None if dsr_c is None else float(dsr_c))


@dataclass(frozen=True)
class Curve:
    """Barrier ``lambda(t)`` with its monotone decomposition on [0, T_max].

    ``beta``/``gamma`` are tabulated on the quadrature grid and evaluated by
    linear interpolation; ``lam`` and ``lam_deriv`` evaluate the analytic (or
    finite-differenced) curve directly.
    """

    grid: np.ndarray
    lambda_fn: Callable[[np.ndarray], np.ndarray]
    lambda_deriv: Callable[[np.ndarray], np.ndarray]
    beta_vals: np.ndarray
    gamma_vals: np.ndarray

    def lam(self, t):
        return self.lambda_fn(np.asarray(t, dtype=float))

    def beta(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid, self.beta_vals)

    def gamma(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid, self.gamma_vals)

    def gamma_deriv(self, t):
        """(lambda')^+ -- the weak derivative of the increasing part."""
        d = np.asarray(self.lambda_deriv(np.asarray(t, dtype=float)), dtype=float)
        return np.maximum(d, 0.0)


def drift_integrand(curve: Curve, params: ModelParams, t) -> np.ndarray:
    """h(t) = (8*gamma'(t) + sigma^2*b*gamma(t)) / (4*sigma).

    The drift the change of measure between the frames X and Y removes (see
    :mod:`skewdiff.girsanov`).  With ``params.dsr_c`` set, the b*gamma term
    is replaced by the constant c (the double-square-root drift variant).
    """
    t = np.asarray(t, dtype=float)
    gp = np.asarray(curve.gamma_deriv(t), dtype=float)
    if params.dsr_c is not None:
        extra = params.sigma ** 2 * params.dsr_c * np.ones_like(t)
    else:
        extra = params.sigma ** 2 * params.b * np.asarray(curve.gamma(t), dtype=float)
    return (8.0 * gp + extra) / (4.0 * params.sigma)


def decompose_curve(lambda_fn, lambda_deriv, T_max, quad_step=None) -> Curve:
    """Split ``lambda`` into decreasing ``beta`` plus increasing ``gamma``.

    ``beta(t) = lambda(0) - int_0^t (lambda')^- ds`` and
    ``gamma(t) = int_0^t (lambda')^+ ds``, by composite trapezoid quadrature
    with step ``quad_step`` (default ``1e-4 * T_max``).
    """
    T_max = float(T_max)
    if quad_step is None:
        quad_step = 1e-4 * T_max
    n = max(2, int(round(T_max / quad_step)) + 1)
    grid = np.linspace(0.0, T_max, n)

    lam = np.asarray(lambda_fn(grid), dtype=float)
    if not np.all(np.isfinite(lam)):
        raise NonIntegrableDerivative("lambda evaluates to non-finite values")
    bad = np.nonzero(lam < 0)[0]
    if bad.size:
        t_bad = grid[bad[0]]
        raise NegativeCurve(f"lambda({t_bad:.6g}) = {lam[bad[0]]:.6g} < 0")

    d = np.asarray(lambda_deriv(grid), dtype=float)
    if not np.all(np.isfinite(d)):
        raise NonIntegrableDerivative("lambda' evaluates to non-finite values")

    pos = np.maximum(d, 0.0)
    neg = np.maximum(-d, 0.0)
    dt = np.diff(grid)
    gamma = np.concatenate([[0.0], np.cumsum(0.5 * (pos[:-1] + pos[1:]) * dt)])
    beta = lam[0] - np.concatenate([[0.0], np.cumsum(0.5 * (neg[:-1] + neg[1:]) * dt)])
    return Curve(grid=grid, lambda_fn=lambda_fn, lambda_deriv=lambda_deriv,
                 beta_vals=beta, gamma_vals=gamma)


# Each builtin curve kind: its parameters with their defaults, then lambda
# and lambda' as functions of (t, *parameters in that order)
CURVE_KINDS = {
    "constant": ({"level": 1.0},
                 lambda t, level: np.full_like(t, level),
                 lambda t, level: np.zeros_like(t)),
    "linear": ({"intercept": 1.0, "slope": 0.0},
               lambda t, intercept, slope: intercept + slope * t,
               lambda t, intercept, slope: np.full_like(t, slope)),
    "exp-decay": ({"level": 1.0, "rate": 1.0},
                  lambda t, level, rate: level * np.exp(-rate * t),
                  lambda t, level, rate: -rate * level * np.exp(-rate * t)),
    "sinusoidal": ({"level": 1.0, "amplitude": 0.5, "frequency": 1.0,
                    "phase": 0.0},
                   lambda t, level, amp, freq, phase:
                       level + amp * np.sin(freq * t + phase),
                   lambda t, level, amp, freq, phase:
                       amp * freq * np.cos(freq * t + phase)),
}


def builtin_curve(name, T_max, quad_step=None, **kw) -> Curve:
    """The ``CURVE_KINDS`` barrier ``name``; unset parameters take defaults."""
    if name not in CURVE_KINDS:
        raise ValueError(f"unknown builtin curve {name!r}")
    defaults, lam, dlam = CURVE_KINDS[name]
    unknown = sorted(set(kw) - set(defaults))
    if unknown:
        raise ValueError(f"builtin curve {name!r} has no parameter {unknown}")
    args = [float(kw.get(key, value)) for key, value in defaults.items()]
    fn = lambda t: lam(np.asarray(t, dtype=float), *args)
    dfn = lambda t: dlam(np.asarray(t, dtype=float), *args)
    return decompose_curve(fn, dfn, T_max, quad_step)


def curve_from_csv(path, T_max=None) -> Curve:
    """Load a sampled barrier from a two-column CSV (t, lambda(t)).

    The curve is interpolated linearly and differentiated by centered finite
    differences on the sample grid.  ``T_max`` (default: the last sample
    time) may not lie past the data: interpolation would hold the last value.
    """
    ts, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("t", "time"):
                continue
            ts.append(float(row[0]))
            vs.append(float(row[1]))
    ts = np.asarray(ts)
    vs = np.asarray(vs)
    order = np.argsort(ts)
    ts, vs = ts[order], vs[order]
    if T_max is None:
        T_max = float(ts[-1])
    elif T_max > ts[-1]:
        raise ValueError(f"curve data end at t = {ts[-1]:g}, before "
                         f"T_max = {T_max:g}")
    dv = np.gradient(vs, ts)
    fn = lambda t: np.interp(np.asarray(t, dtype=float), ts, vs)
    dfn = lambda t: np.interp(np.asarray(t, dtype=float), ts, dv)
    return decompose_curve(fn, dfn, T_max)


def reference_density(params: ModelParams, curve: Curve, t, x):
    """Piecewise weight times ``|x+gamma|^(delta-1) * exp(-b x^2 / 2)``.

    Zero for ``x < -gamma(t)`` (outside the moving domain).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    gam = curve.gamma(t)
    beta = curve.beta(t)
    weight = np.where(x >= beta, params.p,
                      np.where(x >= -gam, 1.0 - params.p, 0.0))
    power = np.abs(x + gam) ** (params.delta - 1.0)
    out = weight * power * np.exp(-params.b * x * x / 2.0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class RegimeReport:
    monotone_ok: bool
    failures: list


def check_monotonicity(params: ModelParams, curve: Curve, t_grid,
                       x_grid) -> RegimeReport:
    """Check the reference density increases in t on finite grids.

    ``monotone_ok`` is true iff ``rho(s,x) <= rho(t,x)*(1+1e-12)`` for all
    consecutive ``s <= t`` in ``t_grid`` and ``x`` in the moving domain at
    time ``s``.  Violations are collected as witnesses, not raised.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    failures = []
    for s, t in zip(t_grid[:-1], t_grid[1:]):
        in_domain = x_grid >= -float(curve.gamma(s))
        xs = x_grid[in_domain]
        if xs.size == 0:
            continue
        rho_s = reference_density(params, curve, np.full_like(xs, s), xs)
        rho_t = reference_density(params, curve, np.full_like(xs, t), xs)
        viol = rho_s > rho_t * (1.0 + 1e-12)
        for x, rs, rt in zip(xs[viol], np.atleast_1d(rho_s)[viol],
                             np.atleast_1d(rho_t)[viol]):
            failures.append(((float(s), float(t)), float(x), (float(rs), float(rt))))
    return RegimeReport(monotone_ok=not failures, failures=failures)


def stationary_density_constant_barrier(params: ModelParams, c, x):
    """Invariant density of the squared process for a constant barrier ``c``.

    Proportional to ``x^(delta/2-1) * exp(-b x/2) * ((1-p) below c, p above)``;
    the normalization is two incomplete gamma masses.  Requires b > 0.
    """
    from .analytics import _gamma_mass  # analytics imports this module

    if params.b == 0:
        raise NotNormalizable("stationary density requires b > 0")
    c = float(c)
    a = params.delta / 2.0

    def unnorm(v):
        w = np.where(np.asarray(v) >= c, params.p, 1.0 - params.p)
        return w * np.asarray(v) ** (a - 1.0) * np.exp(-params.b * np.asarray(v) / 2.0)

    z = ((1.0 - params.p) * _gamma_mass(params.delta, params.b, 0.0, c)
         + params.p * _gamma_mass(params.delta, params.b, c, np.inf))
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, unnorm(np.maximum(x, 0.0)) / z, 0.0)
    if out.ndim == 0:
        return float(out)
    return out
