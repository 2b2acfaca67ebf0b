"""Named verification experiments composing the simulation and oracle modules.

Each experiment returns a report dictionary (config echo, named metrics,
per-criterion pass/fail with the tolerance used) plus tidy tables for
plotting.  All randomness flows from the config seed through splittable
per-path streams, so reports are reproducible across runs and thread counts.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .analytics import (
    besq_terminal_cdf,
    cir_moments,
    ks_test,
    mean_se,
    stationary_min_samples,
    stationary_test,
)
from .errors import (
    ConfigInvalid,
    NegativeCurve,
    NonIntegrableDerivative,
    ParamError,
    UnknownKind,
)
# check_relloc, girsanov_log_weights, occupation_estimate, simulate_paths and
# square_path are no longer called here; perfbench/layers.py still hooks
# them in this module
from .girsanov import (
    girsanov_log_weights,
    log_weights_from_sums,
    self_normalized,
)
from .localtime import (
    check_relloc,
    default_band,
    occupation_estimate,
    occupation_rows,
    relloc_rows,
)
from .model import (
    CURVE_KINDS,
    Curve,
    ModelParams,
    builtin_curve,
    check_monotonicity,
    curve_from_csv,
    stationary_density_constant_barrier,
    validate_params,
)
from .paths import (
    Frame,
    GridSpec,
    long_run_sample_count,
    simulate_chunks,
    simulate_long_run_squared,
    simulate_paths,
    simulate_terminals,
    square_path,
)
from .pde import PdeGrid, compare_mc_pde, solve_backward


def _fail(path, problem):
    # each field rule takes (value, path) and calls this where value breaks it
    raise ConfigInvalid(f"config error at {path or '<root>'}: {problem}")


def _number(low=-math.inf, *, above=False, below=math.inf, integer=False,
            null=False):
    """Rule: a JSON number (a JSON integer where ``integer``; also null
    where ``null``), finite as a float, at least ``low`` (above it where
    ``above``) and below ``below``."""
    def rule(value, path):
        if value is None and null:
            return
        kind = int if integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            _fail(path, "expected an integer" if integer else "expected a number")
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            _fail(path, "not a finite number")
        if value < low or above and value == low or not value < below:
            _fail(path, f"must be {'>' if above else '>='} {low:g}"
                  + (f" and < {below:g}" if below < math.inf else ""))
    return rule


def _object(rules=None, required=()):
    """Rule: a JSON object; with ``rules``, a closed one, each key taking
    the rule of its name, that holds every ``required`` key."""
    def rule(value, path):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        for key in required:
            if key not in value:
                _fail(path, f"{key!r} is required")
        if rules is None:
            return
        for key, item in value.items():
            where = f"{path}/{key}" if path else str(key)
            if key not in rules:
                _fail(where, "unknown field")
            rules[key](item, where)
    return rule


def _string(value, path):
    if not isinstance(value, str):
        _fail(path, "expected a string")


def _experiment_name(value, path):
    if value not in EXPERIMENTS:
        _fail(path, f"unknown experiment; known: {', '.join(EXPERIMENTS)}")


def _positive_list(value, path):
    if not (isinstance(value, list) and value):
        _fail(path, "expected a non-empty array")
    for i, item in enumerate(value):
        _POSITIVE(item, f"{path}/{i}")


_NUMBER = _number()
_POSITIVE = _number(0, above=True)
_STEPS = _number(1, integer=True)

_CHECK_CONFIG = _object({
    "experiment": _experiment_name,
    "seed": _number(0, integer=True),
    "n_paths": _STEPS,
    "params": _object({"sigma": _NUMBER, "delta": _NUMBER, "b": _NUMBER,
                       "p": _NUMBER, "dsr_c": _number(null=True)}),
    "curve": _object(),
    "grid": _object({"T": _POSITIVE, "n_steps": _STEPS}),
    # every state space starts at 0: Y, R and Z are nonnegative, and the
    # moving frame's lower edge -gamma(0) is 0
    "x0": _number(0),
    "options": _object(),
    "output_dir": _string,
}, required=("experiment", "seed"))


def _check_curve(curve):
    # a curve's kind names its fields, "csv" a sampled curve's; T_max is
    # the tabulation horizon (default: the grid's T)
    kind = _curve_kind(curve)
    known = [*CURVE_KINDS, "csv"]
    if kind not in known:
        _fail("curve/kind", f"unknown curve {kind!r}; known: {', '.join(known)}")
    fields = ({"csv": _string} if kind == "csv" else
              {"kind": _string, **dict.fromkeys(CURVE_KINDS[kind][0], _NUMBER)})
    _object({**fields, "T_max": _POSITIVE})(curve, "curve")


def default_config(experiment: str, seed: int = 0) -> dict:
    if experiment not in _RECORDS:
        raise ConfigInvalid(f"unknown experiment {experiment!r}")
    cfg = deepcopy(_RECORDS[experiment].defaults)
    cfg["experiment"] = experiment
    cfg["seed"] = seed
    return cfg


def _merge(base: dict, override: dict) -> dict:
    out = deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = deepcopy(v)
    return out


def _curve_kind(curve: dict):
    return "csv" if "csv" in curve else curve.get("kind")


def _build(cfg: dict) -> tuple[ModelParams, Curve, GridSpec]:
    """The model a merged config describes; ConfigInvalid if there is none."""
    try:
        params = validate_params(**cfg["params"])
    except ParamError as exc:
        raise ConfigInvalid(f"config error at params: {exc}") from exc
    grid = GridSpec(T=float(cfg["grid"]["T"]), n_steps=int(cfg["grid"]["n_steps"]))
    cspec = dict(cfg["curve"])
    t_max = float(cspec.pop("T_max", grid.T))
    if t_max < grid.T:
        raise ConfigInvalid(f"config error at curve/T_max: {t_max:g} lies "
                            f"below the grid's T = {grid.T:g}")
    try:
        if "csv" in cspec:
            curve = curve_from_csv(cspec["csv"], T_max=t_max)
        else:
            curve = builtin_curve(cspec.pop("kind"), t_max, **cspec)
    except (NegativeCurve, NonIntegrableDerivative, OSError, ValueError,
            IndexError) as exc:
        raise ConfigInvalid(f"config error at curve: {exc}") from exc
    return params, curve, grid


def _check_stationary(cfg, params, curve, grid):
    if not params.b > 0:
        raise ConfigInvalid("config error at params/b: stationary-skew needs "
                            "b > 0; for b = 0 there is no invariant law")
    opts = cfg["options"]
    n = long_run_sample_count(grid.n_steps, float(opts["burn_frac"]),
                              int(opts["thin"]))
    need = stationary_min_samples()
    if n < need:
        raise ConfigInvalid(f"config error at grid/n_steps: {grid.n_steps} "
                            f"steps leave {n} samples after burn-in and "
                            f"thinning; the stationary test needs >= {need}")


def _lam_blocks(curve, grid, points):
    # lambda at the grid's first ``points`` times, 4,096 at a time: freeing
    # an array the size of a long-run grid would raise malloc's mmap
    # threshold, and with it the peak memory of later runs in the process
    dt = grid.T / grid.n_steps
    for k in range(0, points, 4096):
        yield np.asarray(curve.lam(np.arange(k, min(k + 4096, points)) * dt))


def _check_classical(cfg, params, curve, grid):
    # the oracles are laws of the classical process, which the scheme runs
    # where p = 1/2 (a symmetric mirror) or lambda <= 0 (no mirror)
    if params.p != 0.5 and any(np.any(lam > 0) for lam in
                               _lam_blocks(curve, grid, grid.n_steps)):
        raise ConfigInvalid(f"config error at params/p: {cfg['experiment']} "
                            "checks the classical process; it needs p = 0.5 "
                            "or a barrier at 0")


def _check_constant_barrier(cfg, params, curve, grid):
    # the oracle holds the barrier at lambda(0) for the whole horizon
    lam0 = float(curve.lam(0.0))
    if any(np.any(lam != lam0) for lam in
           _lam_blocks(curve, grid, grid.n_steps + 1)):
        raise ConfigInvalid(f"config error at curve: {cfg['experiment']} "
                            "needs a constant barrier on [0, T]")


def _check_pde(cfg, params, curve, grid):
    opts = cfg["options"]
    x_max = float(opts["x_max"])
    if not max(opts["x0_list"]) < x_max:
        raise ConfigInvalid("config error at options/x0_list: each x0 must "
                            f"lie below x_max = {x_max:g}")
    # each x0 names its metrics and its criterion in its :g form
    if len({f"{x0:g}" for x0 in opts["x0_list"]}) < len(opts["x0_list"]):
        raise ConfigInvalid("config error at options/x0_list: two entries "
                            "print alike (format :g) and would share metrics")
    # the truncation check of solve_backward, made before anything runs
    if not float(curve.lam(0.0)) ** 2 < 0.8 * x_max:
        raise ConfigInvalid("config error at options/x_max: the squared "
                            "barrier must lie below 0.8 * x_max")


def _check_refines(cfg, params, curve, grid):
    if not cfg["options"]["coarse_n_steps"] < grid.n_steps:
        raise ConfigInvalid("config error at options/coarse_n_steps: it "
                            f"must lie below n_steps = {grid.n_steps}")


# dsr-demo's central difference step in T
_DSR_FD_H = 0.1


def _check_dsr(cfg, params, curve, grid):
    if params.dsr_c is None:
        raise ConfigInvalid("config error at params/dsr_c: dsr-demo needs "
                            "the drift constant c")
    if not _DSR_FD_H < grid.T:
        raise ConfigInvalid("config error at grid/T: dsr-demo's difference "
                            f"step {_DSR_FD_H:g} must lie below T = "
                            f"{grid.T:g}")


def _prepare(config: dict) -> tuple[dict, tuple[ModelParams, Curve, GridSpec]]:
    """The merged config and its model, or ConfigInvalid."""
    _CHECK_CONFIG(config, "")
    name = config["experiment"]
    record = _RECORDS[name]
    cfg = default_config(name)
    # an experiment reads exactly the fields its defaults hold
    unread = sorted(set(config) - set(cfg) - {"output_dir"})
    if unread:
        raise ConfigInvalid(f"config error at {unread[0]}: {name} does not "
                            "read this field")
    # a curve of another kind than the default's replaces it instead of
    # merging onto it
    curve = config.get("curve", {})
    if _curve_kind({**cfg["curve"], **curve}) != _curve_kind(cfg["curve"]):
        cfg["curve"] = {}
    cfg = _merge(cfg, config)
    _check_curve(cfg["curve"])
    if "options" in cfg:
        _object(record.options)(cfg["options"], "options")
    if "n_paths" in cfg and cfg["n_paths"] < record.min_paths:
        raise ConfigInvalid(f"config error at n_paths: {name} needs at least "
                            f"{record.min_paths} paths")
    model = _build(cfg)
    if name != "dsr-demo" and model[0].dsr_c is not None:
        raise ConfigInvalid(f"config error at params/dsr_c: {name} simulates "
                            "no double-square-root drift; only dsr-demo does")
    for check in record.relations:
        check(cfg, *model)
    return cfg, model


def normalize_config(config: dict) -> dict:
    """Validate a raw config document and merge it onto experiment defaults.

    The model the config describes is built and the relations between its
    fields are checked here too, so ``validate`` and ``run`` reject the
    same configs.
    """
    return _prepare(config)[0]


def _metric(value, std_error=None):
    out = {"value": float(value)}
    if std_error is not None:
        out["std_error"] = float(std_error)
    return out


def _criterion(name, passed, tolerance, detail):
    return {"name": name, "passed": bool(passed), "tolerance": tolerance,
            "detail": detail}


# --- individual experiments -------------------------------------------------

def _exp_cir_baseline(cfg, model, threads):
    params, curve, grid = model
    z0 = float(cfg["x0"])
    y_term = simulate_terminals(params, curve, Frame.Y, math.sqrt(z0), grid,
                                cfg["n_paths"], cfg["seed"], threads=threads)
    est, se = mean_se(y_term ** 2)
    target, _ = cir_moments(params, z0, grid.T)
    metrics = {"mean_estimate": _metric(est, se), "target_mean": _metric(target)}
    crit = [_criterion("mean within 3 SE of the first-moment ODE value",
                       abs(est - target) <= 3 * se, f"3*SE = {3 * se:.5g}",
                       f"|{est:.5f} - {target:.5f}| = {abs(est - target):.5f}")]
    return metrics, crit, {}


def _exp_besq_law(cfg, model, threads):
    params, curve, grid = model
    z0 = float(cfg["x0"])
    y_term = simulate_terminals(params, curve, Frame.Y, math.sqrt(z0), grid,
                                cfg["n_paths"], cfg["seed"], threads=threads)
    res = ks_test(y_term ** 2, besq_terminal_cdf(params, z0, grid.T))
    metrics = {"ks_statistic": _metric(res.statistic),
               "ks_p_value": _metric(res.p_value)}
    crit = [_criterion("KS distance to the noncentral chi-squared law <= 0.03",
                       res.statistic <= 0.03, "0.03",
                       f"KS = {res.statistic:.4f} (n = {res.n})")]
    return metrics, crit, {}


def _exp_stationary_skew(cfg, model, threads):
    params, curve, grid = model
    opts = cfg["options"]
    level = float(curve.lam(0.0))
    c = level ** 2
    samples = simulate_long_run_squared(
        params, level, float(cfg["x0"]), grid.dt, grid.n_steps, cfg["seed"],
        burn_frac=float(opts["burn_frac"]), thin=int(opts["thin"]))
    res = stationary_test(samples, params, c)
    rtol = 0.10
    metrics = {
        "gof_statistic": _metric(res.gof.statistic),
        "gof_p_value": _metric(res.gof.p_value),
        "autocorr_time": _metric(res.autocorr_time),
        "target_jump_ratio": _metric(res.target_ratio),
        "n_samples": _metric(res.gof.n),
    }
    if res.jump_ratio is None:
        ratio_ok = False
        ratio_detail = (f"no sample in the window {res.empty_window}, "
                        f"target = {res.target_ratio:.3f}")
    else:
        metrics["jump_ratio"] = _metric(res.jump_ratio)
        ratio_ok = abs(res.jump_ratio / res.target_ratio - 1.0) <= rtol
        ratio_detail = (f"ratio = {res.jump_ratio:.3f}, "
                        f"target = {res.target_ratio:.3f}")
    crit = [
        _criterion("chi-squared GOF against the invariant density passes",
                   res.gof.passed, f"level = {res.gof.level}",
                   f"p-value = {res.gof.p_value:.4f}"),
        _criterion("density jump ratio at the barrier within 10% of p/(1-p)",
                   ratio_ok, f"relative {rtol}", ratio_detail),
    ]
    # histogram vs target for plotting
    hist, edges = np.histogram(samples, bins=60, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = stationary_density_constant_barrier(params, c, centers)
    plot = {"stationary-hist": (["x", "empirical", "target"],
                                list(zip(centers, hist, target)))}
    return metrics, crit, plot


def _band_rows(params, curve, cfg, n_steps, threads):
    """Each path's Y-frame values on an n_steps grid, in path order, with
    the band arguments of the localtime row routines that follow them.
    Every path is copied into one reused row of n+1 points."""
    grid = GridSpec(T=float(cfg["grid"]["T"]), n_steps=n_steps)
    t = grid.times()[:-1]
    lam = np.asarray(curve.lam(t), dtype=float) * np.ones_like(t)
    y = np.empty(n_steps + 1)
    for batch in simulate_chunks(params, curve, Frame.Y, float(cfg["x0"]),
                                 grid, cfg["n_paths"], cfg["seed"],
                                 keep_values=True, threads=threads):
        band = (lam, params.sigma, grid.dt, default_band(batch))
        for i, terminal in enumerate(batch.terminals):
            y[:-1] = batch.values[:, i]
            y[-1] = terminal
            yield y, band


def _exp_localtime_ratios(cfg, model, threads):
    params, curve, grid = model
    rtol = 0.10
    ratios, example = [], None
    for n_steps in (grid.n_steps, int(cfg["options"]["coarse_n_steps"])):
        totals = []
        for y, band in _band_rows(params, curve, cfg, n_steps, threads):
            up, lo = occupation_rows(y, *band)
            if example is None:
                example = (grid.times(), up, lo, (up + lo) / 2.0)
            totals.append((up[-1], lo[-1]))
        up, lo = np.array(totals).T
        # left folds over the paths, as a running sum of per-path totals
        n = len(totals)
        sym = np.cumsum((up + lo) / 2.0)[-1] / n
        ratios += [np.cumsum(up)[-1] / n / sym, np.cumsum(lo)[-1] / n / sym]
    r_up, r_lo, r_up_c, r_lo_c = ratios
    t_up, t_lo = 2 * params.p, 2 * (1 - params.p)
    err_f = abs(r_up / t_up - 1) + abs(r_lo / t_lo - 1)
    err_c = abs(r_up_c / t_up - 1) + abs(r_lo_c / t_lo - 1)
    metrics = {
        "upper_ratio": _metric(r_up), "lower_ratio": _metric(r_lo),
        "upper_ratio_coarse": _metric(r_up_c),
        "lower_ratio_coarse": _metric(r_lo_c),
        "target_upper": _metric(t_up), "target_lower": _metric(t_lo),
        "combined_error_fine": _metric(err_f),
        "combined_error_coarse": _metric(err_c),
    }
    crit = [
        _criterion("upper/symmetric ratio within 10% of 2p",
                   abs(r_up / t_up - 1) <= rtol, f"relative {rtol}",
                   f"{r_up:.4f} vs {t_up}"),
        _criterion("lower/symmetric ratio within 10% of 2(1-p)",
                   abs(r_lo / t_lo - 1) <= rtol, f"relative {rtol}",
                   f"{r_lo:.4f} vs {t_lo}"),
        _criterion("ratio error decreases under dt refinement",
                   err_f < err_c, "strict decrease",
                   f"fine {err_f:.4f} < coarse {err_c:.4f}"),
    ]
    plot = {"localtime": (["t", "upper", "lower", "symmetric"],
                          list(zip(*example)))}
    return metrics, crit, plot


def _exp_relloc_identity(cfg, model, threads):
    params, curve, grid = model
    max_res = 0.10
    res_f, res_c = [
        float(np.mean([relloc_rows(y ** 2, y, *band)[2]
                       for y, band in _band_rows(params, curve, cfg, n_steps,
                                                 threads)]))
        for n_steps in (grid.n_steps, int(cfg["options"]["coarse_n_steps"]))]
    metrics = {"mean_residual_fine": _metric(res_f),
               "mean_residual_coarse": _metric(res_c)}
    crit = [
        _criterion("mean relative residual of the product identity <= 0.10",
                   res_f <= max_res, f"{max_res}", f"residual = {res_f:.4f}"),
        _criterion("residual decreases under dt refinement",
                   res_f < res_c, "strict decrease",
                   f"fine {res_f:.4f} < coarse {res_c:.4f}"),
    ]
    return metrics, crit, {}


def _exp_girsanov_consistency(cfg, model, threads):
    params, curve, grid = model
    n = int(cfg["n_paths"])
    x0 = float(cfg["x0"])
    gam_t = float(curve.gamma(grid.T))
    payoff = lambda y: np.exp(-y)

    logs = np.empty(n)
    f_vals = np.empty(n)
    for batch in simulate_chunks(params, curve, Frame.X, x0, grid, n,
                                 cfg["seed"], threads=threads):
        lw, _, _ = log_weights_from_sums(batch.girsanov_sums, curve, params,
                                         grid)
        sl = slice(batch.start_index, batch.start_index + batch.terminals.size)
        logs[sl] = lw
        f_vals[sl] = payoff(batch.terminals + gam_t)
    w = np.exp(logs)
    mean_w, se_w = mean_se(w)
    est_x, se_x = self_normalized(w, f_vals)

    y_term = simulate_terminals(params, curve, Frame.Y, x0, grid, n,
                                cfg["seed"] + 1, threads=threads)
    est_y, se_y = mean_se(payoff(y_term))

    lo_x, hi_x = est_x - 1.96 * se_x, est_x + 1.96 * se_x
    lo_y, hi_y = est_y - 1.96 * se_y, est_y + 1.96 * se_y
    overlap = max(lo_x, lo_y) <= min(hi_x, hi_y)
    metrics = {
        "mean_weight": _metric(mean_w, se_w),
        "reweighted_estimate": _metric(est_x, se_x),
        "direct_estimate": _metric(est_y, se_y),
    }
    crit = [
        _criterion("unnormalized mean weight within 3 SE of 1",
                   abs(mean_w - 1.0) <= 3 * se_w, f"3*SE = {3 * se_w:.5g}",
                   f"mean weight = {mean_w:.5f}"),
        _criterion("reweighted and direct estimates have overlapping 95% CIs",
                   overlap, "95% CI overlap",
                   f"[{lo_x:.5f}, {hi_x:.5f}] vs [{lo_y:.5f}, {hi_y:.5f}]"),
    ]
    return metrics, crit, {}


def _exp_pde_cross_check(cfg, model, threads):
    params, curve, grid = model
    opts = cfg["options"]
    x0_list = opts["x0_list"]
    g1 = PdeGrid(x_max=float(opts["x_max"]), n_x=int(opts["n_x"]),
                 n_t=int(opts["n_t"]))
    level_sq = float(curve.lam(0.0)) ** 2
    barrier_sq = lambda t: level_sq
    payoff = lambda x: np.minimum(x, 2.0)
    # each grid is solved once: g1 and g2 give the compared values and their
    # grid bias, and with g3 the refinement factor at the middle x0; only
    # the values at the x0 outlive their solve
    solve_at = lambda g, xs: list(map(
        solve_backward(params, barrier_sq, payoff, grid.T, g).at, xs))
    mid = len(x0_list) // 2
    coarse, fine = solve_at(g1, x0_list), solve_at(g1.refined(), x0_list)
    u1, u2 = coarse[mid], fine[mid]
    u3 = solve_at(g1.refined().refined(), [x0_list[mid]])[0]
    factor = abs(u3 - u2) / max(abs(u2 - u1), 1e-300)
    max_factor = 0.35
    rows = compare_mc_pde(params, payoff, grid.T, x0_list, curve, coarse, fine,
                          int(cfg["n_paths"]), grid.n_steps, cfg["seed"],
                          extra_tol=0.01, threads=threads)

    metrics = {}
    for row in rows:
        key = f"x0_{row.x0:g}"
        metrics[f"pde_{key}"] = _metric(row.pde_value)
        metrics[f"mc_{key}"] = _metric(row.mc_value, row.mc_se)
    metrics["refine_factor"] = _metric(factor)
    crit = [
        _criterion(f"PDE vs MC at x0={row.x0:g}", row.passed,
                   f"|diff| <= {row.tolerance:.5g}",
                   f"|{row.pde_value:.5f} - {row.mc_value:.5f}| = "
                   f"{abs(row.pde_value - row.mc_value):.5f}")
        for row in rows
    ]
    crit.append(_criterion("grid refinement factor <= 0.35",
                           factor <= max_factor, f"{max_factor}",
                           f"factor = {factor:.3f}"))
    plot = {"pde-vs-mc": (["x0", "pde", "mc", "mc_se"],
                          [(r.x0, r.pde_value, r.mc_value, r.mc_se)
                           for r in rows])}
    return metrics, crit, plot


def _exp_skew_occupation(cfg, model, threads):
    params, curve, grid = model
    barrier = float(curve.lam(0.0))
    y_term = simulate_terminals(params, curve, Frame.Y, float(cfg["x0"]), grid,
                                cfg["n_paths"], cfg["seed"], threads=threads)
    frac = float(np.mean(y_term > barrier))
    atol = 0.02
    # the binomial SE of a fraction, not mean_se's ddof=1 standard deviation
    metrics = {"fraction_above": _metric(
        frac, math.sqrt(frac * (1 - frac) / y_term.size)),
        "target_fraction": _metric(params.p)}
    crit = [_criterion("fraction of paths above the barrier within 0.02 of p",
                       abs(frac - params.p) <= atol, f"{atol}",
                       f"fraction = {frac:.4f}, p = {params.p}")]
    return metrics, crit, {}


def _exp_dsr_demo(cfg, model, threads):
    params, curve, grid = model
    z0 = float(cfg["x0"])
    n = int(cfg["n_paths"])

    def z_terminals(par, g, seed):
        # Z = Y^2, with Y simulated under the drift constant of ``par``
        y = simulate_terminals(par, curve, Frame.Y, math.sqrt(z0), g, n, seed,
                               threads=threads)
        return y * y

    # c = 0 reduces to the squared Bessel law
    params_c0 = validate_params(params.sigma, params.delta, 0.0, params.p,
                                dsr_c=0.0)
    z_term = z_terminals(params_c0, grid, cfg["seed"])
    ks = ks_test(z_term, besq_terminal_cdf(params_c0, z0, grid.T))

    # moment self-consistency at c > 0: dE[Z]/dt = (sigma^2/4)(delta - c E[sqrt Z])
    h = _DSR_FD_H
    grids = {dt_key: GridSpec(T=grid.T + dt_key * h, n_steps=grid.n_steps)
             for dt_key in (-1, 0, 1)}
    terms = {k: z_terminals(params, g, cfg["seed"] + 10 + k)
             for k, g in grids.items()}
    # not mean_se: se_lhs uses the ddof=0 variance and se_rhs scales the
    # standard deviation before dividing by sqrt(n)
    lhs = float((np.mean(terms[1]) - np.mean(terms[-1])) / (2 * h))
    se_lhs = math.sqrt(float(np.var(terms[1]) + np.var(terms[-1]))
                       / n) / (2 * h)
    sqrt_z = np.sqrt(terms[0])
    rhs = params.sigma ** 2 / 4.0 * (params.delta
                                     - params.dsr_c * float(np.mean(sqrt_z)))
    se_rhs = (params.sigma ** 2 / 4.0 * params.dsr_c
              * float(np.std(sqrt_z, ddof=1)) / math.sqrt(n))
    se = math.hypot(se_lhs, se_rhs)
    metrics = {
        "ks_statistic_c0": _metric(ks.statistic),
        "moment_lhs": _metric(lhs, se_lhs),
        "moment_rhs": _metric(rhs, se_rhs),
    }
    crit = [
        _criterion("c=0 law matches squared Bessel (KS <= 0.03)",
                   ks.statistic <= 0.03, "0.03", f"KS = {ks.statistic:.4f}"),
        _criterion("moment ODE self-consistency within 3 SE",
                   abs(lhs - rhs) <= 3 * se, f"3*SE = {3 * se:.5g}",
                   f"|{lhs:.4f} - {rhs:.4f}| = {abs(lhs - rhs):.4f}"),
    ]
    return metrics, crit, {}


def _random_curve(rng, T):
    a0 = rng.uniform(0.8, 2.0)
    slope = rng.uniform(-0.1, 0.3)
    amp = rng.uniform(0.0, 0.3) * a0
    freq = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0.0, 2 * math.pi)
    # a0 dominates the other terms, so lambda stays positive on [0, T]
    fn = lambda t: a0 + slope * np.asarray(t, dtype=float) \
        + amp * np.sin(freq * np.asarray(t, dtype=float) + phase)
    dfn = lambda t: slope + amp * freq * np.cos(
        freq * np.asarray(t, dtype=float) + phase)
    lo = a0 - abs(slope) * T - amp
    if lo <= 0:
        fn2 = fn
        fn = lambda t: fn2(t) - lo + 0.05
    from .model import decompose_curve
    return decompose_curve(fn, dfn, T, quad_step=T / 400)


def _exp_regime_check(cfg, model, threads):
    params, curve, grid = model
    t_grid = np.linspace(0.0, grid.T, 33)

    # parameter gates
    try:
        validate_params(2.0, 1.0, 0.0, 1.2)
        p_gate, p_msg = False, "p=1.2 was not rejected"
    except ParamError as exc:
        p_msg = str(exc)
        p_gate = "identically zero" in p_msg
    try:
        validate_params(2.0, 0.5, 0.0, 0.5)
        d_gate, d_msg = False, "delta=0.5 was not rejected"
    except ParamError as exc:
        d_msg = str(exc)
        d_gate = "semimartingale" in d_msg

    # monotone regime holds for the configured p in (1/2, 1)
    rng = np.random.default_rng(cfg["seed"])
    n_curves = int(cfg["options"]["n_random_curves"])
    all_ok = True
    for _ in range(n_curves):
        rc = _random_curve(rng, grid.T)
        x_grid = np.linspace(-float(rc.gamma(grid.T)), 4.0, 41)
        rep = check_monotonicity(params, rc, t_grid, x_grid)
        all_ok = all_ok and rep.monotone_ok

    # p < 1/2 with a decreasing barrier must be flagged
    low_p = validate_params(params.sigma, params.delta, params.b, 0.3)
    dec = builtin_curve("linear", grid.T, intercept=2.0, slope=-1.0)
    x_flag = np.linspace(0.0, 4.0, 81)
    flagged = not check_monotonicity(low_p, dec, t_grid, x_flag).monotone_ok

    metrics = {"random_curves_checked": _metric(n_curves)}
    crit = [
        _criterion("|p| > 1 rejected (local time identically zero)", p_gate,
                   "typed rejection", p_msg),
        _criterion("delta < 1 rejected (outside the semimartingale regime)",
                   d_gate, "typed rejection", d_msg),
        _criterion("monotone regime holds for p in (1/2, 1) on random curves",
                   all_ok, f"{n_curves} curves", "all monotone"),
        _criterion("p < 1/2 with decreasing barrier is flagged", flagged,
                   "violation witnesses", "flagged" if flagged else "missed"),
    ]
    return metrics, crit, {}


@dataclass(frozen=True)
class _Experiment:
    """One named experiment: the config it reads, every field at its
    default; the rules of its options (an experiment whose defaults hold no
    options takes none); the fewest paths its estimates are defined for (a
    ddof=1 standard error needs 2, the KS test 10, analytics.ks_test); the
    checks between fields and of the oracle's domain, made once the model is
    built; and the runner, (cfg, model, threads) -> (metrics, criteria,
    plot data).  Gate thresholds are not options: each is fixed in the
    runner that applies it."""

    defaults: dict
    run: Callable
    options: dict | None = None
    min_paths: int = 1
    relations: tuple = ()


_BASE_MODEL = {"sigma": 2.0, "delta": 2.0, "b": 1.0, "p": 0.75, "dsr_c": None}

# localtime-ratios and relloc-identity: one setup, run on a fine grid and
# on a coarse one
_TWO_GRIDS = dict(
    defaults={"params": dict(_BASE_MODEL),
              "curve": {"kind": "constant", "level": 1.0},
              "grid": {"T": 2.0, "n_steps": 2 * 2 ** 14},
              "n_paths": 200,
              "x0": 1.0,
              "options": {"coarse_n_steps": 2 * 2 ** 12}},
    options={"coarse_n_steps": _STEPS}, relations=(_check_refines,))

_RECORDS = {
    "cir-baseline": _Experiment(
        {"params": {"sigma": 2.0, "delta": 3.0, "b": 1.0, "p": 0.5},
         "curve": {"kind": "constant", "level": 0.0},
         "grid": {"T": 1.0, "n_steps": 1024},
         "n_paths": 100_000,
         "x0": 1.0},
        _exp_cir_baseline, min_paths=2, relations=(_check_classical,)),
    "besq-law": _Experiment(
        {"params": {"sigma": 2.0, "delta": 2.0, "b": 0.0, "p": 0.5},
         "curve": {"kind": "constant", "level": 0.0},
         "grid": {"T": 1.0, "n_steps": 4096},
         "n_paths": 10_000,
         "x0": 1.0},
        _exp_besq_law, min_paths=10, relations=(_check_classical,)),
    "stationary-skew": _Experiment(
        {"params": dict(_BASE_MODEL),
         "curve": {"kind": "constant", "level": 1.0},
         "grid": {"T": 5000.0, "n_steps": 5000 * 256},
         "x0": 1.0,
         "options": {"burn_frac": 0.1, "thin": 100}},
        _exp_stationary_skew,
        options={"burn_frac": _number(0, below=1), "thin": _STEPS},
        relations=(_check_stationary, _check_constant_barrier)),
    "localtime-ratios": _Experiment(run=_exp_localtime_ratios, **_TWO_GRIDS),
    "relloc-identity": _Experiment(run=_exp_relloc_identity, **_TWO_GRIDS),
    "girsanov-consistency": _Experiment(
        {"params": {"sigma": 2.0, "delta": 2.0, "b": 1.0, "p": 0.7},
         "curve": {"kind": "linear", "intercept": 1.0, "slope": 0.1},
         "grid": {"T": 1.0, "n_steps": 1024},
         "n_paths": 100_000,
         "x0": 1.0},
        _exp_girsanov_consistency, min_paths=2),
    "pde-cross-check": _Experiment(
        {"params": {"sigma": 2.0, "delta": 2.0, "b": 1.0, "p": 0.7},
         "curve": {"kind": "constant", "level": 1.0},
         "grid": {"T": 1.0, "n_steps": 2048},
         "n_paths": 40_000,
         "options": {"x_max": 8.0, "n_x": 401, "n_t": 256,
                     "x0_list": [0.5, 1.0, 2.0]}},
        _exp_pde_cross_check,
        options={"x_max": _POSITIVE, "n_x": _number(200, integer=True),
                 "n_t": _STEPS, "x0_list": _positive_list},
        min_paths=2, relations=(_check_pde, _check_constant_barrier)),
    "skew-occupation": _Experiment(
        {"params": {"sigma": 2.0, "delta": 1.0, "b": 0.0, "p": 0.75},
         "curve": {"kind": "constant", "level": 1.0},
         "grid": {"T": 0.01, "n_steps": 128},
         "n_paths": 100_000,
         "x0": 1.0},
        _exp_skew_occupation, relations=(_check_constant_barrier,)),
    "dsr-demo": _Experiment(
        {"params": {"sigma": 2.0, "delta": 2.0, "b": 0.0, "p": 0.5,
                    "dsr_c": 1.0},
         "curve": {"kind": "constant", "level": 0.0},
         "grid": {"T": 1.0, "n_steps": 2048},
         "n_paths": 50_000,
         "x0": 1.0},
        _exp_dsr_demo, min_paths=10, relations=(_check_dsr, _check_classical)),
    "regime-check": _Experiment(
        {"params": dict(_BASE_MODEL),
         "curve": {"kind": "constant", "level": 1.0},
         "grid": {"T": 1.0, "n_steps": 256},
         "options": {"n_random_curves": 50}},
        _exp_regime_check,
        options={"n_random_curves": _number(0, integer=True)}),
}

EXPERIMENTS = list(_RECORDS)


def run_experiment(config: dict, threads: int = 1) -> dict:
    """Run a named experiment; returns {"report": ..., "plot_data": ...}."""
    cfg, model = _prepare(config)
    start = time.perf_counter()
    metrics, criteria, plot_data = _RECORDS[cfg["experiment"]].run(
        cfg, model, threads)
    runtime = time.perf_counter() - start
    import numpy
    import scipy
    report = {
        "schema_version": 1,
        "experiment": cfg["experiment"],
        "config": {k: v for k, v in cfg.items() if k != "output_dir"},
        "metrics": metrics,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
        "runtime_seconds": runtime,
        "versions": {"skewdiff": __version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    return {"report": report, "plot_data": plot_data}


PLOT_KINDS = ("stationary-hist", "localtime", "pde-vs-mc")


@contextmanager
def output_file(path, newline=None):
    """Open ``path`` for writing text; a write or close that fails removes it."""
    fh = open(path, "w", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def emit_plot_data(bundle: dict, kind: str, out_dir) -> str:
    """Write one tidy CSV of plot-ready data; returns the file path."""
    import csv

    if kind not in PLOT_KINDS:
        raise UnknownKind(f"unknown plot kind {kind!r}; known: {PLOT_KINDS}")
    plot_data = bundle.get("plot_data", {})
    if kind not in plot_data:
        raise UnknownKind(
            f"experiment {bundle['report']['experiment']!r} produced no "
            f"{kind!r} data")
    header, rows = plot_data[kind]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{kind}.csv")
    with output_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path
