"""Discretization schemes for the skew-reflected square-root diffusions.

The scheme is an operator splitting: explicit (or implicit) Euler for the
drift, a Gaussian diffusion substep, an asymmetric mirror step at the barrier
(upper side with probability p, lower side with 1-p), and reflection at the
lower edge of the moving domain.  Per-path randomness comes from splittable
seeds (see :mod:`skewdiff.rng`), so batches are reproducible under any
chunking or thread count.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import BZero, MissingDsrC, SchemeDiverged, WrongFrame
from .model import Curve, ModelParams
from .rng import derive_seeds, path_generator, path_states

__all__ = [
    "Frame",
    "GridSpec",
    "SchemeConfig",
    "ReflectionLog",
    "Path",
    "PathBatch",
    "simulate_y_path",
    "simulate_x_path",
    "simulate_dsr_path",
    "square_path",
    "simulate_chunks",
    "simulate_terminals",
    "simulate_paths",
    "simulate_long_run_squared",
    "exact_cir_step",
    "exact_besq_step",
    "write_path_dump",
    "read_path_dump",
]

_DRIFT_FLOOR = 1e-12


class Frame(Enum):
    Y = 0
    X = 1
    R = 2
    Z_DSR = 3
    CIR_EXACT = 4


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid on [0, T] with n_steps steps."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (self.T > 0 and self.n_steps > 0):
            raise ValueError("GridSpec requires T > 0 and n_steps > 0")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    def times(self) -> np.ndarray:
        # t_k = k*T/n, not cumulative addition, so the endpoint is exact
        return np.arange(self.n_steps + 1) * (self.T / self.n_steps)


@dataclass(frozen=True)
class SchemeConfig:
    """Tunables of the splitting scheme.

    band_width is the multiplier kappa on the one-step diffusion scale
    (sigma/2)*sqrt(dt) within which the mirror step activates.
    """

    band_width: float = 3.0
    drift_mode: str = "explicit"  # or "implicit_sqrt_term"
    zero_handling: str = "reflect_abs"  # or "truncate_at_zero"

    def __post_init__(self):
        if self.band_width < 0:
            raise ValueError("band_width must be >= 0")
        if self.drift_mode not in ("explicit", "implicit_sqrt_term"):
            raise ValueError(f"unknown drift_mode {self.drift_mode!r}")
        if self.zero_handling not in ("reflect_abs", "truncate_at_zero"):
            raise ValueError(f"unknown zero_handling {self.zero_handling!r}")


@dataclass
class ReflectionLog:
    """Skew-reflection events of a single path."""

    steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    sides: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    overshoots: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def count(self) -> int:
        return int(self.steps.size)


@dataclass
class Path:
    """A single discretized trajectory with its Gaussian draws retained."""

    grid: GridSpec
    frame: Frame
    seed: int
    params: ModelParams
    values: np.ndarray
    gauss: np.ndarray
    reflections: ReflectionLog
    lower_violations: int = 0

    @property
    def brownian_increments(self) -> np.ndarray:
        """(sigma/2)*sqrt(dt) * gauss -- increments of the diffusion part."""
        return (self.params.sigma / 2.0) * math.sqrt(self.grid.dt) * self.gauss


@dataclass
class PathBatch:
    """A chunk of paths simulated together (values/gauss optional)."""

    grid: GridSpec
    frame: Frame
    params: ModelParams
    start_index: int
    seeds: np.ndarray
    terminals: np.ndarray
    values: np.ndarray | None
    gauss: np.ndarray | None
    reflection_counts: np.ndarray
    lower_violations: np.ndarray
    # mirror-step events of the whole chunk, when the run collects them
    events: ReflectionLog | None = None


def _curve_tables(params: ModelParams, curve: Curve, grid: GridSpec, frame: Frame):
    """Barrier / lower-boundary / drift-offset values frozen at each t_k."""
    t = grid.times()[:-1]
    if frame is Frame.X:
        gam = np.asarray(curve.gamma(t), dtype=float)
        bar = np.asarray(curve.beta(t), dtype=float)
    else:
        gam = np.zeros_like(t)
        bar = np.asarray(curve.lam(t), dtype=float)
    low = -gam
    skew_on = bar > low  # the indicator {lambda > 0}
    return bar, low, gam, skew_on


def _draw_rows(m: int, n: int) -> np.ndarray:
    """Uninitialised m x n array, one path per row.

    The step loop reads it a column at a time.  Rows are padded by one
    cache line: with a power-of-two row length the m elements of a column
    fall into a handful of cache sets and evict each other every step.
    """
    return np.empty((m, n + 8))[:, :n]


def _run_chunk(params: ModelParams, curve: Curve, frame: Frame, x0: float,
               grid: GridSpec, scheme: SchemeConfig, root_seed: int,
               start: int, m: int, keep_values: bool, keep_gauss: bool,
               collect_events: bool, dsr: bool = False) -> PathBatch:
    n = grid.n_steps
    dt = grid.dt
    sig = params.sigma
    delta = params.delta
    p = params.p
    b = params.b
    c_const = 0.0
    if dsr:
        if params.dsr_c is None:
            raise MissingDsrC("simulate_dsr_path requires params.dsr_c")
        c_const = params.dsr_c

    seeds = derive_seeds(root_seed, start, m)
    bar, low, gam, skew_on = _curve_tables(params, curve, grid, frame)
    # One m x n array of normals, plus one of uniforms only when the barrier
    # is live somewhere on the grid (the mirror step is their only reader).
    # A path's uniforms follow its normals in its stream, so skipping them
    # moves no other number.  Each path's PCG64 state is set directly on one
    # bit generator (see rng.path_states) instead of building one per path.
    live = bool(skew_on.any())
    gauss = _draw_rows(m, n)
    unif = _draw_rows(m, n) if live else None
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for i, state in enumerate(path_states(root_seed, start, m)):
        bitgen.state = state
        gen.standard_normal(out=gauss[i])
        if live:
            gen.random(out=unif[i])

    c_drift = sig * sig / 8.0
    c_diff = 0.5 * sig * math.sqrt(dt)
    band = scheme.band_width * c_diff
    implicit = scheme.drift_mode == "implicit_sqrt_term"
    truncate = scheme.zero_handling == "truncate_at_zero"
    delta_one = delta == 1.0

    y = np.full(m, float(x0))
    vals = None
    if keep_values:
        vals = np.empty((m, n + 1))
        vals[:, 0] = y
    refl_counts = np.zeros(m, dtype=np.int64)
    viol_counts = np.zeros(m, dtype=np.int64)
    ev_steps, ev_sides, ev_over = [], [], []

    for k in range(n):
        gk = gam[k]
        if implicit:
            # solve w = (y+gam) + dt*c_drift*((delta-1)/w - b*y - c) for w > 0
            a_lin = y + gk + dt * c_drift * (-b * y - c_const)
            c_quad = dt * c_drift * (delta - 1.0)
            w = 0.5 * (a_lin + np.sqrt(a_lin * a_lin + 4.0 * c_quad))
            u = w - gk
        else:
            denom = np.maximum(y + gk, _DRIFT_FLOOR)
            u = y + c_drift * ((delta - 1.0) / denom - b * y - c_const) * dt

        v = u + c_diff * gauss[:, k]

        if skew_on[k]:
            bk = bar[k]
            du = u - bk
            dv = v - bk
            active = (du * dv < 0.0) | (np.minimum(np.abs(du), np.abs(dv)) < band)
            idx = np.nonzero(active)[0]
            if idx.size:
                side = np.where(unif[idx, k] < p, 1.0, -1.0)
                adv = np.abs(dv[idx])
                if collect_events:
                    ev_steps.append(np.full(idx.size, k, dtype=np.int64))
                    ev_sides.append(side.astype(np.int8))
                    ev_over.append(adv)
                v[idx] = bk + side * adv
                refl_counts[idx] += 1
        lk = low[k]
        if delta_one:
            v = lk + np.abs(v - lk)
        else:
            neg = np.nonzero(v < lk)[0]
            if neg.size:
                viol_counts[neg] += 1
                if truncate:
                    v[neg] = lk
                else:
                    v[neg] = 2.0 * lk - v[neg]
        y = v
        if keep_values:
            vals[:, k + 1] = y
        if (k & 0xFF) == 0xFF and not np.all(np.isfinite(y)):
            raise SchemeDiverged(k)

    if not np.all(np.isfinite(y)):
        raise SchemeDiverged(n - 1)

    if dsr:
        terminals = y * y
        if keep_values:
            vals = vals * vals
        out_frame = Frame.Z_DSR
    else:
        terminals = y.copy()
        out_frame = frame

    events = None
    if collect_events:
        events = ReflectionLog()
        if ev_steps:
            events = ReflectionLog(np.concatenate(ev_steps),
                                   np.concatenate(ev_sides),
                                   np.concatenate(ev_over))
    return PathBatch(grid=grid, frame=out_frame, params=params,
                     start_index=start, seeds=seeds, terminals=terminals,
                     values=vals, gauss=gauss if keep_gauss else None,
                     reflection_counts=refl_counts,
                     lower_violations=viol_counts, events=events)


def _single(params, curve, frame, x0, grid, scheme, seed, dsr=False) -> Path:
    batch = _run_chunk(params, curve, frame, x0, grid, scheme, seed,
                       start=0, m=1, keep_values=True, keep_gauss=True,
                       collect_events=True, dsr=dsr)
    return Path(grid=grid, frame=batch.frame, seed=seed, params=params,
                values=batch.values[0], gauss=batch.gauss[0],
                reflections=batch.events,
                lower_violations=int(batch.lower_violations[0]))


def simulate_y_path(params: ModelParams, curve: Curve, y0: float,
                    grid: GridSpec, scheme: SchemeConfig | None = None,
                    seed: int = 0) -> Path:
    """One path of the square-root process with skew reflection at lambda(t)."""
    if y0 < 0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    scheme = scheme or SchemeConfig()
    return _single(params, curve, Frame.Y, y0, grid, scheme, seed)


def simulate_x_path(params: ModelParams, curve: Curve, x0: float,
                    grid: GridSpec, scheme: SchemeConfig | None = None,
                    seed: int = 0) -> Path:
    """One path in the moving frame: barrier beta(t), lower edge -gamma(t)."""
    if x0 < -float(curve.gamma(0.0)):
        raise ValueError(f"x0={x0} lies below the moving domain edge "
                         f"{-float(curve.gamma(0.0))}")
    scheme = scheme or SchemeConfig()
    return _single(params, curve, Frame.X, x0, grid, scheme, seed)


def simulate_dsr_path(params: ModelParams, curve: Curve, z0: float,
                      grid: GridSpec, scheme: SchemeConfig | None = None,
                      seed: int = 0) -> Path:
    """Double-square-root path: drift (sigma^2/4)(delta - c*sqrt(Z)), squared frame."""
    if params.dsr_c is None:
        raise MissingDsrC("params.dsr_c is not set")
    if z0 < 0:
        raise ValueError(f"z0 must be >= 0, got {z0}")
    scheme = scheme or SchemeConfig()
    return _single(params, curve, Frame.Y, math.sqrt(z0), grid, scheme, seed,
                   dsr=True)


def square_path(y_path: Path) -> Path:
    """Square a Y-frame path elementwise into the R frame."""
    if y_path.frame is not Frame.Y:
        raise WrongFrame(f"square_path expects frame Y, got {y_path.frame.name}")
    return Path(grid=y_path.grid, frame=Frame.R, seed=y_path.seed,
                params=y_path.params, values=y_path.values ** 2,
                gauss=y_path.gauss, reflections=y_path.reflections,
                lower_violations=y_path.lower_violations)


def simulate_chunks(params: ModelParams, curve: Curve, frame: Frame, x0: float,
                    grid: GridSpec, n_paths: int, seed: int,
                    scheme: SchemeConfig | None = None, chunk_size: int = 8192,
                    keep_values: bool = False, keep_gauss: bool = False,
                    dsr: bool = False) -> Iterator[PathBatch]:
    """Yield path batches in fixed index order (chunking-invariant streams).

    A chunk of m paths and n steps holds one m x n float64 array of normals
    (returned as ``gauss`` with ``keep_gauss``: a view with contiguous rows,
    not a copy), plus one of uniforms when
    the barrier is live somewhere on the grid; ``keep_values`` adds the
    m x (n+1) trajectories.
    """
    scheme = scheme or SchemeConfig()
    start = 0
    while start < n_paths:
        m = min(chunk_size, n_paths - start)
        yield _run_chunk(params, curve, frame, x0, grid, scheme, seed,
                         start=start, m=m, keep_values=keep_values,
                         keep_gauss=keep_gauss, collect_events=False, dsr=dsr)
        start += m


def simulate_terminals(params: ModelParams, curve: Curve, frame: Frame,
                       x0: float, grid: GridSpec, n_paths: int, seed: int,
                       scheme: SchemeConfig | None = None,
                       chunk_size: int = 8192, dsr: bool = False,
                       threads: int = 1) -> np.ndarray:
    """Terminal values of ``n_paths`` paths (memory-light batch run).

    Output is independent of ``threads`` and ``chunk_size``: every path's
    stream is a pure function of (seed, path index) and results are placed
    by index.  Each running chunk holds one chunk_size x n_steps array of
    draws, two when the barrier is live (see :func:`simulate_chunks`).
    """
    scheme = scheme or SchemeConfig()
    out = np.empty(n_paths)
    starts = list(range(0, n_paths, chunk_size))

    def work(start: int) -> PathBatch:
        m = min(chunk_size, n_paths - start)
        return _run_chunk(params, curve, frame, x0, grid, scheme, seed,
                          start=start, m=m, keep_values=False,
                          keep_gauss=False, collect_events=False, dsr=dsr)

    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(work, starts))
    else:
        batches = [work(s) for s in starts]
    for batch in sorted(batches, key=lambda b: b.start_index):
        out[batch.start_index:batch.start_index + batch.terminals.size] = \
            batch.terminals
    return out


def simulate_paths(params: ModelParams, curve: Curve, frame: Frame, x0: float,
                   grid: GridSpec, n_paths: int, seed: int,
                   scheme: SchemeConfig | None = None) -> list[Path]:
    """Fully retained paths; each path k uses the derived seed (seed, k)."""
    scheme = scheme or SchemeConfig()
    out = []
    for batch in simulate_chunks(params, curve, frame, x0, grid, n_paths, seed,
                                 scheme, chunk_size=min(n_paths, 2000),
                                 keep_values=True, keep_gauss=True):
        for i in range(batch.terminals.size):
            out.append(Path(grid=grid, frame=batch.frame,
                            seed=int(batch.seeds[i]), params=params,
                            values=batch.values[i], gauss=batch.gauss[i],
                            reflections=ReflectionLog(),
                            lower_violations=int(batch.lower_violations[i])))
    return out


def simulate_long_run_squared(params: ModelParams, level: float, y0: float,
                              dt: float, n_steps: int, seed: int,
                              scheme: SchemeConfig | None = None,
                              burn_frac: float = 0.1,
                              thin: int = 100) -> np.ndarray:
    """Thinned samples of R = Y^2 from one long run at a constant barrier.

    Scalar fast path for stationarity studies: same substeps and the same
    per-path random stream as the batch engine, but a tight Python loop that
    only stores every ``thin``-th squared state after burn-in.
    """
    scheme = scheme or SchemeConfig()
    if scheme.drift_mode != "explicit":
        raise ValueError("long-run sampler supports explicit drift only")
    gen = path_generator(seed, 0)
    gauss = gen.standard_normal(n_steps)
    unif = gen.random(n_steps)

    sig = params.sigma
    delta = params.delta
    b = params.b
    p = params.p
    c_drift = sig * sig / 8.0 * dt
    c_diff = 0.5 * sig * math.sqrt(dt)
    band = scheme.band_width * c_diff
    bk = float(level)
    skew_on = bk > 0.0
    delta_one = delta == 1.0
    truncate = scheme.zero_handling == "truncate_at_zero"
    burn = int(burn_frac * n_steps)

    g = gauss.tolist()
    uu = unif.tolist()
    y = float(y0)
    out = []
    dm1 = delta - 1.0
    for k in range(n_steps):
        denom = y if y > _DRIFT_FLOOR else _DRIFT_FLOOR
        u = y + c_drift * (dm1 / denom - b * y)
        v = u + c_diff * g[k]
        if skew_on:
            du = u - bk
            dv = v - bk
            adu = du if du >= 0 else -du
            adv = dv if dv >= 0 else -dv
            if du * dv < 0.0 or adu < band or adv < band:
                v = bk + adv if uu[k] < p else bk - adv
        if delta_one:
            if v < 0.0:
                v = -v
        elif v < 0.0:
            v = 0.0 if truncate else -v
        y = v
        if k >= burn and (k - burn) % thin == 0:
            out.append(y * y)
    if not math.isfinite(y):
        raise SchemeDiverged(n_steps - 1)
    return np.asarray(out)


# --- exact classical transitions -------------------------------------------

def exact_cir_step(params: ModelParams, z, dt: float,
                   rng: np.random.Generator):
    """Exact noncentral chi-squared transition of the classical process (p=1/2).

    Mean-reversion rate kappa = sigma^2*b/4, level delta/b, degrees of
    freedom exactly delta.  Requires b > 0; use :func:`exact_besq_step` for
    the b = 0 branch.
    """
    if params.b == 0:
        raise BZero("b = 0: use exact_besq_step (no exponential damping)")
    kappa = params.sigma ** 2 * params.b / 4.0
    decay = math.exp(-kappa * dt)
    two_c = params.b / -math.expm1(-kappa * dt)  # 4*kappa/(sigma^2*(1-e^-k dt))
    z = np.asarray(z, dtype=float)
    nc = two_c * z * decay
    draw = rng.noncentral_chisquare(params.delta, nc, size=z.shape if z.shape else None)
    out = draw / two_c
    if np.ndim(out) == 0:
        return float(out)
    return out


def exact_besq_step(params: ModelParams, z, t: float,
                    rng: np.random.Generator):
    """Exact squared-Bessel-type transition for b = 0 over an interval t."""
    scale = params.sigma ** 2 * t / 4.0
    z = np.asarray(z, dtype=float)
    draw = rng.noncentral_chisquare(params.delta, z / scale,
                                    size=z.shape if z.shape else None)
    out = scale * draw
    if np.ndim(out) == 0:
        return float(out)
    return out


# --- binary path dump -------------------------------------------------------

_MAGIC = b"SKWD"
_VERSION = 1


def write_path_dump(path: Path, fileobj) -> None:
    """Little-endian dump: magic, version u32, n_steps u32, frame u8, values f64."""
    fileobj.write(struct.pack("<4sIIB", _MAGIC, _VERSION, path.grid.n_steps,
                              path.frame.value))
    fileobj.write(np.asarray(path.values, dtype="<f8").tobytes())


def read_path_dump(fileobj) -> tuple[Frame, np.ndarray]:
    header = fileobj.read(struct.calcsize("<4sIIB"))
    magic, version, n_steps, frame_val = struct.unpack("<4sIIB", header)
    if magic != _MAGIC:
        raise ValueError("not a path dump (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported dump version {version}")
    values = np.frombuffer(fileobj.read(8 * (n_steps + 1)), dtype="<f8").copy()
    return Frame(frame_val), values
