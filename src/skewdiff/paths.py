"""Discretization schemes for the skew-reflected square-root diffusions.

The scheme is an operator splitting: a drift-implicit Euler step for the
drift (the singular (delta-1)/Y term taken at the new state, so the step
stays positive without a floor), a Gaussian diffusion substep, an
asymmetric mirror step at the barrier (upper side with probability p, lower
side with 1-p), and reflection at the lower edge of the moving domain.
Per-path randomness comes from splittable seeds (see :mod:`skewdiff.rng`),
so batches are reproducible under any chunking or thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import BZero, SchemeDiverged, WrongFrame
from .model import Curve, ModelParams, drift_integrand
from .rng import path_generator, path_states

__all__ = [
    "Frame",
    "GridSpec",
    "Path",
    "PathBatch",
    "square_path",
    "simulate_chunks",
    "simulate_terminals",
    "simulate_paths",
    "simulate_long_run_squared",
    "long_run_sample_count",
    "exact_cir_step",
    "exact_besq_step",
]

# Default chunk, in path-steps: a chunk of m paths over n steps holds an
# n x m float64 array of normals (and an n x m bool array of mirror
# decisions with a live barrier), so this bounds the normals at 64 MB
# whatever the grid.
CHUNK_PATH_STEPS = 1 << 23
# Per-worker scratch block the draws are made in before the transposed copy
_SCRATCH_BYTES = 1 << 19
# Fewest steps a path must have for a chunk's draws to be split across
# workers: on shorter rows two workers hand the interpreter lock over
# between paths and run slower than one.  Draw phase, ns per path-step, one
# worker vs two (zero / live barrier, 2-core VM): 128 steps 42 vs 62 /
# 72 vs 94, 256 steps 33 vs 42 / 37 vs 58, 512 steps 23 vs 25 / 27 vs 27,
# 1024 steps 26 vs 13 / 40 vs 23.
_MIN_PARALLEL_ROW = 512
# Most paths one rng.path_states call covers.  Its numpy temporaries grow
# with the paths: per call, 65,536 paths hold 10.5 MB and take 10.5 ms;
# 4,096 hold 0.69 MB and take 0.53 ms (129 ns a path against 160).  Much
# smaller calls pay fixed numpy costs: 3.5-6.7 us a path at 32-64 paths.
_STATE_BATCH = 4096
# The mirror step acts on a crossing, or on an endpoint within BAND_WIDTH
# one-step scales (sigma/2)*sqrt(dt) of the barrier; 0 mirrors crossings only.
BAND_WIDTH = 3.0
# Steps of the long-run sampler's draws turned into Python floats at a time:
# stationary-skew's 1.28 M steps at once are about 82 MB of float objects.
_LONG_RUN_BLOCK = 1 << 16


class Frame(Enum):
    Y = 0
    X = 1
    R = 2


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


@dataclass
class Path:
    """A single discretized trajectory with its Gaussian draws retained."""

    grid: GridSpec
    frame: Frame
    params: ModelParams
    values: np.ndarray
    gauss: np.ndarray
    lower_violations: int = 0


@dataclass
class PathBatch:
    """A chunk of paths simulated together (values/gauss optional).

    ``values`` holds the left endpoints step-major (row k is all paths'
    y_k, k < n; y_n is ``terminals``), ``gauss`` the normals path-major.
    ``girsanov_sums`` holds each X-frame path's sum of h(t_k)*g_k over its
    steps, accumulated left to right, for
    :func:`skewdiff.girsanov.log_weights_from_sums`; it is None in the other
    frames.
    """

    grid: GridSpec
    params: ModelParams
    start_index: int
    terminals: np.ndarray
    values: np.ndarray | None
    gauss: np.ndarray | None
    reflection_counts: np.ndarray
    lower_violations: np.ndarray
    girsanov_sums: np.ndarray | None


def _curve_tables(curve: Curve, grid: GridSpec, frame: Frame):
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


def _drift_step(params: ModelParams, dt: float) -> tuple[float, float, float]:
    """Constants (half_s, k_half, kq) of the drift-implicit step.

    With kd = dt*sigma^2/8, the step solves w = (y + gam) +
    kd*((delta-1)/w - b*y - c) for w > 0 (Alfonsi 2005; Dereich, Neuenkirch
    & Szpruch 2012): w = h + sqrt(h^2 + kq) with h = y*half_s + gam/2 +
    k_half, and the drifted state is w - gam.  As kq >= 0, w >= 0 for
    every h: the step never leaves the domain, and needs no floor.
    """
    c = 0.0 if params.dsr_c is None else params.dsr_c
    kd = dt * (params.sigma * params.sigma / 8.0)
    half_s = 0.5 * (1.0 - kd * params.b)
    return half_s, -0.5 * (kd * c), kd * (params.delta - 1.0)


def _draw_rows(m: int, n: int, dtype=float) -> np.ndarray:
    """Uninitialised m x n array with contiguous rows.

    Rows are padded by one 64-byte cache line: with a power-of-two row
    length the m elements of a column fall into a handful of cache sets, and
    the transposed copies of the draw phase would evict each other.
    """
    dtype = np.dtype(dtype)
    return np.empty((m, n + 64 // dtype.itemsize), dtype)[:, :n]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _state_words(bitgen: np.random.PCG64) -> np.ndarray:
    """The generator's 128-bit state and increment as four writable uint64.

    ``state_address`` points at numpy's ``pcg64_state``: a pointer to the
    ``pcg64_random_t`` {state, inc}, then the ``has_uint32`` flag and the
    buffered ``uinteger``, both zeroed here as the state setter does
    (normals and doubles never set them).  The view aliases ``bitgen``'s
    memory, so it must not outlive it.
    """
    addr = bitgen.ctypes.state_address
    ptr = ctypes.sizeof(ctypes.c_void_p)
    np.frombuffer((ctypes.c_uint32 * 2).from_address(addr + ptr),
                  dtype=np.uint32)[:] = 0
    rng = ctypes.c_void_p.from_address(addr).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(rng),
                         dtype=np.uint64)


def _state_dict(words) -> dict:
    """The ``PCG64.state`` dict of one row of :func:`rng.path_states`."""
    return {"bit_generator": "PCG64",
            "state": {"state": int(words[0]) | int(words[1]) << 64,
                      "inc": int(words[2]) | int(words[3]) << 64},
            "has_uint32": 0, "uinteger": 0}


@functools.cache
def _direct_writes() -> bool:
    """Whether a write through :func:`_state_words` draws as the setter does.

    It relies on numpy's ``pcg64_state`` layout and on 128-bit integers
    stored low word first (a build with emulated 128-bit math stores the
    high word first), so it is checked once per process, on first use, for
    one known path.
    """
    words = path_states(0, 0, 1)[0]
    direct, setter = np.random.PCG64(0), np.random.PCG64(0)
    _state_words(direct)[:] = words
    setter.state = _state_dict(words)
    return np.array_equal(np.random.Generator(direct).standard_normal(8),
                          np.random.Generator(setter).standard_normal(8))


def _fill_block(root_seed: int, start: int, gauss: np.ndarray,
                flags: np.ndarray | None, p: float, lo: int, hi: int,
                direct: bool) -> None:
    """Draw paths start+lo .. start+hi-1 into rows lo..hi-1 of the views.

    Each path's starting state is written into one ``PCG64``: straight into
    its memory when ``direct`` (no dict, and no call that hands the
    interpreter lock over), else through the ``state`` setter.  ``out=``
    needs contiguous rows, which transposes of step-major arrays do not
    have, so paths are drawn into a scratch block of about _SCRATCH_BYTES
    and copied into place (np.copyto and np.less release the GIL).  A
    path's uniforms follow its normals in its stream and are stored as the
    mirror step's decisions ``u < p``.  The states are computed
    _STATE_BATCH paths at a time.
    """
    n = gauss.shape[1]
    rows = max(1, min(hi - lo, _SCRATCH_BYTES // (8 * n)))
    g_out = _draw_rows(rows, n)
    u_out = None if flags is None else _draw_rows(rows, n)
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    # one 32-byte item a path: state lo, state hi, inc lo, inc hi
    cell = _state_words(bitgen).view("V32") if direct else None
    for b in range(lo, hi, _STATE_BATCH):
        words = path_states(root_seed, start + b, min(_STATE_BATCH, hi - b))
        if direct:
            words = words.view("V32")[:, 0]
        for s in range(b, b + len(words), rows):
            e = min(s + rows, b + len(words))
            for i, w in enumerate(words[s - b:e - b]):
                if cell is None:
                    bitgen.state = _state_dict(w)
                else:
                    cell[0] = w
                gen.standard_normal(out=g_out[i])
                if u_out is not None:
                    gen.random(out=u_out[i])
            np.copyto(gauss[s:e], g_out[:e - s])
            if u_out is not None:
                np.less(u_out[:e - s], p, out=flags[s:e])


class _DrawPhase:
    """Draw workers and step-major draw arrays shared by a run's chunks.

    Path k draws from ``PCG64(derive_seed(root, k))``: its normals, then its
    uniforms when the barrier is live somewhere on the grid.  The mirror
    step is the uniforms' only reader and compares them with p, so only that
    comparison is kept, one byte a path-step (skipping the uniforms moves no
    other number).  Each of up to ``threads`` workers (no more than the CPUs
    this process may run on) fills a disjoint block of paths; paths shorter
    than _MIN_PARALLEL_ROW steps all go to one worker.  The arrays are
    reused by later chunks, so their pages are faulted in once per run, not
    once per chunk.
    """

    def __init__(self, threads: int = 1):
        self.workers = max(1, min(threads, _cpus()))
        self._pool = (ThreadPoolExecutor(max_workers=self.workers)
                      if self.workers > 1 else None)
        self._arrays: dict[str, np.ndarray] = {}

    def __enter__(self) -> "_DrawPhase":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def step_major(self, name: str, n: int, m: int,
                   dtype=float) -> np.ndarray:
        """An (n, m) array, one step per row, kept for the next chunk."""
        arr = self._arrays.get(name)
        if arr is None or arr.shape[0] != n or arr.shape[1] < m:
            arr = self._arrays[name] = _draw_rows(n, m, dtype)
        return arr[:, :m]

    def fill(self, root_seed: int, start: int, gauss: np.ndarray,
             flags: np.ndarray | None, p: float) -> None:
        """Draw path start+i into ``gauss[i]``, and with ``flags`` set
        ``flags[i]`` to its uniforms' decisions ``u < p``."""
        m, n = gauss.shape
        direct = _direct_writes()
        parts = self.workers if n >= _MIN_PARALLEL_ROW else 1
        bounds = [m * i // parts for i in range(parts + 1)]
        blocks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        if self._pool is None:
            for lo, hi in blocks:
                _fill_block(root_seed, start, gauss, flags, p, lo, hi,
                            direct)
            return
        futures = [self._pool.submit(_fill_block, root_seed, start, gauss,
                                     flags, p, lo, hi, direct)
                   for lo, hi in blocks]
        for fut in futures:
            fut.result()


def _run_chunk(params: ModelParams, curve: Curve, frame: Frame, x0: float,
               grid: GridSpec, band_width: float, root_seed: int,
               start: int, m: int, keep_values: bool, keep_gauss: bool,
               draws: _DrawPhase) -> PathBatch:
    n = grid.n_steps
    dt = grid.dt
    sig = params.sigma
    delta = params.delta
    p = params.p

    bar, low, gam, skew_on = _curve_tables(curve, grid, frame)

    # Draw phase.  The step loop reads step k's normals and mirror
    # decisions as row k of (n, m) arrays; kept normals are returned as a
    # path-major copy, one path per row.  Kept values overwrite spent rows
    # of normals, so that chunk owns its array, not the next chunk's.
    g_steps = (_draw_rows(n, m) if keep_values
               else draws.step_major("gauss", n, m))
    flags = draws.step_major("flags", n, m, bool) if skew_on.any() else None
    draws.fill(root_seed, start, g_steps.T,
               None if flags is None else flags.T, p)
    gauss = g_steps.T.copy() if keep_gauss else None

    # The moving frame's Girsanov sums of h(t_k)*g_k, added left to right
    # from step 0's product, as girsanov_log_weights adds kept draws
    sums = h_left = None
    if frame is Frame.X:
        h_left = drift_integrand(curve, params, grid.times()[:-1])
        sums = g_steps[0] * h_left[0]

    # Step phase, on the calling thread.
    c_diff = 0.5 * sig * math.sqrt(dt)
    band = band_width * c_diff
    delta_one = delta == 1.0
    half_s, k_half, kq = _drift_step(params, dt)
    # A gamma = 0 or c = 0 term is left out of the loop: adding or
    # subtracting a zero changes at most the sign of a zero result, and the
    # root and abs() ignore that sign, so the fold is bit-exact for a finite
    # state.  A non-finite state stays non-finite either way, so
    # SchemeDiverged fires at the same step.
    gam_zero = not gam.any()

    y = np.full(m, float(x0))
    v, u, t, du, dv = (np.empty(m) for _ in range(5))
    act, act2 = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    refl_counts = np.zeros(m, dtype=np.int64)
    viol_counts = np.zeros(m, dtype=np.int64)

    for k in range(n):
        gk = gam[k]
        np.multiply(y, half_s, out=du)
        if not gam_zero:
            np.add(du, 0.5 * gk, out=du)
        if k_half != 0.0:
            np.add(du, k_half, out=du)
        np.multiply(du, du, out=t)
        np.add(t, kq, out=t)
        np.sqrt(t, out=t)
        np.add(du, t, out=u)
        if not gam_zero:
            np.subtract(u, gk, out=u)

        np.multiply(g_steps[k], c_diff, out=v)
        np.add(u, v, out=v)
        if k and sums is not None:
            np.multiply(g_steps[k], h_left[k], out=t)
            np.add(sums, t, out=sums)
        if keep_values:
            # row k's normals are spent: it keeps the left endpoint instead
            np.copyto(g_steps[k], y)

        if skew_on[k]:
            bk = bar[k]
            np.subtract(u, bk, out=du)
            np.subtract(v, bk, out=dv)
            np.multiply(du, dv, out=t)
            np.less(t, 0.0, out=act)
            np.abs(du, out=du)
            np.abs(dv, out=dv)
            np.minimum(du, dv, out=du)
            np.less(du, band, out=act2)
            act |= act2
            idx = act.nonzero()[0]
            if idx.size:
                side = np.where(flags[k][idx], 1.0, -1.0)
                v[idx] = bk + side * dv[idx]
                refl_counts[idx] += 1
        lk = low[k]
        if delta_one:
            if gam_zero:
                np.abs(v, out=v)
            else:
                np.subtract(v, lk, out=v)
                np.abs(v, out=v)
                np.add(v, lk, out=v)
        else:
            np.less(v, lk, out=act)
            neg = act.nonzero()[0]
            if neg.size:
                viol_counts[neg] += 1
                v[neg] = 2.0 * lk - v[neg]
        y, v = v, y
        if (k & 0xFF) == 0xFF and not np.all(np.isfinite(y)):
            raise SchemeDiverged(k)

    if not np.all(np.isfinite(y)):
        raise SchemeDiverged(n - 1)

    return PathBatch(grid=grid, params=params, start_index=start, terminals=y,
                     values=g_steps if keep_values else None, gauss=gauss,
                     reflection_counts=refl_counts,
                     lower_violations=viol_counts, girsanov_sums=sums)


def square_path(y_path: Path) -> Path:
    """Square a Y-frame path elementwise into the R frame."""
    if y_path.frame is not Frame.Y:
        raise WrongFrame(f"square_path expects frame Y, got {y_path.frame.name}")
    return Path(grid=y_path.grid, frame=Frame.R, params=y_path.params,
                values=y_path.values ** 2, gauss=y_path.gauss,
                lower_violations=y_path.lower_violations)


def simulate_chunks(params: ModelParams, curve: Curve, frame: Frame, x0: float,
                    grid: GridSpec, n_paths: int, seed: int,
                    band_width: float = BAND_WIDTH,
                    chunk_size: int | None = None,
                    keep_values: bool = False, keep_gauss: bool = False,
                    threads: int = 1) -> Iterator[PathBatch]:
    """Yield path batches in fixed index order (chunking-invariant streams).

    A chunk holds ``chunk_size`` paths, by default as many as fit
    ``CHUNK_PATH_STEPS`` path-steps.  Its m paths over n steps hold one
    n x m float64 array of normals, plus an n x m bool array of mirror
    decisions when the barrier is live somewhere on the grid; both are
    reused by the next chunk.  ``keep_gauss`` returns each chunk's normals
    as ``gauss``, an m x n copy with one path per row; ``keep_values``
    writes the left endpoints into the normals' rows as they are spent and
    returns them as ``values`` (see :class:`PathBatch`), in an array the
    chunk owns.  X-frame batches carry their Girsanov sums whatever is
    kept.  ``band_width`` is the mirror band in one-step scales (see
    ``BAND_WIDTH``).  ``threads`` bounds the draw workers as in
    :func:`simulate_terminals`; nothing a batch holds depends on it.
    """
    if band_width < 0:
        raise ValueError("band_width must be >= 0")
    step = chunk_size or max(1, CHUNK_PATH_STEPS // grid.n_steps)
    with _DrawPhase(threads) as draws:
        for start in range(0, n_paths, step):
            yield _run_chunk(params, curve, frame, x0, grid, band_width, seed,
                             start=start, m=min(step, n_paths - start),
                             keep_values=keep_values, keep_gauss=keep_gauss,
                             draws=draws)


def simulate_terminals(params: ModelParams, curve: Curve, frame: Frame,
                       x0: float, grid: GridSpec, n_paths: int, seed: int,
                       band_width: float = BAND_WIDTH,
                       chunk_size: int | None = None,
                       threads: int = 1) -> np.ndarray:
    """Terminal values of ``n_paths`` paths (memory-light batch run).

    Output is independent of ``threads`` and ``chunk_size``: every path's
    stream is a pure function of (seed, path index) and results are placed
    by index.  Chunks run one after another (see :func:`simulate_chunks`
    for their memory).  ``threads`` workers, at most the CPUs this process
    may run on, make each chunk's draws; the step loop runs on the calling
    thread alone, so two step loops never contend for the interpreter lock.
    """
    out = np.empty(n_paths)
    for batch in simulate_chunks(params, curve, frame, x0, grid, n_paths, seed,
                                 band_width, chunk_size, threads=threads):
        out[batch.start_index:batch.start_index + batch.terminals.size] = \
            batch.terminals
    return out


def simulate_paths(params: ModelParams, curve: Curve, frame: Frame, x0: float,
                   grid: GridSpec, n_paths: int, seed: int) -> list[Path]:
    """Fully retained paths; each path k uses the derived seed (seed, k)."""
    return [Path(grid=grid, frame=frame, params=params,
                 values=np.append(batch.values[:, i], batch.terminals[i]),
                 gauss=batch.gauss[i],
                 lower_violations=int(batch.lower_violations[i]))
            for batch in simulate_chunks(params, curve, frame, x0, grid,
                                         n_paths, seed, keep_values=True,
                                         keep_gauss=True)
            for i in range(batch.terminals.size)]


def long_run_sample_count(n_steps: int, burn_frac: float, thin: int) -> int:
    """How many samples :func:`simulate_long_run_squared` returns."""
    return -(-(n_steps - int(burn_frac * n_steps)) // thin)


def simulate_long_run_squared(params: ModelParams, level: float, y0: float,
                              dt: float, n_steps: int, seed: int,
                              burn_frac: float = 0.1,
                              thin: int = 100) -> np.ndarray:
    """Thinned samples of R = Y^2 from one long run at a constant barrier.

    Scalar fast path for stationarity studies: the batch engine's
    drift-implicit step and its per-path random stream, but a tight Python
    loop that only stores every ``thin``-th squared state after burn-in.
    """
    gen = path_generator(seed, 0)
    gauss = gen.standard_normal(n_steps)
    unif = gen.random(n_steps)

    p = params.p
    half_s, k_half, kq = _drift_step(params, dt)
    c_diff = 0.5 * params.sigma * math.sqrt(dt)
    band = BAND_WIDTH * c_diff
    bk = float(level)
    skew_on = bk > 0.0
    burn = int(burn_frac * n_steps)

    y = float(y0)
    out = []
    sqrt = math.sqrt
    for s in range(0, n_steps, _LONG_RUN_BLOCK):
        g = gauss[s:s + _LONG_RUN_BLOCK].tolist()
        uu = unif[s:s + _LONG_RUN_BLOCK].tolist()
        for k, gk, uk in zip(range(s, s + len(g)), g, uu):
            h = y * half_s + k_half
            u = h + sqrt(h * h + kq)
            v = u + c_diff * gk
            if skew_on:
                du = u - bk
                dv = v - bk
                adu = du if du >= 0 else -du
                adv = dv if dv >= 0 else -dv
                if du * dv < 0.0 or adu < band or adv < band:
                    v = bk + adv if uk < p else bk - adv
            if v < 0.0:
                v = -v
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

