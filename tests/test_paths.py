"""Path engine: positivity, determinism and weak convergence."""

import hashlib
import math
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from skewdiff import paths
from skewdiff.analytics import cir_moments
from skewdiff.errors import BZero, WrongFrame
from skewdiff.model import builtin_curve, decompose_curve, validate_params
from skewdiff.paths import (
    Frame,
    GridSpec,
    exact_besq_step,
    exact_cir_step,
    long_run_sample_count,
    simulate_chunks,
    simulate_long_run_squared,
    simulate_paths,
    simulate_terminals,
    square_path,
)
from skewdiff.rng import (
    derive_seed,
    derive_seeds,
    path_generator,
    path_states,
    seed_sequence_words,
)


CONSTANT_ONE = builtin_curve("constant", 4.0, level=1.0)
ZERO_CURVE = builtin_curve("constant", 4.0, level=0.0)
# lambda(t) = max(0.25 - t, 0): the barrier is live on the first half of
# [0, 0.5] only
HALF_LIVE = decompose_curve(
    lambda t: np.maximum(0.25 - np.asarray(t, dtype=float), 0.0),
    lambda t: np.where(np.asarray(t, dtype=float) < 0.25, -1.0, 0.0), 4.0)


def _inline_executor(made: list, blocks: list):
    """A ThreadPoolExecutor stand-in that runs its jobs inline and starts no
    thread; it records its ``max_workers`` and each draw block (lo, hi)."""

    class InlineExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def submit(self, fn, *args):
            blocks.append(args[5:7])
            fut = Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self):
            pass

    return InlineExecutor


def _check_draw_phase(monkeypatch, reused, live, threads):
    # scratch blocks of 7 paths and state words in batches of 11: m = 47 is
    # a multiple of neither these nor the per-worker share.  Rows of
    # _MIN_PARALLEL_ROW steps, so two workers split the chunk.  A reused
    # draw phase fills the first m columns of arrays a wider chunk left.
    # p = 0.3 makes both mirror decisions common.
    n, m, root, start, p = paths._MIN_PARALLEL_ROW, 47, 13, 1000, 0.3
    monkeypatch.setattr(paths, "_SCRATCH_BYTES", 8 * n * 7)
    monkeypatch.setattr(paths, "_STATE_BATCH", 11)
    with paths._DrawPhase(threads) as draws:
        for width, first in ((m + 13, 0),) * reused + ((m, start),):
            gauss = draws.step_major("gauss", n, width).T
            flags = draws.step_major("flags", n, width, bool).T if live \
                else None
            draws.fill(root, first, gauss, flags, p)
    if live:
        assert flags.dtype == bool
        assert 0.2 < flags.mean() < 0.4
    for j in range(m):
        gen = path_generator(root, start + j)
        assert np.array_equal(gauss[j], gen.standard_normal(n))
        if live:
            assert np.array_equal(flags[j], gen.random(n) < p)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class TestGridSpec:
    def test_endpoint_exact(self):
        grid = GridSpec(T=0.7, n_steps=7)
        assert grid.times()[-1] == 0.7
        assert grid.times().size == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridSpec(T=0.0, n_steps=10)
        with pytest.raises(ValueError):
            GridSpec(T=1.0, n_steps=0)


class TestSeeding:
    def test_derive_seed_is_pure_and_spread(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        seeds = {derive_seed(0, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_path_generator_reproducible(self):
        a = path_generator(5, 3).standard_normal(4)
        b = path_generator(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("root", [0, 11, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 70])
    def test_path_states_match_pcg64(self, root):
        for start, m in ((0, 40), (2 ** 40, 3)):
            states = path_states(root, start, m)
            seeds = derive_seeds(root, start, m)
            assert states.shape == (m, 4) and states.dtype == np.uint64
            for i in range(m):
                assert int(seeds[i]) == derive_seed(root, start + i)
                want = np.random.PCG64(derive_seed(root, start + i)).state
                lo, hi, inc_lo, inc_hi = (int(w) for w in states[i])
                assert lo | hi << 64 == want["state"]["state"]
                assert inc_lo | inc_hi << 64 == want["state"]["inc"]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    def test_seed_sequence_replica(self, seed):
        # seeds below 2**32 are one entropy word, the rest two
        got = seed_sequence_words(np.array([seed], dtype=np.uint64))[0]
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("reused", [True, False])
    @pytest.mark.parametrize("live", [True, False])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_phase_follows_path_generator(self, monkeypatch, reused,
                                               live, threads):
        _check_draw_phase(monkeypatch, reused, live, threads)

    @pytest.mark.parametrize("reused", [True, False])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_phase_state_setter_fallback(self, monkeypatch, reused,
                                              threads):
        # the state-write check failing sends every path through the setter
        monkeypatch.setattr(paths, "_direct_writes", lambda: False)
        _check_draw_phase(monkeypatch, reused, True, threads)

    def test_state_write_check(self, monkeypatch):
        # this build's layout passes; a layout that stores each 128-bit word
        # high half first (emulated 128-bit math) fails
        assert paths._direct_writes() is True
        assert paths._direct_writes.__wrapped__() is True
        state_words = paths._state_words

        class HighFirst:
            def __init__(self, bitgen):
                self.words = state_words(bitgen)

            def __setitem__(self, key, value):
                self.words[key] = np.asarray(value)[[1, 0, 3, 2]]

        monkeypatch.setattr(paths, "_state_words", HighFirst)
        assert paths._direct_writes.__wrapped__() is False

    def test_draws_follow_path_generator(self):
        grid = GridSpec(T=1.0, n_steps=32)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        path = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                              n_paths=1, seed=5)[0]
        assert np.array_equal(path.gauss,
                              path_generator(5, 0).standard_normal(32))


class TestGoldenStreams:
    """Digests recorded with one PCG64 built per path; they pin every
    stream, so a change to seeding or draw order shows here."""

    def test_dsr_implicit_zero_barrier(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5, dsr_c=1.0)
        y = simulate_terminals(params, ZERO_CURVE, Frame.Y, 1.0,
                               GridSpec(1.0, 64), 300, 7, chunk_size=128)
        assert _digest(y * y) == ("913dfd4b419e4d03a1e7dbb61d93b938"
                                  "534851d5ae35f60877d19de619e3e804")

    def test_x_frame_moving_barrier_with_draws(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("linear", 1.0, intercept=0.5, slope=1.0)
        arrays = []
        for batch in simulate_chunks(params, curve, Frame.X, 0.5,
                                     GridSpec(1.0, 64), 300, 19,
                                     chunk_size=128, keep_gauss=True):
            arrays += [batch.terminals, batch.gauss]
        assert _digest(*arrays) == ("c48e5b65aee8fcc1b98e3ecdb63c3e45"
                                    "7ff5fbc48f715d3a43b0fb81a9863150")

    def test_single_paths(self):
        # values and draws of one-path runs: Y frame, X frame, and the
        # double-square-root drift with its Y values squared
        grid = GridSpec(1.0, 256)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        linear = builtin_curve("linear", 1.0, intercept=1.0, slope=0.3)
        dsr = validate_params(2.0, 2.0, 0.0, 0.7, dsr_c=1.0)
        y, x, d = (simulate_paths(par, curve, frame, 1.0, grid, n_paths=1,
                                  seed=7)[0]
                   for par, curve, frame in ((params, CONSTANT_ONE, Frame.Y),
                                             (params, linear, Frame.X),
                                             (dsr, CONSTANT_ONE, Frame.Y)))
        got = [y, x, square_path(d)]
        want = [
            ("b2c0e7a3e3301c074710acb5db01c759"
             "9ac56d3b35bc3aa20d5000f87d3cf7b5", 8),
            ("5f9b5282ae8f74dc6478a98b487a3ca8"
             "dca7bae952afeb2c5d7e470821d88b74", 7),
            ("6ebb926f856184faec8f628e1e4bddb7"
             "fdb4a8e7517a7a7c7261c9bd7bc6da31", 8),
        ]
        assert [(_digest(p.values, p.gauss), p.lower_violations)
                for p in got] == want


class TestYPath:
    def test_positivity_and_shapes(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=1.0, n_steps=512)
        path = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                              n_paths=1, seed=3)[0]
        assert path.frame is Frame.Y
        assert path.values.size == 513
        assert path.gauss.size == 512
        assert np.all(path.values >= 0.0)

    def test_determinism_bit_identical(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=1.0, n_steps=256)
        a, b = (simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                               n_paths=1, seed=9)[0] for _ in range(2))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.gauss, b.gauss)

    def test_delta_one_never_negative_long_horizon(self):
        params = validate_params(2.0, 1.0, 0.0, 0.6)
        grid = GridSpec(T=4.0, n_steps=4096)
        for seed in range(5):
            path = simulate_paths(params, CONSTANT_ONE, Frame.Y, 0.2, grid,
                                  n_paths=1, seed=seed)[0]
            assert np.all(path.values >= 0.0)

    def test_reflection_events_recorded(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=1.0, n_steps=1024)
        (batch,) = simulate_chunks(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                                   1, 2)
        assert batch.reflection_counts[0] > 0

    def test_band_event_rate_scales_like_inverse_sqrt_dt(self):
        # activations per path ~ O(1/sqrt(dt)): log-log slope in [-0.6, -0.4]
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        counts, dts = [], []
        for n_steps in (512, 1024, 2048, 4096, 8192):
            grid = GridSpec(T=1.0, n_steps=n_steps)
            (batch,) = simulate_chunks(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                                       40, 0)
            counts.append(float(np.mean(batch.reflection_counts)))
            dts.append(grid.dt)
        slope = np.polyfit(np.log(dts), np.log(counts), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_negative_band_width_rejected(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        with pytest.raises(ValueError, match="band_width"):
            simulate_terminals(params, CONSTANT_ONE, Frame.Y, 1.0,
                               GridSpec(T=1.0, n_steps=8), 4, 0,
                               band_width=-1.0)


class TestXPath:
    def test_matches_y_path_when_gamma_zero(self):
        # constant barrier: gamma identically 0, frames coincide bit for bit
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=1.0, n_steps=512)
        x, y = (simulate_paths(params, CONSTANT_ONE, frame, 1.0, grid,
                               n_paths=1, seed=4)[0]
                for frame in (Frame.X, Frame.Y))
        assert np.array_equal(x.values, y.values)

    def test_matches_y_path_for_decreasing_barrier(self):
        # exp decay: gamma still 0 but beta is tabulated, so agreement is
        # only up to the quadrature interpolation error of the barrier
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("exp-decay", 1.0, level=1.0, rate=0.5)
        grid = GridSpec(T=1.0, n_steps=512)
        x, y = (simulate_paths(params, curve, frame, 1.0, grid, n_paths=1,
                               seed=4)[0]
                for frame in (Frame.X, Frame.Y))
        assert np.allclose(x.values, y.values, rtol=0.0, atol=1e-6)

    def test_stays_above_moving_edge(self):
        params = validate_params(2.0, 1.0, 1.0, 0.7)
        curve = builtin_curve("linear", 1.0, intercept=0.5, slope=1.0)
        grid = GridSpec(T=1.0, n_steps=1024)
        path = simulate_paths(params, curve, Frame.X, 0.5, grid, n_paths=1,
                              seed=6)[0]
        edge = -np.asarray(curve.gamma(grid.times()))
        assert np.all(path.values >= edge - 1e-12)


class TestSquarePath:
    def test_elementwise_square(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        y = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0,
                           GridSpec(1.0, 128), n_paths=1, seed=1)[0]
        r = square_path(y)
        assert r.frame is Frame.R
        assert np.array_equal(r.values, y.values ** 2)
        assert r.gauss is y.gauss

    def test_wrong_frame(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        y = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0,
                           GridSpec(1.0, 64), n_paths=1, seed=1)[0]
        r = square_path(y)
        with pytest.raises(WrongFrame):
            square_path(r)


class TestExactTransitions:
    def test_cir_requires_positive_b(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5)
        with pytest.raises(BZero):
            exact_cir_step(params, 1.0, 0.5, np.random.default_rng(0))

    def test_cir_small_dt_concentrates(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        rng = np.random.default_rng(1)
        z = np.full(20000, 1.0)
        out = exact_cir_step(params, z, 1e-4, rng)
        assert float(np.mean((out - 1.0) ** 2)) <= 10.0 * 1e-4

    def test_cir_mean_matches_moment_ode(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        rng = np.random.default_rng(2)
        out = exact_cir_step(params, np.full(200000, 1.0), 1.0, rng)
        target = 3.0 - 2.0 * math.exp(-1.0)
        se = float(np.std(out)) / math.sqrt(out.size)
        assert abs(float(np.mean(out)) - target) <= 4.0 * se

    def test_besq_scalar_and_mean(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5)
        rng = np.random.default_rng(3)
        one = exact_besq_step(params, 1.0, 1.0, rng)
        assert isinstance(one, float) and one >= 0.0
        out = exact_besq_step(params, np.full(200000, 1.0), 1.0, rng)
        se = float(np.std(out)) / math.sqrt(out.size)
        assert abs(float(np.mean(out)) - 3.0) <= 4.0 * se  # z0 + delta*t

    def test_scheme_reduces_to_cir_law_at_symmetric_p(self):
        # weak-convergence check at p = 1/2 against the exact transition
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        grid = GridSpec(T=1.0, n_steps=1024)
        y = simulate_terminals(params, ZERO_CURVE, Frame.Y, 1.0, grid,
                               10000, 12)
        exact = exact_cir_step(params, np.full(10000, 1.0), 1.0,
                               np.random.default_rng(13))
        both = np.sort(np.concatenate([y ** 2, exact]))
        cdf_a = np.searchsorted(np.sort(y ** 2), both, side="right") / 10000
        cdf_b = np.searchsorted(np.sort(exact), both, side="right") / 10000
        assert float(np.max(np.abs(cdf_a - cdf_b))) < 0.03


class TestDriftStep:
    @pytest.mark.parametrize("seed", [3, 11, 12])
    def test_coarse_grid_mean_has_no_overshoot(self, seed):
        # cir-baseline's model on 128 steps: an explicit (delta-1)/Y kick
        # floored at 1e-12 sends rare paths to y^2 ~ 1e5-1e7, and the 3-SE
        # gate then passes because the SE grows with the error
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        y = simulate_terminals(params, ZERO_CURVE, Frame.Y, 1.0,
                               GridSpec(1.0, 128), 100_000, seed)
        z = y * y
        target, _ = cir_moments(params, 1.0, 1.0)
        se = float(np.std(z, ddof=1)) / math.sqrt(z.size)
        assert abs(float(np.mean(z)) - target) <= 3.0 * se
        assert float(np.max(z)) < 100.0


class TestDsrPath:
    def test_frame_and_nonnegativity(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5, dsr_c=1.0)
        path = simulate_paths(params, ZERO_CURVE, Frame.Y, 1.0,
                              GridSpec(1.0, 256), n_paths=1, seed=5)[0]
        assert path.frame is Frame.Y
        assert np.all(path.values >= 0.0)


class TestBatching:
    def test_terminals_invariant_to_chunking_and_threads(self, monkeypatch):
        # live, absent (no uniforms drawn) and partly live barriers; more
        # paths than the default chunk (shrunk to 4096 paths here), so the
        # default splits too
        monkeypatch.setattr(paths, "CHUNK_PATH_STEPS", 4096 * 32)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=0.5, n_steps=32)
        n = 8192 + 300
        for curve in (CONSTANT_ONE, ZERO_CURVE, HALF_LIVE):
            base = simulate_terminals(params, curve, Frame.Y, 1.0, grid,
                                      n, 21, chunk_size=n + 1)
            for chunk, threads in ((None, 1), (None, 2), (None, 3), (64, 1),
                                   (137, 3), (1000, 2), (n, 2)):
                kw = {} if chunk is None else {"chunk_size": chunk}
                other = simulate_terminals(params, curve, Frame.Y, 1.0,
                                           grid, n, 21, threads=threads, **kw)
                assert np.array_equal(base, other)

    def test_one_step_loop_at_a_time_on_the_calling_thread(self, monkeypatch):
        # each _run_chunk runs exactly one step loop; the draws of its chunk
        # go to the workers
        monkeypatch.setattr(paths.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        lock = threading.Lock()
        state = {"active": 0, "max": 0, "loop_threads": set(),
                 "draw_threads": set()}
        run_chunk, fill_block = paths._run_chunk, paths._fill_block

        def counted_chunk(*args, **kwargs):
            with lock:
                state["active"] += 1
                state["max"] = max(state["max"], state["active"])
                state["loop_threads"].add(threading.get_ident())
            try:
                time.sleep(0.002)  # widen the window for an overlap
                return run_chunk(*args, **kwargs)
            finally:
                with lock:
                    state["active"] -= 1

        def recorded_fill(*args, **kwargs):
            with lock:
                state["draw_threads"].add(threading.get_ident())
            return fill_block(*args, **kwargs)

        monkeypatch.setattr(paths, "_run_chunk", counted_chunk)
        monkeypatch.setattr(paths, "_fill_block", recorded_fill)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        got = simulate_terminals(params, CONSTANT_ONE, Frame.Y, 1.0,
                                 GridSpec(0.5, 16), 2000, 4, chunk_size=97,
                                 threads=3)
        assert state["max"] == 1
        assert state["loop_threads"] == {threading.get_ident()}
        assert state["draw_threads"].isdisjoint(state["loop_threads"])
        assert 1 <= len(state["draw_threads"]) <= 3
        monkeypatch.undo()
        want = simulate_terminals(params, CONSTANT_ONE, Frame.Y, 1.0,
                                  GridSpec(0.5, 16), 2000, 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("threads", [1, 2, 3, 64])
    def test_draw_workers_bounded_by_threads_and_cpus(self, monkeypatch,
                                                      cpus, threads):
        # the executor is a fake that runs its jobs inline and starts no
        # thread, so a large ``threads`` is safe to ask for
        made = []
        monkeypatch.setattr(paths, "ThreadPoolExecutor",
                            _inline_executor(made, []))
        monkeypatch.setattr(paths.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        got = simulate_terminals(params, CONSTANT_ONE, Frame.Y, 1.0,
                                 GridSpec(0.5, 8), 300, 6, chunk_size=64,
                                 threads=threads)
        assert all(w <= min(threads, cpus) for w in made)
        assert made == ([min(threads, cpus)] if min(threads, cpus) > 1 else [])
        monkeypatch.undo()
        assert np.array_equal(got, simulate_terminals(
            params, CONSTANT_ONE, Frame.Y, 1.0, GridSpec(0.5, 8), 300, 6))

    def test_short_rows_draw_as_one_block(self, monkeypatch):
        # rows below _MIN_PARALLEL_ROW steps go to one pool worker whole;
        # rows of that length are split between the two workers
        blocks = []
        monkeypatch.setattr(paths, "ThreadPoolExecutor",
                            _inline_executor([], blocks))
        monkeypatch.setattr(paths.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        row = paths._MIN_PARALLEL_ROW
        for n, want in ((row // 4, [(0, 300)]), (row - 1, [(0, 300)]),
                        (row, [(0, 150), (150, 300)])):
            blocks.clear()
            with paths._DrawPhase(2) as draws:
                draws.fill(3, 0, draws.step_major("gauss", n, 300).T, None,
                           0.5)
            assert blocks == want

    def test_kept_draws_invariant_to_threads(self, monkeypatch):
        # kept draws are path-major copies of step-major blocks that two
        # workers split at rows of _MIN_PARALLEL_ROW steps; draws and
        # terminals equal one worker's
        monkeypatch.setattr(paths.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("linear", 1.0, intercept=0.5, slope=1.0)
        grid = GridSpec(1.0, paths._MIN_PARALLEL_ROW)
        runs = [[(b.terminals, b.gauss) for b in simulate_chunks(
                    params, curve, Frame.X, 0.5, grid, 90, 17, chunk_size=40,
                    keep_gauss=True, threads=threads)]
                for threads in (1, 2)]
        for (t1, g1), (t2, g2) in zip(*runs):
            assert np.array_equal(t1, t2) and np.array_equal(g1, g2)
        assert len(runs[0]) == len(runs[1]) == 3

    @pytest.mark.parametrize("chunk_size", [7, 16])
    def test_held_batches_own_their_values(self, chunk_size):
        # kept values overwrite their chunk's normals; batches held together
        # must not share that array with the chunks after them
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("linear", 1.0, intercept=0.5, slope=1.0)
        grid = GridSpec(1.0, 64)
        batches = list(simulate_chunks(params, curve, Frame.X, 0.5, grid, 40,
                                       5, chunk_size=chunk_size,
                                       keep_values=True, keep_gauss=True))
        assert len(batches) >= 3
        rebuilt = [(np.append(b.values[:, i], b.terminals[i]), b.gauss[i])
                   for b in batches for i in range(b.terminals.size)]
        assert all(b.values.shape == (64, b.terminals.size) for b in batches)
        whole = simulate_paths(params, curve, Frame.X, 0.5, grid, 40, 5)
        assert len(rebuilt) == len(whole)
        for (values, gauss), path in zip(rebuilt, whole):
            assert np.array_equal(values, path.values)
            assert np.array_equal(gauss, path.gauss)

    def test_kept_values_add_no_second_array(self):
        # the left endpoints live in the spent rows of the normals, so a
        # chunk's peak is its normals plus one byte a path-step of mirror
        # decisions and small buffers
        import tracemalloc

        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(1.0, 512)
        m = 4096
        tracemalloc.start()
        try:
            batch = next(simulate_chunks(params, CONSTANT_ONE, Frame.Y, 1.0,
                                         grid, m, 3, keep_values=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.values.shape == (512, m)
        assert peak < 1.3 * 8 * 512 * m

    def test_simulate_paths_matches_terminals(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        grid = GridSpec(T=0.5, n_steps=128)
        paths = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0, grid, 25, 8)
        terms = simulate_terminals(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                                   25, 8)
        assert np.array_equal(np.array([p.values[-1] for p in paths]), terms)

    def test_long_run_sampler_matches_engine_stream(self):
        # the scalar stationarity loop follows the same per-path stream,
        # with and without the double-square-root drift constant
        grid = GridSpec(T=2.0, n_steps=512)
        for c in (None, 0.5):
            params = validate_params(2.0, 2.0, 1.0, 0.75, dsr_c=c)
            path = simulate_paths(params, CONSTANT_ONE, Frame.Y, 1.0, grid,
                                  n_paths=1, seed=31)[0]
            samples = simulate_long_run_squared(params, 1.0, 1.0, grid.dt,
                                                512, 31, burn_frac=0.0, thin=1)
            assert np.allclose(samples, path.values[1:] ** 2, rtol=1e-10,
                               atol=1e-12)

    @pytest.mark.parametrize("n_steps,burn_frac,thin", [
        (512, 0.0, 1), (512, 0.1, 100), (999, 0.25, 7), (1000, 0.5, 1000)])
    def test_long_run_sample_count(self, n_steps, burn_frac, thin):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        samples = simulate_long_run_squared(params, 1.0, 1.0, 1 / 256,
                                            n_steps, 3, burn_frac=burn_frac,
                                            thin=thin)
        assert samples.size == long_run_sample_count(n_steps, burn_frac, thin)
