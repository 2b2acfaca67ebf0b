"""Change-of-measure weights and reweighted expectations."""

import math

import numpy as np
import pytest

from skewdiff import paths
from skewdiff.analytics import mean_se
from skewdiff.girsanov import (
    girsanov_log_weights,
    log_weights_from_sums,
    self_normalized,
)
from skewdiff.model import builtin_curve, drift_integrand, validate_params
from skewdiff.paths import (
    Frame,
    GridSpec,
    simulate_chunks,
    simulate_terminals,
)


def _linear_curve(slope=0.1, intercept=1.0, T=1.0):
    return builtin_curve("linear", T, intercept=intercept, slope=slope)


def _one_x_path(params, curve, n_steps, seed):
    """A one-path X-frame batch on [0, 1] that keeps its draws."""
    batch, = simulate_chunks(params, curve, Frame.X, 1.0,
                             GridSpec(1.0, n_steps), 1, seed, keep_gauss=True)
    return batch


def _weighted_terminals(params, curve, grid, n, seed):
    """Girsanov weights and Y = X + gamma terminals of n X-frame paths."""
    logs, terminals = np.empty(n), np.empty(n)
    for batch in simulate_chunks(params, curve, Frame.X, 1.0, grid, n, seed):
        sl = slice(batch.start_index, batch.start_index + batch.terminals.size)
        logs[sl] = log_weights_from_sums(batch.girsanov_sums, curve, params,
                                         grid)[0]
        terminals[sl] = batch.terminals
    return np.exp(logs), terminals + float(curve.gamma(grid.T))


class TestWeightBasics:
    def test_gamma_zero_gives_unit_weight(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("constant", 1.0, level=1.0)
        batch = _one_x_path(params, curve, 256, seed=1)
        logs, _, _ = log_weights_from_sums(batch.girsanov_sums, curve, params,
                                           batch.grid)
        assert logs[0] == 0.0
        assert math.exp(logs[0]) == 1.0

    def test_log_weight_splits(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        batch = _one_x_path(params, curve, 256, seed=2)
        logs, stoch, comp = log_weights_from_sums(batch.girsanov_sums, curve,
                                                  params, batch.grid)
        assert logs[0] == pytest.approx(stoch[0] + comp[0])
        w = math.exp(logs[0])
        assert w > 0.0 and math.isfinite(w)

    def test_unit_slope_closed_form(self):
        # gamma(t) = t, b = 0, sigma = 2: integrand is 1, so the log weight
        # is exactly -B_T - T/2
        params = validate_params(2.0, 2.0, 0.0, 0.7)
        curve = _linear_curve(slope=1.0, intercept=1.0)
        batch = _one_x_path(params, curve, 512, seed=4)
        grid = batch.grid
        _, stoch, comp = log_weights_from_sums(batch.girsanov_sums, curve,
                                               params, grid)
        b_t = float(np.sum(math.sqrt(grid.dt) * batch.gauss[0]))
        assert stoch[0] == pytest.approx(-b_t, rel=1e-9)
        assert comp[0] == pytest.approx(-0.5, rel=1e-9)

    def test_zero_draws_weight_below_one(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        grid = GridSpec(1.0, 128)
        logs, stoch, _ = girsanov_log_weights(np.zeros((1, grid.n_steps)),
                                              curve, params, grid)
        assert stoch[0] == 0.0
        assert 0.0 < math.exp(logs[0]) < 1.0

    def test_dsr_variant_replaces_b_term(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        params_c = validate_params(2.0, 2.0, 1.0, 0.7, dsr_c=0.5)
        curve = _linear_curve()
        t = np.linspace(0.0, 1.0, 9)
        h_b = drift_integrand(curve, params, t)
        h_c = drift_integrand(curve, params_c, t)
        gp = np.asarray(curve.gamma_deriv(t), dtype=float)
        gam = np.asarray(curve.gamma(t), dtype=float)
        assert np.allclose(h_b, (8 * gp + 4.0 * 1.0 * gam) / 8.0)
        assert np.allclose(h_c, (8 * gp + 4.0 * 0.5) / 8.0)


class TestMartingaleProperty:
    def test_mean_weight_near_one(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        grid = GridSpec(1.0, 256)
        rng = np.random.default_rng(0)
        gauss = rng.standard_normal((20000, grid.n_steps))
        logs, _, _ = girsanov_log_weights(gauss, curve, params, grid)
        w = np.exp(logs)
        se = float(np.std(w, ddof=1) / math.sqrt(w.size))
        assert abs(float(np.mean(w)) - 1.0) <= 3.0 * se

    def test_weighted_moments_of_shifted_brownian(self):
        # under the new measure the shifted process is standard Brownian
        params = validate_params(2.0, 2.0, 0.0, 0.7)
        curve = _linear_curve(slope=1.0)
        grid = GridSpec(1.0, 128)
        rng = np.random.default_rng(1)
        n = 40000
        gauss = rng.standard_normal((n, grid.n_steps))
        logs, _, _ = girsanov_log_weights(gauss, curve, params, grid)
        w = np.exp(logs)
        b_t = math.sqrt(grid.dt) * gauss.sum(axis=1)
        h = drift_integrand(curve, params, grid.times())
        drift = float(np.trapezoid(h, dx=grid.dt))
        w_t = b_t + drift
        m1 = float(np.mean(w * w_t))
        se1 = float(np.std(w * w_t, ddof=1) / math.sqrt(n))
        assert abs(m1) <= 3.0 * se1
        m2 = float(np.mean(w * w_t ** 2))
        se2 = float(np.std(w * w_t ** 2, ddof=1) / math.sqrt(n))
        assert abs(m2 - 1.0) <= 3.0 * se2


class TestStreamedSums:
    def test_invariant_to_chunks_and_threads(self, monkeypatch):
        # the step loop's sums give the same log weights, bit for bit, for
        # every chunk size and worker count, and the same as the kept
        # draws; rows of 64 steps are split between two workers here
        monkeypatch.setattr(paths, "_MIN_PARALLEL_ROW", 1)
        monkeypatch.setattr(paths.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        grid = GridSpec(1.0, 64)
        n = 9192
        runs = []
        for chunk in (1000, 4097, 8192):
            for threads in (1, 2):
                logs, kept = np.empty(n), np.empty(n)
                for batch in simulate_chunks(params, curve, Frame.X, 1.0,
                                             grid, n, 11, chunk_size=chunk,
                                             keep_gauss=True, threads=threads):
                    sl = slice(batch.start_index,
                               batch.start_index + batch.terminals.size)
                    logs[sl] = log_weights_from_sums(
                        batch.girsanov_sums, curve, params, grid)[0]
                    kept[sl] = girsanov_log_weights(
                        batch.gauss, curve, params, grid)[0]
                assert np.array_equal(logs, kept)
                runs.append(logs)
        assert np.unique(runs[0]).size == n
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    def test_only_the_moving_frame_carries_sums(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        batch, = simulate_chunks(params, _linear_curve(), Frame.Y, 1.0,
                                 GridSpec(1.0, 16), 10, 3)
        assert batch.girsanov_sums is None


class TestReweightedExpectation:
    def test_constant_payoff_is_exact(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        w, y_t = _weighted_terminals(params, curve, GridSpec(1.0, 256), 400, 0)
        est, _ = self_normalized(w, np.ones_like(y_t))
        assert est == pytest.approx(1.0)
        mean_w, se_w = mean_se(w)
        assert abs(mean_w - 1.0) <= 3.0 * se_w

    def test_gamma_zero_matches_plain_mean(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("constant", 1.0, level=1.0)
        w, y_t = _weighted_terminals(params, curve, GridSpec(1.0, 256), 400, 0)
        est, _ = self_normalized(w, y_t)
        assert est == pytest.approx(float(np.mean(y_t)))

    def test_consistency_with_direct_simulation(self):
        # reweighted X-frame vs direct Y-frame estimates, several payoffs
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        payoffs = [lambda x: np.exp(-x), lambda x: np.minimum(x, 2.0),
                   lambda x: (x > 1.0).astype(float)]
        for curve in (_linear_curve(), builtin_curve("sinusoidal", 1.0,
                                                     level=1.0, amplitude=0.3)):
            grid = GridSpec(1.0, 512)
            w, x_term = _weighted_terminals(params, curve, grid, 4000, 1)
            y_term = simulate_terminals(params, curve, Frame.Y, 1.0, grid,
                                        4000, 2)
            for payoff in payoffs:
                est, se = self_normalized(w, payoff(x_term))
                dm, dse = mean_se(np.asarray(payoff(y_term), dtype=float))
                lo_x, hi_x = est - 1.96 * se, est + 1.96 * se
                lo_y, hi_y = dm - 1.96 * dse, dm + 1.96 * dse
                assert max(lo_x, lo_y) <= min(hi_x, hi_y)
