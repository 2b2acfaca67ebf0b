"""Change-of-measure weights and reweighted expectations."""

import math

import numpy as np
import pytest

from skewdiff import paths
from skewdiff.errors import DegenerateWeights, MissingDraws, WrongFrame
from skewdiff.girsanov import (
    drift_integrand,
    girsanov_log_weights,
    girsanov_weight,
    log_weights_from_sums,
    reweighted_expectation,
    shifted_brownian,
)
from skewdiff.model import builtin_curve, validate_params
from skewdiff.paths import (
    Frame,
    GridSpec,
    Path,
    simulate_chunks,
    simulate_paths,
    simulate_x_path,
    simulate_y_path,
)


def _linear_curve(slope=0.1, intercept=1.0, T=1.0):
    return builtin_curve("linear", T, intercept=intercept, slope=slope)


class TestWeightBasics:
    def test_gamma_zero_gives_unit_weight(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("constant", 1.0, level=1.0)
        path = simulate_x_path(params, curve, 1.0, GridSpec(1.0, 256), seed=1)
        w = girsanov_weight(path, curve, params)
        assert w.log_weight == 0.0
        assert w.weight == 1.0

    def test_log_weight_splits(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        path = simulate_x_path(params, curve, 1.0, GridSpec(1.0, 256), seed=2)
        w = girsanov_weight(path, curve, params)
        assert w.log_weight == pytest.approx(
            w.stochastic_term + w.compensator_term)
        assert w.weight > 0.0 and math.isfinite(w.weight)

    def test_wrong_frame_and_missing_draws(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        y = simulate_y_path(params, curve, 1.0, GridSpec(1.0, 64), seed=3)
        with pytest.raises(WrongFrame):
            girsanov_weight(y, curve, params)
        x = simulate_x_path(params, curve, 1.0, GridSpec(1.0, 64), seed=3)
        stripped = Path(grid=x.grid, frame=x.frame, params=x.params,
                        values=x.values, gauss=None)
        with pytest.raises(MissingDraws):
            girsanov_weight(stripped, curve, params)

    def test_unit_slope_closed_form(self):
        # gamma(t) = t, b = 0, sigma = 2: integrand is 1, so the log weight
        # is exactly -B_T - T/2
        params = validate_params(2.0, 2.0, 0.0, 0.7)
        curve = _linear_curve(slope=1.0, intercept=1.0)
        grid = GridSpec(1.0, 512)
        path = simulate_x_path(params, curve, 1.0, grid, seed=4)
        w = girsanov_weight(path, curve, params)
        b_t = float(np.sum(math.sqrt(grid.dt) * path.gauss))
        assert w.stochastic_term == pytest.approx(-b_t, rel=1e-9)
        assert w.compensator_term == pytest.approx(-0.5, rel=1e-9)

    def test_zero_draws_weight_below_one(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        grid = GridSpec(1.0, 128)
        n = grid.n_steps
        flat = Path(grid=grid, frame=Frame.X, params=params,
                    values=np.full(n + 1, 1.0), gauss=np.zeros(n))
        w = girsanov_weight(flat, curve, params)
        assert w.stochastic_term == 0.0
        assert 0.0 < w.weight < 1.0

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


class TestShiftedBrownian:
    def test_gamma_zero_is_plain_brownian(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("constant", 1.0, level=1.0)
        path = simulate_x_path(params, curve, 1.0, GridSpec(1.0, 64), seed=5)
        w = shifted_brownian(path, curve, params)
        b = np.concatenate([[0.0], np.cumsum(math.sqrt(path.grid.dt) * path.gauss)])
        assert np.allclose(w, b)

    def test_drift_added_when_gamma_grows(self):
        params = validate_params(2.0, 2.0, 0.0, 0.7)
        curve = _linear_curve(slope=1.0)
        path = simulate_x_path(params, curve, 1.0, GridSpec(1.0, 64), seed=5)
        w = shifted_brownian(path, curve, params)
        b = np.concatenate([[0.0], np.cumsum(math.sqrt(path.grid.dt) * path.gauss)])
        assert w[-1] == pytest.approx(b[-1] + 1.0, rel=1e-9)


class TestReweightedExpectation:
    def _paths(self, params, curve, n=400, seed=0, n_steps=256):
        grid = GridSpec(1.0, n_steps)
        return simulate_paths(params, curve, Frame.X, 1.0, grid, n, seed)

    def test_constant_payoff_is_exact(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve()
        est = reweighted_expectation(lambda x: np.ones_like(x),
                                     self._paths(params, curve), curve)
        assert est.estimate == pytest.approx(1.0)
        assert abs(est.unnormalized_mean - 1.0) <= 3.0 * est.unnormalized_se

    def test_gamma_zero_matches_plain_mean(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = builtin_curve("constant", 1.0, level=1.0)
        paths = self._paths(params, curve)
        est = reweighted_expectation(lambda x: x, paths, curve)
        plain = float(np.mean([p.values[-1] for p in paths]))
        assert est.estimate == pytest.approx(plain)

    def test_consistency_with_direct_simulation(self):
        # reweighted X-frame vs direct Y-frame estimates, several payoffs
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        payoffs = [lambda x: np.exp(-x), lambda x: np.minimum(x, 2.0),
                   lambda x: (x > 1.0).astype(float)]
        for curve in (_linear_curve(), builtin_curve("sinusoidal", 1.0,
                                                     level=1.0, amplitude=0.3)):
            grid = GridSpec(1.0, 512)
            x_paths = simulate_paths(params, curve, Frame.X, 1.0, grid, 4000, 1)
            y_term = np.array([p.values[-1] for p in
                               simulate_paths(params, curve, Frame.Y, 1.0,
                                              grid, 4000, 2)])
            for payoff in payoffs:
                est = reweighted_expectation(payoff, x_paths, curve)
                direct = np.asarray(payoff(y_term), dtype=float)
                dm = float(np.mean(direct))
                dse = float(np.std(direct, ddof=1) / math.sqrt(direct.size))
                lo_x, hi_x = est.estimate - 1.96 * est.std_error, \
                    est.estimate + 1.96 * est.std_error
                lo_y, hi_y = dm - 1.96 * dse, dm + 1.96 * dse
                assert max(lo_x, lo_y) <= min(hi_x, hi_y)

    def test_degenerate_weights_detected(self):
        params = validate_params(2.0, 2.0, 1.0, 0.7)
        curve = _linear_curve(slope=1.0, T=1.0)
        grid = GridSpec(1.0, 64)
        n = 64
        paths = []
        # synthetic paths with enormous opposing draws: one dominant weight
        for i in range(12):
            g = np.full(n, -30.0 if i == 0 else 30.0)
            paths.append(Path(grid=grid, frame=Frame.X, params=params,
                              values=np.full(n + 1, 1.0), gauss=g))
        with pytest.raises(DegenerateWeights):
            reweighted_expectation(lambda x: x, paths, curve)

    def test_empty_batch_rejected(self):
        curve = _linear_curve()
        with pytest.raises(ValueError):
            reweighted_expectation(lambda x: x, [], curve)
