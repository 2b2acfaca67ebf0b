"""Local-time estimators and the identities they are built to verify."""

import numpy as np
import pytest

from skewdiff.errors import FrameMismatch
from skewdiff.localtime import (
    check_relloc,
    default_band,
    occupation_estimate,
    tanaka_residual,
)
from skewdiff.model import builtin_curve, validate_params
from skewdiff.paths import (
    Frame,
    GridSpec,
    Path,
    simulate_paths,
    square_path,
)

CONSTANT_ONE = builtin_curve("constant", 4.0, level=1.0)
PARAMS = validate_params(2.0, 2.0, 1.0, 0.75)


def _synthetic_path(values, T=1.0, frame=Frame.Y, params=PARAMS):
    values = np.asarray(values, dtype=float)
    grid = GridSpec(T=T, n_steps=values.size - 1)
    return Path(grid=grid, frame=frame, params=params, values=values,
                gauss=np.zeros(values.size - 1))


def _skew_paths(n, n_steps, params=PARAMS, curve=CONSTANT_ONE, y0=1.0):
    """n Y-frame paths on [0, 2], one batch at root seed 0."""
    return simulate_paths(params, curve, Frame.Y, y0,
                          GridSpec(T=2.0, n_steps=n_steps), n, 0)


def _skew_path(n_steps=2 ** 13):
    return _skew_paths(1, n_steps)[0]


class TestOccupation:
    def test_path_far_above_barrier_gives_zero(self):
        path = _synthetic_path(np.full(65, 5.0))
        est = occupation_estimate(path, 1.0, eps=0.1)
        assert est.upper[-1] == 0.0
        assert est.lower[-1] == 0.0

    def test_frozen_at_barrier_rate(self):
        # indicator fires every step: upper mass (sigma^2/4) * t / eps
        path = _synthetic_path(np.full(101, 1.0), T=1.0)
        eps = 0.05
        est = occupation_estimate(path, 1.0, eps)
        expected = PARAMS.sigma ** 2 / 4.0 * 1.0 / eps
        assert est.upper[-1] == pytest.approx(expected)

    def test_lower_mirror(self):
        path = _synthetic_path(np.full(101, 0.98), T=1.0)
        est = occupation_estimate(path, 1.0, eps=0.05)
        assert est.lower[-1] > 0.0
        assert est.upper[-1] == 0.0

    def test_monotone_and_symmetric_identity(self):
        path = _skew_path()
        est = occupation_estimate(path, lambda t: CONSTANT_ONE.lam(t),
                                  default_band(path))
        assert np.all(np.diff(est.upper) >= 0.0)
        assert np.all(np.diff(est.lower) >= 0.0)
        assert np.array_equal(est.symmetric, (est.upper + est.lower) / 2.0)

    def test_support_only_within_band(self):
        path = _skew_path(n_steps=1024)
        eps = default_band(path)
        est = occupation_estimate(path, 1.0, eps)
        grows = np.diff(est.symmetric) > 0.0
        near = np.abs(path.values[:-1] - 1.0) <= eps
        assert np.all(near[grows])

    def test_r_frame_rejected(self):
        path = square_path(_skew_path(n_steps=256))
        with pytest.raises(FrameMismatch):
            occupation_estimate(path, 1.0, 0.1)

    def test_band_shrink_occupation_fraction(self):
        # the barrier level set is Lebesgue-null: halving the band must
        # shrink the occupation fraction to at most 0.75 of itself on average
        fractions = {0.5: [], 1.0: []}
        for path in _skew_paths(20, 2 ** 12):
            eps = default_band(path)
            diff = np.abs(path.values[:-1] - 1.0)
            for mult in fractions:
                fractions[mult].append(float(np.mean(diff < mult * eps)))
        assert np.mean(fractions[0.5]) <= 0.75 * np.mean(fractions[1.0])


class TestTanaka:
    def test_no_touch_small_residual(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        grid = GridSpec(T=0.25, n_steps=4096)
        curve = builtin_curve("constant", 1.0, level=8.0)
        path = simulate_paths(params, curve, Frame.Y, 1.0, grid, n_paths=1,
                              seed=1)[0]
        assert float(np.max(path.values)) < 7.0
        est = tanaka_residual(path, 8.0)
        assert abs(est.symmetric[-1]) <= 0.05

    def test_constant_path_at_barrier_is_zero(self):
        path = _synthetic_path(np.full(33, 1.0))
        est = tanaka_residual(path, 1.0)
        assert np.all(est.symmetric == 0.0)

    def test_cross_estimator_agreement(self):
        # occupation and Tanaka target the same symmetric local time; the
        # level is away from any mirror barrier so both are applicable
        curve = builtin_curve("constant", 4.0, level=0.0)
        occ_t, tan_t = [], []
        for path in _skew_paths(40, 2 ** 13, curve=curve):
            eps = default_band(path)
            occ_t.append(occupation_estimate(path, 1.0, eps).symmetric[-1])
            tan_t.append(tanaka_residual(path, 1.0).symmetric[-1])
        occ, tan = float(np.mean(occ_t)), float(np.mean(tan_t))
        assert occ > 0.1
        assert abs(occ - tan) / occ <= 0.10


class TestRelloc:
    def test_frames_checked(self):
        y = _skew_path(n_steps=256)
        r = square_path(y)
        with pytest.raises(FrameMismatch):
            check_relloc(y, y, CONSTANT_ONE, 0.05)
        with pytest.raises(FrameMismatch):
            check_relloc(r, r, CONSTANT_ONE, 0.05)

    def test_mismatched_values_rejected(self):
        y = _skew_path(n_steps=256)
        fake = _synthetic_path(np.full(257, 2.0), T=2.0, frame=Frame.R)
        with pytest.raises(FrameMismatch):
            check_relloc(fake, y, CONSTANT_ONE, 0.05)

    def test_no_touch_gives_zero_both_sides(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        curve = builtin_curve("constant", 1.0, level=9.0)
        y = simulate_paths(params, curve, Frame.Y, 1.0, GridSpec(1.0, 1024),
                           n_paths=1, seed=3)[0]
        rep = check_relloc(square_path(y), y, curve, 0.02)
        assert rep.r_terminal == 0.0
        assert rep.y_weighted == 0.0

    def test_residual_small_on_skew_paths(self):
        residuals = []
        for y in _skew_paths(10, 2 ** 14):
            eps = default_band(y)
            rep = check_relloc(square_path(y), y, CONSTANT_ONE, eps)
            residuals.append(rep.residual)
        assert float(np.mean(residuals)) <= 0.10

    def test_weight_factor_at_higher_barrier(self):
        # barrier at 2: d<R>-mass per unit Y local time approaches 2*sqrt(R)=4
        params = validate_params(2.0, 2.0, 0.25, 0.75)
        curve = builtin_curve("constant", 2.0, level=2.0)
        factors = []
        for y in _skew_paths(10, 2 ** 14, params, curve, y0=2.0):
            eps = default_band(y)
            rep = check_relloc(square_path(y), y, curve, eps)
            sym = occupation_estimate(y, 2.0, eps).symmetric[-1]
            if sym > 0.1:
                factors.append(rep.r_terminal / sym)
        assert factors and float(np.mean(factors)) == pytest.approx(4.0, rel=0.10)


def _ratios(est):
    """Terminal upper/symmetric and lower/symmetric local-time ratios."""
    return est.upper[-1] / est.symmetric[-1], est.lower[-1] / est.symmetric[-1]


class TestRelationRatios:
    # the targets are 2p and 2(1 - p)
    def test_symmetric_p_targets_one(self):
        params = validate_params(2.0, 2.0, 1.0, 0.5)
        ratios = []
        for path in _skew_paths(10, 2 ** 13, params):
            est = occupation_estimate(path, 1.0, default_band(path))
            ratios.append(_ratios(est))
        up, lo = np.mean(ratios, axis=0)
        assert up == pytest.approx(1.0, rel=0.1)
        assert lo == pytest.approx(1.0, rel=0.1)

    def test_skew_targets(self):
        ratios = []
        for path in _skew_paths(20, 2 ** 13):
            est = occupation_estimate(path, 1.0, default_band(path))
            ratios.append(_ratios(est))
        up, lo = np.mean(ratios, axis=0)
        assert up == pytest.approx(1.5, rel=0.10)
        assert lo == pytest.approx(0.5, rel=0.10)
