"""Parameter validation, curve decomposition, densities and regime checks."""

import math

import numpy as np
import pytest
from scipy import integrate

from skewdiff.errors import (
    BNegative,
    DeltaBelowOne,
    NegativeCurve,
    NotNormalizable,
    POutOfRange,
    SigmaNonpositive,
)
from skewdiff.model import (
    builtin_curve,
    check_monotonicity,
    curve_from_csv,
    decompose_curve,
    reference_density,
    stationary_density_constant_barrier,
    validate_params,
)


class TestValidateParams:
    def test_valid_tuple(self):
        params = validate_params(2.0, 3.0, 1.0, 0.7)
        assert params.sigma == 2.0
        assert params.delta == 3.0

    def test_sigma_nonpositive(self):
        with pytest.raises(SigmaNonpositive):
            validate_params(0.0, 2.0, 1.0, 0.5)
        with pytest.raises(SigmaNonpositive):
            validate_params(-1.0, 2.0, 1.0, 0.5)

    def test_delta_below_one(self):
        with pytest.raises(DeltaBelowOne, match="semimartingale"):
            validate_params(2.0, 0.5, 0.0, 0.5)

    def test_b_negative(self):
        with pytest.raises(BNegative):
            validate_params(2.0, 2.0, -0.1, 0.5)

    def test_p_above_one_cites_nonexistence(self):
        with pytest.raises(POutOfRange, match="identically zero"):
            validate_params(2.0, 1.0, 0.0, 1.2)

    def test_p_extreme_cases_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(POutOfRange, match="extreme"):
                validate_params(2.0, 1.0, 0.0, p)

    def test_every_tuple_validates_or_raises_one_typed_error(self):
        # validation completeness over a randomized sweep
        rng = np.random.default_rng(0)
        for _ in range(300):
            sigma = rng.uniform(-1.0, 3.0)
            delta = rng.uniform(0.0, 4.0)
            b = rng.uniform(-0.5, 2.0)
            p = rng.uniform(-1.5, 1.5)
            try:
                params = validate_params(sigma, delta, b, p)
                assert params.sigma > 0 and params.delta >= 1
                assert params.b >= 0 and 0 < params.p < 1
            except (SigmaNonpositive, DeltaBelowOne, BNegative, POutOfRange):
                pass


class TestDecomposeCurve:
    def test_linear_increasing(self):
        curve = builtin_curve("linear", 2.0, intercept=1.0, slope=1.0)
        t = np.linspace(0.0, 2.0, 7)
        assert np.allclose(curve.beta(t), 1.0, atol=1e-10)
        assert np.allclose(curve.gamma(t), t, atol=1e-3)

    def test_exp_decay_is_all_beta(self):
        curve = builtin_curve("exp-decay", 1.0, level=1.0, rate=1.0)
        t = np.linspace(0.0, 1.0, 7)
        assert np.allclose(curve.gamma(t), 0.0, atol=1e-12)
        assert np.allclose(curve.beta(t), np.exp(-t), atol=1e-4)

    def test_sinusoidal_one_period(self):
        # each one-sided part of cos integrates to 2 over a full period
        curve = builtin_curve("sinusoidal", 2 * math.pi, level=1.0,
                              amplitude=1.0, frequency=1.0)
        assert math.isclose(float(curve.gamma(2 * math.pi)), 2.0, abs_tol=1e-3)
        assert math.isclose(float(curve.beta(2 * math.pi)), -1.0, abs_tol=1e-3)

    def test_negative_curve_rejected(self):
        with pytest.raises(NegativeCurve):
            builtin_curve("linear", 2.0, intercept=1.0, slope=-1.0)

    def test_random_curves_decomposition_consistency(self):
        # beta + gamma reproduces lambda; beta down, gamma up
        rng = np.random.default_rng(7)
        for _ in range(100):
            a0 = rng.uniform(1.0, 3.0)
            slope = rng.uniform(-0.2, 0.2)
            amp = rng.uniform(0.0, 0.4)
            freq = rng.uniform(0.5, 4.0)
            T = rng.uniform(0.5, 3.0)
            fn = lambda t: a0 + slope * np.asarray(t, float) \
                + amp * np.sin(freq * np.asarray(t, float))
            dfn = lambda t: slope + amp * freq * np.cos(freq * np.asarray(t, float))
            step = T / 500
            curve = decompose_curve(fn, dfn, T, quad_step=step)
            sup_d = abs(slope) + amp * freq
            tol = 10 * step * max(sup_d, 1.0)
            grid = curve.grid
            recon = curve.beta_vals + curve.gamma_vals
            assert np.max(np.abs(recon - fn(grid))) <= tol
            assert np.all(np.diff(curve.beta_vals) <= 1e-12)
            assert np.all(np.diff(curve.gamma_vals) >= -1e-12)
            assert curve.gamma_vals[0] == 0.0
            assert math.isclose(curve.beta_vals[0], float(fn(0.0)), rel_tol=1e-12)

    def test_curve_from_csv_roundtrip(self, tmp_path):
        ts = np.linspace(0.0, 1.0, 101)
        vs = 1.0 + 0.5 * ts
        f = tmp_path / "curve.csv"
        f.write_text("t,lambda\n" + "\n".join(f"{a},{b}" for a, b in zip(ts, vs)))
        curve = curve_from_csv(str(f))
        assert math.isclose(float(curve.lam(0.5)), 1.25, rel_tol=1e-9)
        assert math.isclose(float(curve.gamma(1.0)), 0.5, abs_tol=1e-3)
        assert math.isclose(float(curve.beta(1.0)), 1.0, abs_tol=1e-3)


class TestReferenceDensity:
    def setup_method(self):
        self.params = validate_params(2.0, 1.0, 0.0, 0.7)
        self.curve = builtin_curve("constant", 1.0, level=1.0)

    def test_upper_branch(self):
        assert reference_density(self.params, self.curve, 0.0, 2.0) == pytest.approx(0.7)

    def test_lower_branch(self):
        assert reference_density(self.params, self.curve, 0.0, 0.5) == pytest.approx(0.3)

    def test_outside_domain_is_zero(self):
        gam = float(self.curve.gamma(0.5))
        assert reference_density(self.params, self.curve, 0.5, -gam - 0.1) == 0.0

    def test_vectorized_and_nonnegative(self):
        x = np.linspace(-2.0, 4.0, 101)
        vals = reference_density(self.params, self.curve, 0.3, x)
        assert vals.shape == x.shape
        assert np.all(vals >= 0.0)


class TestCheckMonotonicity:
    def test_p_above_half_sinusoidal(self):
        params = validate_params(2.0, 1.0, 0.0, 0.7)
        curve = builtin_curve("sinusoidal", 3.0, level=1.0, amplitude=0.5)
        t = np.linspace(0.0, 3.0, 25)
        x = np.linspace(-1.0, 4.0, 41)
        assert check_monotonicity(params, curve, t, x).monotone_ok

    def test_low_p_with_constant_beta(self):
        params = validate_params(2.0, 1.0, 0.0, 0.3)
        curve = builtin_curve("linear", 2.0, intercept=1.0, slope=1.0)
        t = np.linspace(0.0, 2.0, 25)
        x = np.linspace(-2.0, 4.0, 41)
        assert check_monotonicity(params, curve, t, x).monotone_ok

    def test_low_p_decreasing_barrier_flagged(self):
        params = validate_params(2.0, 1.0, 0.0, 0.3)
        curve = builtin_curve("linear", 1.5, intercept=2.0, slope=-1.0)
        t = np.linspace(0.0, 1.5, 25)
        x = np.linspace(0.0, 4.0, 161)
        report = check_monotonicity(params, curve, t, x)
        assert not report.monotone_ok
        assert report.failures  # witnesses recorded
        # witnesses sit below the initial barrier where the weight drops
        assert any(x_w < 2.0 for _, x_w, _ in report.failures)

    def test_monotone_regime_on_random_curves(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 1.0, 17)
        x = np.linspace(-0.5, 4.0, 33)
        for _ in range(50):
            p = rng.uniform(0.5 + 1e-6, 1.0 - 1e-6)
            params = validate_params(2.0, rng.uniform(1.0, 3.0), 0.0, p)
            a0 = rng.uniform(1.0, 2.0)
            amp = rng.uniform(0.0, 0.3)
            freq = rng.uniform(0.5, 3.0)
            fn = lambda s: a0 + amp * np.sin(freq * np.asarray(s, float))
            dfn = lambda s: amp * freq * np.cos(freq * np.asarray(s, float))
            curve = decompose_curve(fn, dfn, 1.0, quad_step=1e-3)
            assert check_monotonicity(params, curve, t, x).monotone_ok


class TestStationaryDensity:
    def test_symmetric_case_is_exponential(self):
        params = validate_params(2.0, 2.0, 1.0, 0.5)
        x = np.linspace(0.1, 6.0, 50)
        vals = stationary_density_constant_barrier(params, 1.0, x)
        assert np.allclose(vals, 0.5 * np.exp(-x / 2.0), rtol=1e-8)

    def test_jump_ratio_at_barrier(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        lo = stationary_density_constant_barrier(params, 1.0, 1.0 - 1e-9)
        hi = stationary_density_constant_barrier(params, 1.0, 1.0 + 1e-9)
        assert hi / lo == pytest.approx(3.0, rel=1e-6)

    def test_mode_of_delta_four(self):
        params = validate_params(2.0, 4.0, 1.0, 0.5)
        x = np.linspace(0.05, 12.0, 2000)
        vals = stationary_density_constant_barrier(params, 1.0, x)
        assert x[np.argmax(vals)] == pytest.approx(2.0, abs=0.02)

    def test_normalization(self):
        params = validate_params(2.0, 3.0, 1.0, 0.8)
        total, _ = integrate.quad(
            lambda v: stationary_density_constant_barrier(params, 1.5, v),
            0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_b_zero_not_normalizable(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5)
        with pytest.raises(NotNormalizable):
            stationary_density_constant_barrier(params, 1.0, 1.0)
