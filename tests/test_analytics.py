"""Analytic oracles: moments, transition laws, densities and GOF tests."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from skewdiff.analytics import (
    _ks_sf,
    _poisson_weights,
    _stationary_quantile,
    besq_terminal_cdf,
    cir_moments,
    cir_terminal_cdf,
    ks_test,
    noncentral_chisq_cdf,
    stationary_test,
)
from skewdiff.errors import TooFewSamples
from skewdiff.model import stationary_density_constant_barrier, validate_params


class TestCirMoments:
    def test_time_zero(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        assert cir_moments(params, 1.7, 0.0) == (1.7, 0.0)

    def test_acceptance_value(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        mean, var = cir_moments(params, 1.0, 1.0)
        assert mean == pytest.approx(3.0 - 2.0 * math.exp(-1.0), rel=1e-12)
        assert var > 0.0

    def test_long_horizon_reaches_level(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        mean, _ = cir_moments(params, 10.0, 100.0)
        assert mean == pytest.approx(3.0, rel=1e-10)

    def test_b_zero_branch_linear_growth(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5)
        mean, var = cir_moments(params, 1.0, 2.0)
        assert mean == pytest.approx(1.0 + 2.0 * 2.0)
        assert var == pytest.approx(1.0 * 4.0 * 2.0 + 2.0 * 16.0 * 4.0 / 8.0)

    def test_continuity_as_b_vanishes(self):
        small = validate_params(2.0, 2.0, 1e-8, 0.5)
        zero = validate_params(2.0, 2.0, 0.0, 0.5)
        m1, v1 = cir_moments(small, 1.0, 1.0)
        m0, v0 = cir_moments(zero, 1.0, 1.0)
        assert abs(m1 - m0) / m0 <= 1e-4
        assert abs(v1 - v0) / v0 <= 1e-4

    def test_moments_match_exact_law(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        mean, var = cir_moments(params, 1.0, 1.0)
        # integrate the transition CDF numerically for the first two moments
        cdf = cir_terminal_cdf(params, 1.0, 1.0)
        m_num, _ = integrate.quad(lambda x: 1.0 - cdf(x), 0.0, 200.0, limit=300)
        assert m_num == pytest.approx(mean, rel=1e-6)


class TestNoncentralChisqCdf:
    def test_central_case_closed_form(self):
        x = np.linspace(0.0, 10.0, 21)
        assert np.allclose(noncentral_chisq_cdf(2.0, 0.0, x),
                           1.0 - np.exp(-x / 2.0), atol=1e-12)

    def test_median_round_trip(self):
        m = optimize.brentq(lambda v: noncentral_chisq_cdf(2.0, 1.0, v) - 0.5,
                            1e-9, 50.0, xtol=1e-12)
        assert abs(noncentral_chisq_cdf(2.0, 1.0, m) - 0.5) <= 1e-9

    def test_monotone_in_x(self):
        x = np.linspace(0.0, 30.0, 1000)
        vals = noncentral_chisq_cdf(3.0, 2.5, x)
        assert np.all(np.diff(vals) >= 0.0)

    def test_against_density_integration(self):
        # independent oracle: integrate scipy's noncentral chi-squared pdf
        rng = np.random.default_rng(11)
        for _ in range(100):
            dof = rng.uniform(1.0, 8.0)
            nc = rng.uniform(0.0, 10.0)
            x = rng.uniform(0.1, 20.0)
            ref, _ = integrate.quad(lambda v: stats.ncx2.pdf(v, dof, nc),
                                    0.0, x, limit=200)
            assert abs(noncentral_chisq_cdf(dof, nc, x) - ref) <= 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(2.0, 1.0, -0.5)


class TestTerminalCdfs:
    def test_cir_cdf_matches_scipy_transform(self):
        params = validate_params(2.0, 3.0, 1.0, 0.5)
        cdf = cir_terminal_cdf(params, 1.0, 1.0)
        kappa = 1.0
        two_c = 1.0 / -math.expm1(-kappa)
        nc = two_c * math.exp(-kappa)
        x = np.linspace(0.1, 12.0, 25)
        ref = stats.ncx2.cdf(two_c * x, 3.0, nc)
        assert np.allclose(cdf(x), ref, atol=1e-9)

    def test_besq_cdf_matches_scipy_transform(self):
        params = validate_params(2.0, 2.0, 0.0, 0.5)
        cdf = besq_terminal_cdf(params, 1.0, 1.0)
        x = np.linspace(0.1, 12.0, 25)
        ref = stats.ncx2.cdf(x, 2.0, 1.0)
        assert np.allclose(cdf(x), ref, atol=1e-9)


class TestKsTest:
    def test_self_consistency(self):
        # inverse-transform samples from the tested CDF should pass
        rng = np.random.default_rng(0)
        passed = 0
        for trial in range(20):
            u = rng.random(10000)
            samples = -2.0 * np.log1p(-u)  # exponential mean 2 = chi2(2)
            res = ks_test(samples, lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0))
            passed += res.passed
        assert passed >= 19

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(1)
        samples = -2.0 * np.log1p(-rng.random(10000)) + 0.5
        res = ks_test(samples, lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0))
        assert not res.passed

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            ks_test(np.ones(5), lambda x: x)

    # (n, shift of exponential samples, seed, the p-value branch it hits)
    SWEEP = [
        (141, 0.0, 3, "pelz-good"),  # at the smallest n it serves
        (2000, 0.0, 0, "pelz-good"),
        (60000, 0.0, 1, "pelz-good"),
        (150000, 0.0, 2, "pelz-good"),  # above Durbin's n <= 100,000
        (150000, 0.002, 2, "pelz-good"),
        (2000, 0.1, 4, "smirnov"),
        (20000, 0.02, 5, "smirnov"),
        (20000, 0.5, 6, "zero"),
        (140, 0.0, 7, "fallback"),
        (50, 0.3, 8, "fallback"),
    ]

    @staticmethod
    def _branch(n, d):
        """Which branch of ``_ks_sf`` serves (n, d), from its conditions."""
        if n <= 140 or not (0.0 < d < 0.5 and 1.0 < n * d < n - 1):
            return "fallback"
        if n * d * d >= 370.0:
            return "zero"
        if n * d * d >= 2.2:
            return "smirnov"
        if n <= 100000 and n * d ** 1.5 <= 1.4:
            return "durbin"
        return "pelz-good"

    def _check_against_kstest(self, samples, branch):
        cdf = lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0)
        res = ks_test(samples, cdf)
        ref = stats.kstest(samples, cdf)
        assert self._branch(samples.size, res.statistic) == branch
        assert res.statistic == float(ref.statistic)
        assert res.p_value == float(ref.pvalue)

    @pytest.mark.parametrize("n,shift,seed,branch", SWEEP)
    def test_matches_scipy_kstest_bit_for_bit(self, n, shift, seed, branch):
        rng = np.random.default_rng(seed)
        samples = -2.0 * np.log1p(-rng.random(n)) + shift
        self._check_against_kstest(samples, branch)

    def test_durbin_region_falls_back(self):
        # squeezed quantiles of the tested law put D near 0.0025 at
        # n = 5,000: nD > 1 and n*D^1.5 <= 1.4
        n = 5000
        u = (np.arange(n) + 0.5) / n * 0.998
        self._check_against_kstest(-2.0 * np.log1p(-u), "durbin")

    def test_sf_matches_kstwo_on_a_grid(self):
        # every branch of _ks_sf, fallbacks included, against kstwo.sf
        for n in (100, 141, 1000, 20000, 100001):
            for d in np.geomspace(1.01 / n, 0.499, 25):
                want = float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))
                assert _ks_sf(n, np.float64(d)) == want, (n, d)


class TestStationaryTest:
    def _samples(self, params, c, n, seed):
        # direct iid sampling from the invariant law by rejection between
        # the two gamma branches
        rng = np.random.default_rng(seed)
        out = np.empty(n)
        filled = 0
        while filled < n:
            draw = rng.gamma(params.delta / 2.0, 2.0 / params.b,
                             size=2 * (n - filled))
            w = np.where(draw >= c, params.p, 1.0 - params.p)
            keep = draw[rng.random(draw.size) < w / max(params.p, 1 - params.p)]
            take = keep[: n - filled]
            out[filled:filled + take.size] = take
            filled += take.size
        return out

    def test_correct_law_passes_with_jump_ratio(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        samples = self._samples(params, 1.0, 30000, 0)
        res = stationary_test(samples, params, 1.0)
        assert res.gof.passed
        assert res.target_ratio == pytest.approx(3.0)
        assert res.jump_ratio == pytest.approx(3.0, rel=0.10)

    def test_wrong_skew_fails(self):
        params_true = validate_params(2.0, 2.0, 1.0, 0.25)
        params_tested = validate_params(2.0, 2.0, 1.0, 0.75)
        samples = self._samples(params_true, 1.0, 30000, 1)
        res = stationary_test(samples, params_tested, 1.0)
        assert not res.gof.passed

    def test_symmetric_case_no_jump(self):
        params = validate_params(2.0, 2.0, 1.0, 0.5)
        samples = self._samples(params, 1.0, 30000, 2)
        res = stationary_test(samples, params, 1.0)
        assert res.gof.passed
        assert res.jump_ratio == pytest.approx(1.0, rel=0.10)

    def test_too_few_samples(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        with pytest.raises(TooFewSamples):
            stationary_test(np.ones(50), params, 1.0)

    def test_empty_window_gives_no_ratio(self):
        # no sample in [c - h, c) = [0.5, 1): the ratio is undefined
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        samples = self._samples(params, 1.0, 3000, 3)
        res = stationary_test(samples[samples >= 1.0], params, 1.0)
        assert res.jump_ratio is None
        assert res.empty_window == "[0.5, 1)"
        assert res.target_ratio == pytest.approx(3.0)
        res = stationary_test(samples, params, 1.0)
        assert res.jump_ratio is not None and res.empty_window is None

    def test_p_value_is_scipy_chi2_sf(self):
        params = validate_params(2.0, 2.0, 1.0, 0.75)
        for seed in range(3):
            res = stationary_test(self._samples(params, 1.0, 5000, seed),
                                  params, 1.0)
            assert res.gof.p_value == float(
                stats.chi2.sf(res.gof.statistic, 39))


# (delta, b, p, c): p = 1/2, and barriers far below and far above the
# mean level delta/b
_STATIONARY_CASES = [(2.0, 1.0, 0.75, 1.0), (2.0, 1.0, 0.5, 1.0),
                     (1.0, 1.0, 0.3, 0.01), (3.0, 2.0, 0.5, 1e-4),
                     (2.0, 1.0, 0.9, 40.0), (5.0, 0.5, 0.3, 60.0),
                     (1.5, 0.25, 0.6, 4.0)]


def _two_piece_cdf(params, c, x):
    """The invariant law's CDF from its definition: (1-p)*Gamma mass below
    c and p*Gamma mass above, shape delta/2 and rate b/2, normalised."""
    a, p = params.delta / 2.0, params.p
    g = lambda v: special.gammainc(a, params.b * v / 2.0)
    z = (1.0 - p) * g(c) + p * (1.0 - g(c))
    return ((1.0 - p) * g(min(x, c)) + p * max(g(x) - g(c), 0.0)) / z


class TestStationaryClosedForms:
    @pytest.mark.parametrize("case", _STATIONARY_CASES)
    def test_quantile_inverts_the_cdf(self, case):
        delta, b, p, c = case
        params = validate_params(2.0, delta, b, p)
        probs = np.linspace(0.0, 1.0, 41)[1:-1]
        edges = _stationary_quantile(params, c, probs)
        assert np.all(np.diff(edges) > 0)
        for q, x in zip(probs, edges):
            assert abs(_two_piece_cdf(params, c, x) - q) <= 1e-12, (q, x)
        # the bracketed root search the closed form replaced
        roots = [optimize.brentq(
            lambda v, q=q: _two_piece_cdf(params, c, v) - q, 1e-12, 1e3)
            for q in probs]
        assert np.max(np.abs(edges - roots)) <= 1e-10

    @pytest.mark.parametrize("case", _STATIONARY_CASES)
    def test_density_integrates_to_one(self, case):
        delta, b, p, c = case
        params = validate_params(2.0, delta, b, p)
        f = lambda v: stationary_density_constant_barrier(params, c, v)
        tol = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
        total = (integrate.quad(f, 0.0, c, **tol)[0]
                 + integrate.quad(f, c, np.inf, **tol)[0])
        assert abs(total - 1.0) <= 1e-10


class TestScipySpecialForms:
    """The scipy.special forms used in place of scipy.stats laws give the
    same bits; these catch a scipy release that changes either side."""

    def test_poisson_weights_and_tail(self):
        for mu in np.geomspace(1e-8, 500.0, 400):
            # the term count noncentral_chisq_cdf uses for half_nc = mu
            jmax = int(mu + 10.0 * math.sqrt(mu) + 50.0)
            weights, tail = _poisson_weights(mu, jmax)
            js = np.arange(jmax + 1)
            assert np.array_equal(weights, stats.poisson.pmf(js, mu)), mu
            assert tail == float(stats.poisson.sf(jmax, mu)), mu

    def test_chi2_survival(self):
        x = np.concatenate([np.geomspace(1e-6, 400.0, 2000), [0.0]])
        for dof in (1, 39, 100):
            assert np.array_equal(special.chdtrc(dof, x),
                                  stats.chi2.sf(x, dof))
