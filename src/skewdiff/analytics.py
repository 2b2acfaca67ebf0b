"""Analytic and statistical oracles for the simulation schemes.

Closed-form moments of the classical square-root process, a series
implementation of the noncentral chi-squared CDF (transition law of the
classical process), and the goodness-of-fit machinery used by the
verification experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# only scipy.special: the Poisson weights, the chi-squared tails and the KS
# p-value are written with its functions.  scipy.stats costs about 0.7 s and
# 45 MB that stay resident, so only ks_test's fallback imports it
from scipy import special

from .errors import SeriesNotConverged, TooFewSamples
from .model import ModelParams

__all__ = [
    "TestResult",
    "mean_se",
    "cir_moments",
    "noncentral_chisq_cdf",
    "cir_terminal_cdf",
    "besq_terminal_cdf",
    "ks_test",
    "stationary_test",
    "stationary_min_samples",
    "StationaryTestResult",
]


_LEVEL = 0.01  # of the KS and chi-squared tests
# the noncentral chi-squared series' largest Poisson tail and most terms
_SERIES_TOL, _MAX_TERMS = 1e-10, 100_000


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    passed: bool
    level: float


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``x`` and its standard error (ddof = 1)."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


def cir_moments(params: ModelParams, z0: float, t: float) -> tuple[float, float]:
    """Mean and variance of the classical (p = 1/2, no barrier) process.

    Drift (sigma^2/4)(delta - b z): rate kappa = sigma^2*b/4 toward delta/b;
    for b = 0 the mean grows linearly.
    """
    sig2 = params.sigma ** 2
    if params.b == 0:
        mean = z0 + sig2 * params.delta / 4.0 * t
        var = z0 * sig2 * t + params.delta * sig2 ** 2 * t * t / 8.0
        return mean, var
    kappa = sig2 * params.b / 4.0
    theta = params.delta / params.b
    e1 = math.exp(-kappa * t)
    mean = theta + (z0 - theta) * e1
    var = (z0 * sig2 / kappa * (e1 - e1 * e1)
           + theta * sig2 / (2.0 * kappa) * (1.0 - e1) ** 2)
    return mean, var


def _poisson_weights(mu: float, jmax: int) -> tuple[np.ndarray, float]:
    """Poisson(mu) pmf at 0..jmax and its mass above jmax.

    The formulas of ``scipy.stats.poisson`` (its ``_logpmf`` and ``_sf``),
    which they match bit for bit, without importing ``scipy.stats``.
    """
    js = np.arange(jmax + 1)
    pmf = np.exp(special.xlogy(js, mu) - special.gammaln(js + 1) - mu)
    return pmf, float(special.pdtrc(jmax, mu))


def noncentral_chisq_cdf(dof: float, noncentrality: float, x):
    """Poisson mixture of central chi-squared CDFs, to absolute _SERIES_TOL.

    The remaining Poisson mass bounds the truncation error because the
    central CDF terms are decreasing in the mixing index.
    """
    if dof <= 0:
        raise ValueError("dof must be positive")
    if noncentrality < 0:
        raise ValueError("noncentrality must be nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    half_nc = noncentrality / 2.0
    if half_nc == 0:
        out = special.chdtr(dof, x)
        return float(out) if out.ndim == 0 else out
    # enough terms that the Poisson tail is below _SERIES_TOL
    jmax = int(half_nc + 10.0 * math.sqrt(half_nc) + 50.0)
    if jmax > _MAX_TERMS:
        raise SeriesNotConverged(f"needs ~{jmax} terms, cap is {_MAX_TERMS}")
    js = np.arange(jmax + 1)
    weights, tail = _poisson_weights(half_nc, jmax)
    if tail > _SERIES_TOL:
        raise SeriesNotConverged(f"poisson tail {tail:.3e} above tolerance")
    terms = special.chdtr(dof + 2.0 * js[:, None], x[None, ...].reshape(1, -1))
    out = (weights @ terms).reshape(x.shape)
    if out.ndim == 0:
        return float(out)
    return out


def cir_terminal_cdf(params: ModelParams, z0: float, t: float):
    """CDF of the exact classical transition (b > 0) as a callable.

    No experiment calls it.  It is kept as the b > 0 oracle of the tests,
    which check it, and through it ``noncentral_chisq_cdf`` at a nonzero
    noncentrality and scaled argument, against ``scipy.stats.ncx2``.
    """
    kappa = params.sigma ** 2 * params.b / 4.0
    decay = math.exp(-kappa * t)
    two_c = params.b / -math.expm1(-kappa * t)
    nc = two_c * z0 * decay

    def cdf(x):
        return noncentral_chisq_cdf(params.delta, nc, two_c * np.maximum(x, 0.0))

    return cdf


def besq_terminal_cdf(params: ModelParams, z0: float, t: float):
    """CDF of the squared-Bessel-type transition (b = 0) as a callable."""
    scale = params.sigma ** 2 * t / 4.0

    def cdf(x):
        return noncentral_chisq_cdf(params.delta, z0 / scale,
                                    np.maximum(x, 0.0) / scale)

    return cdf


def ks_test(samples, cdf) -> TestResult:
    """Two-sided Kolmogorov-Smirnov test against a callable CDF, at _LEVEL.

    The statistic and p-value are those of ``scipy.stats.kstest`` (its
    exact method), bit for bit; ``_ks_sf`` gives the p-value.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 10:
        raise TooFewSamples(f"need >= 10 samples, got {n}")
    x = np.sort(samples)
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    p = _ks_sf(n, d)
    return TestResult(statistic=float(d), p_value=p, n=n,
                      passed=bool(p > _LEVEL), level=_LEVEL)


def _ks_sf(n: int, d) -> float:
    """P(D_n >= d) of the two-sided KS statistic, as ``scipy.stats.kstwo.sf``.

    The branches of scipy's ``_kolmogn(n, d, cdf=False)`` (Simard and
    L'Ecuyer, J. Stat. Softw. 39(11), 2011) that need only
    ``scipy.special``: for n > 140, 0 < d < 0.5 and 1 < nd < n - 1 it is 0
    when nd^2 >= 370, 2*smirnov(n, d) when nd^2 >= 2.2, and one minus the
    Pelz-Good CDF below that.  Smaller samples and Durbin's region
    (n <= 100,000 and n*d^1.5 <= 1.4) call ``kstwo.sf`` itself.  There p
    is near 1 only for large n: at the region's edge, d = (1.4/n)^(2/3),
    1 - p is 8.9e-2, 2.9e-3, 1.4e-5, 4.8e-7 and 3.7e-12 at n = 141, 1,000,
    5,000, 10,000 and 50,000, so it is not clipped to 1.
    """
    t = n * d
    nd2 = t * d
    if n > 140 and 0.0 < d < 0.5 and 1.0 < t < n - 1:
        if nd2 >= 370.0:
            return 0.0
        if nd2 >= 2.2:
            return float(np.clip(2 * special.smirnov(n, d), 0.0, 1.0))
        # np.power, as scipy applies it to d held in a 0-d array
        if not (n <= 100000 and n * np.power(d, 1.5) <= 1.4):
            return float(np.clip(1.0 - _pelz_good_cdf(n, d), 0.0, 1.0))
    from scipy import stats  # Durbin's matrix, Pomeranz's recursion, ...

    return float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))


# Ported from scipy.stats._ksstats._kolmogn_PelzGood (the cdf=True branch),
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD
# 3-Clause License.  Expressions and their order are kept, so the result
# matches scipy's bit for bit.
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
_SQRT2PI = np.sqrt(2 * np.pi)
_SQRT3 = np.sqrt(3)


def _pelz_good_cdf(n: int, x):
    """Pelz-Good (1976) approximation to P(D_n <= x), for 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x*sqrt(n), each term rewritten with Jacobi theta
    functions so that it converges for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:  # z below about 0.0417: q underflows
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme for the sums of c_i q^(i^2) over odd i = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k: (pi^2 k^2) q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def _gamma_mass(delta: float, b: float, lo: float, hi: float) -> float:
    """int_lo^hi x^(delta/2-1) e^(-b x/2) dx (b > 0), via gammainc."""
    a = delta / 2.0
    scale = (2.0 / b) ** a * special.gamma(a)
    return scale * (special.gammainc(a, b * hi / 2.0)
                    - special.gammainc(a, b * lo / 2.0))


def _stationary_quantile(params: ModelParams, c: float, q):
    """Quantile of the invariant law at a constant barrier c (b > 0).

    The law is (1-p)*Gamma(delta/2, rate b/2) below c and p*Gamma above,
    normalised; on each side of c the quantile inverts the regularised
    lower incomplete gamma function.
    """
    a, p = params.delta / 2.0, params.p
    g_c = special.gammainc(a, params.b * c / 2.0)
    mass = np.asarray(q) * ((1.0 - p) * g_c + p * (1.0 - g_c))
    below = mass / (1.0 - p)
    level = np.where(below < g_c, below, g_c + (mass - (1.0 - p) * g_c) / p)
    return 2.0 / params.b * special.gammaincinv(a, level)


def _integrated_autocorr(x: np.ndarray) -> float:
    """Integrated autocorrelation time (positive-sequence, at most 200 lags)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0:
        return 1.0
    tau = 1.0
    for k in range(1, min(200, n // 3)):
        rho = float(np.dot(x[:-k], x[k:])) / denom
        if rho < 0.05:
            break
        tau += 2.0 * rho
    return tau


@dataclass
class StationaryTestResult:
    gof: TestResult
    jump_ratio: float | None  # None when a jump window holds no sample
    target_ratio: float
    autocorr_time: float
    empty_window: str | None  # the first empty window, as "[lo, hi)"


_STATIONARY_BINS = 40
_JUMP_WINDOW = 0.5


def stationary_min_samples() -> int:
    """Fewest samples :func:`stationary_test` accepts."""
    return 10 * _STATIONARY_BINS


def stationary_test(samples, params: ModelParams,
                    c: float) -> StationaryTestResult:
    """Goodness-of-fit of thinned samples against the invariant density.

    Chi-squared on equal-probability bins at _LEVEL; the statistic is
    rescaled by the estimated integrated autocorrelation time since thinned
    samples from a single path stay correlated.  The jump ratio at the
    barrier compares shape-corrected window counts on both sides of c
    against p/(1-p); it is None when either window [c - h, c), [c, c + h)
    holds no sample.
    """
    samples = np.asarray(samples, dtype=float)
    need = stationary_min_samples()
    if samples.size < need:
        raise TooFewSamples(f"need >= {need} samples")

    bins = _STATIONARY_BINS
    probs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = _stationary_quantile(params, c, probs)
    counts = np.histogram(samples, bins=np.r_[0.0, edges, np.inf])[0]
    expected = samples.size / bins
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    tau = _integrated_autocorr(samples)
    adj = statistic / tau
    p_value = float(special.chdtrc(bins - 1, adj))  # chi2.sf(adj, bins - 1)
    gof = TestResult(statistic=adj, p_value=p_value, n=samples.size,
                     passed=bool(p_value > _LEVEL), level=_LEVEL)

    h = _JUMP_WINDOW
    n_below = int(np.sum((samples >= c - h) & (samples < c)))
    n_above = int(np.sum((samples >= c) & (samples < c + h)))
    m_below = _gamma_mass(params.delta, params.b, max(c - h, 0.0), c)
    m_above = _gamma_mass(params.delta, params.b, c, c + h)
    empty = [f"[{lo:g}, {hi:g})" for n, lo, hi in
             ((n_below, c - h, c), (n_above, c, c + h)) if n == 0]
    ratio = None if empty else float((n_above / m_above) / (n_below / m_below))
    return StationaryTestResult(gof=gof, jump_ratio=ratio,
                                target_ratio=params.p / (1.0 - params.p),
                                autocorr_time=tau,
                                empty_window=empty[0] if empty else None)
