"""Finite-difference oracle: conservativity, maximum principle, transmission."""

import hashlib
import inspect

import numpy as np
import pytest
from scipy import integrate
from scipy.sparse import csr_matrix, lil_matrix

import skewdiff.experiments as experiments
import skewdiff.pde as pde
from skewdiff.analytics import cir_terminal_cdf
from skewdiff.errors import GridTooCoarse
from skewdiff.model import builtin_curve, validate_params
from skewdiff.paths import exact_cir_step
from skewdiff.pde import (PdeGrid, _build_matrices, compare_mc_pde,
                          solve_backward)

PARAMS_SKEW = validate_params(2.0, 2.0, 1.0, 0.7)
PARAMS_SYM = validate_params(2.0, 2.0, 1.0, 0.5)
BARRIER_ONE = lambda t: 1.0
PAYOFF_CAP = lambda x: np.minimum(x, 2.0)
GRID = PdeGrid(x_max=8.0, n_x=401, n_t=256)


def _lil_matrices(params, x, m_iface, theta, dt):
    """Row-by-row lil assembly, the reference for the banded one."""
    n, dx, sig2 = x.size, x[1] - x[0], params.sigma ** 2
    A, B = lil_matrix((n, n)), lil_matrix((n, n))
    for i in range(1, n - 1):
        a = sig2 / 2.0 * x[i] / dx ** 2
        conv = sig2 / 4.0 * (params.delta - params.b * x[i])
        lo, hi, d = a - conv / (2.0 * dx), a + conv / (2.0 * dx), -2.0 * a
        if lo < 0.0 or hi < 0.0:
            cp, cm = max(conv, 0.0) / dx, max(-conv, 0.0) / dx
            lo, hi, d = a + cm, a + cp, -(2.0 * a + cp + cm)
        A[i, i - 1] = -theta * dt * lo
        A[i, i] = 1.0 - theta * dt * d
        A[i, i + 1] = -theta * dt * hi
        B[i, i - 1] = (1.0 - theta) * dt * lo
        B[i, i] = 1.0 + (1.0 - theta) * dt * d
        B[i, i + 1] = (1.0 - theta) * dt * hi
    c0 = sig2 / 4.0 * params.delta / dx
    A[0, 0], A[0, 1] = 1.0 + theta * dt * c0, -theta * dt * c0
    B[0, 0] = 1.0 - (1.0 - theta) * dt * c0
    B[0, 1] = (1.0 - theta) * dt * c0
    A[n - 1, n - 1], A[n - 1, n - 2], A[n - 1, n - 3] = 1.0, -2.0, 1.0
    if m_iface is not None:
        i, p = m_iface, params.p
        A.rows[i], A.data[i], B.rows[i], B.data[i] = [], [], [], []
        A[i, i - 2], A[i, i - 1], A[i, i] = 1.0 - p, -4.0 * (1.0 - p), 3.0
        A[i, i + 1], A[i, i + 2] = -4.0 * p, p
    return csr_matrix(A), csr_matrix(B)


@pytest.mark.parametrize("sigma, delta, b, p", [
    (2.0, 2.0, 1.0, 0.7), (2.0, 1.5, 1.0, 0.3), (2.0, 3.0, 0.0, 0.5),
    (1.0, 1.0, 2.0, 0.9), (2.0, 1.2, 5.0, 0.6),
])
def test_banded_assembly_matches_lil_reference(sigma, delta, b, p):
    params = validate_params(sigma, delta, b, p)
    x = np.linspace(0.0, 8.0, 401)
    for m_iface in (None, 5, 133):
        for theta in (1.0, 0.5):
            got = _build_matrices(params, x, m_iface, theta, 1.0 / 256)
            ref = _lil_matrices(params, x, m_iface, theta, 1.0 / 256)
            for g, r in zip(got, ref):
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(g, attr), getattr(r, attr))


class TestPdeGrid:
    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            PdeGrid(x_max=8.0, n_x=100, n_t=64)

    def test_refined_nests_nodes(self):
        g = GRID.refined()
        assert g.n_x == 801 and g.n_t == 512
        assert g.dx == pytest.approx(GRID.dx / 2.0)


class TestSolveBackward:
    def test_conservativity(self):
        sol = solve_backward(PARAMS_SKEW, BARRIER_ONE,
                             lambda x: np.ones_like(x), 1.0, GRID)
        assert float(np.max(np.abs(sol.u - 1.0))) <= 1e-10

    def test_discrete_maximum_principle(self):
        sol = solve_backward(PARAMS_SKEW, BARRIER_ONE, PAYOFF_CAP, 1.0, GRID)
        assert float(np.min(sol.u)) >= 0.0 - 1e-12
        assert float(np.max(sol.u)) <= 2.0 + 1e-12

    def test_symmetric_p_matches_no_interface_row(self):
        # at p = 1/2 the transmission row is pure C^1 continuity; the solver
        # must coincide with the plain operator on the same grid
        sol_a = solve_backward(PARAMS_SYM, BARRIER_ONE, PAYOFF_CAP, 1.0, GRID)
        sol_b = solve_backward(PARAMS_SYM, lambda t: 0.0, PAYOFF_CAP, 1.0, GRID)
        assert float(np.max(np.abs(sol_a.u - sol_b.u))) <= 1e-10

    def test_matches_exact_transition_monte_carlo(self):
        sol = solve_backward(PARAMS_SYM, BARRIER_ONE, PAYOFF_CAP, 1.0,
                             GRID.refined())
        rng = np.random.default_rng(5)
        z = exact_cir_step(PARAMS_SYM, np.full(1_000_000, 1.0), 1.0, rng)
        mc = float(np.mean(np.minimum(z, 2.0)))
        assert abs(sol.at(1.0) - mc) <= 0.01

    def test_p_sensitivity_direction(self):
        # more upward skew pushes mass across the barrier: u increases in p
        vals = []
        for p in (0.3, 0.5, 0.7):
            params = validate_params(2.0, 2.0, 1.0, p)
            vals.append(solve_backward(params, BARRIER_ONE, PAYOFF_CAP, 1.0,
                                       GRID).at(1.0))
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("delta", [1.0, 1.5, 2.0])
    def test_refinement_factor(self, delta):
        params = validate_params(2.0, delta, 1.0, 0.7)
        g1, g2, g3 = GRID, GRID.refined(), GRID.refined().refined()
        u = [solve_backward(params, BARRIER_ONE, PAYOFF_CAP, 1.0, g).at(1.0)
             for g in (g1, g2, g3)]
        factor = abs(u[2] - u[1]) / abs(u[1] - u[0])
        assert factor <= 0.35

    @pytest.mark.parametrize("delta", [1.0, 1.5, 2.0, 3.0])
    def test_matches_exact_law(self, delta):
        # at p = 1/2 the law of R_T is noncentral chi-squared for every
        # delta, and E[min(R_T, 2)] is the integral of P(R_T > x) over [0, 2]
        params = validate_params(2.0, delta, 1.0, 0.5)
        sol = solve_backward(params, BARRIER_ONE, PAYOFF_CAP, 1.0,
                             PdeGrid(x_max=16.0, n_x=401, n_t=256))
        for x0 in (0.05, 1.0, 2.0):
            cdf = cir_terminal_cdf(params, x0, 1.0)
            exact, _ = integrate.quad(lambda x: 1.0 - cdf(x), 0.0, 2.0)
            assert abs(sol.at(x0) - exact) <= 5e-4, x0

    def test_barrier_too_close_to_truncation(self):
        with pytest.raises(ValueError):
            solve_backward(PARAMS_SKEW, lambda t: 7.5, PAYOFF_CAP, 1.0, GRID)

    # sha256 of u.tobytes() from the per-step spsolve solver with lil
    # assembly; the factor-once solver must reproduce every bit
    @pytest.mark.parametrize("delta, p, barrier, digest", [
        (2.0, 0.7, lambda t: 1.0, "d39a7a38e9a9fbc66bec27db155cf53a"
                                  "ee8783d28172aca6af57ea25f22f2204"),
        # delta < 2, on the x = 0 row that test_matches_exact_law checks
        (1.5, 0.3, lambda t: 1.0, "426f7946907554b7c122e3b760fbb78b"
                                  "7168d12c15a46a40709197df48129ea9"),
        # no interface row
        (2.0, 0.5, lambda t: 1.0, "4b6fce1bfc6bf067fdcba43409cb04f9"
                                  "b2724095b2ea2c629f2fd8505c9a8b1a"),
        # moving barrier: one factorisation per interface row it crosses
        (2.0, 0.7, lambda t: 1.0 + 0.5 * t,
         "19a8370db2d312e558bdc949ccaad63a18e6511e6971f2296b61d1fed32119d1"),
    ])
    def test_golden_bits(self, delta, p, barrier, digest):
        params = validate_params(2.0, delta, 1.0, p)
        sol = solve_backward(params, barrier, PAYOFF_CAP, 1.0, GRID)
        assert hashlib.sha256(sol.u.tobytes()).hexdigest() == digest

    def test_fast_moving_interface_flagged(self):
        coarse = PdeGrid(x_max=8.0, n_x=401, n_t=8)
        with pytest.raises(GridTooCoarse):
            solve_backward(PARAMS_SKEW, lambda t: 1.0 + 2.0 * t, PAYOFF_CAP,
                           1.0, coarse)


def _coarse_fine(params, x0_list):
    """The coarse and the fine values at each x0, as compare_mc_pde takes them."""
    return [[sol.at(x0) for x0 in x0_list]
            for sol in (solve_backward(params, BARRIER_ONE, PAYOFF_CAP, 1.0, g)
                        for g in (GRID, GRID.refined()))]


class TestCompareMcPde:
    def test_symmetric_case_passes(self):
        curve = builtin_curve("constant", 1.0, level=1.0)
        rows = compare_mc_pde(PARAMS_SYM, PAYOFF_CAP, 1.0, [1.0], curve,
                              *_coarse_fine(PARAMS_SYM, [1.0]), n_paths=20000,
                              n_steps_mc=1024, seed=3)
        assert all(r.passed for r in rows)

    def test_mismatched_p_detected(self):
        # PDE at p=0.7 against symmetric Monte Carlo paths must disagree
        curve = builtin_curve("constant", 1.0, level=1.0)
        params_mc = validate_params(2.0, 2.0, 1.0, 0.5)
        sol = solve_backward(PARAMS_SKEW, BARRIER_ONE, PAYOFF_CAP, 1.0,
                             GRID.refined())
        rows = compare_mc_pde(params_mc, PAYOFF_CAP, 1.0, [0.5, 1.0, 2.0],
                              curve, *_coarse_fine(params_mc, [0.5, 1.0, 2.0]),
                              n_paths=20000,
                              n_steps_mc=1024, seed=4)
        mismatched = [abs(sol.at(r.x0) - r.mc_value) > r.tolerance
                      for r in rows]
        assert any(mismatched)

    def test_mirrors_crossings_only(self, monkeypatch):
        bands = []
        simulate = pde.simulate_terminals

        def recorded(*args, **kw):
            call = inspect.signature(simulate).bind(*args, **kw)
            call.apply_defaults()
            bands.append(call.arguments["band_width"])
            return simulate(*args, **kw)

        monkeypatch.setattr(pde, "simulate_terminals", recorded)
        curve = builtin_curve("constant", 1.0, level=1.0)
        compare_mc_pde(PARAMS_SKEW, PAYOFF_CAP, 1.0, [0.5, 1.0], curve,
                       [0.0, 0.0], [0.0, 0.0], n_paths=10, n_steps_mc=8,
                       seed=0)
        assert bands == [0.0, 0.0]

    def test_cross_check_solves_each_grid_once(self, monkeypatch):
        grids = []

        def counting(params, barrier_sq, payoff, T, grid):
            grids.append((grid.n_x, grid.n_t))
            return solve_backward(params, barrier_sq, payoff, T, grid)

        # compare_mc_pde would find solve_backward in its own module
        monkeypatch.setattr(experiments, "solve_backward", counting)
        monkeypatch.setattr(pde, "solve_backward", counting)
        cfg = experiments.default_config("pde-cross-check", seed=0)
        cfg.update(n_paths=200, grid={"T": 1.0, "n_steps": 64})
        cfg["options"].update(n_x=201, n_t=16)
        experiments.run_experiment(cfg)
        assert sorted(grids) == [(201, 16), (401, 32), (801, 64)]
