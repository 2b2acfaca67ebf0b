"""Finite-difference oracle for the backward Kolmogorov problem.

Generator of the squared process, (sigma^2/2) x u_xx + (sigma^2/4)(delta -
b x) u_x, with a transmission condition at the barrier x = lambda^2(t):
continuity of u and the weighted flux matching p * u_x(+) = (1-p) * u_x(-),
discretized with one-sided second-order differences.  The x = 0 row is the
degenerate equation u_t + (sigma^2/4) delta u_x = 0 for every delta, since
the process leaves 0 at once (Feller 1951).  Time stepping is Crank-Nicolson
with Rannacher (fully implicit) startup steps, which keeps the refinement
study second order; interior convection switches to upwind where centered
differences would break the discrete maximum principle.

There is one SuperLU factorisation per (theta, interface row) key, reused by
every step with that key.  It gives the bits of a per-step ``spsolve``: on
a CSR matrix, ``spsolve`` hands SuperLU the CSR arrays as the CSC form of
A^T and solves transposed under COLAMD ordering, and ``splu`` of the same
arrays with ``solve(trans="T")`` repeats exactly that.  (``splu(A.tocsc())``
pivots differently and moves values by up to ~5e-11.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import mean_se
from .errors import GridTooCoarse, TruncationTooClose, UnstableSolve
from .model import Curve, ModelParams
from .paths import Frame, GridSpec, simulate_terminals

__all__ = ["PdeGrid", "PdeSolution", "solve_backward", "compare_mc_pde",
           "CrossCheckRow"]

_RANNACHER_STEPS = 4


@dataclass(frozen=True)
class PdeGrid:
    x_max: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if self.n_x < 200:
            raise ValueError("n_x must be >= 200")

    @property
    def dx(self) -> float:
        return self.x_max / (self.n_x - 1)

    def refined(self) -> "PdeGrid":
        """Halve dx (nested nodes) and dt."""
        return PdeGrid(self.x_max, 2 * self.n_x - 1, 2 * self.n_t)


@dataclass
class PdeSolution:
    x: np.ndarray
    u: np.ndarray  # shape (n_t + 1, n_x); u[0] is the time-0 value function

    def at(self, x0: float) -> float:
        return float(np.interp(x0, self.x, self.u[0]))


def _csr(bands: np.ndarray):
    """CSR matrix of (n, 5) bands at offsets -2..+2, exact zeros dropped."""
    from scipy.sparse import csr_matrix

    n = bands.shape[0]
    cols = np.arange(n)[:, None] + np.arange(-2, 3)
    keep = (bands != 0.0) & (cols >= 0) & (cols < n)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return csr_matrix((bands[keep], cols[keep], indptr), shape=(n, n))


def _build_matrices(params: ModelParams, x: np.ndarray, m_iface: int | None,
                    theta: float, dt: float):
    """(A, B) with A u_new = B u_old; algebraic rows carry constraints."""
    n = x.size
    dx = x[1] - x[0]
    sig2 = params.sigma ** 2
    a = sig2 / 2.0 * x / dx ** 2                 # diffusion
    conv = sig2 / 4.0 * (params.delta - params.b * x)
    lo = a - conv / (2.0 * dx)
    hi = a + conv / (2.0 * dx)
    # interior rows of L: upwind the convection where centering would make
    # an off-diagonal negative
    up = (lo < 0.0) | (hi < 0.0)
    cp = np.maximum(conv, 0.0) / dx
    cm = np.maximum(-conv, 0.0) / dx
    L = np.column_stack([np.where(up, a + cm, lo),
                         np.where(up, -(2.0 * a + cp + cm), -2.0 * a),
                         np.where(up, a + cp, hi)])
    A = np.zeros((n, 5))
    B = np.zeros((n, 5))
    A[:, 1:4] = -theta * dt * L
    B[:, 1:4] = (1.0 - theta) * dt * L
    A[:, 2] += 1.0
    B[:, 2] += 1.0
    A[[0, -1]] = B[[0, -1]] = 0.0   # boundary rows

    # x = 0: the degenerate equation itself, u_t + (sigma^2/4) delta u_x = 0,
    # with the inflow convection upwinded
    c0 = sig2 / 4.0 * params.delta / dx
    A[0, 2:4] = 1.0 + theta * dt * c0, -theta * dt * c0
    B[0, 2:4] = 1.0 - (1.0 - theta) * dt * c0, (1.0 - theta) * dt * c0
    # x = x_max: zero second derivative (linear extrapolation)
    A[-1, :3] = 1.0, -2.0, 1.0

    if m_iface is not None:
        p = params.p
        # (1-p) * d-(u) = p * d+(u), one-sided second order
        A[m_iface] = (1.0 - p), -4.0 * (1.0 - p), 3.0, -4.0 * p, p
        B[m_iface] = 0.0
    return _csr(A), _csr(B)


def solve_backward(params: ModelParams, barrier_sq, payoff, T: float,
                   grid: PdeGrid) -> PdeSolution:
    """Value function u(t, x) = E[f(R_T) | R_t = x] on [0, T] x [0, x_max]."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    x = np.linspace(0.0, grid.x_max, grid.n_x)
    dt = T / grid.n_t
    t = np.linspace(0.0, T, grid.n_t + 1)

    bsq = [float(barrier_sq(s)) for s in t]
    if not max(bsq) < 0.8 * grid.x_max:
        raise TruncationTooClose("barrier too close to the truncation level")
    indices = [int(round(b / grid.dx)) for b in bsq]
    if max(abs(a - b) for a, b in zip(indices[:-1], indices[1:])) > 1:
        raise GridTooCoarse("interface moves more than one cell per time step")
    # the interface row at each time; none at p = 1/2 or near the ends
    iface = [m if params.p != 0.5 and 2 <= m <= grid.n_x - 3 else None
            for m in indices]

    u = np.empty((grid.n_t + 1, grid.n_x))
    u[grid.n_t] = np.asarray(payoff(x), dtype=float)
    cache: dict = {}
    for j in range(grid.n_t - 1, -1, -1):
        theta = 1.0 if (grid.n_t - 1 - j) < _RANNACHER_STEPS else 0.5
        key = (theta, iface[j])
        if key not in cache:
            A, B = _build_matrices(params, x, iface[j], theta, dt)
            # A's CSR arrays read as CSC are A^T, as spsolve passes them
            At = csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
            cache[key] = A, B, splu(At)
        A, B, lu = cache[key]
        rhs = B @ u[j + 1]
        sol = lu.solve(rhs, trans="T")
        resid = np.abs(A @ sol - rhs).max()
        if resid > 1e-8 * max(1.0, np.abs(rhs).max()):
            raise UnstableSolve(f"linear solve residual {resid:.3e}")
        u[j] = sol
    return PdeSolution(x=x, u=u)


@dataclass
class CrossCheckRow:
    x0: float
    pde_value: float
    mc_value: float
    mc_se: float
    tolerance: float
    passed: bool


def compare_mc_pde(params: ModelParams, payoff, T: float, x0_list,
                   curve: Curve, coarse, fine, n_paths: int,
                   n_steps_mc: int, seed: int, extra_tol: float = 0.0,
                   threads: int = 1) -> list[CrossCheckRow]:
    """PDE value vs skew-scheme Monte Carlo at each starting point.

    ``coarse`` and ``fine`` are the values at each x0 (``PdeSolution.at``)
    of one problem solved on a grid and on its refinement, so no value
    surface need be alive while the Monte Carlo runs; the fine value is
    compared and their difference is the Richardson grid-bias estimate.
    Pass criterion per x0: |diff| <= 3*SE + grid bias + extra_tol.  The
    Monte Carlo side simulates square-root-frame paths started at sqrt(x0)
    and squares the terminals, with ``threads`` draw workers (see
    :func:`simulate_terminals`).  It mirrors crossings only: the finite
    band is a local-time device and adds O(band^3) drift near the barrier,
    visible in terminal laws.
    """
    mc_grid = GridSpec(T=T, n_steps=n_steps_mc)
    rows = []
    for k, (x0, pde_f, pde_c) in enumerate(zip(x0_list, fine, coarse)):
        y_term = simulate_terminals(params, curve, Frame.Y, math.sqrt(x0),
                                    mc_grid, n_paths, seed + k,
                                    band_width=0.0, threads=threads)
        f_vals = np.asarray(payoff(y_term ** 2), dtype=float)
        mc, se = mean_se(f_vals)
        tol = 3.0 * se + abs(pde_f - pde_c) + extra_tol
        rows.append(CrossCheckRow(x0=float(x0), pde_value=pde_f, mc_value=mc,
                                  mc_se=se, tolerance=tol,
                                  passed=bool(abs(pde_f - mc) <= tol)))
    return rows
