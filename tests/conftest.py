import math

import numpy as np
import pytest

from capcmk import CapField, CapGrid, CapParams, ell, ell_field, solve_path, solver

THETA = math.pi / 3


def manufactured_phi(grid, params, r):
    """Data whose exact solution is r times the model function."""
    lv = ell(params.theta, grid.beta_all)[:, None]
    vals = params.cnk * r ** (params.k + 1.0 - params.p) * lv ** (1.0 - params.p)
    return CapField(grid, np.broadcast_to(vals, (grid.nbeta + 1, grid.nphi)).copy(), even=True)


def manufactured_reference(grid, params, r):
    lv = ell(params.theta, grid.beta_all)[:, None]
    return CapField(grid, np.broadcast_to(r * lv, (grid.nbeta + 1, grid.nphi)).copy(), even=True)


def plain_continuation(phi, params, sched, s0=None):
    """The continuation alone on phi's grid, from s0 or C(n,k)^(-1/k) ell:
    `solver.run_continuation` with `newton_solve` as its corrector, the
    reference for solve_path's fallback and for its path from a given s0."""
    if s0 is None:
        s0 = params.cnk ** (-1.0 / params.k) * ell_field(phi.grid)
    return solver.run_continuation(
        lambda s, q, rhs, lu: solver.newton_solve(s, q, rhs, params, sched, lu),
        lambda t: solver.homotopy_rhs(t, phi, params), s0, sched,
        grid=f"{phi.grid.nbeta}x{phi.grid.nphi}")


@pytest.fixture(scope="session")
def params_k1():
    return CapParams(n=2, k=1, p=1.5, theta=THETA)


@pytest.fixture(scope="session")
def grid_16(params_k1):
    return CapGrid(16, 32, params_k1.theta)


@pytest.fixture(scope="session")
def grid_32(params_k1):
    return CapGrid(32, 64, params_k1.theta)


@pytest.fixture(scope="session")
def solved_32(params_k1, grid_32):
    """One converged non-symmetric solve shared by the audit tests."""
    g = grid_32
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    raw = 1.0 + 0.25 * (1.0 - np.cos(bb)) + 0.05 * np.cos(2 * pp) * np.sin(bb) ** 2
    phi = CapField(g, raw, even=False).project_even()
    s, report = solve_path(phi, params_k1)
    return s, report, phi
