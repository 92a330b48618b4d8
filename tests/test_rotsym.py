import math
from itertools import combinations

import numpy as np
import pytest

from capcmk.fields import CapField, CapGrid
from capcmk.geometry import CapParams, ell
from capcmk.rotsym import (
    RotGrid,
    RotProfile,
    barrier_height_check,
    cross_check_gap,
    reconstruct_rot,
    rotsym_sigma_k,
    save_profile,
    sigma_rot,
    solve_rotsym,
)
from capcmk.solver import solve_path

THETA4 = math.pi / 4


def manufactured_profile(params, r):
    """phi(beta) whose exact solution is r times the model function."""
    pw = params.k + 1.0 - params.p

    def phi(beta):
        return params.cnk * r**pw * ell(params.theta, beta) ** (1.0 - params.p)

    return phi


def test_rot_grid_validation():
    with pytest.raises(ValueError):
        RotGrid(4, THETA4)
    with pytest.raises(ValueError):
        RotGrid(64, math.pi / 2)
    g = RotGrid(64, THETA4)
    assert g.beta_all.shape == (65,)


def test_profile_shape_validation():
    g = RotGrid(16, THETA4)
    with pytest.raises(ValueError):
        RotProfile(g, np.ones(16))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_rot_matches_brute_force_multiset(n):
    rng = np.random.default_rng(3)
    lam_r = rng.uniform(0.2, 2.0, 5)
    lam_t = rng.uniform(0.2, 2.0, 5)
    for j in range(n + 1):
        brute = np.array([
            sum(math.prod(c) for c in combinations([lam_r[i]] + [lam_t[i]] * (n - 1), j))
            if j > 0 else 1.0
            for i in range(5)
        ])
        got = sigma_rot(lam_r, lam_t, n, j)
        assert np.max(np.abs(got - brute)) < 1e-12


def test_model_profile_has_unit_eigenvalues():
    # s = ell gives s'' + s = 1 and s' cot(beta) + s = 1 identically
    g = RotGrid(128, THETA4)
    prof = RotProfile(g, ell(THETA4, g.beta_all))
    assert np.max(np.abs(prof.lam_r - 1.0)) < 1e-4
    assert np.max(np.abs(prof.lam_t - 1.0)) < 1e-4
    assert abs(prof.robin_residual()) < 1e-5


@pytest.mark.parametrize("n,k,p", [(2, 1, 1.5), (3, 2, 2.0), (4, 2, 1.7)])
def test_rotsym_solve_recovers_manufactured_solution(n, k, p):
    params = CapParams(n=n, k=k, p=p, theta=THETA4)
    phi = manufactured_profile(params, r=1.2)
    errs = {}
    for n_cells in (64, 128):
        prof, report = solve_rotsym(phi, params, n_cells=n_cells)
        assert report.converged
        ref = 1.2 * ell(params.theta, prof.grid.beta_all)
        errs[n_cells] = float(np.max(np.abs(prof.s - ref)))
    assert errs[64] < 1e-4
    assert errs[64] / errs[128] > 3.5


def test_rotsym_solve_validates_phi():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    with pytest.raises(ValueError):
        solve_rotsym(np.ones(10), params, n_cells=64)
    with pytest.raises(ValueError):
        solve_rotsym(lambda beta: np.cos(beta) - 1.0, params, n_cells=64)


def test_rotsym_accepts_array_valued_phi():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    g = RotGrid(64, THETA4)
    vals = 1.0 + 0.3 * (1.0 - np.cos(g.beta_all))
    p1, _ = solve_rotsym(vals, params, n_cells=64)
    p2, _ = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=64)
    assert np.array_equal(p1.s, p2.s)


def test_pole_is_umbilic_in_the_limit():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    gaps = []
    for n_cells in (64, 128, 256):
        prof, _ = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=n_cells)
        gaps.append(abs(float(prof.lam_t[0] - prof.lam_r[0])))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_solution_profile_is_strictly_convex_with_robin():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    prof, _ = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=128)
    assert np.min(prof.lam_r) > 0.0
    assert np.min(prof.lam_t) > 0.0
    assert abs(prof.robin_residual()) <= 1e-9
    sk = rotsym_sigma_k(prof, params)
    assert np.min(sk) > 0.0


def test_reconstruct_rot_matches_closed_form():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    g = RotGrid(128, THETA4)
    r = 1.2
    prof = RotProfile(g, r * ell(THETA4, g.beta_all))
    rho, x3 = reconstruct_rot(prof)
    assert rho[-1] == pytest.approx(r * math.sin(THETA4), abs=1e-4)
    assert float(np.max(x3)) == pytest.approx(r * (1.0 - math.cos(THETA4)), abs=1e-4)
    assert abs(x3[-1]) < 1e-4


def test_barrier_height_audit_passes_on_solutions():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    prof, _ = solve_rotsym(manufactured_profile(params, 1.2), params, n_cells=128)
    rec = barrier_height_check(prof, params)
    assert rec["pass"]
    assert rec["margin"] > 0.0
    assert set(rec) == {"name", "statement", "lhs", "rhs", "margin", "pass"}


def test_oracle_agrees_with_the_two_dimensional_solver():
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    prof, _ = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=256)
    g = CapGrid(32, 64, THETA4)
    vals = 1.0 + 0.3 * (1.0 - np.cos(g.beta_all))
    phi2d = CapField(g, np.broadcast_to(vals[:, None], (33, 64)).copy(), even=True)
    s2d, _ = solve_path(phi2d, params)
    assert cross_check_gap(prof, s2d) < 5e-4


def test_save_profile_writes_all_columns(tmp_path):
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    prof, _ = solve_rotsym(manufactured_profile(params, 1.2), params, n_cells=64)
    path = tmp_path / "profile.csv"
    save_profile(prof, params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,s,lam_r,lam_t,sigma_k"
    assert len(lines) == 1 + 64 + 1
    rim = [float(x) for x in lines[-1].split(",")]
    assert rim[0] == pytest.approx(THETA4)
    assert all(math.isfinite(v) for v in rim)
