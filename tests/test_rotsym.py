import math
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from capcmk import rotsym, solver
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
from capcmk.solver import ContinuationStall, NewtonFailure, Schedule, model_scale, solve_path
from conftest import spy_points

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


@pytest.mark.parametrize("n_cells", [8, 9, 64, 512])
def test_stencils_are_exact_on_low_degree_polynomials(n_cells):
    # 1 and beta^2 are even, so the mirror closure holds and every row is exact;
    # beta and beta^3 are odd, so the mirrored first row is not, and on beta^3
    # the central d1 has its known truncation h^2.  With beta, every weight of
    # every row is pinned.  Roundoff grows like eps / h^order.
    g = RotGrid(n_cells, THETA4)
    ops, b, bc, h = g.ops(), g.beta_all, g.beta_cells, g.dbeta
    tol = 16.0 * np.finfo(float).eps

    def close(got, want, order):
        assert np.max(np.abs(got - want)) <= tol / h**order

    for f, df, d2f in [(np.ones_like(b), 0.0 * bc, 0.0 * bc), (b**2, 2.0 * bc, 2.0 + 0.0 * bc)]:
        close(ops["d1"] @ f, df, 1)
        close(ops["d2"] @ f, d2f, 2)
    close((ops["d1"] @ b)[1:], 1.0, 1)
    close((ops["d2"] @ b)[1:], 0.0, 2)
    close((ops["d2"] @ b**3)[1:], 6.0 * bc[1:], 2)
    close((ops["d1"] @ b**3)[1:-1], 3.0 * bc[1:-1] ** 2 + h**2, 1)
    for f, df in [(np.ones_like(b), 0.0), (b, 1.0), (b**2, 2.0 * g.theta)]:
        close(ops["dbd"] @ f, df, 1)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3)])
def test_linearize_is_the_derivative_of_the_residual(n, k):
    # central differences of _residual along random smooth directions (random
    # cosine series, so the lower-order terms are not drowned out by d2); the
    # truncation of the cubic sigma_3 at (4, 3) is near 4e-8 at this step
    p = {1: 1.5, 2: 2.2, 3: 2.5}[k]
    params = CapParams(n=n, k=k, p=p, theta=THETA4)
    g = RotGrid(64, THETA4)
    s = 1.2 * ell(THETA4, g.beta_all) + 0.05 * np.cos(g.beta_all) ** 2
    prof = RotProfile(g, s)
    assert min(np.min(prof.lam_r), np.min(prof.lam_t)) > 0.5
    rhs = 1.0 + 0.3 * (1.0 - np.cos(g.beta_cells))
    rng, h = np.random.default_rng(5), 1e-5
    modes = np.cos(np.outer(np.arange(6), g.beta_all))

    for q in (1.0, p):
        def res(x):
            fint, gbd, _ = rotsym._residual(RotProfile(g, x), q, rhs, params)
            return np.append(fint, gbd)

        jac = rotsym._linearize(prof, q, rhs, params)
        for _ in range(3):
            v = rng.standard_normal(6) @ modes
            jv = jac @ v
            fd = (res(s + h * v) - res(s - h * v)) / (2.0 * h)
            assert np.max(np.abs(jv - fd)) <= 1e-5 * np.max(np.abs(jv))


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 3)])
def test_the_jacobian_fills_the_grids_pattern(n, k):
    """_linearize fills the data of the grid's one CSC pattern: its matrix
    is, bit for bit, diag(d sigma / d lam_r) lam_r + diag(d sigma / d lam_t)
    lam_t - diag(z) pcells stacked over the Robin row, assembled from the
    operators, and two calls share the pattern's arrays."""
    p = {1: 1.5, 2: 2.2, 3: 2.5}[k]
    params = CapParams(n=n, k=k, p=p, theta=THETA4)
    g = RotGrid(512, THETA4)
    prof = RotProfile(g, 1.2 * ell(THETA4, g.beta_all) + 0.05 * np.cos(g.beta_all) ** 2)
    rhs = 1.0 + 0.3 * (1.0 - np.cos(g.beta_cells))
    ops = g.ops()
    dr, dt = rotsym._sigma_rot_partials(prof.lam_r, prof.lam_t, n, k)
    for q in (1.0, p):
        ref = sp.diags(dr) @ ops["lam_r"] + sp.diags(dt) @ ops["lam_t"]
        if q != 1.0:
            ref = ref - sp.diags((q - 1.0) * prof.s[:512] ** (q - 2.0) * rhs) @ ops["pcells"]
        ref = sp.vstack([ref, ops["robin"]], format="csc")
        jac = rotsym._linearize(prof, q, rhs, params)
        assert jac.format == "csc"
        assert np.array_equal(jac.indptr, ref.indptr) and np.array_equal(jac.indices, ref.indices)
        assert jac.data.tobytes() == ref.data.tobytes()
        assert np.shares_memory(jac.indices, rotsym._linearize(prof, q, rhs, params).indices)


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
    with pytest.raises(ValueError, match="positive"):
        solve_rotsym(lambda beta: np.cos(beta) - 1.0, params, n_cells=64)
    with pytest.raises(ValueError, match="finite"):
        solve_rotsym(lambda beta: np.where(beta > 0.5, np.inf, 1.0), params, n_cells=64)


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


def rotsym_field(grid, c1):
    """1 + c1 (1 - cos beta) on a 2-D grid."""
    vals = 1.0 + c1 * (1.0 - np.cos(grid.beta_all))
    return CapField(grid, np.broadcast_to(vals[:, None], (grid.nbeta + 1, grid.nphi)).copy(),
                    even=True)


def test_both_layers_start_from_one_model_scale():
    """On rotationally symmetric data the 2-D grid of N rings and the 1-D
    grid of N cells have the same node values, so both layers' direct
    attempts start from one scale."""
    params = CapParams(n=2, k=2, p=1.8, theta=THETA4)
    phi2d = rotsym_field(CapGrid(32, 64, THETA4), 0.3)
    phi1d = 1.0 + 0.3 * (1.0 - np.cos(RotGrid(32, THETA4).beta_all))
    assert model_scale(phi2d.values, params) == pytest.approx(model_scale(phi1d, params),
                                                              rel=1e-14)


@pytest.mark.parametrize(
    "p, theta, c1, max_s",
    [(2.709, 1.228, 3.29, 2.785), (2.845, 1.388, 1.17, 3.298),
     (2.496, 1.384, 3.76, 4.404)],
    ids=["collapse-1", "collapse-2", "fine-stall"])
def test_the_direct_solve_finds_the_solution_the_continuation_missed(p, theta, c1, max_s):
    """k = 2, data 1 + c1 (1 - cos beta), 64x128.  The continuation alone
    ends the first two on collapsed fields (max s 1.6e-6 and 3.0e-6,
    relative residuals 9.2 and 3.3), which the 512-cell oracle's
    continuation reproduced; on the third its 32x64 solution leaves the
    64x128 corrector outside the cone.  The direct solve converges on all
    three, and the oracle's direct solve agrees with it."""
    params = CapParams(n=2, k=2, p=p, theta=theta)
    s, report = solve_path(rotsym_field(CapGrid(64, 128, theta), c1), params)
    assert float(np.max(s.values)) == pytest.approx(max_s, rel=1e-3)
    assert report.relative_residual <= 1e-9 and report.method == "newton"
    prof, rep1 = solve_rotsym(lambda b: 1.0 + c1 * (1.0 - np.cos(b)), params, n_cells=512)
    assert cross_check_gap(prof, s) <= 5e-3
    assert rep1.relative_residual <= 1e-9 and rep1.method == "newton"


def test_both_layers_converge_below_p_k_plus_1():
    """k = 1, p = 1.9, theta = pi/4, data 1 + 0.3 (1 - cos beta): the
    solution is small (max s about 2e-7), and both layers reach a relative
    residual of at most tol_solve, which an absolute stop did not ask of
    them (it accepted 7.2e-4)."""
    params = CapParams(n=2, k=1, p=1.9, theta=THETA4)
    s, report = solve_path(rotsym_field(CapGrid(64, 128, THETA4), 0.3), params)
    prof, rep1 = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=512)
    for rep in (report, rep1):
        assert rep.converged and rep.relative_residual <= Schedule().tol_solve
    assert cross_check_gap(prof, s) <= 1e-3 * float(np.max(s.values))


def test_both_layers_stall_near_p_k_plus_1():
    """k = 1, p = 1.98, theta = pi/4, data 1 + 0.3 (1 - cos beta): an
    absolute stop accepted the start of both layers (max s about 2e-15,
    relative residual 0.71).  Measured relatively, both stall just short of
    t = 1, with dt below dt_min after a line search that the cone guard
    ends (lam1min near DELTA_CONE), and their reports say so."""
    params = CapParams(n=2, k=1, p=1.98, theta=THETA4)
    for solve in (lambda: solve_path(rotsym_field(CapGrid(64, 128, THETA4), 0.3), params),
                  lambda: solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params,
                                       n_cells=512)):
        with pytest.raises(ContinuationStall, match="dt_min") as err:
            solve()
        report = err.value.report
        assert 0.97 < err.value.t < 1.0 and err.value.dt < Schedule().dt_min
        assert report.failure.startswith("line search failed")
        assert not report.converged and report.relative_residual is None
        assert report.lam1min_trace[-1] < 1e-9


def test_each_oracle_point_is_evaluated_once(monkeypatch):
    """The oracle's corrector evaluates each Newton point once, by one
    RotProfile, and the factorization at a point builds no profile."""
    points, per_point, per_factor = spy_points(monkeypatch, rotsym, "RotProfile")
    params = CapParams(n=2, k=2, p=2.0, theta=THETA4)
    _, report = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=128)
    assert report.converged
    assert all(len(set(run)) == len(run) for run in points)
    assert len(per_point) == sum(map(len, points)) > len(per_factor)
    assert set(per_point) == {1}
    assert len(per_factor) == sum(report.newton_iters) > 0 and set(per_factor) == {0}


def test_a_forced_direct_failure_runs_the_continuation(monkeypatch):
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    phi = lambda b: 1.0 + 0.3 * (1.0 - np.cos(b))  # noqa: E731
    newton = rotsym._damped_newton
    calls = []

    def failing_first(*args):
        calls.append(None)
        if len(calls) == 1:
            raise NewtonFailure("forced")
        return newton(*args)

    monkeypatch.setattr(rotsym, "_damped_newton", failing_first)
    prof, report = solve_rotsym(phi, params, n_cells=128)
    monkeypatch.undo()
    # a model scale beyond the float range fails the direct attempt before
    # its first Newton step, so this is the continuation alone
    monkeypatch.setattr(solver, "model_scale", lambda *args: math.inf)
    plain, plain_report = solve_rotsym(phi, params, n_cells=128)
    assert report.converged and report.method == "continuation"
    assert report.direct_failure == "forced" and report.failure is None
    assert np.array_equal(prof.s, plain.s)
    assert report.newton_iters == plain_report.newton_iters


def test_a_real_direct_failure_runs_the_continuation(monkeypatch):
    """k = 2, p = 2.7542, theta = 0.3650, data 1 + 0.717 (1 - cos beta) (the
    rotationally symmetric part of stress seed 12), 512 cells: the direct
    attempt runs out of its iteration budget, and the continuation converges
    to a small profile (max s about 1e-8) at a relative residual below 1e-9.
    Its result is bit for bit the continuation's alone."""
    params = CapParams(n=2, k=2, p=2.7541552971469643, theta=0.36504853835566575)
    phi = lambda b: 1.0 + 0.7171656416724304 * (1.0 - np.cos(b))  # noqa: E731
    prof, report = solve_rotsym(phi, params, n_cells=512)
    monkeypatch.setattr(solver, "model_scale", lambda *args: math.inf)
    plain, plain_report = solve_rotsym(phi, params, n_cells=512)
    assert report.converged and report.method == "continuation"
    assert report.direct_failure.startswith("no convergence in 30 iterations")
    assert report.relative_residual <= Schedule().tol_solve and np.max(prof.s) < 1e-7
    assert plain_report.direct_failure == "model scale inf is outside the float range"
    assert np.array_equal(prof.s, plain.s)
    assert report.newton_iters == plain_report.newton_iters


def test_save_profile_writes_all_columns(tmp_path):
    params = CapParams(n=2, k=1, p=1.5, theta=THETA4)
    prof, _ = solve_rotsym(manufactured_profile(params, 1.2), params, n_cells=64)
    path = tmp_path / "profile.csv"
    save_profile(prof, params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,s,lam_r,lam_t,sigma_k"
    assert len(lines) == 1 + 64 + 1
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # every cell value parses back bit-exactly; the rim row is extrapolated
    cells = [prof.grid.beta_cells, prof.s[:64], prof.lam_r, prof.lam_t,
             rotsym_sigma_k(prof, params)]
    assert np.array_equal(got[:64], np.column_stack(cells))
    assert got[64, 0] == prof.grid.theta and got[64, 1] == prof.s[-1]
    assert all(math.isfinite(v) for v in got[64])


def test_the_gap_sees_a_field_that_is_not_rotationally_symmetric():
    """cross_check_gap compares every node with the oracle, not the ring
    means: a k = 2 64x128 solution plus 0.2 max s cos 2 phi sin^2 beta has
    the solution's ring means to round-off, and its gap is at least the
    size of that perturbation."""
    params = CapParams(n=2, k=2, p=2.0, theta=THETA4)
    g = CapGrid(64, 128, THETA4)
    s, report = solve_path(rotsym_field(g, 0.3), params)
    prof, _ = solve_rotsym(lambda b: 1.0 + 0.3 * (1.0 - np.cos(b)), params, n_cells=512)
    assert report.converged and cross_check_gap(prof, s) <= 1e-4
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    bump = 0.2 * float(np.max(s.values)) * np.cos(2.0 * pp) * np.sin(bb) ** 2
    bent = CapField(g, s.values + bump, even=True)
    interp = np.interp(g.beta_all, prof.grid.beta_all, prof.s)
    assert np.max(np.abs(np.mean(bent.values, axis=1) - interp)) <= 1e-4
    assert cross_check_gap(prof, bent) >= float(np.max(np.abs(bump))) > 1e-2
