import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from capcmk import solver
from capcmk.fields import CapField, CapGrid, tau_sharp
from capcmk.geometry import CapParams, ell, ell_field, random_capillary_field
from capcmk.solver import (
    ContinuationStall,
    NewtonFailure,
    Schedule,
    homotopy_rhs,
    homotopy_values,
    jacobian_fd_error,
    linearize,
    newton_solve,
    phi_q,
    residual,
    run_continuation,
    solve_path,
    structural_hypothesis_check,
)
from capcmk.symfunc import sigma_k_grad
from conftest import (THETA, full_jacobian, manufactured_phi, manufactured_reference,
                      plain_continuation, spy_points)


def positive_even_phi(grid, seed=7):
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    vals = 1.0 + 0.2 * (1.0 - np.cos(bb)) + 0.04 * np.cos(2.0 * pp) * np.sin(bb) ** 2
    return CapField(grid, vals, even=False).project_even()


def recording_splu(monkeypatch):
    """Route solver's splu through a wrapper; returns the list of the shapes
    it factorizes."""
    shapes = []

    def counting_splu(a, *args, **kwargs):
        shapes.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", counting_splu)
    return shapes


def every_mode(monkeypatch):
    """Make `_factorize` take its all-mode form whatever the state and data:
    it chooses mode 0 alone by `_ring_constant` of both."""
    monkeypatch.setattr(solver, "_ring_constant", lambda values: False)


def modal_shape(grid):
    """The shape of the modal system: Nphi/4 + 1 modes of Nbeta + 1 rings."""
    size = (grid.nphi // 4 + 1) * (grid.nbeta + 1)
    return size, size


def test_phi_q_endpoints(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    at_p = phi_q(phi, params_k1.p, params_k1)
    assert np.array_equal(at_p.values, phi.values)
    at_1 = phi_q(phi, 1.0, params_k1)
    e = params_k1.k / (params_k1.p + params_k1.k - 1.0)
    assert np.allclose(at_1.values, phi.values**e, rtol=0.0, atol=0.0)


def test_homotopy_endpoints_are_exact(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    q0, h0 = homotopy_rhs(0.0, phi, params_k1)
    assert q0 == 1.0
    assert np.all(h0.values == 1.0)
    q1, h1 = homotopy_rhs(1.0, phi, params_k1)
    assert q1 == params_k1.p
    assert np.array_equal(h1.values, phi.values)


def test_homotopy_branches_meet_at_one_half(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    q_lo, h_lo = homotopy_rhs(0.5, phi, params_k1)
    assert q_lo == 1.0
    # the t > 1/2 branch at q = 1 is phi^{k/(p+k-1)}
    h_hi = phi_q(phi, 1.0, params_k1)
    assert np.max(np.abs(h_lo.values - h_hi.values)) < 1e-14


def test_homotopy_q_stays_in_range(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    for t in np.linspace(0.0, 1.0, 21):
        q, _ = homotopy_rhs(float(t), phi, params_k1)
        assert 1.0 <= q <= params_k1.p


def test_homotopy_rejects_bad_inputs(params_k1):
    phi = np.full(4, 2.0)
    with pytest.raises(ValueError):
        homotopy_values(-0.1, phi, params_k1)
    with pytest.raises(ValueError):
        homotopy_values(1.1, phi, params_k1)
    with pytest.raises(ValueError):
        homotopy_values(0.3, np.array([1.0, 0.0]), params_k1)


def test_residual_vanishes_on_manufactured_solution_to_h2(params_k1):
    sup = {}
    for nbeta in (16, 32):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        phi = manufactured_phi(g, params_k1, r=1.3)
        ref = manufactured_reference(g, params_k1, r=1.3)
        fint, gbd, _ = residual(ref, params_k1.p, phi, params_k1)
        sup[nbeta] = max(float(np.max(np.abs(fint))), float(np.max(np.abs(gbd))))
    assert sup[16] < 1e-3
    assert sup[16] / sup[32] > 3.5


def test_newton_converges_at_the_constant_problem(params_k1, grid_16):
    ones = CapField(grid_16, np.ones((17, 32)), even=True)
    start = params_k1.cnk ** (-1.0) * ell_field(grid_16)
    s, info = newton_solve(start, 1.0, ones, params_k1, Schedule())
    assert info["res_norm"] <= 1e-9
    assert info["lam1min"] > 0.0
    assert s.is_even(tol=0.0)
    assert np.min(s.values) > 0.0


def test_newton_failure_outside_the_cone(params_k1, grid_16):
    ones = CapField(grid_16, np.ones((17, 32)), even=True)
    rough = CapField(
        grid_16,
        1.0 + 0.5 * np.cos(4.0 * grid_16.phi)[None, :] * np.ones((17, 32)),
        even=True,
    )
    with pytest.raises(NewtonFailure, match="cone"):
        newton_solve(rough, 1.0, ones, params_k1, Schedule())


def test_newton_failure_on_exhausted_budget(params_k1, grid_16):
    ones = CapField(grid_16, np.ones((17, 32)), even=True)
    start = 5.0 * ell_field(grid_16)
    with pytest.raises(NewtonFailure, match="0 iterations"):
        newton_solve(start, 1.0, ones, params_k1, Schedule(newton_max=0))


def test_translation_fields_are_a_discrete_near_kernel(params_k1):
    """At q = 1 the linearization annihilates the odd fields <a, zeta>.

    The analytic kernel shows up as |J v| -> 0 under refinement while a
    generic even field of the same size keeps |J w| = O(1); this is the
    singularity the even-subspace restriction removes.
    """
    norms = {}
    for nbeta in (16, 32):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
        v = CapField(g, np.sin(bb) * np.cos(pp))
        w = CapField(g, np.sin(bb) ** 2 * np.cos(2.0 * pp), even=True)
        ones = CapField(g, np.ones_like(bb), even=True)
        s0 = params_k1.cnk ** (-1.0) * ell_field(g)
        action = linearize(s0, 1.0, ones, params_k1, tau_sharp(s0))
        norms[nbeta] = (
            float(np.max(np.abs(action(v.flat)))),
            float(np.max(np.abs(action(w.flat)))),
        )
    assert norms[16][0] / norms[32][0] > 1.7
    assert norms[32][0] < 0.05 * norms[32][1]


def test_jacobian_matches_finite_differences(params_k1, grid_16):
    rng = np.random.default_rng(11)
    for _ in range(3):
        s = random_capillary_field(grid_16, rng)
        q = 1.0 + (params_k1.p - 1.0) * rng.uniform()
        rhs = phi_q(positive_even_phi(grid_16), q, params_k1)
        v = CapField(grid_16, rng.standard_normal((17, 32)))
        assert jacobian_fd_error(s, q, rhs, params_k1, v) < 1e-5


def restricted_jacobian(s, q, rhs, params):
    """The assembled Jacobian `full_jacobian` restricted to even fields: its
    rows with j < Nphi/2, times even_p = I (x) [I; I], as CSC over the even
    unknowns (i, j < Nphi/2), row-major."""
    grid = s.grid
    h, ntot = grid.nphi // 2, (grid.nbeta + 1) * grid.nphi
    node = np.arange(ntot)
    even_p = sp.csr_matrix((np.ones(ntot), (node, node // grid.nphi * h + node % h)),
                           shape=(ntot, (grid.nbeta + 1) * h))
    return (full_jacobian(s, q, rhs, params)[node % grid.nphi < h] @ even_p).tocsc()


@pytest.mark.parametrize("width", ["full", "half"])
@pytest.mark.parametrize("q", [1.0, 1.4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nbeta, nphi", [(8, 8), (16, 30), (33, 64)],
                         ids=["8x8", "odd-half-turn", "odd-nbeta"])
def test_the_jacobian_action_is_the_restricted_full_jacobian(nbeta, nphi, k, q, width):
    """The matrix-free action `linearize` is the assembled Jacobian
    (`full_jacobian`) column by column: on Nphi columns the whole matrix,
    on Nphi/2 the defect correction's restriction to even fields; every entry
    within 1e-14 of its row's largest.  The pole rows fold ring -1 onto
    ring 0 at half width; 16x30 has an odd Nphi/2 and 33x64 an odd Nbeta."""
    grid = CapGrid(nbeta, nphi, THETA)
    params = CapParams(n=2, k=k, p=1.5, theta=THETA)
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    wobble = 1.0 + 0.2 * np.cos(2.0 * pp) * np.sin(bb) ** 2 + 0.05 * np.cos(bb)
    s = CapField(grid, wobble * ell_field(grid).values, even=True)
    rhs = phi_q(positive_even_phi(grid), q, params)
    ref = (full_jacobian if width == "full" else restricted_jacobian)(s, q, rhs, params).tocsc()
    scale = 1e-14 * abs(ref).max(axis=1).toarray().ravel()
    action = linearize(s, q, rhs, params, tau_sharp(s))
    e = np.zeros(ref.shape[1])
    for j in range(ref.shape[1]):
        e[j] = 1.0
        col = action(e)
        e[j] = 0.0
        assert col.shape == (ref.shape[0],)
        assert np.all(np.abs(col - ref[:, [j]].toarray().ravel()) <= scale), j


def ring_constant_problem(nbeta, nphi, k, q):
    """A rotationally symmetric state ell (1 + 0.05 cos beta) and data on a
    fresh grid: (s, q, rhs, params)."""
    grid = CapGrid(nbeta, nphi, THETA)
    params = CapParams(n=2, k=k, p=1.5, theta=THETA)
    ring = np.broadcast_to(grid.beta_all[:, None], (nbeta + 1, nphi))
    s = CapField(grid, ell_field(grid).values * (1.0 + 0.05 * np.cos(ring)), even=True)
    phi = CapField(grid, 1.0 + 0.3 * (1.0 - np.cos(ring)), even=True)
    return s, q, phi_q(phi, q, params), params


def step_error(s, q, rhs, params, step, fint, gbd):
    """(gap, backward, relative): for the step's even unknowns in the
    restricted Jacobian system A x = b of the residual (fint, gbd), the
    relative gap from a sparse direct solve, the normwise backward error and
    the relative residual ||A x - b|| / ||b|| (2-norms)."""
    h = s.grid.nphi // 2
    a = restricted_jacobian(s, q, rhs, params)
    b = -np.append(fint[:, :h], gbd[:h])
    x_direct = np.tile(splu(a).solve(b).reshape(-1, h), 2)
    gap = np.max(np.abs(step - x_direct)) / np.max(np.abs(x_direct))
    x = step[:, :h].ravel()
    norm_a = float(abs(a).sum(axis=1).max())
    backward = np.max(np.abs(a @ x - b)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
    return gap, backward, np.linalg.norm(a @ x - b) / np.linalg.norm(b)


def random_residual(grid, seed):
    """(fint, gbd): a standard normal residual, which has every azimuthal mode."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.nbeta, grid.nphi)), rng.standard_normal(grid.nphi)


def recording_linearize(monkeypatch):
    """Route solver's linearize through a wrapper; returns a list with, for
    each Jacobian action built, the number of times it was applied (once per
    residual the defect correction checks)."""
    builds = []

    def counting_linearize(*args, **kwargs):
        action = linearize(*args, **kwargs)
        builds.append(0)
        slot = len(builds) - 1

        def counted(x):
            builds[slot] += 1
            return action(x)

        return counted

    monkeypatch.setattr(solver, "linearize", counting_linearize)
    return builds


@pytest.mark.parametrize("q", [1.0, 1.4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nbeta, nphi", [(8, 8), (16, 30), (33, 64)],
                         ids=["8x8", "odd-half-turn", "odd-nbeta"])
def test_the_modal_step_is_the_direct_step(nbeta, nphi, k, q, monkeypatch):
    """At a ring-constant state and data, the all-mode modal step (forced:
    `_factorize` would take mode 0 alone there) is the direct step: the
    defect correction applies the Jacobian's action once, for its stop
    check, and stops there.  For a residual that has every azimuthal mode
    the step is a sparse direct solve's step of the restricted Jacobian
    system: equal to 1e-12, and with a backward error at round-off.  16x30
    has an odd Nphi/2 and 33x64 an odd Nbeta."""
    s, q, rhs, params = ring_constant_problem(nbeta, nphi, k, q)
    shapes, applied = recording_splu(monkeypatch), recording_linearize(monkeypatch)
    every_mode(monkeypatch)
    apply = solver._factorize(s, q, rhs, params, tau_sharp(s))
    fint, gbd = random_residual(s.grid, 3)
    step = apply(fint, gbd)
    assert shapes == [modal_shape(s.grid)] and applied == [1]
    assert np.array_equal(step[:, :nphi // 2], step[:, nphi // 2:])
    gap, backward, _ = step_error(s, q, rhs, params, step, fint, gbd)
    assert gap <= 1e-12
    assert backward <= 1e-13
    assert s.grid.modal_blocks(False) is s.grid.modal_blocks(False)


@pytest.mark.parametrize("q", [1.0, 1.4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nbeta, nphi", [(16, 30), (33, 64)], ids=["odd-half-turn", "odd-nbeta"])
def test_the_mode0_step_is_the_modal_step(nbeta, nphi, k, q, monkeypatch):
    """A ring-constant state and data factorize the (Nbeta + 1)-square
    mode-0 block alone, and on a ring-constant residual its step,
    ring-constant bit for bit, is the all-mode modal step (forced) to 1e-12
    relative.  Only the all-mode step applies
    the Jacobian's action, once, for the defect correction's stop check.
    16x30 has an odd Nphi/2 and 33x64 an odd Nbeta."""
    s, q, rhs, params = ring_constant_problem(nbeta, nphi, k, q)
    shapes, applied = recording_splu(monkeypatch), recording_linearize(monkeypatch)
    rng = np.random.default_rng(8)
    fint = np.repeat(rng.standard_normal((nbeta, 1)), nphi, axis=1)
    gbd = np.full(nphi, rng.standard_normal())
    steps = [solver._factorize(s, q, rhs, params, tau_sharp(s))(fint, gbd)]
    every_mode(monkeypatch)
    steps.append(solver._factorize(s, q, rhs, params, tau_sharp(s))(fint, gbd))
    assert shapes == [(nbeta + 1, nbeta + 1), modal_shape(s.grid)] and applied == [1]
    assert_ring_constant(steps[0])
    assert np.max(np.abs(steps[0] - steps[1])) <= 1e-12 * np.max(np.abs(steps[1]))
    assert s.grid.modal_blocks(True)["shape"] == (nbeta + 1, nbeta + 1)


@pytest.mark.parametrize("q", [1.0, 1.4])
def test_the_all_mode_matrix_holds_the_mode0_block_bit_for_bit(q):
    """At a ring-constant state the all-mode matrix's first Nbeta + 1 rows
    and columns, its mode-0 block, are the mode-0 matrix bit for bit: a
    coefficient's column is its own ring mean.  At 63x126 the mean of
    Nphi/2 = 63 copies of a value need not be that value."""
    s, q, rhs, params = ring_constant_problem(63, 126, 2, q)
    tau = tau_sharp(s)
    mode0, full = (solver.linearize_modal(s, q, rhs, params, tau, m) for m in (True, False))
    bits = (mode0.toarray(), full[:64, :64].toarray())
    assert mode0.shape == (64, 64)
    assert np.count_nonzero(bits[0].view(np.uint64) != bits[1].view(np.uint64)) == 0


@pytest.mark.parametrize("state", ["converged", "perturbed"])
def test_the_corrected_step_solves_the_restricted_system(state, monkeypatch):
    """Off rotational symmetry, k = 2 (g12 != 0), 64x128, at a converged
    anisotropic solution and at a random capillary state: the step is defect
    correction, preconditioned by the one factorization, the modal LU, and
    solves the restricted Jacobian system to a relative residual of at most
    1e-6 before the sweep cap."""
    theta = math.pi / 4
    grid = CapGrid(64, 128, theta)
    params = CapParams(n=2, k=2, p=1.5, theta=theta)
    phi = positive_even_phi(grid)
    if state == "converged":
        s, report = solve_path(phi, params)
        assert report.converged
        q, rhs = params.p, phi
    else:
        s = random_capillary_field(grid, np.random.default_rng(5))
        q, rhs = 1.3, phi_q(phi, 1.3, params)
    assert np.max(np.abs(sigma_k_grad(tau_sharp(s), 2).a12)) > 1e-3
    shapes, applied = recording_splu(monkeypatch), recording_linearize(monkeypatch)
    fint, gbd = random_residual(grid, 6)
    step = solver._factorize(s, q, rhs, params, tau_sharp(s))(fint, gbd)
    assert shapes == [modal_shape(grid)] and len(applied) == 1
    assert 1 < applied[0] < solver.CORRECTION_SWEEPS
    assert np.array_equal(step[:, :64], step[:, 64:])
    *_, relative = step_error(s, q, rhs, params, step, fint, gbd)
    assert relative <= 1e-6


# An anisotropic k = 2 solve at 128x256 that prints its solution's bytes as hex
ANISO_SOLVE = """
import math, sys
import numpy as np
from capcmk import CapField, CapGrid, CapParams, solve_path
g = CapGrid(128, 256, math.pi / 4)
bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
phi = CapField(g, 1.0 + 2.0 * (1.0 - np.cos(bb)) + np.cos(2.0 * pp) * np.sin(bb) ** 2, even=True)
s, report = solve_path(phi, CapParams(n=2, k=2, p=2.0, theta=math.pi / 4))
assert report.converged
sys.stdout.write(s.values.tobytes().hex())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one BLAS thread")
def test_anisotropic_solves_do_not_depend_on_the_blas_thread_count():
    """The same anisotropic solve, with 1 and with 2 BLAS threads, in fresh
    processes, returns the same solution bytes: the defect correction sums
    with numpy, on one thread, where a BLAS dot product splits its sum by
    thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", ANISO_SOLVE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert len(out[0]) == 2 * 8 * 129 * 256
    assert out[0] == out[1]


def test_every_state_factorizes_the_modal_system(monkeypatch):
    """Ring-constant state and data, the state turned by 1 + 0.01 cos 2phi
    sin^2 beta, anisotropic data, and a state or data that is ring-constant
    to 1e-12 but not bit for bit all factorize the modal system, of
    (Nphi/4 + 1) blocks of Nbeta + 1 rings, except that the state and data
    that are ring-constant bit for bit factorize mode 0 alone.  Only that
    mode-0 step builds no Jacobian action: every all-mode step is
    defect-corrected."""
    s, q, rhs, params = ring_constant_problem(16, 32, 2, 1.4)
    grid = s.grid
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    turn = 1.0 + 0.01 * np.cos(2.0 * pp) * np.sin(bb) ** 2
    turned = CapField(grid, s.values * turn, even=True)
    aniso = CapField(grid, rhs.values * turn, even=True)
    near = 1.0 + 4e-13 * np.cos(2.0 * pp)
    near_s, near_rhs = CapField(grid, s.values * near), CapField(grid, rhs.values * near)
    for f in (near_s, near_rhs):
        assert np.all(np.ptp(f.values, axis=1) <= 1e-12 * np.max(f.values, axis=1))
    fint, gbd = random_residual(grid, 4)
    shapes, corrections = recording_splu(monkeypatch), []
    for state, data in ((s, rhs), (turned, rhs), (s, aniso), (near_s, rhs), (s, near_rhs)):
        built = recording_linearize(monkeypatch)
        solver._factorize(state, q, data, params, tau_sharp(state))(fint, gbd)
        corrections.append(len(built))
    assert shapes == [(17, 17)] + [modal_shape(grid)] * 4
    assert corrections == [0, 1, 1, 1, 1]


def test_the_modal_lu_fills_a_tenth_of_the_2d_lu(monkeypatch):
    """At a converged rotationally symmetric k = 2, 64x128 solve, the modal
    LU fills under a tenth of the LU of the restricted Jacobian system, with
    the same LU_OPTIONS, and its step solves that system (mixed block
    included) to round-off."""
    theta = math.pi / 4
    grid = CapGrid(64, 128, theta)
    params = CapParams(n=2, k=2, p=1.5, theta=theta)
    phi = CapField(grid, np.broadcast_to(1.0 + 0.3 * (1.0 - np.cos(grid.beta_all))[:, None],
                                         (65, 128)).copy(), even=True)
    s, report = solve_path(phi, params)
    assert report.converged
    q = params.p

    def fill(a):
        lu = splu(a, **solver.LU_OPTIONS)
        return lu.L.nnz + lu.U.nnz

    modal = solver.linearize_modal(s, q, phi, params, tau_sharp(s), False)
    full = restricted_jacobian(s, q, phi, params)
    assert fill(modal) < 0.1 * fill(full)
    fint, gbd = random_residual(grid, 6)
    every_mode(monkeypatch)
    step = solver._factorize(s, q, phi, params, tau_sharp(s))(fint, gbd)
    gap, backward, _ = step_error(s, q, phi, params, step, fint, gbd)
    assert gap <= 1e-12
    assert backward <= 1e-13


def test_continuation_hits_the_branch_point_exactly(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    s, report = plain_continuation(phi, params_k1, Schedule())
    assert report.converged and report.method == "continuation"
    assert 0.5 in report.t_steps
    assert report.t_steps[0] == 0.0 and report.t_steps[-1] == 1.0


@pytest.mark.parametrize("first_failure, t_steps", [(2, [0.0]), (1, [])],
                         ids=["after_t0", "at_t0"])
def test_continuation_stall_carries_the_partial_report(first_failure, t_steps):
    calls = {"n": 0}

    def newton_fn(s, q, rhs):
        calls["n"] += 1
        if calls["n"] < first_failure:
            return s, {"iters": 1, "stop": "residual", "rel": 0.0, "res_norm": 0.0,
                       "robin_norm": 0.0, "lam1min": 1.0, "smin": 1.0, "smax": 1.0}
        raise NewtonFailure("forced")

    with pytest.raises(ContinuationStall) as err:
        run_continuation(newton_fn, lambda t: (1.0, None), object(),
                         Schedule(dt_min=0.05), grid="16x32")
    assert err.value.t == 0.0
    assert err.value.report.t_steps == t_steps
    assert err.value.report.grids == ["16x32"] * len(t_steps)
    assert err.value.report.stalled_at == 0.0
    assert not err.value.report.converged and err.value.report.relative_residual is None
    assert "forced" in str(err.value)
    assert err.value.report.failure == "forced" == str(err.value.failure)
    # only a stall after dt shrank below dt_min names dt_min
    assert ("dt_min" in str(err.value)) == (first_failure == 2)
    assert (err.value.dt is None) == (first_failure == 1)


def _toy_corrector(c, margin=lambda x: 1.0, floor=0.0):
    """The point callback for F(x) = x^2 - c, split as (fint, gbd) =
    (F[:-1], F[-1:]), with cone margin margin(x) and relative size r
    (`relative_size`, sigma_k standing for x^2 and the load for c); `calls`
    records the points where the Jacobian diag(2x) is factorized.
    factor_at(x) is that factorization's apply.  With floor > 0, F carries
    a round-off floor: floor c times signs fixed by x's bits."""
    calls = []

    def factor_at(x):
        calls.append(x.copy())
        lu = splu(sp.diags(2.0 * x).tocsc())
        return lambda fint, gbd: lu.solve(-np.concatenate([fint, gbd]))

    def point(x):
        noise = 1.0 - 2.0 * (x.view(np.uint64) & 1).astype(float)
        f = x**2 - c + floor * c * noise
        rel = solver.relative_size(f[:-1], f[-1:], x[:-1] ** 2, c[:-1], x)
        return margin(x), f[:-1], f[-1:], rel, lambda: factor_at(x)

    return point, factor_at, calls


def test_corrector_stops_on_a_small_step_at_the_residual_floor():
    """A residual floor of 5e-9 c keeps r above tol_solve = 1e-9 at every
    point, so no Armijo step ends the run.  Once r <= STEP_RES and the Newton
    correction is at most STEP_RTOL of the iterate, the corrector takes that
    full step, evaluated once and with no line search, and stops by "step";
    with a tol_solve above the floor it stops by "residual" instead."""
    c, x0 = np.array([4.0, 9.0, 2.0]), np.array([1.5, 2.5, 1.0])
    toy, _, calls = _toy_corrector(c, floor=5e-9)
    evaluated = []

    def point(x):
        evaluated.append(x.copy())
        return toy(x)

    x, info = solver._damped_newton(x0, point, Schedule())
    assert info["stop"] == "step" and info["iters"] == len(calls)
    assert Schedule().tol_solve < info["rel"] <= solver.STEP_RES
    last = calls[-1]
    step = x - last
    assert np.max(np.abs(step)) <= solver.STEP_RTOL * np.max(np.abs(last))
    assert np.array_equal(evaluated[-1], x)
    assert np.array_equal(evaluated[-2], last)  # the full step was the one trial
    assert np.allclose(x, np.sqrt(c), rtol=1e-8, atol=0.0)
    with pytest.raises(NewtonFailure, match="no convergence"):
        solver._damped_newton(x0, toy, Schedule(tol_solve=0.0, newton_max=len(calls) - 1))
    x_res, info_res = solver._damped_newton(x0, toy, Schedule(tol_solve=1e-7))
    assert info_res["stop"] == "residual" and info_res["rel"] <= 1e-7


def test_corrector_reports_a_singular_jacobian():
    point, _, _ = _toy_corrector(np.array([4.0, 9.0]))
    with pytest.raises(NewtonFailure, match="singular Jacobian at Newton iteration 0"):
        solver._damped_newton(np.array([0.0, 2.5]), point, Schedule())


def test_corrector_halves_a_full_step_that_leaves_the_cone():
    """The full Newton step from x0 lowers the residual but leaves the cone
    2.05 - x[0] > DELTA_CONE, whose edge lies just past the root x[0] = 2:
    the line search halves it, and every accepted iterate, the ones the step
    is taken from and the solution, keeps its margin above DELTA_CONE."""
    c, x0 = np.array([4.0, 9.0]), np.array([1.5, 2.5])

    def margin(x):
        return 2.05 - x[0]

    toy, _, calls = _toy_corrector(c, margin)
    evaluated, accepted = [], []

    def point(x):
        evaluated.append(x.copy())
        lam1, fint, gbd, rel, factor = toy(x)

        def factor_here():
            apply = factor()

            def step(fint, gbd):
                # the corrector takes each step from its accepted iterate
                accepted.append(np.sqrt(np.concatenate([fint, gbd]) + c))
                return apply(fint, gbd)

            return step

        return lam1, fint, gbd, rel, factor_here

    x, info = solver._damped_newton(x0, point, Schedule())
    full = x0 - (x0**2 - c) / (2.0 * x0)
    assert margin(full) < 0.0
    assert np.max(np.abs(full**2 - c)) < np.max(np.abs(x0**2 - c))
    assert np.allclose(evaluated[1], full, rtol=1e-15, atol=0.0)
    half = x0 + 0.5 * (full - x0)
    assert np.allclose(evaluated[2], half, rtol=1e-15, atol=0.0)
    assert np.allclose(calls[1], half, rtol=1e-15, atol=0.0)  # the next iterate
    assert info["rel"] <= Schedule().tol_solve
    assert np.allclose(x, np.sqrt(c), rtol=0.0, atol=1e-9)
    assert len(accepted) == info["iters"] >= 3
    assert np.allclose(accepted[0], x0, rtol=1e-15, atol=0.0)
    assert all(margin(y) > solver.DELTA_CONE for y in accepted + [x])
    assert info["lam1min"] == margin(x) > solver.DELTA_CONE


def test_each_newton_point_is_evaluated_once(params_k1, grid_32, monkeypatch):
    """Anisotropic data at 32x64, where every step is defect-corrected: the
    corrector evaluates each Newton point once, by one tau_sharp, and the
    factorization at a point evaluates it again nowhere."""
    points, per_point, per_factor = spy_points(monkeypatch, solver, "tau_sharp")
    _, report = solve_path(positive_even_phi(grid_32), params_k1)
    assert report.converged and report.method == "newton"
    assert all(len(set(run)) == len(run) for run in points)
    assert len(per_point) == sum(map(len, points)) > len(per_factor)
    assert set(per_point) == {1}
    assert len(per_factor) == sum(report.newton_iters) > 0 and set(per_factor) == {0}


def test_concurrent_solves_match_serial_ones(grid_32):
    problems = [
        (positive_even_phi(grid_32), CapParams(n=2, k=1, p=1.5, theta=THETA)),
        (CapField(grid_32, 2.0 - positive_even_phi(grid_32).values, even=True),
         CapParams(n=2, k=2, p=1.8, theta=THETA)),
    ]

    def run(problem):
        s, report = solve_path(*problem)
        return s.values.tobytes(), report.to_dict()

    serial = [run(pr) for pr in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two solves finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, problems, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def smooth_even_field(grid):
    """Smooth even test field: the model function times low harmonics that
    vanish at the pole to the order their azimuthal frequency needs."""
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    vals = ell(grid.theta, bb) * (1.0 + 0.2 * (1.0 - np.cos(bb))
                                  + 0.1 * np.sin(bb) ** 2 * np.cos(2.0 * pp - 0.3)
                                  + 0.05 * np.sin(bb) ** 4 * np.sin(4.0 * pp))
    return CapField(grid, vals)


def test_interpolation_copies_the_rim_and_keeps_evenness(grid_32):
    coarse = smooth_even_field(grid_32).project_even()
    fine = solver._interpolate(coarse, CapGrid(64, 128, THETA))
    assert np.array_equal(fine.values[-1, ::2], coarse.values[-1])
    assert fine.is_even(tol=0.0)
    back = solver._interpolate(fine, grid_32)
    assert np.array_equal(back.values[-1], coarse.values[-1])
    assert back.is_even(tol=0.0)


@pytest.mark.parametrize("src, dst", [((64, 128), (128, 256)), ((128, 256), (64, 128)),
                                      ((63, 126), (127, 254)), ((255, 510), (127, 254))],
                         ids=["finer", "coarser", "finer-not-nested", "coarser-not-nested"])
def test_interpolation_is_fourth_order(src, dst):
    """The error falls by at least 8x per doubling of both grids, whether they
    share every other ring and column (nested) or not."""
    errs = []
    for level in (2, 1, 0):
        a, b = (CapGrid(nb >> level, 2 * (nphi >> (level + 1)), THETA) for nb, nphi in (src, dst))
        moved = solver._interpolate(smooth_even_field(a), b)
        errs.append(float(np.max(np.abs(moved.values - smooth_even_field(b).values))))
    assert errs[0] / errs[1] >= 8.0 and errs[1] / errs[2] >= 8.0


def ring_constant_field(grid, seed):
    """A field whose rings each hold one random value, bit for bit."""
    rings = 1.0 + np.random.default_rng(seed).random(grid.nbeta + 1)
    return CapField(grid, np.repeat(rings[:, None], grid.nphi, axis=1), even=True)


def assert_ring_constant(values):
    bits = np.asarray(values).view(np.uint64)
    assert (bits == bits[:, :1]).all()


@pytest.mark.parametrize("dst", [(32, 128), (32, 24), (32, 66)],
                         ids=["finer", "coarser", "not-nested"])
def test_interpolation_keeps_each_constant_ring_exactly(grid_32, dst):
    """Across grids with the same rings, each ring of a ring-constant field
    comes back as its exact value on every column, though the Lagrange
    weights at a column between two of the source's need not sum to
    exactly 1; across grids with other rings, still exactly ring-constant."""
    f = ring_constant_field(grid_32, 3)
    moved = solver._interpolate(f, CapGrid(*dst, THETA))
    assert moved.values.tobytes() == np.repeat(f.values[:, :1], dst[1], axis=1).tobytes()
    for nbeta, nphi in ((64, 128), (16, 32), (63, 130)):
        assert_ring_constant(solver._interpolate(f, CapGrid(nbeta, nphi, THETA)).values)


@pytest.mark.parametrize("k, shape", [(1, (64, 128)), (2, (64, 128)), (1, (64, 130))],
                         ids=["k1", "k2", "k1-64x130"])
def test_rotationally_symmetric_ladders_stay_ring_constant(k, shape, monkeypatch):
    """On rotationally symmetric data every grid of the ladder, the iterates
    of each corrector included, is bitwise ring-constant; on 64x130 the
    interpolation runs at columns a fraction 64/65 of the way between two of
    the 32x64 grid's."""
    grid = CapGrid(*shape, THETA)
    vals = 1.0 + 0.3 * (1.0 - np.cos(grid.beta_all))
    phi = CapField(grid, np.repeat(vals[:, None], grid.nphi, axis=1), even=True)
    seen, real = [], solver.newton_solve

    def spy(s0, *args):
        seen.append(s0.values)
        s, info = real(s0, *args)
        seen.append(s.values)
        return s, info

    monkeypatch.setattr(solver, "newton_solve", spy)
    s, report = solve_path(phi, CapParams(n=2, k=k, p=1.5 if k == 1 else 2.0, theta=THETA))
    assert report.converged and report.grids[-2:] == ["32x64", f"{shape[0]}x{shape[1]}"]
    assert len(seen) >= 4
    for values in seen + [s.values]:
        assert_ring_constant(values)


def test_grid_sequencing_stops_at_the_coarsest_grid():
    def chain(nbeta, nphi):
        shapes = [(nbeta, nphi)]
        while (g := solver._coarser(CapGrid(*shapes[-1], THETA))) is not None:
            shapes.append((g.nbeta, g.nphi))
        return shapes

    assert chain(256, 512) == [(256, 512), (128, 256), (64, 128), (32, 64)]
    assert chain(255, 512) == [(255, 512), (127, 256), (63, 128)]
    assert chain(256, 510) == [(256, 510), (128, 254), (64, 126), (32, 62)]
    assert solver._coarser(CapGrid(66, 132, THETA)) == CapGrid(33, 66, THETA)
    for nbeta, nphi in ((65, 128), (64, 130)):
        assert solver._coarser(CapGrid(nbeta, nphi, THETA)) == CapGrid(32, 64, THETA)
    for nbeta, nphi in ((32, 64), (62, 124), (64, 8)):
        assert solver._coarser(CapGrid(nbeta, nphi, THETA)) is None


@pytest.mark.parametrize("params", [CapParams(n=2, k=1, p=1.5, theta=THETA),
                                    CapParams(n=2, k=2, p=1.8, theta=THETA)],
                         ids=["k1", "k2"])
def test_sequenced_solve_matches_the_plain_continuation(params, monkeypatch):
    grid = CapGrid(64, 128, THETA)
    phi = positive_even_phi(grid)
    shapes = recording_splu(monkeypatch)
    s, report = solve_path(phi, params)
    # anisotropic data: every factorization is of a modal system, one on 64x128
    assert set(shapes) == {modal_shape(CapGrid(32, 64, THETA)), modal_shape(grid)}
    assert report.converged and report.failure is None
    steps = len(report.t_steps)
    assert report.grids == ["32x64"] * (steps - 1) + ["64x128"]
    assert report.t_steps[-2:] == [1.0, 1.0]
    assert shapes.count(modal_shape(grid)) == report.newton_iters[-1]

    plain, plain_report = plain_continuation(phi, params, Schedule())
    assert plain_report.grids == ["64x128"] * len(plain_report.t_steps)
    assert np.max(np.abs(s.values - plain.values)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_a_rotationally_symmetric_solve_factorizes_mode0_alone(k, monkeypatch):
    """On ring-constant data every LU of the ladder, 32x64 and 64x128, is
    of one (Nbeta + 1)-square ring block, and every one is counted."""
    grid = CapGrid(64, 128, THETA)
    vals = 1.0 + 0.3 * (1.0 - np.cos(grid.beta_all))
    phi = CapField(grid, np.repeat(vals[:, None], grid.nphi, axis=1), even=True)
    shapes = recording_splu(monkeypatch)
    _, report = solve_path(phi, CapParams(n=2, k=k, p=1.5 if k == 1 else 2.0, theta=THETA))
    assert report.converged and report.grids[-2:] == ["32x64", "64x128"]
    assert set(shapes) == {(33, 33), (65, 65)}
    assert len(shapes) == sum(report.newton_iters)


def test_the_anisotropic_fallback_factorizes_every_mode(params_k1, grid_32, monkeypatch):
    """The continuation fallback on anisotropic data starts at t = 0 from a
    ring-constant state and data: an LU holds mode 0 alone exactly when its
    state and right side are ring-constant, bit for bit (the t = 0
    corrector), and every other LU of the path holds every mode."""
    newton = solver.newton_solve
    calls = []

    def failing_first(s, *args, **kwargs):
        calls.append(s.values)
        if len(calls) == 1:
            raise NewtonFailure("forced")
        return newton(s, *args, **kwargs)

    factorize, flat = solver._factorize, []

    def recording_factorize(s, q, rhs, *args):
        flat.append(solver._ring_constant(s.values) and solver._ring_constant(rhs.values))
        return factorize(s, q, rhs, *args)

    monkeypatch.setattr(solver, "newton_solve", failing_first)
    monkeypatch.setattr(solver, "_factorize", recording_factorize)
    shapes = recording_splu(monkeypatch)
    _, report = solve_path(positive_even_phi(grid_32), params_k1)
    assert report.converged and report.method == "continuation"
    assert_ring_constant(calls[1])  # the t = 0 corrector's start
    assert len(shapes) == len(flat) == sum(report.newton_iters)
    assert flat[:report.newton_iters[0]] == [True] * report.newton_iters[0]
    assert any(not f for f in flat)
    assert shapes == [(33, 33) if f else modal_shape(grid_32) for f in flat]


def test_a_grid_that_does_not_halve_is_sequenced(params_k1, monkeypatch):
    grid = CapGrid(127, 256, THETA)
    shapes = recording_splu(monkeypatch)
    vals = 1.0 + 0.2 * (1.0 - np.cos(grid.beta_all))
    phi = CapField(grid, np.broadcast_to(vals[:, None], (128, 256)).copy(), even=True)
    _, report = solve_path(phi, params_k1)
    assert report.converged
    assert report.grids == ["63x128"] * (len(report.t_steps) - 1) + ["127x256"]
    # rotationally symmetric data: mode 0 alone, of 64 rings on 63x128 and of
    # 128 on 127x256
    assert set(shapes) == {(64, 64), (128, 128)} and shapes.count((128, 128)) == 1


def test_a_failed_finer_corrector_stalls_with_the_coarse_path(params_k1, monkeypatch):
    grid = CapGrid(64, 128, THETA)
    newton = solver.newton_solve
    fine_calls = []

    def failing_on_64x128(s, *args, **kwargs):
        if s.grid == grid:
            fine_calls.append(None)
            raise NewtonFailure("forced")
        return newton(s, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", failing_on_64x128)
    with pytest.raises(ContinuationStall) as err:
        solve_path(positive_even_phi(grid), params_k1)
    report = err.value.report
    assert len(fine_calls) == 1
    assert err.value.t == report.stalled_at == 1.0 and not report.converged
    assert report.t_steps[-1] == 1.0 and report.grids == ["32x64"] * len(report.t_steps)
    assert report.failure == "corrector on 64x128: forced" == str(err.value.failure)
    assert isinstance(err.value.failure, NewtonFailure) and err.value.dt is None
    assert report.failure in str(err.value) and "dt_min" not in str(err.value)


def test_a_stall_at_t0_runs_the_continuation_once(params_k1, monkeypatch):
    grid = CapGrid(64, 128, THETA)
    newton = solver.newton_solve
    grids = []

    def counting_newton(s, *args, **kwargs):
        grids.append(solver._label(s.grid))
        return newton(s, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", counting_newton)
    with pytest.raises(ContinuationStall) as err:
        solve_path(positive_even_phi(grid), params_k1, Schedule(newton_max=0))
    report = err.value.report
    assert grids == ["32x64", "32x64"]  # the direct attempt, then the path's t = 0
    assert report.stalled_at == 0.0 and report.t_steps == [] == report.grids
    assert report.method == "continuation"
    assert report.direct_failure.startswith("no convergence in 0 iterations")
    assert report.failure.startswith("no convergence in 0 iterations")


def test_a_forced_direct_failure_runs_the_plain_continuation(params_k1, grid_32, monkeypatch):
    newton = solver.newton_solve
    qs = []

    def failing_first(s, q, *args, **kwargs):
        qs.append(q)
        if len(qs) == 1:
            raise NewtonFailure("forced")
        return newton(s, q, *args, **kwargs)

    phi = positive_even_phi(grid_32)
    monkeypatch.setattr(solver, "newton_solve", failing_first)
    s, report = solve_path(phi, params_k1)
    monkeypatch.undo()
    plain, plain_report = plain_continuation(phi, params_k1, Schedule())
    assert qs[:2] == [params_k1.p, 1.0]  # the direct attempt at t = 1, then the path's t = 0
    assert report.converged and report.method == "continuation"
    assert report.direct_failure == "forced" and report.failure is None
    assert np.array_equal(s.values, plain.values)
    assert report.t_steps == plain_report.t_steps
    assert report.newton_iters == plain_report.newton_iters
    assert report.stops == plain_report.stops


def test_a_given_start_runs_the_plain_continuation(params_k1, grid_32):
    """From a given s0, on a grid too coarse to sequence, solve_path runs the
    continuation alone from s0: the field and the Newton steps of the plain
    continuation from the same start, bit for bit."""
    phi = positive_even_phi(grid_32)
    s0 = 0.9 * params_k1.cnk ** (-1.0 / params_k1.k) * ell_field(grid_32)
    s, report = solve_path(phi, params_k1, s0=s0)
    plain, plain_report = plain_continuation(phi, params_k1, Schedule(), s0)
    assert report.converged and report.method == "continuation"
    assert report.direct_failure is None and report.grids == ["32x64"] * len(report.t_steps)
    assert np.array_equal(s.values, plain.values)
    assert report.t_steps == plain_report.t_steps
    assert report.newton_iters == plain_report.newton_iters
    assert report.stops == plain_report.stops


@pytest.mark.parametrize("phi_grid, s0_grid", [
    ((32, 64, math.pi / 4), (32, 64, math.pi / 3)),
    ((32, 64, THETA), (16, 32, THETA)),
    ((64, 128, THETA), (32, 64, THETA)),
], ids=["other-theta", "coarser", "sequenced"])
def test_a_start_off_phis_grid_is_refused(params_k1, phi_grid, s0_grid):
    """solve_path refuses an s0 that is not on phi's grid, naming both grids:
    a start at another theta, one too coarse to broadcast against phi, and
    one on the coarser grid that sequencing would interpolate it to."""
    grid, other = CapGrid(*phi_grid), CapGrid(*s0_grid)
    params = CapParams(n=2, k=1, p=params_k1.p, theta=grid.theta)
    s0 = params.cnk ** (-1.0 / params.k) * ell_field(other)
    with pytest.raises(ValueError) as err:
        solve_path(positive_even_phi(grid), params, s0=s0)
    assert str(err.value) == f"s0 is on {other!r}, not on phi's {grid!r}"


def stress_phi(grid, c1, a, m):
    """1 + c1 (1 - cos beta) + a cos(m phi) sin^2 beta: the family of the
    seeded random stress runs."""
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    return CapField(grid, 1.0 + c1 * (1.0 - np.cos(bb)) + a * np.cos(m * pp) * np.sin(bb) ** 2,
                    even=True)


def test_solve_path_projects_data_flagged_even(params_k1):
    """Data flagged even whose cos(2 phi) halves differ in their last bits
    solve, bit for bit, as their projection: the finest grid's corrector
    and the coarse path both see the even phi."""
    phi = stress_phi(CapGrid(64, 128, THETA), 0.3, 0.05, 2)
    upper, lower = phi.values[:, 64:], phi.values[:, :64]
    assert not np.array_equal(upper, lower)
    assert np.all(np.abs(upper - lower) <= np.spacing(np.maximum(upper, lower)))
    s, report = solve_path(phi, params_k1)
    ref, ref_report = solve_path(phi.project_even(), params_k1)
    assert report.converged and report.grids == ["32x64", "64x128"]
    assert s.values.tobytes() == ref.values.tobytes()
    assert report.to_dict() == ref_report.to_dict()


@pytest.mark.parametrize(
    "p, theta, c1, a, m",
    [(2.6567876818643485, 0.1784257186396094, 0.17900203132791281, 0.394838539062227, 2),
     (2.7460743492058244, 0.2842235427584561, 1.6084425133953593, 0.27526856314709397, 2)],
    ids=["seed946", "seed579"])
def test_a_real_direct_failure_runs_the_plain_continuation(p, theta, c1, a, m):
    """Two seeded random stress cases at 32x64, k = 2 (seeds 946 and 579),
    where the direct attempt fails and the continuation converges: the
    direct attempt ends its iteration budget far from a solution (r 9.0e-5
    and 2.7e-2), while the continuation ends on a small solution (max s
    below 1e-9) at a relative residual below 1e-10."""
    params = CapParams(n=2, k=2, p=p, theta=theta)
    phi = stress_phi(CapGrid(32, 64, theta), c1, a, m)
    s, report = solve_path(phi, params)
    plain, plain_report = plain_continuation(phi, params, Schedule())
    assert report.converged and report.method == "continuation"
    assert report.direct_failure.startswith("no convergence in 30 iterations")
    assert report.relative_residual <= 1e-10 and np.max(s.values) < 1e-9
    assert np.array_equal(s.values, plain.values)
    assert report.newton_iters == plain_report.newton_iters


def test_sequenced_solve_converges_where_the_fine_continuation_stalls():
    """256x512, k = 1, theta = pi/4, phi = 1 + 0.2 (1 - cos beta): the
    path on 32x64 and three correctors converge, to a relative residual of
    at most tol_solve."""
    theta = math.pi / 4
    grid = CapGrid(256, 512, theta)
    vals = 1.0 + 0.2 * (1.0 - np.cos(grid.beta_all))
    phi = CapField(grid, np.broadcast_to(vals[:, None], (257, 512)).copy(), even=True)
    s, report = solve_path(phi, CapParams(n=2, k=1, p=1.5, theta=theta), Schedule(dt_min=0.1))
    assert report.converged and report.failure is None
    assert report.grids[-3:] == ["64x128", "128x256", "256x512"]
    assert report.relative_residual <= Schedule().tol_solve


def test_solve_path_validates_inputs(params_k1, grid_16):
    phi = positive_even_phi(grid_16)
    with pytest.raises(ValueError):
        solve_path(phi, CapParams(n=3, k=1, p=1.5, theta=THETA))
    neg = CapField(grid_16, phi.values - 2.0, even=True)
    with pytest.raises(ValueError):
        solve_path(neg, params_k1)
    bb, pp = np.meshgrid(grid_16.beta_all, grid_16.phi, indexing="ij")
    odd = CapField(grid_16, 1.0 + 0.3 * np.cos(pp) * np.sin(bb))
    with pytest.raises(ValueError):
        solve_path(odd, params_k1)
    # even data of 2^1023 projects to inf, which is refused, not solved
    huge = CapField(grid_16, np.full((17, 32), 2.0**1023), even=True)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        solve_path(huge, params_k1)


def test_solve_path_report_invariants(solved_32, params_k1):
    s, report, phi = solved_32
    assert report.converged
    assert report.relative_residual <= Schedule().tol_solve
    assert report.stops == ["residual"] * len(report.t_steps)
    assert min(report.lam1min_trace) > 0.0
    assert min(report.smin_trace) > 0.0
    assert s.is_even(tol=0.0)
    fint, gbd, rel = residual(s, params_k1.p, phi, params_k1)
    assert rel == report.relative_residual
    assert report.residual_norms[-1] == float(np.max(np.abs(fint)))
    assert report.robin_norms[-1] == float(np.max(np.abs(gbd)))


def test_solve_report_serialization_omits_wall_time(solved_32):
    _, report, _ = solved_32
    d = report.to_dict()
    assert "wall_time" not in d
    assert d["converged"] is True


def test_manufactured_solve_is_second_order(params_k1):
    errs = {}
    for nbeta in (16, 32):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        phi = manufactured_phi(g, params_k1, r=1.3)
        s, _ = solve_path(phi, params_k1)
        ref = manufactured_reference(g, params_k1, r=1.3)
        errs[nbeta] = float(np.max(np.abs(s.values - ref.values)))
    assert errs[32] < 2.5e-4
    assert errs[16] / errs[32] > 3.5


def test_structural_hypothesis_check_on_admissible_data(params_k1, grid_16):
    ones = CapField(grid_16, np.ones((17, 32)), even=True)
    rec = structural_hypothesis_check(ones, params_k1)
    assert rec["pass"] and rec["interior_pass"] and rec["boundary_pass"]
    assert rec["interior_min_eigenvalue"] > 0.0
