import math

import numpy as np
import pytest

from capcmk.fields import (
    CapField,
    CapGrid,
    boundary_tau_identity_residual,
    fd_weights,
    load_field,
    robin_residual,
    save_field,
    tau_sharp,
)
from capcmk.geometry import (
    ell_field,
    make_capillary_test_function,
    random_capillary_field,
    random_neumann_factor,
)
from capcmk.symfunc import SymEndo

THETA = math.pi / 3


def smooth_even_field(grid):
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    return CapField(grid, np.cos(bb) * (1.0 + 0.1 * np.cos(2.0 * pp)), even=True)


def stencil_sup_errors(nbeta):
    grid = CapGrid(nbeta, 2 * nbeta, THETA)
    f = smooth_even_field(grid)
    ops = grid.ops()
    bc = grid.beta_cells[:, None]
    pc = grid.phi[None, :]
    exact = {
        "dbeta": -np.sin(bc) * (1.0 + 0.1 * np.cos(2.0 * pc)),
        "dbeta2": -np.cos(bc) * (1.0 + 0.1 * np.cos(2.0 * pc)),
        "dphi": np.cos(bc) * (-0.2 * np.sin(2.0 * pc)),
        "dphi2": np.cos(bc) * (-0.4 * np.cos(2.0 * pc)),
    }
    return {
        name: float(np.max(np.abs((ops[name] @ f.flat).reshape(nbeta, 2 * nbeta) - ex)))
        for name, ex in exact.items()
    }


def test_grid_rejects_bad_shapes_and_angles():
    with pytest.raises(ValueError):
        CapGrid(4, 32, THETA)
    with pytest.raises(ValueError):
        CapGrid(16, 6, THETA)
    with pytest.raises(ValueError):
        CapGrid(16, 31, THETA)
    with pytest.raises(ValueError):
        CapGrid(16, 32, math.pi / 2)


def test_grid_equality_and_hash():
    a = CapGrid(16, 32, THETA)
    b = CapGrid(16, 32, THETA)
    c = CapGrid(16, 32, math.pi / 4)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_quadrature_weights_sum_to_cap_area():
    for nbeta in (16, 32):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        area = 2.0 * math.pi * (1.0 - math.cos(THETA))
        got = g.integrate(np.ones((nbeta, 2 * nbeta)))
        assert abs(got - area) / area < 1.0 / nbeta**2


def test_integrate_validates_shape_and_drops_the_rim():
    g = CapGrid(16, 32, THETA)
    full = np.ones((17, 32))
    assert g.integrate(full) == pytest.approx(g.integrate(np.ones((16, 32))))
    with pytest.raises(ValueError):
        g.integrate(np.ones((5, 5)))


def test_fd_weights_reproduce_central_stencils():
    assert np.allclose(fd_weights([-1.0, 0.0, 1.0], 1), [-0.5, 0.0, 0.5])
    assert np.allclose(fd_weights([-1.0, 0.0, 1.0], 2), [1.0, -2.0, 1.0])
    # exactness on a cubic through nonuniform offsets
    offs = [-0.7, -0.2, 0.0, 0.4]
    w = fd_weights(offs, 2)
    coeffs = np.array([0.3, -1.2, 0.5, 2.0])
    vals = np.polyval(coeffs, offs)
    second = np.polyval(np.polyder(coeffs, 2), 0.0)
    assert np.dot(w, vals) == pytest.approx(second, rel=1e-12)


def test_derivative_stencils_are_second_order():
    e16 = stencil_sup_errors(16)
    e32 = stencil_sup_errors(32)
    for name in e16:
        assert e32[name] < 2e-3
        assert e16[name] / e32[name] > 3.5


def test_field_shape_validation_and_views():
    g = CapGrid(16, 32, THETA)
    with pytest.raises(ValueError):
        CapField(g, np.ones((16, 32)))
    f = CapField(g, np.arange(17 * 32, dtype=float).reshape(17, 32))
    assert f.interior.shape == (16, 32)
    assert f.boundary.shape == (32,)
    assert f.flat.shape == (17 * 32,)


def test_field_algebra_and_grid_mismatch():
    g = CapGrid(16, 32, THETA)
    other = CapGrid(16, 32, math.pi / 4)
    a = ell_field(g)
    b = 2.0 * a
    assert np.allclose((b - a).values, a.values)
    assert (a + a).even
    with pytest.raises(ValueError):
        a + ell_field(other)


def test_project_even_is_idempotent_and_exact():
    g = CapGrid(16, 32, THETA)
    rng = np.random.default_rng(0)
    f = CapField(g, rng.standard_normal((17, 32)))
    once = f.project_even()
    twice = once.project_even()
    assert once.is_even(tol=0.0)
    assert np.array_equal(once.values, twice.values)


def test_tau_of_model_function_is_identity_to_h2():
    devs = {}
    for nbeta in (32, 64):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        tau = tau_sharp(ell_field(g))
        devs[nbeta] = max(
            float(np.max(np.abs(tau.a11 - 1.0))),
            float(np.max(np.abs(tau.a12))),
            float(np.max(np.abs(tau.a22 - 1.0))),
        )
    assert devs[32] < 2e-4
    assert devs[32] / devs[64] > 3.5


def test_tau_is_linear_and_shifts_by_identity():
    g = CapGrid(16, 32, THETA)
    s = random_capillary_field(g, np.random.default_rng(1))
    lf = ell_field(g)
    t = 0.7
    tau_sum = tau_sharp(s + t * lf)
    tau_s = tau_sharp(s)
    tau_l = tau_sharp(lf)
    # operator linearity holds to roundoff
    for comp in ("a11", "a12", "a22"):
        gap = np.max(np.abs(getattr(tau_sum, comp)
                            - getattr(tau_s, comp) - t * getattr(tau_l, comp)))
        assert gap < 1e-10
    # and tau[ell] is the identity to discretization accuracy, so the sum
    # matches the exact shift to O(h^2)
    shifted = tau_s + t * SymEndo.identity(tau_s.shape)
    assert np.max(np.abs(tau_sum.a11 - shifted.a11)) < 1e-3
    assert np.max(np.abs(tau_sum.a22 - shifted.a22)) < 1e-3


def covariant_hessian(s: CapField):
    """Coordinate components (H_bb, H_bp, H_pp) of the covariant Hessian.

    H_bb = s_bb, H_bp = s_bp - cot(beta) s_p, H_pp = s_pp + sin(beta)cos(beta) s_b,
    on the interior rings, from the grid's plain derivative stencils: the
    reference that the assembled frame operators of tau_sharp are checked
    against.
    """
    g = s.grid
    ops = g.ops()
    x = s.flat
    shape = (g.nbeta, g.nphi)
    sb = (ops["dbeta"] @ x).reshape(shape)
    sphi = (ops["dphi"] @ x).reshape(shape)
    sbb = (ops["dbeta2"] @ x).reshape(shape)
    spp = (ops["dphi2"] @ x).reshape(shape)
    sbp = (ops["dbetaphi"] @ x).reshape(shape)
    sinb = np.sin(g.beta_cells)[:, None]
    cosb = np.cos(g.beta_cells)[:, None]
    return sbb, sbp - (cosb / sinb) * sphi, spp + sinb * cosb * sb


def test_tau_matches_covariant_hessian_components():
    g = CapGrid(32, 64, THETA)
    s = random_capillary_field(g, np.random.default_rng(2))
    hbb, hbp, hpp = covariant_hessian(s)
    tau = tau_sharp(s)
    sinb = np.sin(g.beta_cells)[:, None]
    assert np.max(np.abs(tau.a11 - (hbb + s.interior))) < 1e-9
    assert np.max(np.abs(tau.a12 - hbp / sinb)) < 1e-9
    assert np.max(np.abs(tau.a22 - (hpp / sinb**2 + s.interior))) < 1e-9


def test_tau_eigenvalues_and_convexity_flag():
    g = CapGrid(16, 32, THETA)
    tau = tau_sharp(ell_field(g))
    assert isinstance(tau, SymEndo)
    lo, hi = tau.eigenvalues
    assert np.all(lo <= hi)
    assert tau.lam1min > 0.9
    rough = CapField(g, 1.0 + 0.5 * np.cos(4.0 * g.phi)[None, :] * np.ones((17, 32)), even=True)
    assert tau_sharp(rough).lam1min < 0.0


def test_robin_residual_of_model_function_shrinks():
    r = {}
    for nbeta in (16, 32):
        g = CapGrid(nbeta, 2 * nbeta, THETA)
        r[nbeta] = float(np.max(np.abs(robin_residual(ell_field(g)))))
    assert r[32] < 1e-3
    assert r[16] / r[32] > 3.5


def test_boundary_tau_identity_decays_under_refinement():
    coarse = CapGrid(16, 32, THETA)
    fine = CapGrid(32, 64, THETA)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = random_neumann_factor(THETA, rng)
        rc = boundary_tau_identity_residual(make_capillary_test_function(coarse, v))
        rf = boundary_tau_identity_residual(make_capillary_test_function(fine, v))
        assert rf < rc


def test_field_serialization_round_trip_is_bit_exact(tmp_path):
    g = CapGrid(16, 32, THETA)
    s = random_capillary_field(g, np.random.default_rng(4))
    path = tmp_path / "field.csv"
    save_field(s, path)
    back = load_field(path)
    assert back.grid == g
    assert back.even == s.even
    assert np.array_equal(back.values, s.values)


def test_load_field_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_field(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("1,2\n")
    with pytest.raises(ValueError):
        load_field(bad_header)
    g = CapGrid(16, 32, THETA)
    truncated = tmp_path / "short.csv"
    save_field(ell_field(g), truncated)
    lines = truncated.read_text().splitlines()
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_field(truncated)
