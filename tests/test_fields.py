import math

import numpy as np
import pytest

from capcmk import audit, fields
from capcmk.fields import (
    CapField,
    CapGrid,
    boundary_tau_identity_residual,
    fd_weights,
    load_field,
    robin_residual,
    save_field,
    tau_sharp,
    write_csv,
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


def plain(grid, bmat, phi_weights, values):
    """The beta-matrix bmat (column c: ring c - 1) laid over the periodic
    phi-stencil {offset: weight} and applied to the node values by dense
    products and rolls: the tests' own reference operator.  Ring -1 is ring 0
    turned by the half-turn phi -> phi + pi."""
    rings = np.vstack([np.roll(values[0], -(grid.nphi // 2)), values])
    return sum(w * (bmat @ np.roll(rings, -o, axis=1)) for o, w in phi_weights.items())


def plain_derivatives(s: CapField):
    """d/dbeta, d/dphi, their squares and d^2/dbeta dphi on the interior
    rings, from the grid's 1-D stencils through `plain`."""
    g = s.grid
    st = g._stencils()
    one = {0: 1.0}
    return {
        "dbeta": plain(g, st["d1"], one, s.values),
        "dphi": plain(g, st["rings"], st["w1"], s.values),
        "dbeta2": plain(g, st["d2"], one, s.values),
        "dphi2": plain(g, st["rings"], st["w2"], s.values),
        "dbetaphi": plain(g, st["d1"], st["w1"], s.values),
    }


def stencil_sup_errors(nbeta):
    """Sup errors of the plain stencils, keyed by operator and field."""
    grid = CapGrid(nbeta, 2 * nbeta, THETA)
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    # the odd field is smooth through the pole, and the beta stencils' pole
    # rows read it through the half-turn phi -> phi + pi, which even fields
    # cannot tell from the identity
    fields = {"even": smooth_even_field(grid), "odd": CapField(grid, np.sin(bb) * np.cos(pp))}
    derivs = {kind: plain_derivatives(f) for kind, f in fields.items()}
    bc = grid.beta_cells[:, None]
    pc = grid.phi[None, :]
    exact = {
        ("dbeta", "even"): -np.sin(bc) * (1.0 + 0.1 * np.cos(2.0 * pc)),
        ("dbeta2", "even"): -np.cos(bc) * (1.0 + 0.1 * np.cos(2.0 * pc)),
        ("dphi", "even"): np.cos(bc) * (-0.2 * np.sin(2.0 * pc)),
        ("dphi2", "even"): np.cos(bc) * (-0.4 * np.cos(2.0 * pc)),
        ("dbeta", "odd"): np.cos(bc) * np.cos(pc),
        ("dbeta2", "odd"): -np.sin(bc) * np.cos(pc),
    }
    return {(name, kind): float(np.max(np.abs(derivs[kind][name] - ex)))
            for (name, kind), ex in exact.items()}


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
    for key in e16:
        assert e32[key] < 2e-3, key
        assert e16[key] / e32[key] > 3.5, key


def test_field_shape_validation_and_views():
    g = CapGrid(16, 32, THETA)
    with pytest.raises(ValueError):
        CapField(g, np.ones((16, 32)))
    f = CapField(g, np.arange(17 * 32, dtype=float).reshape(17, 32))
    assert f.interior.shape == (16, 32)
    assert f.flat.shape == (17 * 32,)


def test_field_algebra_and_grid_mismatch():
    g = CapGrid(16, 32, THETA)
    other = CapGrid(16, 32, math.pi / 4)
    a = ell_field(g)
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
    reference that the frame operators of tau_sharp are checked against.
    """
    g = s.grid
    d = plain_derivatives(s)
    sinb = np.sin(g.beta_cells)[:, None]
    cosb = np.cos(g.beta_cells)[:, None]
    return (d["dbeta2"], d["dbetaphi"] - (cosb / sinb) * d["dphi"],
            d["dphi2"] + sinb * cosb * d["dbeta"])


def test_tau_matches_covariant_hessian_components():
    g = CapGrid(32, 64, THETA)
    s = random_capillary_field(g, np.random.default_rng(2))
    hbb, hbp, hpp = covariant_hessian(s)
    tau = tau_sharp(s)
    sinb = np.sin(g.beta_cells)[:, None]
    assert np.max(np.abs(tau.a11 - (hbb + s.interior))) < 1e-9
    assert np.max(np.abs(tau.a12 - hbp / sinb)) < 1e-9
    assert np.max(np.abs(tau.a22 - (hpp / sinb**2 + s.interior))) < 1e-9


@pytest.mark.parametrize("nbeta, nphi", [(8, 8), (16, 30), (33, 64), (128, 256)],
                         ids=["8x8", "odd-half-turn", "odd-nbeta", "128x256"])
def test_stencil_application_matches_the_csr_layout(nbeta, nphi):
    """tau_sharp, robin_residual and the audit gradients, which apply the
    grid's terms to the extended value array, agree with the CSR layout of
    the same terms (`ops`, `csr`) to roundoff.  The field sin(beta) cos(phi)
    is odd under the half-turn, so reading ring -1 as ring 0 without the turn
    would fail; 16x30 has an odd Nphi/2 and 33x64 an odd Nbeta."""
    g = CapGrid(nbeta, nphi, THETA)
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    fields = [random_capillary_field(g, np.random.default_rng(seed)) for seed in (8, 9)]
    fields.append(CapField(g, np.sin(bb) * np.cos(pp)))
    ops = dict(g.ops(), dbeta=g.csr("dbeta"), dphi=g.csr("dphi"))
    for s in fields:
        tau = tau_sharp(s)
        sb, sphi = audit._gradient_all_rows(s)
        got = {"a11": tau.a11, "a12": tau.a12, "a22": tau.a22, "robin": robin_residual(s),
               "dbeta": sb, "dphi": sphi}
        for name, value in got.items():
            # relative to the magnitude |A| |x| that the roundoff of A x scales with
            ref, scale = ops[name] @ s.flat, abs(ops[name]) @ np.abs(s.flat)
            assert np.all(np.abs(value.ravel() - ref) <= 1e-13 * scale), name


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


def _reference_csv(header, rows):
    """The CSV text as one join over per-row lines: the reference that the
    block writer must match byte for byte."""
    fmt = ",".join(["%.17g"] * rows.shape[1])
    return "\n".join(list(header) + [fmt % tuple(r) for r in rows.tolist()]) + "\n"


# signed zero, the least subnormal, the largest double, a non-terminating
# binary fraction, exact integers and the non-finite values
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, 0.0, 7.0, -12.0,
               2.0**53, math.inf, -math.inf, math.nan]


def _values(rng, n):
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n).astype(float)
    m = min(n, len(EDGE_VALUES))
    vals[:m] = EDGE_VALUES[:m]
    vals[n - m:] = EDGE_VALUES[len(EDGE_VALUES) - m:]
    return vals


@pytest.mark.parametrize("ncol", [1, 3, 5, 256])
def test_write_csv_bytes_match_the_per_row_reference(tmp_path, ncol):
    rng = np.random.default_rng(ncol)
    b = fields._block_rows(ncol)
    header = ["# head", "a,b"]
    path = tmp_path / "rows.csv"
    for nrow in (1, b - 1, b, b + 1, 2 * b + 3):
        rows = _values(rng, nrow * ncol).reshape(nrow, ncol)
        write_csv(path, header, rows)
        assert path.read_bytes() == _reference_csv(header, rows).encode(), nrow


@pytest.mark.parametrize("na, nb", [(1, 1), (3, 7), (10, 30)])
def test_write_csv_lead_matches_the_meshgrid_columns(tmp_path, na, nb):
    rng = np.random.default_rng(na * nb)
    a, b = _values(rng, na), _values(rng, nb)
    rows = _values(rng, na * nb * 3).reshape(na * nb, 3)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    path = tmp_path / "lead.csv"
    write_csv(path, ["a,b,x,y,z"], rows, lead=(a, b))
    want = _reference_csv(["a,b,x,y,z"], np.column_stack([aa.ravel(), bb.ravel(), rows]))
    assert path.read_bytes() == want.encode()


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
