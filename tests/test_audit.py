import math
import tracemalloc

import numpy as np
import pytest

from capcmk import audit, cli
from capcmk.audit import (
    BodyGeometry,
    af_inequality_check,
    estimates_audit,
    mixed_volume,
    mixed_volume_repeated,
    parallel_body,
    reconstruct,
    save_embedding,
    steiner_coefficients,
    steiner_sigma_check,
    steiner_volume_check,
    surface_points,
    volume,
)
from capcmk.config import load_config
from capcmk.fields import CapField, CapGrid, load_field, save_field, tau_sharp
from capcmk.geometry import CapParams, ell_field, random_capillary_field
from capcmk.solver import solve_path
from capcmk.symfunc import SymEndo, sigma_k

from conftest import THETA


def cap_volume(theta):
    c = math.cos(theta)
    return (math.pi / 3.0) * (1.0 - c) ** 2 * (2.0 + c)


def rough_field(grid):
    # even but far from convex: tau_sharp picks up a negative eigenvalue
    vals = 1.0 + 0.5 * np.cos(4.0 * grid.phi)[None, :] * np.ones((grid.nbeta + 1, 1))
    return CapField(grid, vals, even=True)


def ones_field(grid):
    return CapField(grid, np.ones((grid.nbeta + 1, grid.nphi)), even=True)


# -- reconstruction ---------------------------------------------------------------


def test_surface_points_of_the_model_cap(grid_32):
    # X(ell) = (sin b cos p, sin b sin p, cos b - cos theta) exactly
    pts = surface_points(ell_field(grid_32))
    b = grid_32.beta_all[:, None]
    ref = np.stack(
        [
            np.sin(b) * np.cos(grid_32.phi)[None, :],
            np.sin(b) * np.sin(grid_32.phi)[None, :],
            (np.cos(b) - math.cos(THETA)) * np.ones_like(grid_32.phi)[None, :],
        ],
        axis=-1,
    )
    assert np.max(np.abs(pts - ref)) < 5e-4
    rim = pts[-1]
    assert rim.shape == (grid_32.nphi, 3)
    radii = np.hypot(rim[:, 0], rim[:, 1])
    assert np.max(radii) - np.min(radii) < 1e-12  # the rim is a circle


@pytest.mark.parametrize("shape", [None, (9, 30), (128, 256)],
                         ids=["solved_32x64", "random_9x30", "random_128x256"])
def test_surface_points_of_an_even_field_are_an_exact_half_turn(request, shape):
    # the points at phi + pi are (-x1, -x2, x3) of those at phi, bit for bit,
    # for the solver's fields and random ones, each bitwise even
    if shape is None:
        s = request.getfixturevalue("solved_32")[0]
    else:
        s = random_capillary_field(CapGrid(*shape, THETA), np.random.default_rng(shape[0]))
    h = s.grid.nphi // 2
    assert s.values[:, h:].tobytes() == s.values[:, :h].tobytes()
    pts = surface_points(s)
    assert pts[:, h:, :2].tobytes() == (-pts[:, :h, :2]).tobytes()
    assert pts[:, h:, 2].tobytes() == pts[:, :h, 2].tobytes()


def test_reconstruct_model_geometry(grid_32):
    s = ell_field(grid_32)
    geo = reconstruct(s, tau_sharp(s), surface_points(s))
    assert abs(geo.height - (1.0 - math.cos(THETA))) < 1e-3
    assert abs(geo.r_in - math.sin(THETA)) < 5e-4
    assert geo.rim_planarity < 1e-3
    assert geo.slope_max < math.tan(THETA) + 0.02


def test_reconstruct_rejects_nonconvex(grid_16):
    with pytest.raises(ValueError, match="convex"):
        s = rough_field(grid_16)
        reconstruct(s, tau_sharp(s), surface_points(s))


# -- volumes ----------------------------------------------------------------------


def test_volume_of_the_model_cap_converges():
    errs = {}
    for nb in (16, 32):
        g = CapGrid(nb, 2 * nb, THETA)
        errs[nb] = abs(volume(ell_field(g)) - cap_volume(THETA)) / cap_volume(THETA)
    assert errs[16] < 2e-3
    assert errs[32] < 1e-3
    assert errs[16] / errs[32] > 3.0


def test_volume_scales_cubically(grid_16):
    rng = np.random.default_rng(0)
    s = random_capillary_field(grid_16, rng)
    v1 = volume(s)
    v2 = volume(2.0 * s)
    assert abs(v2 - 8.0 * v1) < 1e-12 * abs(v1)


def test_parallel_body_adds_the_model(grid_16):
    rng = np.random.default_rng(1)
    s = random_capillary_field(grid_16, rng)
    t = 0.3
    fat = parallel_body(s, t)
    assert np.array_equal(fat.values, (s + t * ell_field(grid_16)).values)
    assert fat.is_even()
    with pytest.raises(ValueError):
        parallel_body(s, -0.1)


# -- mixed volumes ----------------------------------------------------------------


def test_mixed_volume_validates_arguments(grid_16, grid_32, params_k1):
    s16 = ell_field(grid_16)
    with pytest.raises(ValueError, match="k\\+1"):
        mixed_volume([s16, s16, s16], params_k1)
    with pytest.raises(ValueError, match="grid"):
        mixed_volume([s16, ell_field(grid_32)], params_k1)
    with pytest.raises(ValueError, match="grid"):
        mixed_volume_repeated(s16, ell_field(grid_32), params_k1)


def test_mixed_volume_repeated_equals_direct_form(grid_16, params_k1):
    rng = np.random.default_rng(2)
    s0 = random_capillary_field(grid_16, rng)
    s = random_capillary_field(grid_16, rng)
    a = mixed_volume([s0, s], params_k1)
    b = mixed_volume_repeated(s0, s, params_k1)
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    params_k2 = CapParams(n=2, k=2, p=2.0, theta=THETA)
    a = mixed_volume([s0, s, s], params_k2)
    b = mixed_volume_repeated(s0, s, params_k2)
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_mixed_volume_tau_slot_permutation(grid_16):
    params_k2 = CapParams(n=2, k=2, p=2.0, theta=THETA)
    rng = np.random.default_rng(3)
    f0 = random_capillary_field(grid_16, rng)
    f1 = random_capillary_field(grid_16, rng)
    f2 = random_capillary_field(grid_16, rng)
    a = mixed_volume([f0, f1, f2], params_k2)
    b = mixed_volume([f0, f2, f1], params_k2)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_mixed_volume_weight_slot_symmetry_is_quadrature_exact(params_k1):
    # V(f,g) = V(g,f) holds in the continuum; discretely the gap is O(h^2)
    gaps = {}
    for nb in (16, 32):
        g = CapGrid(nb, 2 * nb, THETA)
        rng = np.random.default_rng(7)
        f1 = random_capillary_field(g, rng)
        f2 = random_capillary_field(g, rng)
        gaps[nb] = abs(mixed_volume([f1, f2], params_k1) - mixed_volume([f2, f1], params_k1))
    assert gaps[16] < 1e-4
    assert gaps[32] < gaps[16]
    assert gaps[32] < 5e-5


def test_mixed_volume_is_multilinear(grid_16, params_k1):
    rng = np.random.default_rng(4)
    f0 = random_capillary_field(grid_16, rng)
    f1 = random_capillary_field(grid_16, rng)
    f2 = random_capillary_field(grid_16, rng)
    a, b = 0.7, 1.9

    lhs = mixed_volume([a * f0 + b * f1, f2], params_k1)
    rhs = a * mixed_volume([f0, f2], params_k1) + b * mixed_volume([f1, f2], params_k1)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    params_k2 = CapParams(n=2, k=2, p=2.0, theta=THETA)
    lhs = mixed_volume([f2, a * f0 + b * f1, f2], params_k2)
    rhs = a * mixed_volume([f2, f0, f2], params_k2) + b * mixed_volume([f2, f1, f2], params_k2)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_mixed_volume_of_the_model_is_the_cap_volume(grid_32, params_k1):
    lf = ell_field(grid_32)
    v = mixed_volume([lf, lf], params_k1)
    assert abs(v - cap_volume(THETA)) / cap_volume(THETA) < 1e-3


def test_af_inequality_on_seeded_pairs(grid_16, params_k1):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s1 = random_capillary_field(grid_16, rng)
        s2 = random_capillary_field(grid_16, rng)
        rec = af_inequality_check(s1, s2, params_k1)
        assert rec["pass"]
        assert rec["rel_margin"] >= -1e-8
        assert set(rec) == {
            "name", "statement", "b12", "b11", "b22", "margin", "rel_margin", "pass",
        }


def test_af_equality_at_scalar_multiples(grid_16, params_k1):
    rng = np.random.default_rng(9)
    s1 = random_capillary_field(grid_16, rng)
    rec = af_inequality_check(s1, 0.7 * s1, params_k1)
    assert abs(rec["rel_margin"]) < 1e-10
    assert rec["pass"]


# -- Steiner identities -----------------------------------------------------------


def test_steiner_sigma_identity_is_exact(solved_32, params_k1):
    s, _, _ = solved_32
    for t in (0.1, 0.5, 1.0):
        rec = steiner_sigma_check(s, t, params_k1)
        assert rec["pass"]
        assert rec["t"] == t
        assert rec["margin"] <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_steiner_sigma_check_of_a_ring_constant_field_is_its_column(grid_32, k):
    """tau_sharp of a ring-constant field is (Nbeta, 1) columns; the Steiner
    sigma check runs on them and reports every bit that the same tau
    repeated over the grid in contiguous arrays gives."""
    params = CapParams(n=2, k=k, p=1.5, theta=THETA)
    ring = 1.0 + 0.1 * np.cos(grid_32.beta_all)[:, None]
    s = CapField(grid_32, ell_field(grid_32).values * ring, even=True)
    tau = tau_sharp(s)
    full = SymEndo(*(np.repeat(c, grid_32.nphi, axis=1) for c in (tau.a11, tau.a12, tau.a22)))
    assert tau.shape == (grid_32.nbeta, 1) and full.shape == (grid_32.nbeta, grid_32.nphi)
    for t in (0.1, 0.5, 1.0):
        assert (steiner_sigma_check(s, t, params, tau=tau)
                == steiner_sigma_check(s, t, params, tau=full))


def test_steiner_coefficients_of_the_model(grid_32, params_k1):
    model = ell_field(grid_32)
    coeff = steiner_coefficients(model, params_k1, tau_sharp(model))
    c = math.cos(THETA)
    m = math.pi * (1.0 - c) ** 2 * (2.0 + c)
    # sigma_j(id) = C(2,j) cancels the 1/(n+1-j) weights down to (m/3, m, m)
    assert coeff.shape == (3,)
    assert abs(coeff[0] - m / 3.0) / m < 1e-3
    assert abs(coeff[1] - m) / m < 1e-3
    assert abs(coeff[2] - m) / m < 1e-3


def test_steiner_volume_check_passes_on_solutions(solved_32, params_k1):
    s, _, _ = solved_32
    records = steiner_volume_check(s, (0.1, 0.5, 1.0), params_k1, tau_sharp(s), surface_points(s))
    assert [rec["rho"] for rec in records] == [0.1, 0.5, 1.0]
    for rec in records:
        assert rec["pass"], rec
    with pytest.raises(ValueError, match="n = 2"):
        steiner_volume_check(s, (0.5,), CapParams(n=3, k=2, p=2.0, theta=THETA), tau_sharp(s),
                             surface_points(s))


def test_parallel_volume_polynomial_matches_coefficients(grid_32, params_k1):
    # fit vol(s + rho ell) - vol(s) by a cubic; coefficients are the
    # curvature-measure integrals, constant term vanishes
    rng = np.random.default_rng(3)
    s = random_capillary_field(grid_32, rng)
    rhos = np.linspace(0.1, 1.0, 8)
    v0 = volume(s)
    dvol = np.array([volume(parallel_body(s, r)) - v0 for r in rhos])
    fit = np.polyfit(rhos, dvol, 3)
    coeff = steiner_coefficients(s, params_k1, tau_sharp(s))
    for got, want in zip(fit[:3], coeff):
        assert abs(got - want) / abs(want) < 5e-3
    assert abs(fit[3]) < 1e-12


# -- estimate audit ---------------------------------------------------------------


def test_estimates_audit_passes_on_a_solution(solved_32, params_k1):
    s, _, phi = solved_32
    result = estimates_audit(s, phi, params_k1)
    assert result["all_passed"]
    names = [it["name"] for it in result["items"]]
    assert names == [
        "max_lower_bound", "strict_convexity", "slope_bound", "height_positive",
        "support_height_bound", "inradius_height", "rim_planarity", "sigma1_observed",
    ]
    by_name = {it["name"]: it for it in result["items"]}
    assert by_name["sigma1_observed"]["pass"] is None
    assert by_name["max_lower_bound"]["margin"] > 0.0
    assert by_name["slope_bound"]["rhs"] == pytest.approx(math.tan(THETA) + 0.02)


def test_estimates_audit_respects_slope_slack(solved_32, params_k1, monkeypatch):
    s, _, phi = solved_32
    monkeypatch.setattr(audit, "SLOPE_SLACK", -1.0)
    result = estimates_audit(s, phi, params_k1)
    by_name = {it["name"]: it for it in result["items"]}
    assert not by_name["slope_bound"]["pass"]
    assert not result["all_passed"]


def test_estimates_audit_flags_nonconvex(grid_16, params_k1):
    s = rough_field(grid_16)
    result = estimates_audit(s, ones_field(grid_16), params_k1)
    assert not result["all_passed"]
    by_name = {it["name"]: it for it in result["items"]}
    assert not by_name["strict_convexity"]["pass"]
    assert by_name["slope_bound"]["pass"] is False
    assert by_name["slope_bound"]["lhs"] is None
    assert "skipped: not convex" in by_name["slope_bound"]["statement"]


def test_skipped_items_state_the_convex_bound(solved_32, grid_16, params_k1):
    s, _, phi = solved_32
    stated = {it["name"]: it["statement"] for it in estimates_audit(s, phi, params_k1)["items"]}
    result = estimates_audit(rough_field(grid_16), ones_field(grid_16), params_k1)
    skipped = [it for it in result["items"] if it["lhs"] is None and it["pass"] is False]
    assert [it["name"] for it in skipped] == [
        "slope_bound", "height_positive", "support_height_bound", "inradius_height",
        "rim_planarity",
    ]
    for it in skipped:
        assert it["statement"] == stated[it["name"]] + " (skipped: not convex)"


def test_save_embedding_format(tmp_path, grid_16):
    path = tmp_path / "embedding.csv"
    model = ell_field(grid_16)
    save_embedding(model, path, surface_points(model))
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,phi,x1,x2,x3"
    assert len(lines) == 1 + (grid_16.nbeta + 1) * grid_16.nphi
    rim_x3 = [abs(float(ln.split(",")[4])) for ln in lines[-grid_16.nphi:]]
    assert max(rim_x3) < 1e-3
    # every value parses back bit-exactly, row-major over (beta, phi)
    s = random_capillary_field(grid_16, np.random.default_rng(8))
    save_embedding(s, path, surface_points(s))
    got = np.array([[float(v) for v in ln.split(",")]
                    for ln in path.read_text().splitlines()[1:]])
    got = got.reshape(grid_16.nbeta + 1, grid_16.nphi, 5)
    assert np.all(got[:, :, 0] == grid_16.beta_all[:, None])
    assert np.all(got[:, :, 1] == grid_16.phi[None, :])
    assert np.array_equal(got[:, :, 2:], surface_points(s))


def test_save_embedding_bytes_match_the_meshgrid_rows(tmp_path):
    # the file as written before the ring-at-a-time writer: meshgrid (beta,
    # phi) columns stacked in front of the points, one line per row
    g = CapGrid(9, 30, THETA)
    s = random_capillary_field(g, np.random.default_rng(9))
    pts = surface_points(s)
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    rows = np.column_stack([bb.ravel(), pp.ravel(), pts.reshape(-1, 3)])
    want = "\n".join(["beta,phi,x1,x2,x3"]
                     + ["%.17g,%.17g,%.17g,%.17g,%.17g" % tuple(r) for r in rows.tolist()])
    path = tmp_path / "embedding.csv"
    save_embedding(s, path, surface_points(s))
    assert path.read_bytes() == (want + "\n").encode()
    save_embedding(s, path, pts=pts)
    assert path.read_bytes() == (want + "\n").encode()


def test_save_embedding_streams(tmp_path):
    # the whole file's text and Python floats come to 13.8 MB at 128x256;
    # one ring at a time keeps the peak near surface_points' own arrays
    s = random_capillary_field(CapGrid(128, 256, THETA), np.random.default_rng(5))
    tracemalloc.start()
    try:
        save_embedding(s, tmp_path / "embedding.csv", surface_points(s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_the_solution_audit_evaluates_even_fields_on_half_the_nodes(tmp_path):
    # tau_sharp, reconstruct and the three parallel bodies' volumes work on
    # the first half of a bitwise-even field: 5.54 MB at full width
    (tmp_path / "run.cfg").write_text("n = 2\nk = 1\np = 1.5\ntheta = pi/3\n"
                                      "phi.kind = rotsym_expr\nphi.coeffs = 1, 0.3\n")
    cfg = load_config(tmp_path / "run.cfg")
    s = random_capillary_field(CapGrid(128, 256, THETA), np.random.default_rng(5))
    phi, pts = cfg.phi_field(s.grid), surface_points(s)
    tracemalloc.start()
    try:
        cli._solution_audit(s, phi, cfg, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def test_load_field_streams(tmp_path):
    # one float() per value built 129 lists of 256 Python floats, 2.2 MB at
    # 128x256; the C-level parse holds little beyond the values and the grid
    s = random_capillary_field(CapGrid(128, 256, THETA), np.random.default_rng(6))
    save_field(s, tmp_path / "solution.csv")
    tracemalloc.start()
    try:
        back = load_field(tmp_path / "solution.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, s.values)
    assert peak <= 2**20


# -- half-width evaluation of even fields -------------------------------------------
#
# The references below evaluate every node at full width, as the library did
# before it evaluated even fields on their first half; the library must give
# their bits exactly.  They extend through `full_extend`, which a spy on
# CapGrid.extend does not see.

full_extend = CapGrid.extend


def full_tau(s):
    g = s.grid
    x = full_extend(g, s.values)
    y = x - np.mean(x[:, 1:-1], axis=1, keepdims=True)
    return SymEndo(g.apply("a11", x), g.apply("a12", x, y), g.apply("a22", x, y))


def full_points(s):
    g = s.grid
    x = full_extend(g, s.values)
    sb, sp_ = g.apply("dbeta", x), g.apply("dphi", x)
    beta = g.beta_all[:, None]
    sinb, cosb = np.sin(beta), np.cos(beta)
    half = g.phi[:g.nphi // 2]
    cosp = np.concatenate([np.cos(half), -np.cos(half)])[None, :]
    sinp = np.concatenate([np.sin(half), -np.sin(half)])[None, :]
    v = s.values
    azim = sp_ / sinb
    x1 = v * sinb * cosp + sb * cosb * cosp - azim * sinp
    x2 = v * sinb * sinp + sb * cosb * sinp + azim * cosp
    x3 = v * cosb - sb * sinb
    return np.stack([x1, x2, x3], axis=-1)


def full_geometry(g, pts):
    dxb = np.gradient(pts, g.beta_all, axis=0)
    dxp = (np.roll(pts, -1, axis=1) - np.roll(pts, 1, axis=1)) / (2.0 * g.dphi)
    nrm = np.cross(dxb, dxp)
    horiz = np.hypot(nrm[..., 0], nrm[..., 1])
    slopes = np.divide(horiz, nrm[..., 2], out=np.full(horiz.shape, np.inf),
                       where=nrm[..., 2] > 0.0)
    rim = pts[-1]
    return BodyGeometry(height=float(np.max(pts[..., 2])),
                        r_in=float(np.min(np.hypot(rim[:, 0], rim[:, 1]))),
                        rim_planarity=float(np.max(np.abs(rim[:, 2]))),
                        slope_max=float(np.max(slopes)))


def full_volume(s, tau, pts):
    g = s.grid
    return g.integrate(pts[:g.nbeta, :, 2] * np.cos(g.beta_cells)[:, None] * sigma_k(tau, 2))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_full_width_bits(s, geometry=True):
    """tau_sharp, surface_points and, for a convex field, reconstruct and
    volume (with and without pts) give the full-width references' bits;
    tau_sharp's components are compared broadcast over the grid, since a
    ring-constant field's come as (Nbeta, 1) columns."""
    tau, ref_tau = tau_sharp(s), full_tau(s)
    assert tau.shape in (ref_tau.shape, (s.grid.nbeta, 1))
    for name in ("a11", "a12", "a22"):
        got = np.broadcast_to(getattr(tau, name), ref_tau.shape)
        assert same_bits(got, getattr(ref_tau, name)), name
    pts, ref_pts = surface_points(s), full_points(s)
    assert same_bits(pts, ref_pts)
    if geometry:
        want = full_geometry(s.grid, ref_pts)
        for got in (reconstruct(s, tau_sharp(s), surface_points(s)), reconstruct(s, tau, pts=pts)):
            for name in ("height", "r_in", "rim_planarity", "slope_max"):
                assert same_bits(getattr(got, name), getattr(want, name)), name
        want = full_volume(s, ref_tau, ref_pts)
        assert same_bits(volume(s), want)
        assert same_bits(volume(s, tau, pts=pts), want)


def falling_field(grid):
    # a ring-constant field that falls toward the rim: at phi = 0 the terms of
    # x2 are +0.0 and -0.0, whose sum is +0.0 at phi = pi too, not -0.0
    vals = 2.0 - 0.5 * (1.0 - np.cos(grid.beta_all))
    return CapField(grid, np.repeat(vals[:, None], grid.nphi, axis=1), even=True)


HALF_GRIDS = [(8, 8), (9, 30), (33, 66), (64, 128), (128, 256)]


@pytest.mark.parametrize("shape", HALF_GRIDS, ids=[f"{a}x{b}" for a, b in HALF_GRIDS])
@pytest.mark.parametrize("kind", ["random", "ell", "falling"])
def test_even_fields_evaluated_on_half_the_nodes_keep_every_bit(shape, kind):
    g = CapGrid(*shape, THETA)
    s = {"random": lambda: random_capillary_field(g, np.random.default_rng(shape[0])),
         "ell": lambda: ell_field(g), "falling": lambda: falling_field(g)}[kind]()
    h = g.nphi // 2
    assert same_bits(s.values[:, h:], s.values[:, :h])
    assert_full_width_bits(s)
    if kind == "falling":
        # the points at phi + pi are not all exact turns of those at phi
        pts = surface_points(s)
        assert not same_bits(pts[:, h:, :2], -pts[:, :h, :2])


def test_a_solved_field_evaluated_on_half_the_nodes_keeps_every_bit(solved_32):
    assert_full_width_bits(solved_32[0])


def extend_widths(monkeypatch):
    """The column counts of every array CapGrid.extend is handed from now on."""
    widths, real = [], CapGrid.extend

    def spy(self, values):
        widths.append(values.shape[1])
        return real(self, values)

    monkeypatch.setattr(CapGrid, "extend", spy)
    return widths


@pytest.mark.parametrize("change", [None, "value", "zero-sign", "odd"])
def test_the_bits_decide_the_half_path_not_the_flag(change, monkeypatch):
    # every field is flagged even; only the bitwise-even one is evaluated on
    # its first half, the others (one value one ulp off its turn, +0.0 facing
    # -0.0, a field odd under the half-turn) at full width
    g = CapGrid(33, 66, THETA)
    v = random_capillary_field(g, np.random.default_rng(4)).values
    if change == "value":
        v[5, 40] = np.nextafter(v[5, 40], np.inf)
    elif change == "zero-sign":
        v[5, 7], v[5, 7 + 33] = 0.0, -0.0
    elif change == "odd":
        v = 1.0 + 0.1 * np.sin(g.beta_all)[:, None] * np.cos(g.phi)[None, :]
    s = CapField(g, v, even=True)
    widths = extend_widths(monkeypatch)
    # the zero makes the field non-convex, which reconstruct refuses
    assert_full_width_bits(s, geometry=change != "zero-sign")
    assert widths and set(widths) == {33 if change is None else 66}


def test_verify_evaluates_a_file_whose_halves_differ_at_full_width(tmp_path, monkeypatch):
    # a stored solution whose halves differ in one value is audited at full
    # width and fails; the file as solved, whose every ring is constant,
    # takes the one-column path
    (tmp_path / "run.cfg").write_text("n = 2\nk = 1\np = 1.5\ntheta = pi/3\n"
                                      "grid.nbeta = 16\ngrid.nphi = 32\n"
                                      "phi.kind = cap_manufactured\nphi.r = 1.3\n")
    argv = ["--config", str(tmp_path / "run.cfg"), "--quiet"]
    assert cli.main(["solve", *argv, "--out", str(tmp_path / "out")]) == 0
    s = load_field(tmp_path / "out" / "solution.csv")
    assert s.is_even()
    s.values[8, 19] += 0.5
    save_field(s, tmp_path / "uneven.csv")
    widths = extend_widths(monkeypatch)
    assert cli.main(["verify", *argv, "--solution", str(tmp_path / "out" / "solution.csv"),
                     "--out", str(tmp_path / "v0")]) == 0
    assert 1 in widths
    widths.clear()
    assert cli.main(["verify", *argv, "--solution", str(tmp_path / "uneven.csv"),
                     "--out", str(tmp_path / "v1")]) == 3
    assert widths and set(widths) == {32}


# -- one-column evaluation of ring-constant fields -----------------------------------


def ring_constant(grid, seed):
    """A convex field whose every ring holds one value, bit for bit: the
    model function times 1 + c (1 - cos beta), c drawn from [0.1, 0.5]."""
    c = np.random.default_rng(seed).uniform(0.1, 0.5)
    rings = ell_field(grid).values[:, 0] * (1.0 + c * (1.0 - np.cos(grid.beta_all)))
    return CapField(grid, np.repeat(rings[:, None], grid.nphi, axis=1), even=True)


@pytest.mark.parametrize("shape", HALF_GRIDS + [(64, 130)],
                         ids=[f"{a}x{b}" for a, b in HALF_GRIDS + [(64, 130)]])
@pytest.mark.parametrize("kind", ["ring-constant", "ell", "falling"])
def test_ring_constant_fields_evaluated_on_one_column_keep_every_bit(shape, kind, monkeypatch):
    """tau_sharp, surface_points and volume evaluate a field whose every ring
    is constant on its first column, reconstruct on the first half, and all
    give the full-width references' bits; tau_sharp's components are that
    column's (Nbeta, 1) columns."""
    g = CapGrid(*shape, THETA)
    s = {"ring-constant": lambda: ring_constant(g, shape[0]), "ell": lambda: ell_field(g),
         "falling": lambda: falling_field(g)}[kind]()
    widths = extend_widths(monkeypatch)
    assert_full_width_bits(s)
    assert widths and set(widths) == {1}
    tau = tau_sharp(s)
    for c in (tau.a11, tau.a12, tau.a22):
        assert c.shape == (g.nbeta, 1)
    x3 = surface_points(s)[..., 2]
    assert same_bits(x3, np.repeat(x3[:, :1], g.nphi, axis=1))


def test_solved_rotationally_symmetric_fields_keep_every_bit(monkeypatch):
    """The solver's output for rotationally symmetric data is evaluated on
    one column, with the full-width bits, at k = 1 and k = 2."""
    g = CapGrid(64, 128, THETA)
    vals = 1.0 + 0.3 * (1.0 - np.cos(g.beta_all))
    phi = CapField(g, np.repeat(vals[:, None], g.nphi, axis=1), even=True)
    for k, p in ((1, 1.5), (2, 2.0)):
        s, report = solve_path(phi, CapParams(n=2, k=k, p=p, theta=THETA))
        assert report.converged
        widths = extend_widths(monkeypatch)
        assert_full_width_bits(s)
        assert set(widths) == {1}
        monkeypatch.undo()


@pytest.mark.parametrize("change", ["value", "zero-sign", "nan-payload"])
def test_the_bits_decide_the_one_column_path(change, monkeypatch):
    # a ring one ulp off, a ring of +0.0 and -0.0, or of two NaN payloads, in
    # both halves alike: the field is evaluated on its first half
    g = CapGrid(33, 66, THETA)
    v = ring_constant(g, 2).values
    if change == "zero-sign":
        v[5] = 0.0
    elif change == "nan-payload":
        v[5] = np.nan
    v[5].view(np.uint64)[[7, 40]] ^= np.uint64(1 << 63 if change == "zero-sign" else 1)
    s = CapField(g, v, even=True)
    widths = extend_widths(monkeypatch)
    assert_full_width_bits(s, geometry=change == "value")
    assert widths and set(widths) == {33}


def test_load_field_streams_ring_constant_fields(tmp_path):
    # parsed one value per ring, and tiled once
    s = ring_constant(CapGrid(128, 256, THETA), 6)
    save_field(s, tmp_path / "solution.csv")
    tracemalloc.start()
    try:
        back = load_field(tmp_path / "solution.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == s.values.tobytes()
    assert peak <= 2**20
