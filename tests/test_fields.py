import dataclasses
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies
from hypothesis.extra import numpy as hnp

from capcmk import CapParams, fields, solve_path
from capcmk.fields import (
    CapField,
    CapGrid,
    boundary_tau_identity_residual,
    fd_weights,
    load_field,
    repeat_unit,
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
from conftest import csr

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


def dense(grid, band):
    """The (m, Nbeta + 2) beta-matrix of an (m, 4) band of `_stencils`: row r
    (of a one-row band, the rim ring's) holds columns r-1..r+2, column c
    being ring c - 1."""
    m = band.shape[0]
    rows = np.arange(m)
    first = grid.nbeta if m == 1 else 0
    out = np.zeros((m, grid.nbeta + 4))  # columns -1..Nbeta + 2
    for j in range(4):
        out[rows, first + rows + j] = band[:, j]
    assert not out[:, 0].any() and not out[:, -1].any()
    return out[:, 1:-1]


def plain_derivatives(s: CapField):
    """d/dbeta, d/dphi, their squares and d^2/dbeta dphi on the interior
    rings, from the grid's 1-D stencils, densified, through `plain`."""
    g = s.grid
    st = {name: dense(g, v) if isinstance(v, np.ndarray) else v
          for name, v in g._stencils().items()}
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


def test_integrate_broadcasts_a_ring_function():
    """An (Nbeta, 1) or (Nbeta + 1, 1) ring function integrates, bit for bit,
    as its broadcast over the grid; a shape that broadcasts to neither is
    refused with the grid named."""
    g = CapGrid(16, 32, THETA)
    ring = 1.0 + np.random.default_rng(3).random((17, 1))
    for rows in (16, 17):
        want = g.integrate(np.repeat(ring[:rows], g.nphi, axis=1))
        assert g.integrate(ring[:rows]) == want
    for shape in ((16, 33), (17, 2), (15, 1), (16,)):
        with pytest.raises(ValueError, match=re.escape(repr(g))):
            g.integrate(np.ones(shape))


@pytest.mark.parametrize("nbeta,nphi", [(8, 8), (64, 128), (129, 258)])
def test_the_weight_column_sums_the_bits_of_full_width_weights(nbeta, nphi):
    """integrate with the (Nbeta, 1) weight column returns, bit for bit, the
    sum against full-width (Nbeta, Nphi) weights, on full-width fields and on
    one-column fields, with or without the rim row."""
    g = CapGrid(nbeta, nphi, THETA)
    full = np.sin(g.beta_cells)[:, None] * g.dbeta * g.dphi * np.ones((1, nphi))
    assert g.weights.shape == (nbeta, 1)
    rng = np.random.default_rng(nbeta)
    for shape in ((nbeta, nphi), (nbeta + 1, nphi), (nbeta, 1), (nbeta + 1, 1)):
        # mixed signs and magnitudes, so another summation order shows in the bits
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        assert g.integrate(values).hex() == float(np.sum(values[:nbeta] * full)).hex(), shape


def test_a_grid_holds_no_full_width_weights():
    # full-width weights at 1024x2048 are 16 MiB, and their build peaked at
    # 16.2 MiB; the (Nbeta, 1) column and the ring and phi axes are 0.07 MB
    tracemalloc.start()
    try:
        CapGrid(1024, 2048, math.pi / 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


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
    assert (a + a).is_even()
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


@given(shape=strategies.sampled_from([(8, 8), (9, 30)]), data=strategies.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_project_even_keeps_the_bits_of_an_even_field(shape, data):
    """0.5 (v + v) is v, bit for bit, wherever 2v does not overflow: ±0,
    subnormals and every |v| < 2^1023, so projecting an even field is free."""
    nbeta, nphi = shape
    big = np.nextafter(2.0**1023, 0.0)
    values = strategies.one_of(
        strategies.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, big, -big]),
        strategies.floats(-big, big, allow_subnormal=True))
    half = data.draw(hnp.arrays(np.float64, (nbeta + 1, nphi // 2), elements=values))
    full = np.hstack([half, half])
    f = CapField(CapGrid(nbeta, nphi, THETA), full)
    assert f.project_even().values.tobytes() == full.tobytes()


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
    grid's `ops` to the extended value array, agree with the CSR layout of
    the same terms (conftest's `csr`, built by Kronecker products) to
    roundoff.  The field sin(beta) cos(phi) is odd under the half-turn, so
    reading ring -1 as ring 0 without the turn would fail; 16x30 has an odd
    Nphi/2 and 33x64 an odd Nbeta."""
    g = CapGrid(nbeta, nphi, THETA)
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    fields = [random_capillary_field(g, np.random.default_rng(seed)) for seed in (8, 9)]
    fields.append(CapField(g, np.sin(bb) * np.cos(pp)))
    ops = {name: csr(g, name) for name in ("a11", "a12", "a22", "robin", "dbeta", "dphi")}
    for s in fields:
        tau = tau_sharp(s)
        x = g.extend(s.values)
        sb, sphi = g.apply("dbeta", x), g.apply("dphi", x)
        got = {"a11": tau.a11, "a12": tau.a12, "a22": tau.a22, "robin": robin_residual(s),
               "dbeta": sb, "dphi": sphi}
        for name, value in got.items():
            # relative to the magnitude |A| |x| that the roundoff of A x scales with
            ref, scale = ops[name] @ s.flat, abs(ops[name]) @ np.abs(s.flat)
            assert np.all(np.abs(value.ravel() - ref) <= 1e-13 * scale), name


def _modal_blocks_by_global_sort(g):
    """The modal blocks built by one np.unique over the keys of every mode's
    entries, (mode, column ring, row ring): the reference construction."""
    h, nr = g.nphi // 2, g.nbeta + 1
    modes = np.arange(h // 2 + 1)[:, None]
    parts = []
    for name in ("a11", "a22", "pint", "robin"):
        for bmat, weights in g.ops()[name]:
            b = bmat.tocoo()
            i, r = b.row + (g.nbeta if b.shape[0] == 1 else 0), np.maximum(b.col - 1, 0)
            symbol = sum(w * np.cos(2.0 * math.pi * modes * o / h) for o, w in weights.items())
            parts.append((name, ((modes * nr + r) * nr + i).ravel(), (symbol * b.data).ravel()))
    keys, at = np.unique(np.concatenate([key for _, key, _ in parts]), return_inverse=True)
    at = np.split(at, np.cumsum([key.size for _, key, _ in parts])[:-1])
    blocks = {}
    for (name, _, vals), slots in zip(parts, at):
        blocks[name] = blocks.get(name, 0.0) + np.bincount(slots, vals, keys.size)
    cols, size = keys // nr, modes.size * nr
    blocks.update(ring=keys % nr, shape=(size, size),
                  indices=(cols // nr * nr + keys % nr).astype(np.int32),
                  indptr=np.append(0, np.cumsum(np.bincount(cols, minlength=size))).astype(np.int32))
    return blocks


@pytest.mark.parametrize("nbeta, nphi", [(8, 8), (16, 30), (33, 66), (128, 256)],
                         ids=["8x8", "odd-half-turn", "odd-nbeta", "128x256"])
def test_modal_blocks_match_the_global_sort(nbeta, nphi):
    """Each mode's block has one pattern, so modal_blocks sorts one block's
    keys and fills every mode from it: every weight, summed in the same
    order, and the CSC pattern are bitwise those of one sort over all
    modes' keys.  The mode-0 block built alone is bitwise the first block."""
    g = CapGrid(nbeta, nphi, THETA)
    got, want = g.modal_blocks(False), _modal_blocks_by_global_sort(g)
    assert got["shape"] == want["shape"]
    assert np.array_equal(got["ring"], want["ring"])
    for name in ("a11", "a22", "pint", "robin", "indices", "indptr"):
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
    mode0, nr = g.modal_blocks(True), nbeta + 1
    nnz = mode0["ring"].size
    assert mode0["shape"] == (nr, nr) and nnz == want["ring"].size // (nphi // 4 + 1)
    assert np.array_equal(mode0["ring"], want["ring"][:nnz])
    for name, first in (("a11", nnz), ("a22", nnz), ("pint", nnz), ("robin", nnz),
                        ("indices", nnz), ("indptr", nr + 1)):
        assert mode0[name].dtype == want[name].dtype, name
        assert mode0[name].tobytes() == want[name][:first].tobytes(), name


def _dense_stencils(g):
    """The stencils of `_stencils` as dense beta-matrices, one row per output
    ring and one column per ring -1..Nbeta, as the grid built them before its
    bands: the reference construction."""
    nb, db, dp = g.nbeta, g.dbeta, g.dphi

    def band(central, rim, m=nb):
        b = np.zeros((m, nb + 2))
        i = np.arange(m - 1)
        for o, wo in central.items():
            b[i, i + 1 + o] = wo
        b[-1, nb + 2 - len(rim):] = rim
        return b

    return {
        "d1": band({-1: -0.5 / db, 1: 0.5 / db}, fd_weights([-db, 0.0, 0.5 * db], 1)),
        "d2": band({-1: 1.0 / db**2, 0: -2.0 / db**2, 1: 1.0 / db**2},
                   fd_weights([-2.0 * db, -db, 0.0, 0.5 * db], 2)),
        "rings": np.eye(nb, nb + 2, 1),
        "dbd": band({}, fd_weights([-1.5 * db, -0.5 * db, 0.0], 1), 1),
        "ibd": band({}, [1.0], 1),
        "w1": {1: 0.5 / dp, -1: -0.5 / dp},
        "w2": {1: 1.0 / dp**2, 0: -2.0 / dp**2, -1: 1.0 / dp**2},
    }


def _dense_ops(g):
    """The table of `CapGrid.ops` by dense algebra on `_dense_stencils`, each
    beta-matrix converted by `sp.csr_matrix`: the reference construction."""
    st = _dense_stencils(g)
    sinb = np.sin(g.beta_cells)[:, None]
    cotb = np.cos(g.beta_cells)[:, None] / sinb
    d1, rings, one = st["d1"], st["rings"], {0: 1.0}
    ct = math.cos(g.theta) / math.sin(g.theta)
    table = {
        "a11": [(st["d2"] + rings, one)],
        "a12": [((d1 - cotb * rings) / sinb, st["w1"])],
        "a22": [(rings / sinb**2, st["w2"]), (cotb * d1 + rings, one)],
        "pint": [(rings, one)],
        "robin": [(st["dbd"] - ct * st["ibd"], one)],
        "dbeta": [(np.vstack([d1, st["dbd"]]), one)],
        "dphi": [(np.eye(g.nbeta + 1, g.nbeta + 2, 1), st["w1"])],
    }
    return {name: [(sp.csr_matrix(bmat), weights) for bmat, weights in terms]
            for name, terms in table.items()}


def _modal_blocks_by_coo(g, ops, mode0):
    """`CapGrid.modal_blocks` of the table `ops`, each beta-matrix read
    through `tocoo`: the reference construction."""
    h, nr = g.nphi // 2, g.nbeta + 1
    modes = np.arange(1 if mode0 else h // 2 + 1)[:, None]
    parts = []
    for name in ("a11", "a22", "pint", "robin"):
        for bmat, weights in ops[name]:
            b = bmat.tocoo()
            i, r = b.row + (g.nbeta if b.shape[0] == 1 else 0), np.maximum(b.col - 1, 0)
            symbol = sum(w * np.cos(2.0 * math.pi * modes * o / h) for o, w in weights.items())
            parts.append((name, r * nr + i, symbol * b.data))
    keys, at = np.unique(np.concatenate([key for _, key, _ in parts]), return_inverse=True)
    at = np.split(at, np.cumsum([key.size for _, key, _ in parts])[:-1])
    nnz, size = keys.size, modes.size * nr
    blocks = {}
    for (name, _, vals), slots in zip(parts, at):
        blocks[name] = blocks.get(name, 0.0) + np.bincount(
            (modes * nnz + slots).ravel(), vals.ravel(), modes.size * nnz)
    ring = keys % nr
    blocks.update(ring=np.tile(ring, modes.size), shape=(size, size),
                  indices=(modes * nr + ring).ravel().astype(np.int32),
                  indptr=np.append(0, np.cumsum(np.tile(np.bincount(keys // nr, minlength=nr),
                                                        modes.size))).astype(np.int32))
    return blocks


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.5])
@pytest.mark.parametrize("nbeta, nphi", [(8, 8), (16, 32), (64, 128), (129, 258), (256, 512)])
def test_the_band_build_is_the_dense_build(nbeta, nphi, theta):
    """The bands of `_stencils` are the dense beta-matrices' nonzero bands,
    and every CSR of `ops` and every array of both `modal_blocks` is, bit for
    bit, that of the dense construction (129 rings: an odd Nbeta)."""
    g = CapGrid(nbeta, nphi, theta)
    want_st = _dense_stencils(g)
    for name, got in g._stencils().items():
        if isinstance(got, dict):
            assert got == want_st[name], name
        else:
            assert dense(g, got).tobytes() == want_st[name].tobytes(), name
    got, want = g.ops(), _dense_ops(g)
    assert got.keys() == want.keys()
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for (bmat, weights), (ref, ref_weights) in zip(got[name], want[name]):
            assert weights == ref_weights and bmat.shape == ref.shape, name
            for attr in ("indptr", "indices", "data"):
                assert same_bits(getattr(bmat, attr), getattr(ref, attr)), (name, attr)
    for mode0 in (True, False):
        blocks, ref = g.modal_blocks(mode0), _modal_blocks_by_coo(g, want, mode0)
        assert blocks.keys() == ref.keys() and blocks["shape"] == ref["shape"]
        for name in ref.keys() - {"shape"}:
            assert same_bits(blocks[name], ref[name]), (mode0, name)


def test_the_stencil_build_is_linear_in_nbeta():
    # one dense (2048, 2050) beta-matrix is 33.6 MB; the bands and their CSRs
    # come to about 2.1 MB with every modal block
    g = CapGrid(2048, 8, math.pi / 4)
    tracemalloc.start()
    try:
        g.ops()
        g.modal_blocks(True)
        g.modal_blocks(False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_tau_eigenvalues_and_convexity_flag():
    g = CapGrid(16, 32, THETA)
    tau = tau_sharp(ell_field(g))
    assert isinstance(tau, SymEndo)
    lo, hi = tau.eigenvalues
    assert np.all(lo <= hi)
    assert tau.lam1min > 0.9
    rough = CapField(g, 1.0 + 0.5 * np.cos(4.0 * g.phi)[None, :] * np.ones((17, 32)), even=True)
    assert tau_sharp(rough).lam1min < 0.0


def test_tau_of_a_ring_constant_field_is_its_columns():
    """tau_sharp returns a ring-constant field's components as (Nbeta, 1)
    columns, and an anisotropic even field's at full width."""
    g = CapGrid(16, 32, THETA)
    falling = CapField(g, np.repeat(2.0 - 0.5 * (1.0 - np.cos(g.beta_all))[:, None], 32, axis=1),
                       even=True)
    for s in (ell_field(g), falling):
        tau = tau_sharp(s)
        assert [c.shape for c in (tau.a11, tau.a12, tau.a22)] == [(16, 1)] * 3
    tau = tau_sharp(smooth_even_field(g))
    assert [c.shape for c in (tau.a11, tau.a12, tau.a22)] == [(16, 32)] * 3


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


def test_the_even_column_records_the_bits(tmp_path):
    """The header's even column says whether every ring's two halves are
    equal bit for bit, whatever `even` keyword the field was built with:
    data passed even=True whose cos 2phi halves differ in their last bits
    write 0, and equal halves passed even=False write 1."""
    g = CapGrid(16, 32, THETA)
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    aniso = 1.0 + 2.0 * (1.0 - np.cos(bb)) + 0.3 * np.cos(2.0 * pp) * np.sin(bb) ** 2
    assert repeat_unit(aniso) is None
    halves = np.tile(aniso[:, :16], 2)
    for values, label, want in ((aniso, True, "0"), (halves, False, "1")):
        path = tmp_path / "field.csv"
        save_field(CapField(g, values, even=label), path)
        header = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][0]
        assert header.split(",")[-1] == want
        assert (repeat_unit(load_field(path).values) is not None) is (want == "1")


def test_the_even_keyword_is_accepted_and_dropped(tmp_path):
    """A field's values are the one record of its evenness: `even` is an init
    argument that no field keeps, and a file's header column, 0 or 1, does
    not change what loads; any other column is still refused."""
    g = CapGrid(16, 32, THETA)
    v = smooth_even_field(g).project_even().values
    built = (CapField(g, v), CapField(g, v, even=True), CapField(g, v, True))
    assert all(f.values.tobytes() == v.tobytes() for f in built)
    assert [f.name for f in dataclasses.fields(CapField)] == ["grid", "values"]
    assert not any(hasattr(f, "even") for f in built)
    path = tmp_path / "field.csv"
    save_field(built[0], path)
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[at].endswith(",1\n")
    loaded = []
    for column in "012":
        lines[at] = lines[at][:lines[at].rindex(",") + 1] + column + "\n"
        path.write_text("".join(lines))
        if column == "2":
            with pytest.raises(ValueError, match=re.escape(str(path)) + ".*must be 0 or 1"):
                load_field(path)
        else:
            loaded.append(load_field(path).values.tobytes())
    assert loaded == [v.tobytes()] * 2


def _reference_load(path):
    """The value rows as one float() per value reads them: the reference that
    load_field's C-level parse must match bit for bit."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_field_serialization_round_trip_is_bit_exact(tmp_path):
    g = CapGrid(16, 32, THETA)
    s = random_capillary_field(g, np.random.default_rng(4))
    path = tmp_path / "field.csv"
    save_field(s, path)
    back = load_field(path)
    assert back.grid == g
    assert repeat_unit(back.values) is not None
    assert np.array_equal(back.values, s.values)
    # the edge values with both signs, and random bit patterns: NaN payloads
    # and signs do not survive %.17g, so every value is held to the per-value
    # parse and each non-NaN value to what was written
    edges = np.resize(EDGE_VALUES + [-v for v in EDGE_VALUES], (g.nbeta + 1, g.nphi))
    big = CapGrid(128, 256, THETA)
    bits = np.random.default_rng(5).integers(0, 2**64, (big.nbeta + 1, big.nphi),
                                             dtype=np.uint64)
    for f in (CapField(g, edges), CapField(big, bits.view(np.float64), even=True)):
        save_field(f, path)
        back = load_field(path)
        assert back.grid == f.grid
        assert (repeat_unit(back.values) is None) == (repeat_unit(f.values) is None)
        assert back.values.tobytes() == _reference_load(path).tobytes()
        keep = ~np.isnan(f.values)
        assert back.values[keep].tobytes() == f.values[keep].tobytes()


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
    b = max(1, fields._BLOCK_VALUES // ncol)
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


def _bits(rng, n, nan):
    """n doubles as random bit patterns, each with even odds of being swapped
    for an edge value, a subnormal, a signed zero or an infinity; NaNs of
    both signs and many payloads among them if `nan`, else none (a NaN row
    is never a copy by value, which would hide a writer comparing values)."""
    pool = np.array([v for v in EDGE_VALUES + [-v for v in EDGE_VALUES] + [2.5e-320, -1e-310]
                     if nan or not math.isnan(v)])
    vals = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    if not nan:
        vals[np.isnan(vals)] = -0.0
    swap = rng.random(n) < 0.5
    vals[swap] = rng.choice(pool, int(swap.sum()))
    return vals


def _rows(rng, nrow, ncol, kinds, nan):
    """nrow x ncol rows, each of a kind drawn from `kinds`: "copy" (the
    halves are bitwise copies), "flip" (a copy with one bit of the second
    half flipped), "mirror" (a copy whose second half swaps each zero's
    sign and flips each NaN's last bit) or "free" (random)."""
    rows = _bits(rng, nrow * ncol, nan).reshape(nrow, ncol)
    h = ncol // 2
    if ncol % 2:
        return rows
    kind = rng.choice(kinds, nrow)
    bits = rows.view(np.uint64)
    bits[kind != "free", h:] = bits[kind != "free", :h]
    flip = np.flatnonzero(kind == "flip")
    bits[flip, h + rng.integers(h, size=flip.size)] ^= (
        np.uint64(1) << rng.integers(64, size=flip.size).astype(np.uint64))
    mirror = rows[kind == "mirror", h:]
    mirror[mirror == 0.0] *= -1.0
    mirror.view(np.uint64)[np.isnan(mirror)] ^= np.uint64(1)
    rows[kind == "mirror", h:] = mirror
    return rows


@given(ncol=strategies.sampled_from([1, 3, 8, 9, 16, 256]),
       blocks=strategies.sampled_from([(0, 9), (1, -1), (1, 0), (1, 1), (2, 3)]),
       kinds=strategies.sampled_from([("copy",), ("copy", "flip"), ("copy", "mirror"),
                                      ("copy", "flip", "mirror", "free"), ("free",)]),
       nan=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_write_csv_and_load_field_match_the_per_value_references(tmp_path_factory, ncol, blocks,
                                                                   kinds, nan, seed):
    """write_csv's bytes are the per-row reference's and load_field's values
    are the per-value parse's, bit for bit, whether the rows' halves are
    copies (written and parsed once per half) or not.  `blocks` = (b, e)
    puts b writer blocks and e rows in the file (9 rows for b = 0), so a
    block boundary falls next to its end.  A field file needs an even
    Nphi >= 8, so odd widths only check the writer."""
    rng = np.random.default_rng(seed)
    nrow = blocks[0] * max(1, fields._BLOCK_VALUES // ncol) + blocks[1]
    rows = _rows(rng, nrow, ncol, kinds, nan)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = ["# head", "a,b"]
    write_csv(path, header, rows)
    assert path.read_bytes() == _reference_csv(header, rows).encode()
    if ncol % 2 == 0 and ncol >= 8:
        save_field(CapField(CapGrid(nrow - 1, ncol, THETA), rows), path)
        back = load_field(path).values
        assert back.tobytes() == _reference_load(path).tobytes()
        keep = ~np.isnan(rows)
        assert back[keep].tobytes() == rows[keep].tobytes()


def _rings(rng, na, nb, kinds, nan):
    """na rings of nb points (x1, x2, x3) from `_bits`, each of a kind drawn
    from `kinds`: "turn" (the second half is the first turned half about the
    x3 axis, bitwise: x1 and x2 with the sign bit flipped, x3 copied),
    "flip" (a turn with one bit of one second-half value flipped), "zero" (a
    turn with one zero whose turn has the wrong sign bit, so the halves
    agree by value only), "nan" or "x3nan" (a turn with one NaN of either
    sign and a random payload in x1 or x2, or in x3, turned like any other
    value) or "free" (random)."""
    pts = _bits(rng, na * nb * 3, nan).reshape(na, nb, 3)
    h = nb // 2
    kind = rng.choice(kinds, na)
    if nb % 2:
        return pts.reshape(-1, 3)
    bits = pts.view(np.uint64)
    turn = np.array([1 << 63, 1 << 63, 0], dtype=np.uint64)
    for i in np.flatnonzero(kind != "free"):
        j = rng.integers(h)
        c = 2 if kind[i] == "x3nan" else rng.integers(2 if kind[i] == "nan" else 3)
        if kind[i] == "zero":
            pts[i, j, c] = rng.choice([0.0, -0.0])
        elif kind[i] in ("nan", "x3nan"):
            bits[i, j, c] = rng.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, dtype=np.uint64)
            bits[i, j, c] |= np.uint64(rng.integers(2)) << np.uint64(63)
        bits[i, h:] = bits[i, :h] ^ turn
        if kind[i] == "zero":
            bits[i, h + j, c] ^= np.uint64(1 << 63)
        elif kind[i] == "flip":
            bits[i, h + j, c] ^= np.uint64(1) << np.uint64(rng.integers(64))
    return pts.reshape(-1, 3)


@given(na=strategies.sampled_from([1, 3, 7]),
       nb=strategies.sampled_from([1, 2, 3, 8, 9, 30, 256]),
       kinds=strategies.sampled_from([("turn",), ("turn", "flip"), ("turn", "zero"),
                                      ("turn", "nan", "x3nan"),
                                      ("turn", "flip", "zero", "nan", "x3nan", "free"),
                                      ("free",)]),
       nan=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_write_csv_lead_formats_half_turned_rings_once(tmp_path_factory, na, nb, kinds, nan,
                                                        seed):
    """write_csv with `lead` writes the meshgrid columns' per-row reference,
    byte for byte, whether its rings are exact half-turns (formatted once per
    half) or not; and exactly the rings that are exact half-turns, bitwise,
    with no NaN in x1 or x2, take the half path.  An odd len(b) never does."""
    rng = np.random.default_rng(seed)
    a, b = _values(rng, na), _values(rng, nb)
    pts = _rings(rng, na, nb, kinds, nan)
    h = nb // 2
    want_half = []
    for ring in pts.reshape(na, nb, 3):
        turned = np.concatenate([-ring[:h, :2], ring[:h, 2:]], axis=1)
        want_half.append(nb % 2 == 0 and ring[h:].tobytes() == turned.tobytes()
                         and not np.isnan(ring[:, :2]).any())
    calls, half_turned = [], fields._half_turned

    def counted(ring):
        calls.append(half_turned(ring))
        return calls[-1]

    path = tmp_path_factory.mktemp("csv") / "lead.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_half_turned", counted)
        write_csv(path, ["a,b,x,y,z"], pts, lead=(a, b))
    assert calls == want_half
    aa, bb = np.meshgrid(a, b, indexing="ij")
    want = _reference_csv(["a,b,x,y,z"], np.column_stack([aa.ravel(), bb.ravel(), pts]))
    assert path.read_bytes() == want.encode()


@pytest.mark.filterwarnings("error")
def test_load_field_rejects_malformed_files(tmp_path):
    g = CapGrid(16, 32, THETA)
    good = tmp_path / "good.csv"
    save_field(ell_field(g), good)
    comments, head, *rows = good.read_text().splitlines(keepends=True)[1:]
    rows_8 = [",".join(["1"] * 8) + "\n"] * 5
    cases = {
        "empty": ["# nothing\n"],
        "arity": ["1,2\n"],
        "nbeta": ["x" + head[head.index(","):]] + rows,
        "theta": [head.replace(head.split(",")[2], "pi/3")] + rows,
        "coarse": ["4,8,0.8,1\n"] + rows_8,
        "odd": ["16,31,0.8,1\n"] + [",".join(["1"] * 31) + "\n"] * 17,
        # nphi = 1 has no half-row period, and the half-rows of nphi = 9 are
        # 4 values that tile to 8
        "one_column": ["1,1,0.8,1\n", "1\n", "1\n"],
        "odd_halves": ["16,9,0.8,1\n", ",".join(["1"] * 9) + "\n"]
                      + ["1,2,3,4,1,2,3,4\n"] * 16,
        "flag": [head[:head.rindex(",")] + ",7\n"] + rows,
        "header_only": [comments, head, "# no rows\n", "\n"],
        "truncated": [comments, head] + rows[:-2],
        "columns": [head] + [r[:r.rindex(",")] + "\n" for r in rows],
    }
    for name, lines in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_field(path)
    # errors inside the value block name the file's line and carry numpy's
    # reason; the header is line 1 here
    mid = len(rows) // 2
    bad_rows = {
        "ragged": (rows[mid][:rows[mid].rindex(",")] + "\n", "number of columns changed"),
        "token": ("abc" + rows[mid][rows[mid].index(","):], "could not convert string 'abc'"),
        "trailing_comma": (rows[mid].rstrip("\n") + ",\n", "number of columns changed"),
    }
    for name, (row, why) in bad_rows.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("".join([head] + rows[:mid] + [row] + rows[mid + 1:]))
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            load_field(path)
        assert isinstance(err.value.__cause__, ValueError), name
        assert f": line {mid + 2}: " in str(err.value) and why in str(err.value), name
    # comments and empty lines anywhere are skipped
    path = tmp_path / "commented.csv"
    path.write_text("".join(["\n", comments, "\n", head, "# rows\n"] + rows[:3] + ["\n"]
                            + rows[3:] + ["# end\n"]))
    assert load_field(path).values.tobytes() == load_field(good).values.tobytes()


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_load_field_names_the_file_line_of_a_bad_value_row(tmp_path, where):
    """A bad token and a short row are reported at their 1-based line of the
    file, comments and empty lines counted: in a 16x32 file from save_field
    (3 header lines) with a comment and an empty line added among the rows,
    the bad row sits on line 12 (ring 7), and also on the first and last
    value lines."""
    g = CapGrid(16, 32, THETA)
    save_field(ell_field(g), tmp_path / "good.csv")
    lines = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
    lines[5:5] = ["# ring 2 follows\n", "\n"]
    number = {"first": 4, "middle": 12, "last": len(lines)}[where]
    row = lines[number - 1]
    for name, bad in (("token", "1,abc" + row[row.index(",", row.index(",") + 1):]),
                      ("short", row[:row.rindex(",")] + "\n")):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(lines[:number - 1] + [bad] + lines[number:]))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {number}: ")):
            load_field(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_field_reads_a_pipe(tmp_path):
    # the reader never seeks, so a named pipe (or a shell's <(...)) works
    g = CapGrid(16, 32, THETA)
    save_field(ell_field(g), tmp_path / "field.csv")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                              args=((tmp_path / "field.csv").read_bytes(),))
    writer.start()
    back = load_field(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.values.tobytes() == load_field(tmp_path / "field.csv").values.tobytes()


def test_load_field_reads_edited_even_files_as_the_reference(tmp_path):
    """An even file read by halves matches the per-value parse after edits
    that a text editor or another writer may make: a later ring that does not
    repeat, a comment after a repeating row, CRLF line ends with trailing
    spaces, and empty and comment lines between the rows."""
    g = CapGrid(16, 32, THETA)
    vals = np.array(smooth_even_field(g).project_even().values)
    vals[5, 3] = -0.0
    path = tmp_path / "even.csv"
    save_field(CapField(g, vals, even=True), path)
    head, rows = path.read_text().splitlines()[:3], path.read_text().splitlines()[3:]
    assert all(r[:len(r) // 2] == r[len(r) // 2 + 1:] for r in rows[:5] + rows[6:])
    want = _reference_load(path).tobytes()
    cases = {
        "later_ring": head + rows,
        "comment": head + [rows[0] + " # the pole ring"] + [r + "#" for r in rows[1:]],
        "crlf": [r + "  \r" for r in head + rows],
        "between": head + [x for r in rows for x in (r, "", "# next ring", "   ")],
    }
    for name, lines in cases.items():
        edited = tmp_path / f"{name}.csv"
        edited.write_bytes(("\n".join(lines) + "\n").encode())
        assert load_field(edited).values.tobytes() == want, name


def test_a_bad_repeating_row_reads_as_in_a_one_pass_parse(tmp_path):
    """A bad token in both halves of a repeating row fails while the halves
    are parsed, and in only the first half it fails in the whole-row pass:
    both name the file line and give numpy's reason with the token's column
    in the full row."""
    g = CapGrid(16, 32, THETA)
    save_field(ell_field(g), tmp_path / "good.csv")
    lines = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
    row = lines[8].rstrip("\n").split(",")
    errors = []
    for name, cols in (("both", (2, 18)), ("first", (2,))):
        bad = [("abc" if j in cols else v) for j, v in enumerate(row)]
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(lines[:8] + [",".join(bad) + "\n"] + lines[9:]))
        with pytest.raises(ValueError) as err:
            load_field(path)
        errors.append(str(err.value).replace(str(path), "FILE"))
    assert errors[0] == errors[1]
    assert errors[0].startswith("FILE: line 9: malformed value row: could not convert string 'abc'")
    assert "column 3" in errors[0]


def loadtxt_widths(monkeypatch):
    """The column count of every array np.loadtxt returns from now on."""
    loadtxt, widths = np.loadtxt, []

    def spy(*args, **kwargs):
        out = loadtxt(*args, **kwargs)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(fields.np, "loadtxt", spy)
    return widths


def test_load_field_parses_even_files_by_halves(tmp_path, monkeypatch):
    """np.loadtxt parses L alone while the rows are `L,L,...,L`, and the rest
    whole: it sees 1 column for a solver-written 128x256 file, whose rings
    are all constant (L holds one value); Nphi/2 and then Nphi for an
    anisotropic phi file, whose pole rings repeat (sin^2 beta damps the
    cos 2 phi term below their last bit) and whose later rings differ at phi
    and phi + pi in their last bits; and Nphi alone for a file whose first
    ring does not repeat."""
    g = CapGrid(128, 256, math.pi / 4)
    params = CapParams(n=2, k=1, p=1.5, theta=g.theta)
    base = 1.0 + 0.3 * (1.0 - np.cos(g.beta_all))[:, None]
    s, report = solve_path(CapField(g, np.broadcast_to(base, (129, 256)).copy(), even=True), params)
    assert report.converged
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    aniso = CapField(g, base + 0.03 * np.cos(2.0 * pp) * np.sin(bb) ** 2, even=True)
    rough = CapField(g, base + 0.03 * np.cos(pp))
    columns = loadtxt_widths(monkeypatch)
    for f, want in ((s, [1]), (aniso, [128, 256]), (rough, [256])):
        path = tmp_path / "field.csv"
        save_field(f, path)
        columns.clear()
        back = load_field(path)
        assert columns == want
        assert back.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("width", [0, 1, 3, 5, 6, 7, 9, 10, 16])
def test_extend_takes_a_full_or_a_half_width_only(width):
    # or one column, the bitwise period of a field whose every ring is constant
    g = CapGrid(8, 8, THETA)
    if width == 1:
        assert g.extend(np.ones((9, 1))).shape == (10, 3)
    else:
        with pytest.raises(ValueError, match="8, 4 or 1 columns"):
            g.extend(np.ones((9, width)))
    assert g.extend(np.ones((9, 8))).shape == (10, 10)
    assert g.extend(np.ones((9, 4))).shape == (10, 6)


# -- rings with one value ---------------------------------------------------------


def _constant_rows(rng, nrow, ncol, kinds, nan):
    """nrow x ncol rows from `_bits`, each of a kind drawn from `kinds`:
    "const" (every value the row's first, bit for bit), "zeros" (+0.0 and
    -0.0 mixed at random), "nans" (one NaN payload throughout; with `nan`,
    one value's payload differs), "ulp" (a constant row with one value one
    ulp off) or "free" (random)."""
    rows = _bits(rng, nrow * ncol, nan).reshape(nrow, ncol)
    bits = rows.view(np.uint64)
    for i, kind in enumerate(rng.choice(kinds, nrow)):
        if kind == "free":
            continue
        bits[i] = bits[i, 0]
        j = rng.integers(ncol)
        if kind == "zeros":
            rows[i] = rng.choice([0.0, -0.0], ncol)
        elif kind == "nans":
            bits[i] = rng.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, dtype=np.uint64)
            if nan:
                bits[i, j] ^= np.uint64(1)
        elif kind == "ulp":
            bits[i, j] ^= np.uint64(1)
    return rows


@given(ncol=strategies.sampled_from([1, 2, 3, 8, 9, 16, 256]),
       blocks=strategies.sampled_from([(0, 9), (1, -1), (1, 1), (2, 3)]),
       kinds=strategies.sampled_from([("const",), ("const", "zeros"), ("const", "nans"),
                                      ("const", "ulp"),
                                      ("const", "zeros", "nans", "ulp", "free")]),
       nan=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_constant_rows_are_written_and_parsed_as_the_references(tmp_path_factory, ncol, blocks,
                                                                kinds, nan, seed):
    """Rows that hold one value, bitwise, are formatted and parsed once per
    row: write_csv's bytes are still the per-row reference's and
    load_field's values the per-value parse's, whether every row of a block
    is constant (one conversion per row), a row of signed zeros or NaN
    payloads breaks the block's period, or a value one ulp off does."""
    rng = np.random.default_rng(seed)
    nrow = blocks[0] * max(1, fields._BLOCK_VALUES // ncol) + blocks[1]
    rows = _constant_rows(rng, nrow, ncol, kinds, nan)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    header = ["# head", "a,b"]
    write_csv(path, header, rows)
    assert path.read_bytes() == _reference_csv(header, rows).encode()
    if ncol % 2 == 0 and ncol >= 8:
        save_field(CapField(CapGrid(nrow - 1, ncol, THETA), rows), path)
        back = load_field(path).values
        assert back.tobytes() == _reference_load(path).tobytes()
        keep = ~np.isnan(rows)
        assert back[keep].tobytes() == rows[keep].tobytes()


@given(na=strategies.sampled_from([1, 3, 7]), nb=strategies.sampled_from([2, 8, 30, 256]),
       kinds=strategies.sampled_from([("x3",), ("x3", "x3zeros", "x3nan", "x3ulp", "free")]),
       seed=strategies.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=25, deadline=None)
def test_write_csv_lead_bakes_a_constant_x3_into_the_ring(tmp_path_factory, na, nb, kinds, seed):
    """Half-turned rings whose x3 is one value, bitwise, write that value's
    text into the ring's format once; the bytes are the meshgrid columns'
    per-row reference whether x3 is one double on the ring ("x3"), +0.0 and
    -0.0 mixed ("x3zeros"), one NaN payload or two ("x3nan"), a value with
    one ulp-off pair ("x3ulp"), or random ("free")."""
    rng = np.random.default_rng(seed)
    a, b = _values(rng, na), _values(rng, nb)
    pts = _rings(rng, na, nb, ("turn",), False).reshape(na, nb, 3)
    h = nb // 2
    for i, kind in enumerate(rng.choice(kinds, na)):
        x3 = pts[i, :h, 2].view(np.uint64)
        if kind != "free":
            x3[:] = x3[0]
        j = rng.integers(h)
        if kind == "x3zeros":
            pts[i, :h, 2] = rng.choice([0.0, -0.0], h)
        elif kind == "x3nan":
            x3[:] = rng.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, dtype=np.uint64)
            x3[j] ^= np.uint64(rng.integers(2))
        elif kind == "x3ulp":
            x3[j] ^= np.uint64(1)
        pts[i, h:, 2] = pts[i, :h, 2]
    pts = pts.reshape(-1, 3)
    path = tmp_path_factory.mktemp("csv") / "lead.csv"
    write_csv(path, ["a,b,x,y,z"], pts, lead=(a, b))
    aa, bb = np.meshgrid(a, b, indexing="ij")
    want = _reference_csv(["a,b,x,y,z"], np.column_stack([aa.ravel(), bb.ravel(), pts]))
    assert path.read_bytes() == want.encode()


def test_load_field_cascades_from_one_value_to_halves_to_whole_rows(tmp_path, monkeypatch):
    """The periods only grow: a file whose first rings are constant, the next
    even and the rest neither parses at 1, then Nphi/2, then Nphi columns,
    and a constant or even ring after the switch is parsed at the current
    width; every value is the per-value parse's."""
    g = CapGrid(16, 32, THETA)
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    vals = 1.0 + bb * (1.0 + 0.1 * np.cos(2.0 * pp) + 1e-3 * np.cos(pp))
    vals[:9, 16:] = vals[:9, :16]
    vals[:4] = vals[:4, :1]
    vals[6], vals[12], vals[14, 16:] = 2.0, 3.0, vals[14, :16]
    path = tmp_path / "mixed.csv"
    save_field(CapField(g, vals), path)
    widths = loadtxt_widths(monkeypatch)
    back = load_field(path)
    assert widths == [1, 16, 32]
    assert back.values.tobytes() == vals.tobytes() == _reference_load(path).tobytes()
    # ring 1 not even, or ring 0 even but not constant: the constant rings 2
    # and 3 come after the switch
    for ring, other, want in ((1, 10, [1, 32]), (0, 5, [16, 32])):
        edited = vals.copy()
        edited[ring] = vals[other]
        widths.clear()
        save_field(CapField(g, edited), path)
        assert load_field(path).values.tobytes() == _reference_load(path).tobytes()
        assert widths == want


def test_a_bad_constant_row_reads_as_in_a_one_pass_parse(tmp_path):
    """A bad token in every value of a row fails while the rows are parsed a
    value at a time, and a bad first value alone in the whole-row pass: both
    name the file line and give numpy's reason at column 1; a bad third
    value names column 3."""
    g = CapGrid(16, 32, THETA)
    save_field(ell_field(g), tmp_path / "good.csv")
    lines = (tmp_path / "good.csv").read_text().splitlines(keepends=True)
    row = lines[8].rstrip("\n").split(",")
    assert len(set(row)) == 1
    errors = []
    for name, cols in (("every", range(32)), ("first", (0,)), ("third", (2,))):
        bad = [("abc" if j in cols else v) for j, v in enumerate(row)]
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(lines[:8] + [",".join(bad) + "\n"] + lines[9:]))
        with pytest.raises(ValueError) as err:
            load_field(path)
        errors.append(str(err.value).replace(str(path), "FILE"))
    assert errors[0] == errors[1]
    for error, column in zip(errors[1:], ("column 1.", "column 3.")):
        assert error.startswith("FILE: line 9: malformed value row: could not convert string 'abc'")
        assert error.endswith(column)
