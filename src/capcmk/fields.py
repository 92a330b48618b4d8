"""Discrete scalar fields on the spherical cap and their covariant calculus.

Grid layout (n = 2): polar coordinates (beta, phi) about the cap axis with

    beta_i = (i + 1/2) * theta / Nbeta,  i = 0..Nbeta-1   (cell-centered rings)
    beta_{Nbeta} = theta                                   (boundary ring)
    phi_j = 2*pi*j / Nphi,               j = 0..Nphi-1    (periodic)

The half-offset keeps every ring away from the coordinate singularity at the
pole; values "across" the pole are supplied by the chart identity
s(-beta, phi) = s(beta, phi + pi), which holds for every field because
(-beta, phi) and (beta, phi + pi) name the same point.  Nphi must be even so
that phi + pi lands on the grid.

Derivatives are second-order central stencils; the ring next to the boundary
uses nonuniform stencils reaching the boundary ring (4-point for the second
derivative, which a 3-point nonuniform stencil would only do to first order),
and the boundary ring itself carries the one-sided Robin derivative.
Quadrature is the midpoint rule over the cell rings, w_ij = sin(beta_i)
dbeta dphi; the boundary ring carries no quadrature weight.

`tau_sharp` returns the curvature endomorphism as a `symfunc.SymEndo` batch,
the one endomorphism type shared by the solver and the audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .symfunc import SymEndo


def fd_weights(offsets, order):
    """Finite-difference weights for the `order`-th derivative at offset 0.

    Exact on polynomials of degree < len(offsets); the usual Vandermonde/Taylor
    linear system.
    """
    offsets = np.asarray(offsets, dtype=float)
    m = offsets.size
    a = np.zeros((m, m))
    for r in range(m):
        a[r] = offsets**r / math.factorial(r)
    e = np.zeros(m)
    e[order] = 1.0
    return np.linalg.solve(a, e)


class CapGrid:
    """Structured (beta, phi) grid on the cap with cached stencil operators."""

    def __init__(self, nbeta: int, nphi: int, theta: float):
        if nbeta < 8 or nphi < 8:
            raise ValueError(f"grid too coarse: need Nbeta >= 8 and Nphi >= 8, got {nbeta}x{nphi}")
        if nphi % 2 != 0:
            raise ValueError(f"Nphi must be even for the across-pole closure, got {nphi}")
        if not (0.0 < theta < math.pi / 2):
            raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
        self.nbeta = int(nbeta)
        self.nphi = int(nphi)
        self.theta = float(theta)
        self.dbeta = self.theta / self.nbeta
        self.dphi = 2.0 * math.pi / self.nphi
        self.beta_cells = (np.arange(self.nbeta) + 0.5) * self.dbeta
        self.beta_all = np.concatenate([self.beta_cells, [self.theta]])
        self.phi = np.arange(self.nphi) * self.dphi
        # midpoint-rule weights over the cell rings (boundary ring: no mass)
        self.weights = np.sin(self.beta_cells)[:, None] * self.dbeta * self.dphi * np.ones((1, self.nphi))
        self._ops = None

    # -- identity / sizes -------------------------------------------------
    @property
    def n_interior(self) -> int:
        return self.nbeta * self.nphi

    @property
    def n_total(self) -> int:
        return (self.nbeta + 1) * self.nphi

    def __eq__(self, other):
        return (
            isinstance(other, CapGrid)
            and self.nbeta == other.nbeta
            and self.nphi == other.nphi
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.nbeta, self.nphi, self.theta))

    def __repr__(self):
        return f"CapGrid({self.nbeta}x{self.nphi}, theta={self.theta:.6g})"

    # -- stencil operators -------------------------------------------------
    def ops(self):
        """Sparse derivative operators, built once per grid.

        All map the full value vector (row-major over (Nbeta+1) x Nphi nodes)
        to the interior rings, except `dbd`/`ibd` which map to the boundary
        ring.  a11/a12/a22 are the orthonormal-frame components of tau_sharp
        as linear operators, so the Newton linearization is the exact
        derivative of the discrete residual.
        """
        if self._ops is not None:
            return self._ops
        nb, np_, h = self.nbeta, self.nphi, self.nphi // 2
        db, dp = self.dbeta, self.dphi
        nint, ntot = self.n_interior, self.n_total
        js = np.arange(np_)

        def aidx(i, j):
            return i * np_ + j

        rows, cols, data = [], [], []

        def put(r, c, v):
            rows.append(np.asarray(r, dtype=np.int64).ravel())
            cols.append(np.asarray(c, dtype=np.int64).ravel())
            data.append(np.broadcast_to(np.asarray(v, dtype=float), rows[-1].shape).ravel())

        def collect(shape):
            nonlocal rows, cols, data
            m = sp.csr_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape
            )
            rows, cols, data = [], [], []
            return m

        mirror = (js + h) % np_

        # d/dbeta on interior rings
        put(aidx(0, js), aidx(0, mirror), -0.5 / db)
        put(aidx(0, js), aidx(1, js), 0.5 / db)
        if nb > 2:
            ii = np.arange(1, nb - 1)[:, None]
            put(aidx(ii, js), aidx(ii - 1, js), -0.5 / db)
            put(aidx(ii, js), aidx(ii + 1, js), 0.5 / db)
        w = fd_weights([-db, 0.0, 0.5 * db], 1)
        for c, wc in zip((nb - 2, nb - 1, nb), w):
            put(aidx(nb - 1, js), aidx(c, js), wc)
        dbeta_op = collect((nint, ntot))

        # d2/dbeta2 on interior rings
        put(aidx(0, js), aidx(0, mirror), 1.0 / db**2)
        put(aidx(0, js), aidx(0, js), -2.0 / db**2)
        put(aidx(0, js), aidx(1, js), 1.0 / db**2)
        if nb > 2:
            ii = np.arange(1, nb - 1)[:, None]
            put(aidx(ii, js), aidx(ii - 1, js), 1.0 / db**2)
            put(aidx(ii, js), aidx(ii, js), -2.0 / db**2)
            put(aidx(ii, js), aidx(ii + 1, js), 1.0 / db**2)
        w = fd_weights([-2.0 * db, -db, 0.0, 0.5 * db], 2)
        for c, wc in zip((nb - 3, nb - 2, nb - 1, nb), w):
            put(aidx(nb - 1, js), aidx(c, js), wc)
        dbeta2_op = collect((nint, ntot))

        # d/dphi, d2/dphi2 on interior rings (periodic, uniform)
        ii = np.arange(nb)[:, None]
        put(aidx(ii, js), aidx(ii, (js + 1) % np_), 0.5 / dp)
        put(aidx(ii, js), aidx(ii, (js - 1) % np_), -0.5 / dp)
        dphi_op = collect((nint, ntot))
        put(aidx(ii, js), aidx(ii, (js + 1) % np_), 1.0 / dp**2)
        put(aidx(ii, js), aidx(ii, js), -2.0 / dp**2)
        put(aidx(ii, js), aidx(ii, (js - 1) % np_), 1.0 / dp**2)
        dphi2_op = collect((nint, ntot))

        # mixed derivative: phi-central of the beta-derivative field
        dbetaphi_op = dphi_op[:, :nint] @ dbeta_op

        # boundary ring: value selector and one-sided d/dbeta (O(h^2))
        put(js, aidx(nb, js), 1.0)
        ibd = collect((np_, ntot))
        w = fd_weights([-1.5 * db, -0.5 * db, 0.0], 1)
        for c, wc in zip((nb - 2, nb - 1, nb), w):
            put(js, aidx(c, js), wc)
        dbd = collect((np_, ntot))

        pint = sp.eye(nint, ntot, format="csr")

        sinb = np.repeat(np.sin(self.beta_cells), np_)
        cosb = np.repeat(np.cos(self.beta_cells), np_)

        def dg(v):
            return sp.diags(v)

        a11 = (dbeta2_op + pint).tocsr()
        a12 = (dg(1.0 / sinb) @ (dbetaphi_op - dg(cosb / sinb) @ dphi_op)).tocsr()
        a22 = (dg(1.0 / sinb**2) @ (dphi2_op + dg(sinb * cosb) @ dbeta_op) + pint).tocsr()
        # split of a22 into its azimuthal-stencil part and the rest: tau_sharp
        # evaluates the azimuthal parts on the field minus its ring means, which
        # the phi stencils annihilate exactly, so the 1/sin^2(beta) weight near
        # the pole amplifies a far smaller cancellation error
        a22_phi = (dg(1.0 / sinb**2) @ dphi2_op).tocsr()
        a22_rad = (dg(cosb / sinb) @ dbeta_op + pint).tocsr()

        # even-subspace restriction: unknown pairs (i, j) ~ (i, j + Nphi/2)
        half_cols = np.repeat(np.arange(nb + 1) * h, np_) + (np.tile(js, nb + 1) % h)
        even_p = sp.csr_matrix(
            (np.ones(ntot), (np.arange(ntot), half_cols)), shape=(ntot, (nb + 1) * h)
        )
        keep_int = (np.arange(nint) % np_) < h
        keep_bd = np.arange(h)
        # row selection for the stacked [interior; boundary] system
        even_rows = np.concatenate([np.flatnonzero(keep_int), nint + keep_bd])

        ct = math.cos(self.theta) / math.sin(self.theta)
        robin = (dbd - ct * ibd).tocsr()

        self._ops = {
            "dbeta": dbeta_op,
            "dbeta2": dbeta2_op,
            "dphi": dphi_op,
            "dphi2": dphi2_op,
            "dbetaphi": dbetaphi_op,
            "pint": pint,
            "ibd": ibd,
            "dbd": dbd,
            "robin": robin,
            "a11": a11,
            "a12": a12,
            "a22": a22,
            "a22_phi": a22_phi,
            "a22_rad": a22_rad,
            "even_p": even_p,
            "even_rows": even_rows,
        }
        return self._ops

    def integrate(self, values) -> float:
        """Midpoint quadrature over the cell rings; sums to the cap area on 1."""
        values = np.asarray(values)
        if values.shape == (self.nbeta + 1, self.nphi):
            values = values[: self.nbeta]
        if values.shape != (self.nbeta, self.nphi):
            raise ValueError(f"bad field shape {values.shape} for {self!r}")
        return float(np.sum(values * self.weights))


@dataclass(eq=False)
class CapField:
    """Scalar field on a cap grid; values cover the cell rings plus the rim."""

    grid: CapGrid
    values: np.ndarray
    even: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nbeta + 1, self.grid.nphi)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")

    # interior/boundary views ------------------------------------------------
    @property
    def interior(self) -> np.ndarray:
        return self.values[: self.grid.nbeta]

    @property
    def boundary(self) -> np.ndarray:
        return self.values[self.grid.nbeta]

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    # algebra ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, CapField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return CapField(self.grid, self.values + other.values, self.even and other.even)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CapField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return CapField(self.grid, self.values - other.values, self.even and other.even)
        return NotImplemented

    def __mul__(self, c):
        if np.isscalar(c):
            return CapField(self.grid, self.values * float(c), self.even)
        return NotImplemented

    __rmul__ = __mul__

    def project_even(self) -> "CapField":
        """Average over the ambient-reflection action phi -> phi + pi.

        Idempotent; the output satisfies s(beta, phi) = s(beta, phi + pi)
        exactly.  Even inputs come back unchanged up to the exact average.
        """
        h = self.grid.nphi // 2
        v = 0.5 * (self.values + np.roll(self.values, h, axis=1))
        return CapField(self.grid, v, even=True)

    def is_even(self, tol=0.0) -> bool:
        h = self.grid.nphi // 2
        return bool(np.max(np.abs(self.values - np.roll(self.values, h, axis=1))) <= tol)


def tau_sharp(s: CapField) -> SymEndo:
    """tau_sharp[s] = g^{-1}(Hess s + s g) on the interior rings, as a SymEndo.

    The components are taken in the orthonormal frame {d_beta, d_phi/sin(beta)}:
    a11 = tau_bb, a12 = tau_bp / sin(beta), a22 = tau_pp / sin^2(beta).  The
    frame makes the endomorphism a plain symmetric 2x2, so its eigenvalues are
    the principal curvature radii and its `lam1min` is the convexity margin.

    The azimuthal-stencil parts act on the field minus its per-ring mean.
    Those stencils annihilate ring constants exactly (the row sums telescope
    to exact zero in floating point), so this evaluates the same discrete
    operator while keeping the pole-ring 1/sin(beta) weights from amplifying
    the cancellation noise of near-constant rings; without it the residual
    cannot be driven below a few 1e-9 on fine grids.
    """
    g = s.grid
    ops = g.ops()
    x = s.flat
    y = (s.values - np.mean(s.values, axis=1, keepdims=True)).ravel()
    shape = (g.nbeta, g.nphi)
    a11 = (ops["a11"] @ x).reshape(shape)
    a12 = (ops["a12"] @ y).reshape(shape)
    a22 = (ops["a22_phi"] @ y + ops["a22_rad"] @ x).reshape(shape)
    return SymEndo(a11, a12, a22)


def robin_residual(s: CapField) -> np.ndarray:
    """(d_beta s - cot(theta) s) on the boundary ring, one-sided O(h^2)."""
    g = s.grid
    ops = g.ops()
    ct = math.cos(g.theta) / math.sin(g.theta)
    return (ops["dbd"] @ s.flat) - ct * s.boundary


def boundary_tau_identity_residual(s: CapField) -> float:
    """Residual of the rim identity for capillary fields.

    In the orthonormal frame the covariant identity
    (nabla_mu tau)_pp = (tau_mm g_pp - tau_pp) cot(theta) collapses to

        d a22 / d beta = (a11 - a22) cot(theta)   at beta = theta,

    because the Christoffel terms cancel against the sin^2(beta) frame factor.
    Frame fields are extrapolated to the rim quadratically and d/dbeta is a
    one-sided O(h^2) stencil; the stencil switch next to the rim makes the
    truncation field non-smooth row to row, so the residual decays like O(h).
    """
    g = s.grid
    tau = tau_sharp(s)
    db = g.dbeta
    offs = [-2.5 * db, -1.5 * db, -0.5 * db]
    wval = fd_weights(offs, 0)
    wder = fd_weights(offs, 1)
    rows = slice(g.nbeta - 3, g.nbeta)
    a11_rim = np.tensordot(wval, tau.a11[rows], axes=(0, 0))
    a22_rim = np.tensordot(wval, tau.a22[rows], axes=(0, 0))
    da22_rim = np.tensordot(wder, tau.a22[rows], axes=(0, 0))
    ct = math.cos(g.theta) / math.sin(g.theta)
    return float(np.max(np.abs(da22_rim - (a11_rim - a22_rim) * ct)))


# -- serialization -------------------------------------------------------------

_MAGIC = "# capcmk field v1"


def save_field(s: CapField, path):
    """Write a field as CSV: header (Nbeta, Nphi, theta, even), then node rows.

    Values are %.17g so the round-trip is bit-exact.
    """
    lines = [_MAGIC, "# nbeta,nphi,theta,even"]
    g = s.grid
    lines.append(f"{g.nbeta},{g.nphi},{g.theta:.17g},{int(s.even)}")
    for row in s.values:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> CapField:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty field file")
    head = lines[0].split(",")
    if len(head) != 4:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    nbeta, nphi, theta, even = int(head[0]), int(head[1]), float(head[2]), bool(int(head[3]))
    grid = CapGrid(nbeta, nphi, theta)
    body = lines[1:]
    if len(body) != nbeta + 1:
        raise ValueError(f"{path}: expected {nbeta + 1} value rows, found {len(body)}")
    values = np.array([[float(v) for v in ln.split(",")] for ln in body])
    if values.shape != (nbeta + 1, nphi):
        raise ValueError(f"{path}: value block shape {values.shape} != {(nbeta + 1, nphi)}")
    return CapField(grid, values, even=even)
