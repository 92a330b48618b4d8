"""Discrete scalar fields on the spherical cap and their covariant calculus.

Grid layout (n = 2): polar coordinates (beta, phi) about the cap axis with

    beta_i = (i + 1/2) * theta / Nbeta,  i = 0..Nbeta-1   (cell-centered rings)
    beta_{Nbeta} = theta                                   (boundary ring)
    phi_j = 2*pi*j / Nphi,               j = 0..Nphi-1    (periodic)

The half-offset keeps every ring away from the coordinate singularity at the
pole; values "across" the pole are supplied by the chart identity
s(-beta, phi) = s(beta, phi + pi), which holds for every field because
(-beta, phi) and (beta, phi + pi) name the same point.  Nphi must be even so
that the half-turn phi -> phi + pi lands on the grid.  Even fields, the
class the solver works in, are those the half-turn leaves fixed.

Each derivative operator is a 1-D beta-stencil laid over a periodic 1-D
phi-stencil.  The beta-stencils are second-order central; on the pole ring
they reach ring -1, which is ring 0 under the half-turn; the ring next to the
boundary uses nonuniform stencils reaching the boundary ring (4-point for the
second derivative, which a 3-point nonuniform stencil would only do to first
order), and the boundary ring itself carries the one-sided Robin derivative.
Quadrature is the midpoint rule over the cell rings, w_ij = sin(beta_i)
dbeta dphi; the boundary ring carries no quadrature weight.

Each grid keeps one table of its operators (`CapGrid.ops`), each a list of
(beta-matrix, phi-stencil) terms.  The beta-stencils are (m, 4) band arrays
(`stencil_band`), a row's four weights on the rings around it, and the
table combines them band by band and keeps each beta-matrix as the CSR of
its band's nonzeros (`band_csr`), so a grid's operators cost O(Nbeta) time
and memory; the 1-D oracle (`rotsym`) lays its own stencils out in the
same bands.  The table is laid out two ways: `apply` evaluates an operator
on a field by multiplying the sparse beta-matrix into the value array
extended by ring -1 and one periodic column on each side, then applying
the phi-stencil by slicing; and `modal_blocks` folds the table into the
Newton blocks on even fields and splits them by azimuthal Fourier mode,
for the solver's one factorization.  `tau_sharp`, `robin_residual` and
the audit's gradients use `apply`, and so does the solver's Jacobian action
(`solver.linearize`).

`tau_sharp` returns the curvature endomorphism as a `symfunc.SymEndo` batch,
the one endomorphism type shared by the solver and the audits.

Every CSV goes through `write_csv`, and field files are read by
`load_field`, each value as %.17g text.  A ring of an even field holds one
half of its values twice, and a ring of a rotationally symmetric one (every
ring the solver returns for ring-constant data) one value Nphi times; both
format and parse each such ring once per half, or once, and copy the rest,
which cuts the text-to-double conversions that bound them; the files' bytes
do not change.  The surface of an even field is symmetric under the
half-turn about the x3 axis: its points at phi >= pi are (-x1, -x2, x3) of
those at phi - pi (`audit.surface_points`; exactly, but for an x1 or x2 that
cancels to zero), so the embedding formats each exactly turned ring's first
half and writes the second from the same text, the signs of x1 and x2
toggled, with an x3 that is constant on the ring formatted once.

Such fields are also evaluated on fewer nodes: `tau_sharp` and the audit's
geometry evaluate a field by its bitwise period (`repeat_unit`), its first
column when every ring is constant and its first Nphi/2 columns when the two
halves are equal, with the same bits as at full width; `tau_sharp` keeps a
ring-constant field's (Nbeta, 1) columns, which numpy broadcasts.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass

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


def stencil_band(m, central, rim):
    """The (m, 4) band of a 1-D beta-stencil on m rings: row r (of a one-row
    band, the rim ring's row) weighs rings r-2..r+1.  `central` {ring
    offset: weight} fills rows 0..m-2, and the last row's weights `rim` end
    at the rim ring, which follows ring m - 1."""
    b = np.zeros((m, 4))
    for o, w in central.items():
        b[:-1, o + 2] = w
    end = 3 if m == 1 else 4
    b[-1, end - len(rim):end] = rim
    return b


def band_csr(band, first, ncols):
    """The band's nonzeros, row by row, as an (m, ncols) CSR matrix; row r of
    the (m, 4) band holds columns first + r .. first + r + 3."""
    m = band.shape[0]
    # int32, scipy's index type at these sizes: it then checks no contents
    cols = np.arange(first, first + m, dtype=np.int32)[:, None] + np.arange(4, dtype=np.int32)
    keep = band != 0
    indptr = np.zeros(m + 1, np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix((band[keep], cols[keep], indptr), shape=(m, ncols))


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
        # midpoint-rule weights over the cell rings (boundary ring: no mass),
        # one (Nbeta, 1) column: a cell's weight depends on its ring alone
        self.weights = np.sin(self.beta_cells)[:, None] * self.dbeta * self.dphi
        self._ops = None
        self._modal = {}

    # -- identity ---------------------------------------------------------
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
    def _stencils(self):
        """The 1-D stencils that `ops` combines into the grid's operators.

        Beta-stencils are (m, 4) bands: row r is the output ring r (of a
        one-row band, the rim ring Nbeta), and its four entries weigh rings
        r-2..r+1, that is, columns r-1..r+2 of the beta-matrix over rings
        -1..Nbeta (column c is ring c - 1).  They are d/dbeta and
        d^2/dbeta^2 with their nonuniform rim-adjacent rows, the identity on
        the interior rings, and the rim's one-sided d/dbeta and value
        selector.  Phi-stencils are periodic {offset: weight} dicts.
        """
        nb, db, dp = self.nbeta, self.dbeta, self.dphi
        return {
            "d1": stencil_band(nb, {-1: -0.5 / db, 1: 0.5 / db},
                               fd_weights([-db, 0.0, 0.5 * db], 1)),
            "d2": stencil_band(nb, {-1: 1.0 / db**2, 0: -2.0 / db**2, 1: 1.0 / db**2},
                               fd_weights([-2.0 * db, -db, 0.0, 0.5 * db], 2)),
            "rings": np.tile([0.0, 0.0, 1.0, 0.0], (nb, 1)),
            "dbd": stencil_band(1, {}, fd_weights([-1.5 * db, -0.5 * db, 0.0], 1)),
            "ibd": stencil_band(1, {}, [1.0]),
            "w1": {1: 0.5 / dp, -1: -0.5 / dp},
            "w2": {1: 1.0 / dp**2, 0: -2.0 / dp**2, -1: 1.0 / dp**2},
        }

    def ops(self):
        """Every operator as a list of (beta-matrix, phi-stencil) terms, built
        once per grid in O(Nbeta).

        Each term's beta-matrix is combined from the bands of `_stencils`,
        ring factors multiplied in, and held as the CSR of its nonzeros; row
        r is ring r, except a one-row matrix, which is the rim ring's.  An
        operator is the sum of its terms, each term the beta-matrix laid over
        its periodic phi-stencil.  a11/a12/a22 are the orthonormal-frame
        components of tau_sharp, pint the interior rings, robin the rim's
        d/dbeta - cot(theta), and dbeta/dphi the gradient on every ring, the
        rim included.  `apply` evaluates the terms on a field, and
        `modal_blocks` folds them onto the even subspace by Fourier mode.
        """
        if self._ops is not None:
            return self._ops
        st, nb = self._stencils(), self.nbeta
        sinb = np.sin(self.beta_cells)[:, None]
        cotb = np.cos(self.beta_cells)[:, None] / sinb
        d1, rings, one = st["d1"], st["rings"], {0: 1.0}
        ct = math.cos(self.theta) / math.sin(self.theta)
        table = {
            "a11": [(st["d2"] + rings, one)],
            "a12": [((d1 - cotb * rings) / sinb, st["w1"])],
            "a22": [(rings / sinb**2, st["w2"]), (cotb * d1 + rings, one)],
            "pint": [(rings, one)],
            "robin": [(st["dbd"] - ct * st["ibd"], one)],
            "dbeta": [(np.vstack([d1, st["dbd"]]), one)],
            "dphi": [(np.vstack([rings, st["ibd"]]), st["w1"])],
        }
        # column c of a beta-matrix is ring c - 1, and a one-row band is the rim's
        self._ops = {name: [(band_csr(b, (nb if len(b) == 1 else 0) - 1, nb + 2), weights)
                            for b, weights in terms]
                     for name, terms in table.items()}
        return self._ops

    def extend(self, values) -> np.ndarray:
        """The (Nbeta + 2) x (n + 2) array that `apply` reads: ring -1, which
        is ring 0 turned by the half-turn phi -> phi + pi, above the value
        rings, and one periodic column on each side.  `values` has n = Nphi
        columns; or n = Nphi/2, the first half of an even field, or n = 1,
        the first column of a field whose every ring is constant: a field
        whose ring -1 is ring 0 itself and whose columns wrap with period n
        (`repeat_unit`)."""
        n = values.shape[1]
        if n not in (self.nphi, self.nphi // 2, 1):
            raise ValueError(
                f"{self!r} evaluates {self.nphi}, {self.nphi // 2} or 1 columns, got {n}")
        ext = np.empty((self.nbeta + 2, n + 2))
        # the turn shifts a full ring by Nphi/2 columns and a unit by none
        k = self.nphi // 2 % n
        ext[0, 1:n - k + 1] = values[0, k:]
        ext[0, n - k + 1:-1] = values[0, :k]
        ext[1:, 1:-1] = values
        ext[:, 0] = ext[:, -2]
        ext[:, -1] = ext[:, 1]
        return ext

    def apply(self, name, x, y=None) -> np.ndarray:
        """Operator `name` of `ops` on the extended array x (`extend`): each
        term's beta-matrix times the array, then its phi-stencil by slicing.
        Terms whose phi-stencil annihilates ring constants read y instead,
        when it is given.  Returns one row per row of the beta-matrices and
        one column per value column of x."""
        terms = self.ops()[name]
        n = x.shape[1] - 2
        out = np.zeros((terms[0][0].shape[0], n))
        for bmat, weights in terms:
            rb = bmat @ (x if y is None or sum(weights.values()) != 0.0 else y)
            for o, w in weights.items():
                out += w * rb[:, 1 + o:1 + o + n]
        return out

    def modal_blocks(self, mode0):
        """The Newton blocks on even fields by azimuthal Fourier mode, built on
        the first call and cached: every mode's, or with mode0 only mode 0's.

        Where every coefficient of the Newton system is a ring function, its
        restriction to even fields is circulant in j < Nphi/2, and the real
        FFT over j splits it into one (Nbeta + 1)-square block per mode
        m = 0..Nphi/4 (rounded down).  A term contributes its beta-matrix,
        read from its CSR arrays and folded onto even fields (there the
        half-turn is the identity, so ring -1 adds onto ring 0; a one-row
        beta-matrix is the rim ring's), times the symbol
        sum_o w_o cos(2 pi m o / (Nphi/2)) of its phi-stencil.  The
        stencils of a11, a22, pint and robin are symmetric (w_o = w_-o), so
        every block is real; a12's is odd, and its block is not formed.  A
        ring-constant right side excites mode 0 alone, whose symbol is the
        weight sum: mode0 builds that block, with the bits it has among all.
        The blocks make one block-diagonal matrix, rows and columns ordered
        (mode, ring), stored per entry in CSC order:
          "ring": each entry's row ring i;
          name: each entry's weight in that block;
          "shape", "indices", "indptr": the CSC pattern.
        """
        if mode0 in self._modal:
            return self._modal[mode0]
        h, nr = self.nphi // 2, self.nbeta + 1
        modes = np.arange(1 if mode0 else h // 2 + 1)[:, None]
        parts = []
        for name in ("a11", "a22", "pint", "robin"):
            for bmat, weights in self.ops()[name]:
                m = bmat.shape[0]
                first = self.nbeta if m == 1 else 0
                i = np.repeat(np.arange(first, first + m, dtype=bmat.indices.dtype),
                              np.diff(bmat.indptr))
                r = np.maximum(bmat.indices - 1, 0)
                symbol = sum(w * np.cos(2.0 * math.pi * modes * o / h) for o, w in weights.items())
                # entry key: column ring r first, then row ring i, which sorts as CSC
                parts.append((name, r * nr + i, symbol * bmat.data))
        # every mode's block has the same pattern: one block's unique keys
        keys, at = np.unique(np.concatenate([key for _, key, _ in parts]), return_inverse=True)
        at = np.split(at, np.cumsum([key.size for _, key, _ in parts])[:-1])
        nnz, size = keys.size, modes.size * nr
        blocks = {}
        for (name, _, vals), slots in zip(parts, at):
            # entry e of mode m fills slot m * nnz + slots[e], summed in entry order
            blocks[name] = blocks.get(name, 0.0) + np.bincount(
                (modes * nnz + slots).ravel(), vals.ravel(), modes.size * nnz)
        ring = keys % nr
        blocks.update(ring=np.tile(ring, modes.size), shape=(size, size),
                      indices=(modes * nr + ring).ravel().astype(np.int32),
                      indptr=np.append(0, np.cumsum(np.tile(np.bincount(keys // nr, minlength=nr),
                                                            modes.size))).astype(np.int32))
        self._modal[mode0] = blocks
        return blocks

    def integrate(self, values) -> float:
        """Midpoint quadrature over the cell rings; sums to the cap area on 1.
        values has a row per cell ring, or per ring and the rim, and Nphi
        columns, or one that broadcasts over phi."""
        values = np.asarray(values)
        if (values.ndim != 2 or values.shape[0] not in (self.nbeta, self.nbeta + 1)
                or values.shape[1] not in (1, self.nphi)):
            raise ValueError(f"bad field shape {values.shape} for {self!r}")
        # a column is spread to full width first, so the sum adds the same
        # Nbeta x Nphi products in the same order as for a full-width field
        full = np.broadcast_to(values[: self.nbeta], (self.nbeta, self.nphi))
        return float(np.sum(full * self.weights))


@dataclass(eq=False)
class CapField:
    """Scalar field on a cap grid; values cover the cell rings plus the rim.
    `even` is accepted for old callers and dropped: the values are the one
    record of evenness (`is_even`), which a stored label could contradict."""

    grid: CapGrid
    values: np.ndarray
    even: InitVar[bool] = False

    def __post_init__(self, even):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nbeta + 1, self.grid.nphi)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")

    # views ------------------------------------------------------------------
    @property
    def interior(self) -> np.ndarray:
        return self.values[: self.grid.nbeta]

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    # algebra ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, CapField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return CapField(self.grid, self.values + other.values)
        return NotImplemented

    def __mul__(self, c):
        if np.isscalar(c):
            return CapField(self.grid, self.values * float(c))
        return NotImplemented

    __rmul__ = __mul__

    def project_even(self) -> "CapField":
        """Average over the ambient-reflection action phi -> phi + pi.

        Idempotent; the output satisfies s(beta, phi) = s(beta, phi + pi)
        exactly.  Even inputs come back unchanged up to the exact average.
        """
        h = self.grid.nphi // 2
        v = 0.5 * (self.values + np.roll(self.values, h, axis=1))
        return CapField(self.grid, v)

    def is_even(self, tol=0.0) -> bool:
        h = self.grid.nphi // 2
        return bool(np.max(np.abs(self.values - np.roll(self.values, h, axis=1))) <= tol)


del CapField.even  # the InitVar's default, which fields would read as a label


def tau_sharp(s: CapField) -> SymEndo:
    """tau_sharp[s] = g^{-1}(Hess s + s g) on the interior rings, as a SymEndo.

    The components are taken in the orthonormal frame {d_beta, d_phi/sin(beta)}:
    a11 = tau_bb, a12 = tau_bp / sin(beta), a22 = tau_pp / sin^2(beta).  The
    frame makes the endomorphism a plain symmetric 2x2, so its eigenvalues are
    the principal curvature radii and its `lam1min` is the convexity margin.

    Each component is evaluated by stencil application (`CapGrid.apply`).
    The azimuthal-stencil parts act on the field minus its per-ring mean.
    Those stencils annihilate ring constants exactly (the row sums telescope
    to exact zero in floating point), so this evaluates the same discrete
    operator while keeping the pole-ring 1/sin(beta) weights from amplifying
    the cancellation noise of near-constant rings; without it the residual
    cannot be driven below a few 1e-9 on fine grids.

    A field with a bitwise period (`repeat_unit`) is evaluated on its first
    column, where every ring is constant, or its first half; with the full
    rows' means, every bit is the full evaluation's.  The components of one
    column come back as (Nbeta, 1) columns, which broadcast against
    (Nbeta, Nphi); those of a half are tiled.
    """
    g, v = s.grid, s.values
    unit = repeat_unit(v)
    if unit is None:
        x = g.extend(v)
        y = x - np.mean(x[:, 1:-1], axis=1, keepdims=True)
    else:
        # ring -1 takes ring 0's mean; a unit's own can differ in the last bit
        x, m = g.extend(unit), np.mean(v, axis=1, keepdims=True)
        y = x - np.concatenate([m[:1], m])
    a = [g.apply("a11", x), g.apply("a12", x, y), g.apply("a22", x, y)]
    if unit is not None and unit.shape[1] > 1:
        a = [np.concatenate([c, c], axis=1) for c in a]
    return SymEndo(*a)


def repeat_unit(values):
    """The bitwise period of the rows of `values`, as their first columns:
    the first column when every row holds one value, bit for bit; else the
    first half when each row's second half is a bitwise copy of its first;
    else None.  The bits are compared, not the values, so -0.0 and 0.0, or
    two NaN payloads, never repeat each other."""
    h = values.shape[1] // 2
    if h == 0 or values.shape[1] % 2:
        return None
    bits = values.view(np.uint64)
    if not np.array_equal(bits[:, :h], bits[:, h:]):
        return None
    return values[:, :1] if (bits[:, :h] == bits[:, :1]).all() else values[:, :h]


def robin_residual(s: CapField) -> np.ndarray:
    """(d_beta s - cot(theta) s) on the boundary ring, one-sided O(h^2)."""
    g = s.grid
    return g.apply("robin", g.extend(s.values))[0]


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
    # at full width: BLAS rounds a product with one column differently
    a11, a22 = (np.broadcast_to(c, (g.nbeta, g.nphi))[rows] for c in (tau.a11, tau.a22))
    a11_rim = np.tensordot(wval, a11, axes=(0, 0))
    a22_rim = np.tensordot(wval, a22, axes=(0, 0))
    da22_rim = np.tensordot(wder, a22, axes=(0, 0))
    ct = math.cos(g.theta) / math.sin(g.theta)
    return float(np.max(np.abs(da22_rim - (a11_rim - a22_rim) * ct)))


# -- serialization -------------------------------------------------------------

_MAGIC = "# capcmk field v1"


# values per block of rows in write_csv: bounds the text and the Python floats
# held at once, so writing a large file costs no more memory than a small one
_BLOCK_VALUES = 1 << 14


def write_csv(path, header, rows, lead=None):
    """Write the `header` lines, then one line per row of the 2-D float array
    `rows`, each value as %.17g so that it parses back bit-exactly.

    `lead = (a, b)`, two 1-D float arrays, puts the tensor-product grid a x b
    in front of the values: row i * len(b) + j begins a[i], b[j].  The file
    is the one written for column_stack([A.ravel(), B.ravel(), rows]) with
    A, B = meshgrid(a, b, indexing="ij"), but formats each grid value once.

    Rows are written a block at a time (one ring a[i] of len(b) rows with
    `lead`), each block with one format string, one `%` and one write, so
    neither the file's text nor all of its values are ever held at once.
    Without `lead`, a block whose rows have a bitwise period (`repeat_unit`;
    every ring of an even field does, and every ring of a rotationally
    symmetric one holds one value) has only that unit of each row
    formatted, and each line's text is written as often as the unit
    repeats, comma-joined: the same bytes from a half or one in ncol of the
    conversions.  With `lead`, a ring whose second half of rows is the first
    turned half about the last axis, bitwise (`_half_turned`; every ring of
    an even field's `surface_points` is), has only its first half
    formatted; the second half's text is that text with the leading "-" of
    every value but the last toggled, which for -0.0, infinities and
    subnormals is the text of the negated double too.  Where the last
    column holds one value on such a ring, bitwise (x3 on a rotationally
    symmetric field's ring), its text goes into the ring's format once.
    """
    ncol = rows.shape[1]
    row_fmt = ",".join(["%.17g"] * ncol) + "\n"
    with open(path, "w") as fh:
        fh.write("".join(h + "\n" for h in header))
        if lead is None:
            step = max(1, _BLOCK_VALUES // ncol)
            for i in range(0, rows.shape[0], step):
                block = rows[i:i + step]
                unit = repeat_unit(block)
                if unit is None:
                    fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))
                else:
                    width = unit.shape[1]
                    text = (",".join(["%.17g"] * width) + "\n") * len(block) % tuple(
                        unit.ravel().tolist())
                    fh.write("".join([",".join([ln] * (ncol // width)) + "\n"
                                      for ln in text.splitlines()]))
        else:
            a, b = lead
            n = len(b)
            h = n // 2
            # the %.17g text of a float holds no "%", so a's and b's texts
            # go into format strings as they are: ring i's format is a[i]'s
            # text joined into these pieces
            btext = ["%.17g" % v for v in b.tolist()]
            pieces = [""] + ["," + t + "," + row_fmt for t in btext]
            # a turned ring's first half is formatted with b's texts left as
            # "%s" and a "~" in front of each value whose sign turns, then
            # completed once per half by a second "%"
            turn_fmt = ",%%s," + "~%.17g," * (ncol - 1)
            for i, v in enumerate(a.tolist()):
                ring = rows[i * n:(i + 1) * n]
                if _half_turned(ring):
                    last = ring[:h, -1].view(np.uint64)
                    if (last == last[0]).all():
                        fmt, vals = turn_fmt + "%.17g\n" % float(ring[0, -1]), ring[:h, :-1]
                    else:
                        fmt, vals = turn_fmt + "%.17g\n", ring[:h]
                    text = ("%.17g" % v + fmt) * h % tuple(vals.ravel().tolist())
                    fh.write(text.replace("~", "") % tuple(btext[:h]))
                    fh.write(text.replace("~-", "").replace("~", "-") % tuple(btext[h:]))
                else:
                    fh.write(("%.17g" % v).join(pieces) % tuple(ring.ravel().tolist()))


def _half_turned(ring) -> bool:
    """Whether the float64 rows of `ring`, read as points, come in an even
    count and the second half is the first turned half about the last axis,
    bitwise: row j + n/2 is row j with the sign bit of every column but the
    last flipped.  The bits are compared, not the values, so 0.0 is never
    the turn of 0.0; and a NaN in a flipped column never counts, since %.17g
    writes "nan" for either sign."""
    h = len(ring) // 2
    if h == 0 or len(ring) % 2:
        return False
    bits = ring.view(np.uint64)
    flip = np.zeros(ring.shape[1], np.uint64)
    flip[:-1] = 1 << 63
    return bool(np.array_equal(bits[h:], bits[:h] ^ flip)) and not np.isnan(ring[:h, :-1]).any()


def save_field(s: CapField, path):
    """Write a field as CSV: header (Nbeta, Nphi, theta, even), then node rows;
    even is 1 where the two halves of every ring are equal, bit for bit."""
    g = s.grid
    even = int(repeat_unit(s.values) is not None)
    write_csv(path, [_MAGIC, "# nbeta,nphi,theta,even",
                     f"{g.nbeta},{g.nphi},{g.theta:.17g},{even}"], s.values)


def _data_line(lines):
    """(line number, text) of the next of the numbered `lines` whose text,
    with its `#` comment and outer whitespace removed, is not then empty;
    None at the end of the file."""
    for number, ln in lines:
        text = (ln.split("#", 1)[0] if "#" in ln else ln).strip()
        if text:
            return number, text
    return None


def _repeats(row: str, nphi: int, width: int) -> bool:
    """Whether the row text is `L,L,...,L`, nphi / width copies of L, with L
    holding `width` values."""
    reps = nphi // width
    m = len(row) // reps
    return (m > 0 and row[m:m + 1] == "," and row.count(",", 0, m) == width - 1
            and row == row[:m + 1] * (reps - 1) + row[:m])


def _header(path, head: str):
    """(nbeta, nphi, theta) of the header `nbeta,nphi,theta,even` (even 0 or 1)."""
    parts = head.split(",")
    if len(parts) != 4:
        raise ValueError(f"{path}: malformed header {head!r}")
    try:
        nbeta, nphi, theta, even = int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {head!r}: {exc}") from exc
    if even not in (0, 1):
        raise ValueError(f"{path}: the header's even flag must be 0 or 1, got {parts[3].strip()!r}")
    if nphi < 2 or nphi % 2:
        raise ValueError(f"{path}: the header's nphi must be even and at least 2, got {nphi}")
    return nbeta, nphi, theta


def load_field(path) -> CapField:
    """Read a field file as written by `save_field`.

    Everything after a `#` is a comment, and empty lines are skipped.  The
    first other line is the header `nbeta,nphi,theta,even` (nphi even and at
    least 2, even 0 or 1 and then dropped); exactly nbeta + 1 rows of nphi
    comma-separated values follow.  The header is read here, the value rows
    by `np.loadtxt` at C level, whose string-to-double conversion is the
    correctly rounded one behind `float()`, so every value parses back
    bit-exactly.  A malformed file raises ValueError naming `path`, and for a
    bad value row its 1-based line number in the file.

    A ring written by `save_field` reads `L,L,...,L` when it has a bitwise
    period (`repeat_unit`): L holds its one value if the ring is constant,
    nphi/2 values if the field is even.  The rows pass through a one-way
    cascade of periods, 1, then nphi/2, then nphi: while the rows repeat
    the current period's L, loadtxt parses L alone, and the units are tiled
    back (identical text gives identical doubles); from the first row that
    does not, the next period takes over.  The whole rows are parsed behind
    the first row, which sets the column count, so a bad row meets the same
    checks and reasons as in a one-pass parse.
    """
    with open(path) as fh:
        lines = enumerate(fh, 1)
        head = _data_line(lines)
        if head is None:
            raise ValueError(f"{path}: empty field file")
        nbeta, nphi, theta = _header(path, head[1])
        # loadtxt warns on a body without data, so the first value row is
        # read here and handed back in front of the rest (no seek: the file
        # may be a pipe)
        first = _data_line(lines)
        if first is None:
            raise ValueError(f"{path}: no value rows after the header")
        # loadtxt holds every row to the first row's count, so that one is
        # checked against the header here
        number, text = first
        count = text.count(",") + 1
        if count != nphi:
            raise ValueError(f"{path}: line {number}: expected {nphi} values, found {count}")

        def units(width):
            # L alone for each row that repeats it, from `row` up to the
            # first other row, where `row` stops (None at the end of the file)
            nonlocal number, row
            while _repeats(row, nphi, width):
                yield row[:len(row) // (nphi // width)]
                line = _data_line(lines)
                if line is None:
                    row = None
                    return
                number, row = line

        def rows():
            # loadtxt takes one line at a time and raises on the line it
            # parses, so `number` ends on the bad one; after the units, the
            # first row goes in front of `row` to set the column count
            nonlocal number
            yield text
            if parts:
                yield row
            for number, ln in lines:
                # loadtxt would read a line of blanks, or of blanks and a
                # comment, as a row of one empty value
                if not ln[:1].isspace() or ln.split("#", 1)[0].strip():
                    yield ln

        row, parts = text, []
        try:
            for width in (1, nphi // 2):
                if row is not None and _repeats(row, nphi, width):
                    unit = np.loadtxt(units(width), delimiter=",", dtype=np.float64, ndmin=2)
                    parts.append(np.tile(unit, nphi // width))
            if row is not None:
                rest = np.loadtxt(rows(), delimiter=",", comments="#", dtype=np.float64, ndmin=2)
                parts.append(rest[1:] if parts else rest)
        except ValueError as exc:
            # numpy counts rows of the value block alone, so its row number
            # gives way to the file's line number
            why = re.sub(r" at row \d+|; use `usecols`.*", "", str(exc))
            raise ValueError(f"{path}: line {number}: malformed value row: {why}") from exc
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if len(values) != nbeta + 1:
        raise ValueError(f"{path}: expected {nbeta + 1} value rows, found {len(values)}")
    # the grid comes after the rows are counted, so an absurd header grid
    # fails on the count instead of allocating the grid's arrays
    try:
        grid = CapGrid(nbeta, nphi, theta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return CapField(grid, values)
