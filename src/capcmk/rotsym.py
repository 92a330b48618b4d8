"""Rotationally symmetric 1-D reduction: the independent oracle for the solver.

For rotationally symmetric s(beta) on the cap the endomorphism tau_sharp[s]
has the two-eigenvalue structure

    lam_r = s'' + s            (radial direction, multiplicity 1)
    lam_t = s' cot(beta) + s   (tangential directions, multiplicity n-1)

so for any dimension n

    sigma_j = C(n-1, j) lam_t^j + C(n-1, j-1) lam_r lam_t^{j-1}.

The reduction is a two-point boundary value problem on beta in [0, theta] with
the smooth-pole condition s'(0) = 0 (even extension through the pole; the
beta -> 0 limit of lam_t is s''(0) + s(0) by l'Hopital, and the discrete
lam_t - lam_r gap at the first ring vanishes under refinement) and the same
Robin row s'(theta) = cot(theta) s(theta) at the rim.  Discretization mirrors
the 2-D conventions: cell-centered rings plus a rim node, second order
throughout, 4-point nonuniform second derivative next to the rim.  The
stencils' weights are this module's own.  They are built once per grid
(`RotGrid.ops`), in O(n), as (m, 4) band arrays laid out as the 2-D grid's
(`fields.stencil_band`) and applied by the 2-D grid's band kernel
(`fields.BandMatrix`), and so are the Jacobian's terms, which each
factorization combines into the band rows that `fields.band_lu` reads.
`save_profile` writes through the package's one CSV writer,
`fields.write_csv`.

The Newton corrector is the solver's shared damped-Newton loop
(`solver._damped_newton`), with the solver's stop on the relative residual
r (`solver.relative_size`) or on the step.  Its one callback builds one
`RotProfile` per Newton point (lam_r and lam_t are computed at build) for
the cone margin, this module's residual and r and, at every iterate, the
banded LU of the Jacobian (`fields.band_lu`, the 2-D solver's one LU); only
the discretization is independent of the 2-D path.  The solve is the 2-D
path's driver, `solver.newton_first`: one corrector at t = 1, and the
continuation only if that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import BandMatrix, band_lu, fd_weights, fold_pole, stencil_band, write_csv
from .geometry import CapParams, ell
from .solver import Schedule, _damped_newton, homotopy_values, newton_first, relative_size

__all__ = [
    "RotGrid",
    "RotProfile",
    "sigma_rot",
    "rotsym_sigma_k",
    "solve_rotsym",
    "reconstruct_rot",
    "barrier_height_check",
    "cross_check_gap",
    "save_profile",
]


class RotGrid:
    """1-D cell-centered grid on [0, theta] plus the rim node."""

    def __init__(self, n_cells: int, theta: float):
        if n_cells < 8:
            raise ValueError(f"need at least 8 cells, got {n_cells}")
        if not (0.0 < theta < math.pi / 2):
            raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
        self.n_cells = int(n_cells)
        self.theta = float(theta)
        self.dbeta = self.theta / self.n_cells
        self.beta_cells = (np.arange(self.n_cells) + 0.5) * self.dbeta
        self.beta_all = np.concatenate([self.beta_cells, [self.theta]])
        self.cot_cells = np.cos(self.beta_cells) / np.sin(self.beta_cells)
        self._ops = None

    def ops(self):
        """The operators on the profile (cells plus rim), built once per grid
        in O(n) from (m, 4) bands (`fields.stencil_band`).

        d1, d2: d/dbeta, d2/dbeta2 on the cells; dbd: the rim derivative
        row; each a `fields.BandMatrix`, applied to the profile by its band
        kernel (`@`), as the 2-D grid applies its own.  The mirror closure
        s(-beta) = s(beta) (rotational symmetry plus the across-pole chart
        identity) feeds the first ring's central stencils: its weight on
        ring -1 is added onto ring 0 (`fields.fold_pole`).  jac: the
        Jacobian's four terms as (n + 1, 4) bands over every row, cells then
        the rim, row r weighing rings r-2..r+1: lam_r = d2 + I and
        lam_t = diag(cot) d1 + I, the linearizations of s'' + s and
        s' cot(beta) + s, and pcells, the cell values, on the cells' rows,
        and robin, the Robin row dbd - cot(theta) e_rim, on the rim's;
        `_linearize` combines them.
        """
        if self._ops is not None:
            return self._ops
        n, db, ntot = self.n_cells, self.dbeta, self.n_cells + 1

        d1 = fold_pole(stencil_band(n, {-1: -0.5 / db, 1: 0.5 / db},
                                    fd_weights([-db, 0.0, 0.5 * db], 1)))
        d2 = fold_pole(stencil_band(n, {-1: 1.0 / db**2, 0: -2.0 / db**2, 1: 1.0 / db**2},
                                    fd_weights([-2.0 * db, -db, 0.0, 0.5 * db], 2)))
        dbd = stencil_band(1, {}, fd_weights([-1.5 * db, -0.5 * db, 0.0], 1))
        # column c is ring c, so row r of a band holds columns r - 2 .. r + 1,
        # and the rim's row is row n
        ops = {"d1": BandMatrix(d1, -2), "d2": BandMatrix(d2, -2), "dbd": BandMatrix(dbd, n - 2)}
        rows, eye = np.zeros((4, ntot, 4)), np.array([0.0, 0.0, 1.0, 0.0])
        rows[0, :n] = d2 + eye
        rows[1, :n] = self.cot_cells[:, None] * d1 + eye
        rows[2, :n] = eye
        rows[3, n] = dbd[0] - math.cos(self.theta) / math.sin(self.theta) * eye
        ops["jac"] = dict(zip(("lam_r", "lam_t", "pcells", "robin"), rows))
        self._ops = ops
        return ops


@dataclass(eq=False)
class RotProfile:
    """Radial profile s(beta); its eigenvalues lam_r, lam_t are computed once, at build."""

    grid: RotGrid
    s: np.ndarray
    lam_r: np.ndarray = field(init=False, repr=False)
    lam_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.s.shape != (self.grid.n_cells + 1,):
            raise ValueError(f"profile shape {self.s.shape} != {(self.grid.n_cells + 1,)}")
        ops, cells = self.grid.ops(), self.s[: self.grid.n_cells]
        self.lam_r = ops["d2"] @ self.s + cells
        self.lam_t = (ops["d1"] @ self.s) * self.grid.cot_cells + cells

    def s_rim(self) -> float:
        return float(self.s[-1])

    def ds_rim(self) -> float:
        return float((self.grid.ops()["dbd"] @ self.s)[0])

    def robin_residual(self) -> float:
        ct = math.cos(self.grid.theta) / math.sin(self.grid.theta)
        return self.ds_rim() - ct * self.s_rim()


def sigma_rot(lam_r, lam_t, n: int, j: int):
    """sigma_j of the spectrum (lam_r once, lam_t with multiplicity n-1)."""
    if j == 0:
        return np.ones_like(np.asarray(lam_t, dtype=float))
    lead = math.comb(n - 1, j) * np.asarray(lam_t, dtype=float) ** j
    mixed = math.comb(n - 1, j - 1) * np.asarray(lam_r, dtype=float)
    if j >= 2:
        mixed = mixed * np.asarray(lam_t, dtype=float) ** (j - 1)
    return lead + mixed


def rotsym_sigma_k(profile: RotProfile, params: CapParams) -> np.ndarray:
    """sigma_k(tau_sharp[s]) along the profile's cell rings."""
    return sigma_rot(profile.lam_r, profile.lam_t, params.n, params.k)


def _sigma_rot_partials(lam_r, lam_t, n: int, k: int):
    """(d sigma_k / d lam_r, d sigma_k / d lam_t) for the two-eigenvalue structure."""
    dr = math.comb(n - 1, k - 1) * (lam_t ** (k - 1) if k >= 2 else np.ones_like(lam_t))
    dt = k * math.comb(n - 1, k) * lam_t ** (k - 1)
    if k >= 2:
        dt = dt + (k - 1) * math.comb(n - 1, k - 1) * lam_r * lam_t ** (k - 2)
    return dr, dt


def _residual(profile: RotProfile, q: float, rhs_cells: np.ndarray, params: CapParams):
    """(F_int on the cells, the Robin residual, their relative size r)."""
    sk = rotsym_sigma_k(profile, params)
    load = profile.s[: profile.grid.n_cells] ** (q - 1.0) * rhs_cells
    fint, gbd = sk - load, profile.robin_residual()
    return fint, gbd, relative_size(fint, gbd, sk, load, profile.s)


def _linearize(profile: RotProfile, q: float, rhs_cells: np.ndarray, params: CapParams):
    """The Jacobian of the residual pair as (n + 1, 4) band rows, row r
    weighing unknowns r-2..r+1 (`fields.band_lu`), combined from the grid's
    term bands (`RotGrid.ops()["jac"]`)."""
    g, jac = profile.grid, profile.grid.ops()["jac"]
    dr, dt = _sigma_rot_partials(profile.lam_r, profile.lam_t, params.n, params.k)
    rows = np.append(dr, 0.0)[:, None] * jac["lam_r"] + np.append(dt, 0.0)[:, None] * jac["lam_t"]
    if q != 1.0:
        zer = (q - 1.0) * profile.s[: g.n_cells] ** (q - 2.0) * rhs_cells
        rows -= np.append(zer, 0.0)[:, None] * jac["pcells"]
    return rows + jac["robin"]


def solve_rotsym(phi, params: CapParams, sched: Schedule | None = None, n_cells: int = 512):
    """Solve of the 1-D reduction; the oracle for rotsym data.

    phi : callable phi(beta) > 0, evaluated on the n_cells cell centres and the rim.
    The solve is `solver.newton_first`, as on the 2-D path's coarsest grid:
    one corrector at t = 1 from the mean-scaled model profile, and only if it
    fails the continuation from C(n,k)^{-1/k} ell.  The report's relative
    residual is the last corrector's r.
    Returns (RotProfile, SolveReport); same stall semantics as solve_path.
    """
    sched = sched or Schedule()
    grid = RotGrid(n_cells, params.theta)
    phi_vals = np.asarray(phi(grid.beta_all), dtype=float)
    if not (np.all(np.isfinite(phi_vals)) and np.min(phi_vals) > 0.0):
        raise ValueError("phi must be finite and strictly positive")
    phi_cells = phi_vals[: grid.n_cells]

    def newton_fn(x, q, rhs_cells):
        def point(x):
            prof = RotProfile(grid, x)

            def factor():
                solve = band_lu(_linearize(prof, q, rhs_cells, params))
                return lambda fint, gbd: solve(-np.append(fint, gbd))

            lam1 = float(min(np.min(prof.lam_r), np.min(prof.lam_t)))
            return (lam1, *_residual(prof, q, rhs_cells, params), factor)

        return _damped_newton(x, point, sched)

    def rhs_fn(t):
        return homotopy_values(t, phi_cells, params)

    x, report = newton_first(newton_fn, rhs_fn, phi_vals, ell(params.theta, grid.beta_all),
                             params, sched, grid=str(grid.n_cells))
    return RotProfile(grid, x), report


# -- geometric audits -------------------------------------------------------------


def reconstruct_rot(profile: RotProfile):
    """(radius rho(beta), height X3(beta)) of the body, cells plus rim."""
    g = profile.grid
    ops = g.ops()
    ds_cells = ops["d1"] @ profile.s
    b = g.beta_cells
    rho = profile.s[: g.n_cells] * np.sin(b) + ds_cells * np.cos(b)
    x3 = profile.s[: g.n_cells] * np.cos(b) - ds_cells * np.sin(b)
    st, ct = math.sin(g.theta), math.cos(g.theta)
    rho_rim = profile.s_rim() * st + profile.ds_rim() * ct
    x3_rim = profile.s_rim() * ct - profile.ds_rim() * st
    return np.append(rho, rho_rim), np.append(x3, x3_rim)


def barrier_height_check(profile: RotProfile, params: CapParams) -> dict:
    """Audit H >= (Lambda^{1/n}/2) r_in^2 with Lambda = min det D^2 f.

    det D^2 f = sec^{n+2}(beta) / sigma_n(tau_sharp[s]) from the graph
    curvature relation K = det D^2 f / (1+|Df|^2)^{(n+2)/2} with |Df| = tan(beta)
    and K = 1/sigma_n of the curvature radii.
    """
    n = params.n
    rho, x3 = reconstruct_rot(profile)
    height = float(np.max(x3))
    r_in = float(rho[-1])
    b = profile.grid.beta_cells
    sigma_n = sigma_rot(profile.lam_r, profile.lam_t, n, n)
    det_d2f = (1.0 / np.cos(b)) ** (n + 2) / sigma_n
    lam = float(np.min(det_d2f))
    rhs = 0.5 * lam ** (1.0 / n) * r_in**2
    return {
        "name": "barrier_height",
        "statement": "H >= (Lambda^{1/n}/2) r_in^2, Lambda = min det D^2 f",
        "lhs": height,
        "rhs": rhs,
        "margin": height - rhs,
        "pass": bool(height >= rhs),
    }


def cross_check_gap(profile: RotProfile, field2d) -> float:
    """Max-norm gap between a 2-D solution and the 1-D oracle.

    Every node of the 2-D field is compared with the (typically much finer)
    profile, linearly interpolated to the node's beta, so a field that is
    not rotationally symmetric is as far from the oracle as its farthest
    node.
    """
    interp = np.interp(field2d.grid.beta_all, profile.grid.beta_all, profile.s)
    return float(np.max(np.abs(field2d.values - interp[:, None])))


def save_profile(profile: RotProfile, params: CapParams, path):
    """Profile CSV (beta, s, lam_r, lam_t, sigma_k); rim row extrapolated."""
    g = profile.grid
    cols = [profile.lam_r, profile.lam_t, rotsym_sigma_k(profile, params)]
    wv = fd_weights([-2.5 * g.dbeta, -1.5 * g.dbeta, -0.5 * g.dbeta], 0)
    cols = [np.append(c, float(wv @ c[-3:])) for c in cols]
    write_csv(path, ["beta,s,lam_r,lam_t,sigma_k"], np.column_stack([g.beta_all, profile.s] + cols))
