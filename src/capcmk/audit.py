"""Geometric verification: body reconstruction, capillary mixed volumes,
parallel bodies, and the a priori estimate audit.

The body behind a strictly convex capillary support function s is recovered by
the inverse Gauss map

    X(beta, phi) = s u + (d_beta s) e_beta + (d_phi s / sin beta) e_phi

with u the unit normal and {e_beta, e_phi} the orthonormal chart frame.  The
Robin condition is equivalent to the rim lying in the plane {x_3 = 0}, so rim
planarity is a free consistency check on every reconstruction.

Volumes come from the divergence theorem with the vector field x_3 e_3 over
the closed surface (cap surface plus bottom disk): the disk sits in {x_3 = 0}
and contributes no flux, so

    vol = integral of X_3 cos(beta) sigma_n(tau_sharp[s]) dH

with sigma_n dH the surface area element in the Gauss-map parametrization.

Every audit is read-only and returns a plain record {name, statement, lhs,
rhs, margin, pass} (or a small dict of such), never an exception, except for
reconstruction itself which refuses non-convex input.

The audits of one field s take `tau`, tau_sharp(s), and `pts`,
surface_points(s), evaluated once by the caller for the whole battery;
only the exported `steiner_sigma_check` and `estimates_audit` evaluate
them when they are not given.  No parallel body s + rho ell is evaluated:
tau and x3 are linear in s, so the Steiner volume check adds rho times
ell's to s's.

A field with a bitwise period (`fields.repeat_unit`) is evaluated on it,
with every bit as at full width: its surface points on the first column
where every ring is constant (a rotationally symmetric solution) or on the
first half of an even field; normals and slopes on the first half either
way.  The tau of a ring-constant field is (Nbeta, 1) columns, which the
integrands broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CapField, CapGrid, repeat_unit, tau_sharp, write_csv
from .geometry import CapParams, ell, ell_field
from .symfunc import SymEndo, polarize_qk, sigma_k

__all__ = [
    "BodyGeometry",
    "reconstruct",
    "surface_points",
    "volume",
    "mixed_volume",
    "mixed_volume_repeated",
    "af_inequality_check",
    "steiner_sigma_check",
    "steiner_coefficients",
    "steiner_volume_check",
    "estimates_audit",
    "save_embedding",
]


def surface_points(s: CapField) -> np.ndarray:
    """Embedding points X per node, shape (Nbeta + 1, Nphi, 3).

    The phi tables hold cos and sin of the first half-turn, then their
    negations.  A field whose halves are equal bit for bit is evaluated on
    the first half: each half of the points is then the one formula on that
    half's tables, the full width's operations on the same operands, so
    every bit is the full evaluation's.  The points at phi + pi are
    (-x1, -x2, x3) of the points at phi, except that an x1 or x2 that
    cancels to zero is +0.0 in both halves; `save_embedding` formats each
    exactly turned ring once per half.  A field whose every ring is constant
    is evaluated on one column, whose a, b, azim and x3 the half tables
    broadcast over (x3 is then constant on each ring), with the same bits
    again.
    """
    g = s.grid
    unit = repeat_unit(s.values)
    w = s.values if unit is None else unit
    x = g.extend(w)
    beta = g.beta_all[:, None]
    sb, sinb, cosb = g.apply("dbeta", x), np.sin(beta), np.cos(beta)
    h = g.nphi // 2
    n = g.nphi if w.shape[1] == g.nphi else h
    c, sn = np.cos(g.phi[:h]), np.sin(g.phi[:h])
    c, sn = np.concatenate([c, -c]), np.concatenate([sn, -sn])
    a, b, azim = w * sinb, sb * cosb, g.apply("dphi", x) / sinb
    x3 = w * cosb - sb * sinb
    pts = np.empty((g.nbeta + 1, g.nphi, 3))
    for j in range(0, g.nphi, n):
        cj, sj = c[j:j + n], sn[j:j + n]
        pts[:, j:j + n, 0] = a * cj + b * cj - azim * sj
        pts[:, j:j + n, 1] = a * sj + b * sj + azim * cj
        pts[:, j:j + n, 2] = x3
    return pts


@dataclass
class BodyGeometry:
    """Scalar summaries of a reconstructed capillary body."""

    height: float
    r_in: float
    rim_planarity: float
    slope_max: float


def reconstruct(s: CapField, tau, pts) -> BodyGeometry:
    """Reconstruct the body behind s and summarize it; refuses non-convex input.

    Slopes are measured on the reconstructed surface itself: the discrete
    normal cross(d_beta X, d_phi X) has slope |N'|/N_3, which for an exact
    convex reconstruction equals tan(beta) at the node's normal.  tau and
    pts are tau_sharp(s) and surface_points(s).  On a field whose halves
    are equal bit for bit, normals and slopes are taken on the first half of
    the nodes, with every summary's bits as at full width; a field whose
    every ring is constant keeps that half, since x1 and x2 vary with phi.
    """
    if tau.lam1min <= 0.0:
        raise ValueError(
            f"reconstruction needs a strictly convex field; lam1min = {tau.lam1min:.6e}"
        )
    g = s.grid
    # each summary is a max or min of a quantity the half-turn leaves
    # unchanged; the first half's end columns read neighbours in the second
    n = g.nphi if repeat_unit(s.values) is None else g.nphi // 2
    j = np.arange(n)
    dxb = np.gradient(pts[:, :n], g.beta_all, axis=0)
    dxp = (pts[:, (j + 1) % g.nphi] - pts[:, j - 1]) / (2.0 * g.dphi)
    nrm = np.cross(dxb, dxp)
    horiz = np.hypot(nrm[..., 0], nrm[..., 1])
    slopes = np.divide(
        horiz, nrm[..., 2], out=np.full(horiz.shape, np.inf), where=nrm[..., 2] > 0.0
    )
    pts = pts[:, :n]
    rim = pts[-1]
    radii = np.hypot(rim[:, 0], rim[:, 1])
    return BodyGeometry(
        height=float(np.max(pts[..., 2])),
        r_in=float(np.min(radii)),
        rim_planarity=float(np.max(np.abs(rim[:, 2]))),
        slope_max=float(np.max(slopes)),
    )


def volume(grid: CapGrid, x3, tau) -> float:
    """Divergence-theorem volume of a reconstructed body (n = 2) from its
    points' x3 and its tau_sharp, on the grid's rings and the rim: full
    width, or (Nbeta, 1) columns that the integrand broadcasts."""
    cosb = np.cos(grid.beta_cells)[:, None]
    return grid.integrate(x3[: grid.nbeta] * cosb * sigma_k(tau, 2))


# -- mixed volumes ----------------------------------------------------------------


def mixed_volume(fields, params: CapParams) -> float:
    """V(s_0, ..., s_k, ell, ..., ell): weight s_0 against the polarized sigma_k.

    fields supplies the k+1 capillary arguments; the n-k remaining slots are
    the model cap, whose endomorphism is the identity, and the identity fill
    is what the Q_k normalization 1/C(n,k) encodes.
    """
    fields = list(fields)
    if len(fields) != params.k + 1:
        raise ValueError(f"mixed_volume needs k+1 = {params.k + 1} fields, got {len(fields)}")
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("mixed_volume: grid mismatch between arguments")
    mats = [tau_sharp(f) for f in fields[1:]]
    qk = polarize_qk(mats, params.n)
    return g.integrate(fields[0].interior * qk) / (params.n + 1.0)


def mixed_volume_repeated(s0: CapField, s: CapField, params: CapParams) -> float:
    """Repeated-argument mixed volume, direct form (1/(n+1)) int s_0 sigma_k / C(n,k)."""
    if s.grid != s0.grid:
        raise ValueError("mixed_volume_repeated: grid mismatch")
    sk = sigma_k(tau_sharp(s), params.k)
    return s.grid.integrate(s0.interior * sk) / ((params.n + 1.0) * params.cnk)


def af_inequality_check(s1: CapField, s2: CapField, params: CapParams) -> dict:
    """Quadratic mixed-volume inequality for the pair, trailing slots at s1.

    B(f, g) = V(f, g, s1, ..., s1) and the inequality is
    B(s1, s2)^2 >= B(s1, s1) B(s2, s2), with equality iff s2 is a multiple
    of s1.  Returns the three values and the signed relative margin.
    """
    base = [s1] * (params.k - 1)
    b12 = mixed_volume([s1, s2] + base, params)
    b11 = mixed_volume([s1, s1] + base, params)
    b22 = mixed_volume([s2, s2] + base, params)
    margin = b12**2 - b11 * b22
    scale = max(1.0, b12**2, abs(b11 * b22))
    return {
        "name": "af_inequality",
        "statement": "V(s1,s2,...)^2 >= V(s1,s1,...) V(s2,s2,...)",
        "b12": b12,
        "b11": b11,
        "b22": b22,
        "margin": margin,
        "rel_margin": margin / scale,
        "pass": bool(margin / scale >= -1e-8),
    }


# -- Steiner identities -----------------------------------------------------------


def steiner_sigma_check(s: CapField, t: float, params: CapParams, tau=None) -> dict:
    """Exact binomial expansion of sigma_k under the parallel shift.

    Adding t ell shifts tau_sharp by t times the identity, and

        sigma_k(A + t id) = sum_j C(n-j, k-j) t^{k-j} sigma_j(A)

    is a polynomial identity, so the two sides agree to roundoff; the shift is
    applied in exact endomorphism algebra rather than through the discrete
    tau of s + t ell, which would reintroduce the O(h^2) stencil error.
    Both sides are elementwise in tau and reported by their maxima, so a
    ring-constant field's tau, (Nbeta, 1) columns, is checked on them.
    """
    k, n = params.k, params.n
    a = tau_sharp(s) if tau is None else tau
    lhs = sigma_k(a + float(t) * SymEndo.identity(a.shape), k)
    rhs = np.zeros(a.shape)
    for j in range(k + 1):
        rhs = rhs + math.comb(n - j, k - j) * float(t) ** (k - j) * sigma_k(a, j)
    gap = float(np.max(np.abs(lhs - rhs)))
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return {
        "name": "steiner_sigma",
        "statement": "sigma_k(tau + t id) = sum_j C(n-j,k-j) t^{k-j} sigma_j(tau)",
        "t": float(t),
        "lhs": float(np.max(np.abs(lhs))),
        "rhs": float(np.max(np.abs(rhs))),
        "margin": gap / scale,
        "pass": bool(gap / scale <= 1e-9),
    }


def steiner_coefficients(s: CapField, params: CapParams, tau) -> np.ndarray:
    """Coefficients c_j with slab volume = sum_j c_j rho^{n+1-j}, j = 0..n.

    c_j = (1/(n+1-j)) int ell sigma_j(tau_sharp[s]) dH: the curvature-measure
    form of the slab volume after the change of variables to the cap, where
    the weight (1 - cos(theta) <nu, e_3>) becomes ell; tau is tau_sharp(s).
    """
    g = s.grid
    n = params.n
    lc = ell(g.theta, g.beta_cells)[:, None]
    return np.array(
        [g.integrate(lc * sigma_k(tau, j)) / (n + 1.0 - j) for j in range(n + 1)]
    )


# steiner_volume_check passes when the two sides agree to this relative gap
STEINER_TOL = 5e-3


def steiner_volume_check(s: CapField, rhos, params: CapParams, tau, pts) -> list:
    """Parallel-slab volume two ways: divergence theorem vs curvature measures.

    One record per rho in rhos.  Left side: vol(body of s + rho ell) -
    vol(body of s).  Right side: the rho-polynomial with the
    steiner_coefficients.  tau and pts are tau_sharp(s) and
    surface_points(s).  Both sides are second-order quadratures of the same
    smooth quantity, so they agree to the combined discretization error, not
    to roundoff, which STEINER_TOL allows for.

    The discrete tau and x3 are linear in s: the left side takes tau +
    rho tau_sharp(ell) and x3 + rho x3(ell), ell's evaluated once on its
    one column (and s's x3 on its tau's columns), so no stencil amplifies
    the rounding of s + rho ell at the pole.  tau_sharp(ell) is the identity
    only to O(h^2), and both sides must be quadratures of one discrete body.
    """
    if params.n != 2:
        raise ValueError("volume audits are n = 2 only")
    g, x3 = s.grid, pts[:, : tau.shape[1], 2]
    base, coeff = volume(g, x3, tau), steiner_coefficients(s, params, tau)
    model = ell_field(g)
    w, beta = model.values[:, :1], g.beta_all[:, None]
    model_x3 = w * np.cos(beta) - g.apply("dbeta", g.extend(w)) * np.sin(beta)
    model_tau = tau_sharp(model)
    records = []
    for rho in rhos:
        lhs = volume(g, x3 + rho * model_x3, tau + rho * model_tau) - base
        rhs = float(sum(c * rho ** (params.n + 1 - j) for j, c in enumerate(coeff)))
        gap = abs(lhs - rhs)
        scale = max(1.0, abs(lhs), abs(rhs))
        records.append({
            "name": "steiner_volume",
            "statement": "vol(slab to s + rho ell) = sum_j rho^{n+1-j}/(n+1-j) int ell sigma_j",
            "rho": float(rho),
            "lhs": lhs,
            "rhs": rhs,
            "margin": gap / scale,
            "pass": bool(gap / scale <= STEINER_TOL),
        })
    return records


# -- estimate audit -----------------------------------------------------------------


# discretization slack on the slope bound tan(theta)
SLOPE_SLACK = 0.02

# the statements of estimates_audit's items, in audit order
_STATEMENTS = {
    "max_lower_bound": "max s >= (phi0/C(n,k))^{1/(k+1-p)} (1-cos theta)^{k/(k+1-p)}",
    "strict_convexity": "lam1(tau_sharp[s]) > 0",
    "slope_bound": "max |Df| <= tan(theta) + slack",
    "height_positive": "H > 0",
    "support_height_bound": "s >= cos(theta) H (even bodies)",
    "inradius_height": "r_in >= H / tan(theta)",
    "rim_planarity": "max |X_3| on the rim <= O(h^2) (Robin <=> planar rim)",
    "sigma1_observed": "max sigma_1 (reported; no explicit comparison constant)",
}


def estimates_audit(s: CapField, phi: CapField, params: CapParams, tau=None, pts=None) -> dict:
    """Audit the solution-independent bounds on a (claimed) solution field.

    Items: (a) lower bound on max s from min phi; (b) slope bound tan(theta)
    plus the discretization slack SLOPE_SLACK; (c) positive height and the
    even-body support bound s >= cos(theta) H; (d) strict convexity;
    (e) observed max sigma_1, report-only (the comparison constant is not
    explicit); (f) base inradius >= H / tan(theta).

    Non-convex input is flagged, not raised: geometry-dependent items fail
    with empty values.  tau and pts, if given, are tau_sharp(s) and
    surface_points(s); pts is evaluated only for convex input.
    """
    k, p = params.k, params.p
    if tau is None:
        tau = tau_sharp(s)
    items = []

    def item(name, lhs, rhs, margin, ok, note=""):
        items.append({"name": name, "statement": _STATEMENTS[name] + note, "lhs": lhs,
                      "rhs": rhs, "margin": margin, "pass": ok})

    phi0 = float(np.min(phi.values))
    # near p = k + 1 a factor can leave the float range (inf * 0 = nan) where
    # the whole bound does not; the power of the product then gives it, and a
    # bound that is itself beyond the range is inf, which fails the item and
    # is written as null
    with np.errstate(over="ignore", invalid="ignore"):
        base, cap = np.float64(phi0 / params.cnk), np.float64(1.0 - math.cos(params.theta))
        bound = float(base ** (1.0 / (k + 1.0 - p)) * cap ** (k / (k + 1.0 - p)))
        if not math.isfinite(bound):
            bound = float((base * cap**k) ** (1.0 / (k + 1.0 - p)))
    smax = float(np.max(s.values))
    item("max_lower_bound", smax, bound, smax - bound, bool(smax - bound > 0.0))

    convex = tau.lam1min > 0.0
    item("strict_convexity", tau.lam1min, 0.0, tau.lam1min, bool(convex))

    tan_t = math.tan(params.theta)
    if convex:
        geom = reconstruct(s, tau, surface_points(s) if pts is None else pts)
        rhs = tan_t + SLOPE_SLACK
        item("slope_bound", geom.slope_max, rhs, rhs - geom.slope_max,
             bool(geom.slope_max <= rhs))
        item("height_positive", geom.height, 0.0, geom.height, bool(geom.height > 0.0))
        smin = float(np.min(s.values))
        rhs = math.cos(params.theta) * geom.height
        item("support_height_bound", smin, rhs, smin - rhs, bool(smin >= rhs))
        rhs = geom.height / tan_t
        item("inradius_height", geom.r_in, rhs, geom.r_in - rhs, bool(geom.r_in >= rhs))
        g = s.grid
        rhs = 10.0 * (g.dbeta**2 + (math.sin(params.theta) * g.dphi) ** 2) * max(1.0, smax)
        item("rim_planarity", geom.rim_planarity, rhs, rhs - geom.rim_planarity,
             bool(geom.rim_planarity <= rhs))
    else:
        for name in ("slope_bound", "height_positive", "support_height_bound",
                     "inradius_height", "rim_planarity"):
            item(name, None, None, None, False, " (skipped: not convex)")

    item("sigma1_observed", float(np.max(sigma_k(tau, 1))), None, None, None)

    gated = [it["pass"] for it in items if it["pass"] is not None]
    return {"items": items, "all_passed": bool(all(gated))}


def save_embedding(s: CapField, path, pts):
    """Point-cloud CSV (beta, phi, X1, X2, X3), row-major over the node grid;
    pts is surface_points(s)."""
    g = s.grid
    write_csv(path, ["beta,phi,x1,x2,x3"], pts.reshape(-1, 3), lead=(g.beta_all, g.phi))
