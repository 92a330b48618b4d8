import math

import numpy as np
import pytest
import scipy.sparse as sp

from capcmk import CapField, CapGrid, CapParams, ell, ell_field, solve_path, solver
from capcmk.fields import tau_sharp
from capcmk.symfunc import sigma_k_grad

THETA = math.pi / 3


def manufactured_phi(grid, params, r):
    """Data whose exact solution is r times the model function."""
    lv = ell(params.theta, grid.beta_all)[:, None]
    vals = params.cnk * r ** (params.k + 1.0 - params.p) * lv ** (1.0 - params.p)
    return CapField(grid, np.broadcast_to(vals, (grid.nbeta + 1, grid.nphi)).copy(), even=True)


def manufactured_reference(grid, params, r):
    lv = ell(params.theta, grid.beta_all)[:, None]
    return CapField(grid, np.broadcast_to(r * lv, (grid.nbeta + 1, grid.nphi)).copy(), even=True)


def plain_continuation(phi, params, sched, s0=None):
    """The continuation alone on phi's grid, from s0 or C(n,k)^(-1/k) ell:
    `solver.run_continuation` with `newton_solve` as its corrector, the
    reference for solve_path's fallback and for its path from a given s0.
    Like solve_path, it solves for the even projection of phi."""
    phi = phi.project_even()
    if s0 is None:
        s0 = params.cnk ** (-1.0 / params.k) * ell_field(phi.grid)
    return solver.run_continuation(
        lambda s, q, rhs: solver.newton_solve(s, q, rhs, params, sched),
        lambda t: solver.homotopy_rhs(t, phi, params), s0, sched,
        grid=f"{phi.grid.nbeta}x{phi.grid.nphi}")


def spy_points(monkeypatch, module, evaluator):
    """Wrap `module._damped_newton` so that its point callback records, for
    every Newton point, the calls of `module.<evaluator>` (the layer's field
    evaluation) made while the point is evaluated and, if the corrector
    factorizes there, while its Jacobian is factorized.  Returns the lists
    (points, per_point, per_factor): the bytes of each evaluated point,
    grouped by corrector run, and the two call counts."""
    calls, points, per_point, per_factor = [0], [], [], []
    original, newton = getattr(module, evaluator), module._damped_newton

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    def counted(fn):
        before = calls[0]
        out = fn()
        return out, calls[0] - before

    def spying(x, point, sched):
        run = []
        points.append(run)

        def spied(x):
            run.append(x.tobytes())
            (lam1, fint, gbd, rel, factor), n = counted(lambda: point(x))
            per_point.append(n)

            def spied_factor():
                apply, n = counted(factor)
                per_factor.append(n)
                return apply

            return lam1, fint, gbd, rel, spied_factor

        return newton(x, spied, sched)

    monkeypatch.setattr(module, evaluator, counting)
    monkeypatch.setattr(module, "_damped_newton", spying)
    return points, per_point, per_factor


# -0.0, subnormals, infinities and NaNs of both signs
SPECIALS = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
                     np.inf, -np.inf, np.nan, -np.nan])


def special_values(rng, shape):
    """Standard normal values, about one in ten of them replaced by one of
    `SPECIALS`."""
    v = rng.standard_normal(shape)
    at = rng.random(shape) < 0.1
    v[at] = rng.choice(SPECIALS, size=int(at.sum()))
    return v


def same_bits(a, b):
    """Whether two float64 arrays have one shape and the same bits."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def band_csr(band, first, ncols):
    """The band's nonzeros, row by row, as an (m, ncols) CSR matrix; row r of
    the (m, 4) band holds columns first + r .. first + r + 3, in that order:
    the scipy layout of a `fields.BandMatrix`, built independently of its
    kernel."""
    m = band.shape[0]
    cols = np.arange(first, first + m, dtype=np.int32)[:, None] + np.arange(4, dtype=np.int32)
    keep = band != 0
    indptr = np.zeros(m + 1, np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix((band[keep], cols[keep], indptr), shape=(m, ncols))


def beta_csr(grid, bmat):
    """A beta-matrix of `grid.ops()` as the CSR of its band over the columns
    of rings -1..Nbeta (column c is ring c - 1); a one-row band is the rim
    ring's, and reads from ring Nbeta - 2."""
    return band_csr(bmat.band, (grid.nbeta if len(bmat.band) == 1 else 0) - 1, grid.nbeta + 2)


def csr(grid, name):
    """Operator `name` of `grid.ops()` as a sparse matrix on the full value
    vector (row-major over (Nbeta+1) x Nphi nodes), one row per node of the
    beta-matrices' rings; laid out by Kronecker products, independently of
    `CapGrid.apply`.  A term with beta-matrix B and phi-stencil
    Phi = sum_o w_o S^o, S the periodic one-column shift, is
    kron(B[:, 1:], Phi) + kron([B[:, :1] | 0], Phi T): column 0 of B is
    ring -1, which is ring 0 turned by T, the shift by Nphi/2."""
    n = grid.nphi
    eye = sp.identity(n, format="csr")

    def shift(o):
        return eye[(np.arange(n) + o) % n]

    out = 0
    for term, weights in grid.ops()[name]:
        bmat = beta_csr(grid, term)
        phi = sum(w * shift(o) for o, w in weights.items())
        ring0 = sp.hstack([bmat[:, :1], sp.csr_matrix((bmat.shape[0], grid.nbeta))])
        out = out + sp.kron(bmat[:, 1:], phi) + sp.kron(ring0, phi @ shift(n // 2))
    return out.tocsr()


def band_matrix(rows):
    """The square CSR matrix whose row r weighs unknowns r-2..r+1 with
    rows[r], the layout `fields.band_lu` factorizes, placed entry by entry;
    the weights that would fall outside the matrix must be zero."""
    n = rows.shape[0]
    r, t = np.divmod(np.arange(4 * n), 4)
    c = r - 2 + t
    inside = (c >= 0) & (c < n)
    assert not np.any(rows.ravel()[~inside])
    return sp.csr_matrix((rows.ravel()[inside], (r[inside], c[inside])), shape=(n, n))


def full_jacobian(s, q, rhs, params):
    """The assembled Jacobian [interior rows; Robin rows] of the residual
    pair on the full value vector: sigma_k^{ij}(tau_sharp[s]) (tau_sharp[v])_{ij}
    - (q-1) s^{q-2} rhs v over the `csr` layout, and the Robin rows; the
    reference for `solver.linearize`'s matrix-free action.  The gradient of
    a ring-constant s comes in (Nbeta, 1) columns, broadcast over the grid."""
    g = s.grid
    grad = sigma_k_grad(tau_sharp(s), params.k)

    def diag(c):
        return sp.diags(np.broadcast_to(c, (g.nbeta, g.nphi)).ravel())

    jint = (
        diag(grad.a11) @ csr(g, "a11")
        + diag(2.0 * grad.a12) @ csr(g, "a12")
        + diag(grad.a22) @ csr(g, "a22")
    )
    if q != 1.0:
        zer = (q - 1.0) * s.interior ** (q - 2.0) * rhs.interior
        jint = jint - sp.diags(zer.ravel()) @ csr(g, "pint")
    return sp.vstack([jint, csr(g, "robin")], format="csr")


@pytest.fixture(scope="session")
def params_k1():
    return CapParams(n=2, k=1, p=1.5, theta=THETA)


@pytest.fixture(scope="session")
def grid_16(params_k1):
    return CapGrid(16, 32, params_k1.theta)


@pytest.fixture(scope="session")
def grid_32(params_k1):
    return CapGrid(32, 64, params_k1.theta)


@pytest.fixture(scope="session")
def solved_32(params_k1, grid_32):
    """One converged non-symmetric solve shared by the audit tests."""
    g = grid_32
    bb, pp = np.meshgrid(g.beta_all, g.phi, indexing="ij")
    raw = 1.0 + 0.25 * (1.0 - np.cos(bb)) + 0.05 * np.cos(2 * pp) * np.sin(bb) ** 2
    phi = CapField(g, raw, even=False).project_even()
    s, report = solve_path(phi, params_k1)
    return s, report, phi
