"""Newton solver for sigma_k(tau_sharp[s]) = s^{q-1} phi_q, with homotopy continuation.

The path in t runs the data from the exactly solvable constant problem to the
target pair (p, phi):

    t <= 1/2 : q = 1,  H(t) = ((1-2t) + 2t phi^{-1/(p+k-1)})^{-k}
    t >= 1/2 : q(t) = 1 + (p-1)(2t-1),  H(t) = phi^{(q+k-1)/(p+k-1)}

so H(0) = 1, H(1) = phi, and both branches give phi^{k/(p+k-1)} at t = 1/2.
At t = 0 the solution is the scaled model function C(n,k)^{-1/k} ell (up to
the O(h^2) discrete correction that the first Newton solve supplies).

Newton systems pair the interior rows sigma_k^{ij}(tau v)_{ij} - (q-1)s^{q-2} rhs v
with the Robin rows d_beta v - cot(theta) v, and are solved restricted to the
even subspace: at q = 1 the odd horizontal-translation fields <a, zeta> are an
exact kernel of the pair (they are capillary and tau[<a, zeta>] = 0), so the
full-space matrix is singular by design and the even restriction is what makes
the problem well-posed, matching the even solution class.  The one matrix
newton_solve factorizes is `linearize_modal`: a real FFT over phi splits the
restriction, with every coefficient replaced by its ring mean, into Nphi/4 + 1
banded ring systems (`CapGrid.modal_blocks`), factorized as one
block-diagonal LU.  A step takes one of two forms.  Where the state and
the right side are ring-constant (every ring holds one value, bit for bit:
the bitwise period `fields.repeat_unit` is one column, as the fields layer
tests it), the restriction is circulant in phi and a ring-constant residual
excites mode 0 alone: the LU holds the one (Nbeta + 1)-square mode-0 block
and the step is one ring vector.  Every other LU holds every mode, and its
modal solve is refined by defect correction on the restriction's action
(`linearize`, evaluated by `tau_sharp` and `robin_residual`), summed by
numpy on one thread.  That action is the one Jacobian of the package:
jacobian_fd_error checks it, at full width, against central differences of
the residual.  Both layers factorize with one LU policy, LU_OPTIONS:
SuperLU's symmetric mode.

`_damped_newton` is the one damped-Newton corrector: `newton_solve` and the
1-D oracle in `rotsym` both run it, each with one callback that evaluates a
Newton point once (cone margin, residual, its relative size r, and the
sparse LU of its Jacobian on demand).  It is plain damped Newton: it
factorizes once at every iterate, and it stops on the residual (r <=
tol_solve) or, error-oriented, on the step (r <= STEP_RES and a Newton
correction of at most STEP_RTOL of the iterate, which it takes in full).

`newton_first` is the one driver of both layers: one corrector at t = 1 from
the mean-scaled model function `model_scale(phi) ell`, and only if that fails
the continuation from t = 0 (`run_continuation`), exactly as it runs alone.
The report's `method` says which one produced the solution.  Both drivers
take the layer's corrector as one callback, newton_fn(s, q, rhs), and
the homotopy data as rhs_fn(t); `solve_path` defines them once and runs the
continuation alone from a given s0.

`newton_solve` projects its start, and `solve_path` its phi, onto even fields;
that keeps every bit of a field whose halves are equal.

`solve_path` sequences grids: it halves Nbeta and Nphi, rounding down (Nphi
to an even number), while the coarser grid keeps COARSE_MIN_NBETA = 32 rings,
so any grid of 64 rings or more runs `newton_first` on one of 32-63 rings.
Each finer grid runs one Newton corrector at t = 1 from the fourth-order
interpolation of the coarser solution (an interpolated solution lies inside
the finer grid's quadratic convergence region, so one corrector replaces the
path).  The interpolation maps a ring that holds one value, bit for bit, to
that exact value, and a ring-constant state and right side have a
ring-constant mode-0 step, so a solve whose data are ring-constant stays
exactly ring-constant on every grid, and the fields layer evaluates, writes
and reads each of its rings as one value (`fields.repeat_unit`).  The report
names every step's grid.  Every failure to converge, of the continuation at
t = 0 or later or of a finer grid's corrector, leaves the solve as one
ContinuationStall carrying the partial report and the failure's message.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fields import CapField, CapGrid, repeat_unit, robin_residual, tau_sharp
from .geometry import CapParams, ell_field
from .symfunc import sigma_k, sigma_k_grad

__all__ = [
    "Schedule",
    "SolveReport",
    "ContinuationStall",
    "NewtonFailure",
    "phi_q",
    "homotopy_rhs",
    "residual",
    "linearize",
    "linearize_modal",
    "newton_solve",
    "solve_path",
    "structural_hypothesis_check",
    "jacobian_fd_error",
    "run_continuation",
    "newton_first",
]


@dataclass
class Schedule:
    """The Newton controls a run may set: the relative residual a corrector
    stops at (`relative_size`), the iteration budget of one corrector and
    the smallest continuation step.

    The rest of the continuation and line search is fixed by the module
    constants below.
    """

    dt_min: float = 1e-4
    newton_max: int = 30
    tol_solve: float = 1e-9


# The continuation starts at, and never exceeds, the step DT_MAX; it multiplies
# dt by SHRINK after a failed corrector and by GROW after one that took at most
# FAST_ITERS steps.  The line search halves alpha up to BACKTRACK_MAX times, and
# every accepted point keeps its cone margin lam1min above DELTA_CONE.  A
# corrector whose relative residual is at most STEP_RES also stops when its
# Newton correction is at most STEP_RTOL of the iterate (max norms), after
# taking it in full (Deuflhard's error-oriented stop, Newton Methods for
# Nonlinear Problems, 2004, ch. 2): below that the residual sits on its
# round-off floor, which grows with the grid.
DT_MAX = 0.25
GROW = 1.6
SHRINK = 0.5
FAST_ITERS = 5
BACKTRACK_MAX = 40
DELTA_CONE = 1e-10
STEP_RES = 1e-5
STEP_RTOL = 1e-8


@dataclass
class SolveReport:
    """Trace of one solve; everything needed to audit the path.

    method is "newton" (one corrector at t = 1) or "continuation";
    direct_failure is the failure of a direct attempt that the continuation
    replaced.  relative_residual is r (`relative_size`) at the returned
    solution, null on a stall.  stops names, per corrector, the test that
    stopped it: "residual" (r <= tol_solve) or "step" (the step test).
    """

    method: str = "continuation"
    direct_failure: str | None = None
    relative_residual: float | None = None
    t_steps: list = field(default_factory=list)
    grids: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    stops: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    robin_norms: list = field(default_factory=list)
    lam1min_trace: list = field(default_factory=list)
    smin_trace: list = field(default_factory=list)
    smax_trace: list = field(default_factory=list)
    converged: bool = False
    stalled_at: float | None = None
    failure: str | None = None
    structural: dict | None = None

    def record(self, t, info, grid):
        self.t_steps.append(float(t))
        self.grids.append(grid)
        self.newton_iters.append(int(info["iters"]))
        self.stops.append(info["stop"])
        self.relative_residual = float(info["rel"])
        self.residual_norms.append(float(info["res_norm"]))
        self.robin_norms.append(float(info["robin_norm"]))
        self.lam1min_trace.append(float(info["lam1min"]))
        self.smin_trace.append(float(info["smin"]))
        self.smax_trace.append(float(info["smax"]))

    def to_dict(self):
        """JSON payload; it holds no timing, so identical inputs produce
        bit-identical report files."""
        return asdict(self)


class NewtonFailure(RuntimeError):
    """The damped-Newton corrector did not converge (cone, line search or budget)."""


class ContinuationStall(RuntimeError):
    """The solve could not reach t = 1; carries the partial report.

    Raised when the corrector fails at t = 0, or on a finer grid at t = 1
    (in both cases dt is None), or when dt falls below dt_min; `failure` is
    the NewtonFailure.  The report is marked not converged, with
    stalled_at = t and failure = the NewtonFailure's message.
    """

    def __init__(self, t, dt, report, failure):
        self.t = t
        self.dt = dt
        self.report = report
        self.failure = failure
        report.converged = False
        report.relative_residual = None
        report.stalled_at = t
        report.failure = str(failure)
        why = "the corrector failed at this t" if dt is None else f"dt = {dt:.2e} < dt_min"
        super().__init__(
            f"continuation stalled at t = {t:.6f} ({why}): {failure}; "
            f"last lam1min = {report.lam1min_trace[-1] if report.lam1min_trace else None}"
        )


# -- homotopy data ---------------------------------------------------------------


def _phi_q_values(phi, q, params):
    e = (q + params.k - 1.0) / (params.p + params.k - 1.0)
    if np.min(phi) <= 0.0:
        raise ValueError("phi must be strictly positive")
    return phi.copy() if e == 1.0 else phi**e


def phi_q(phi: CapField, q: float, params: CapParams) -> CapField:
    """phi_q = phi^{(q+k-1)/(p+k-1)}; phi_1 = phi^{k/(p+k-1)}, phi_p = phi."""
    return CapField(phi.grid, _phi_q_values(phi.values, q, params))


def homotopy_values(t, phi, params):
    """Array-level homotopy data (q(t), H(t, .)) for any discretization."""
    p, k = params.p, params.k
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy parameter t must lie in [0, 1], got {t}")
    if np.min(phi) <= 0.0:
        raise ValueError("phi must be strictly positive")
    if t <= 0.5:
        base = (1.0 - 2.0 * t) + 2.0 * t * phi ** (-1.0 / (p + k - 1.0))
        return 1.0, base ** (-float(k))
    q = 1.0 + (p - 1.0) * (2.0 * t - 1.0)
    return q, _phi_q_values(phi, q, params)


def homotopy_rhs(t: float, phi: CapField, params: CapParams):
    """(q(t), H(t, .)); H(0) = 1 and H(1) = phi exactly, branches meet at 1/2."""
    q, vals = homotopy_values(t, phi.values, params)
    return q, CapField(phi.grid, vals)


# -- residual and linearization ----------------------------------------------------


def relative_size(fint, gbd, sk, load, s) -> float:
    """r = max(||F_int|| / max(||sigma_k||, ||s^(q-1) H||), ||F_rob|| / ||s||)
    in max norms, the residual pair in the units of the equation: the one
    measure that both layers' correctors stop on and report; load is
    s^(q-1) H on the interior."""
    def norm(a):
        return float(np.max(np.abs(a)))

    return max(norm(fint) / max(norm(sk), norm(load)), norm(gbd) / norm(s))


def residual(s: CapField, q: float, rhs: CapField, params: CapParams, tau=None):
    """Interior residual sigma_k(tau_sharp[s]) - s^{q-1} rhs, Robin residual
    and their relative size r (`relative_size`).

    tau, if given, is tau_sharp(s), already evaluated by the caller.
    """
    if tau is None:
        tau = tau_sharp(s)
    sk = sigma_k(tau, params.k)
    load = s.interior ** (q - 1.0) * rhs.interior
    fint, gbd = sk - load, robin_residual(s)
    return fint, gbd, relative_size(fint, gbd, sk, load, s.values)


def linearize(s: CapField, q: float, rhs: CapField, params: CapParams, tau):
    """x -> the Jacobian of the residual pair at s times the field v that x
    gives, applied without a matrix; tau is tau_sharp(s).

    The interior rows are g11 a11 + 2 g12 a12 + g22 a22 - z v, with
    (a11, a12, a22) = tau_sharp(v), g = sigma_k_grad(tau) and
    z = (q-1) s^{q-2} rhs, and the rim row is robin_residual(v): the exact
    derivative of the discrete map, evaluated by the operators that evaluate
    the residual.  The width comes from x.size: x holds Nphi values per ring,
    v itself, or Nphi/2, the first half of the even field v that it tiles
    over phi.  x and the result are row-major over (ring, column) on those
    columns, the interior rings first, then the rim.
    """
    g = s.grid
    nr = g.nbeta + 1
    grad = sigma_k_grad(tau, params.k)
    z = (q - 1.0) * s.interior ** (q - 2.0) * rhs.interior if q != 1.0 else 0.0

    def action(x):
        n = x.size // nr
        v = CapField(g, np.tile(x.reshape(nr, n), g.nphi // n))
        a = tau_sharp(v)
        jint = grad.a11 * a.a11 + 2.0 * grad.a12 * a.a12 + grad.a22 * a.a22 - z * v.interior
        return np.append(jint[:, :n], robin_residual(v)[:n])

    return action


def linearize_modal(s: CapField, q: float, rhs: CapField, params: CapParams, tau, mode0):
    """The Jacobian of `linearize` on even fields with every coefficient
    replaced by its ring mean, split by azimuthal Fourier mode: the one CSC
    matrix that newton_solve factorizes; tau is tau_sharp(s).  At a state
    that s and rhs make ring-constant it is that Jacobian to round-off;
    elsewhere its solve preconditions the defect correction.  With mode0,
    at such a state, it is the mode-0 block alone, whose ring means are the
    coefficients' first column.

    Rows and columns are (mode m = 0..Nphi/4, ring), one real block per
    mode, filled on the pattern of the grid's cached modal blocks
    (`CapGrid.modal_blocks`) as g11 D11 + g22 D22 - z DP + DR, each
    coefficient its ring mean over j < Nphi/2.  The mixed block is left out:
    g12 is round-off at a ring-constant state.
    """
    g = s.grid
    blocks = g.modal_blocks(mode0)
    grad = sigma_k_grad(tau, params.k)
    width = 1 if mode0 else g.nphi // 2

    def ring_mean(coef):
        """An interior-ring coefficient's ring means over its first `width`
        columns (a column is its own) on each entry's row ring; zero on the rim."""
        return np.append(np.mean(coef[:, :width], axis=1), 0.0)[blocks["ring"]]

    data = (ring_mean(grad.a11) * blocks["a11"] + ring_mean(grad.a22) * blocks["a22"]
            + blocks["robin"])
    if q != 1.0:
        z = (q - 1.0) * s.interior[:, :width] ** (q - 2.0) * rhs.interior[:, :width]
        data -= ring_mean(z) * blocks["pint"]
    return sp.csc_matrix((data, blocks["indices"], blocks["indptr"]), shape=blocks["shape"])


# The one sparse LU policy of both layers (newton_solve and rotsym's oracle):
# SuperLU's symmetric mode, which orders A + A^T by minimum degree and takes
# the diagonal pivot wherever it is nonzero.  Both Jacobians have a nearly
# symmetric sparsity (the 2-D one a 9-point stencil), so this fills less and
# factorizes faster than the default COLAMD ordering with partial pivoting.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}

# The defect correction stops at ||b - J x|| <= CORRECTION_RTOL ||b|| (2-norms),
# a fixed forcing term, or after CORRECTION_SWEEPS sweeps (the stress family
# needs at most 17); a step short of the stop is still judged by the line search
CORRECTION_RTOL = 1e-6
CORRECTION_SWEEPS = 60


def _ring_constant(values) -> bool:
    """Every row of values holds one value, bit for bit: `repeat_unit` is
    one column."""
    unit = repeat_unit(values)
    return unit is not None and unit.shape[1] == 1


def _factorize(s: CapField, q: float, rhs: CapField, params: CapParams, tau):
    """Factorizes the modal system (`linearize_modal`) at s and returns
    apply(fint, gbd), the Newton step at s on every node, in one of two forms.

    Where every ring of s and of rhs holds one value, bit for bit, so does
    the residual, and the step has mode 0 alone: the LU holds the mode-0
    block, and the step solves the residual's first column as one ring
    vector and repeats it over phi, with no FFT.  Every other LU holds every
    mode, and its step is the modal solve M^-1 (the real FFT over
    j < Nphi/2 of the even rows, a solve of its real and imaginary parts,
    the transform back) refined by defect correction on the even system's
    action J at s (`linearize` on half rows), by x += M^-1 (b - J x) until
    the stop above.  Its sums are numpy's, on one thread, so the step's bits
    do not depend on the BLAS thread count.  The step solves for the even
    unknowns and repeats them on j + Nphi/2.
    """
    g = s.grid
    h, nr = g.nphi // 2, g.nbeta + 1
    mode0 = _ring_constant(s.values) and _ring_constant(rhs.values)
    lu = splu(linearize_modal(s, q, rhs, params, tau, mode0), **LU_OPTIONS)
    if mode0:
        def ring_step(fint, gbd):
            x = lu.solve(-np.append(fint[:, 0], gbd[0]))
            return np.broadcast_to(x[:, None], (nr, g.nphi))

        return ring_step

    def modal_solve(b):
        bh = np.fft.rfft(b.reshape(nr, h), axis=1).T.ravel()
        xh = lu.solve(np.column_stack([bh.real, bh.imag]))
        xh = (xh[:, 0] + 1j * xh[:, 1]).reshape(-1, nr).T
        return np.fft.irfft(xh, n=h, axis=1).ravel()

    action = linearize(s, q, rhs, params, tau)

    def apply(fint, gbd):
        b = -np.append(fint[:, :h], gbd[:h])
        x = modal_solve(b)
        stop = CORRECTION_RTOL**2 * np.sum(b * b)
        for _ in range(CORRECTION_SWEEPS):
            r = b - action(x)
            if np.sum(r * r) <= stop:
                break
            x += modal_solve(r)
        return np.tile(x.reshape(nr, h), 2)

    return apply


# -- damped-Newton corrector -------------------------------------------------------


def _damped_newton(x, point, sched: Schedule):
    """The damped-Newton corrector shared by newton_solve and the 1-D oracle.

    x is the array of unknowns.  The discretization enters through one
    callback, which evaluates the point with values x once:
      point(x) -> (lam1min, fint, gbd, rel, factor): its cone margin, its
          interior and Robin residuals, their relative size r
          (`relative_size`), and factor() -> apply, which factorizes the
          Jacobian there; apply(fint, gbd) is the Newton step for that
          residual, shaped like x.
    Every iteration factorizes at its iterate.  A trial point is evaluated
    only if min x > 0; a step is accepted if lam1min > DELTA_CONE and the
    max-norm residual decreases by Armijo, halving alpha up to BACKTRACK_MAX
    times.  The corrector stops on the residual when r <= sched.tol_solve,
    also after the iteration budget, and on the step when r <= STEP_RES and
    the step is at most STEP_RTOL of x (max norms): it then takes the full
    step, with no line search, if the step stays positive and in the cone.
    info["iters"] counts the accepted steps and info["stop"] names the test.

    Returns (x, info); raises NewtonFailure, naming the cone, a singular
    Jacobian, the line search or the iteration budget.
    """
    lam1, fint, gbd, rel, factor = point(x)
    rn = max(float(np.max(np.abs(fint))), float(np.max(np.abs(gbd))))

    def info(iters, stop):
        return {
            "iters": iters,
            "stop": stop,
            "rel": rel,
            "res_norm": float(np.max(np.abs(fint))),
            "robin_norm": float(np.max(np.abs(gbd))),
            "lam1min": lam1,
            "smin": float(np.min(x)),
            "smax": float(np.max(x)),
        }

    def trial(step, alpha, armijo=True):
        x_try = x + alpha * step
        if np.min(x_try) > 0.0:
            lam1_try, fint_try, gbd_try, rel_try, factor_try = point(x_try)
            rn_try = max(float(np.max(np.abs(fint_try))), float(np.max(np.abs(gbd_try))))
            if lam1_try > DELTA_CONE and (not armijo or rn_try <= (1.0 - 1e-4 * alpha) * rn):
                return x_try, lam1_try, fint_try, gbd_try, rel_try, factor_try, rn_try
        return None

    for it in range(sched.newton_max + 1):
        if rel <= sched.tol_solve:
            return x, info(it, "residual")
        if it == sched.newton_max:
            break
        if lam1 <= DELTA_CONE:
            raise NewtonFailure(f"iterate left the cone: lam1min = {lam1:.3e}")
        try:
            step = factor()(fint, gbd)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NewtonFailure(f"singular Jacobian at Newton iteration {it}: {exc}") from exc
        if rel <= STEP_RES and np.max(np.abs(step)) <= STEP_RTOL * np.max(np.abs(x)):
            accepted = trial(step, 1.0, armijo=False)
            if accepted is not None:
                x, lam1, fint, gbd, rel, factor, rn = accepted
                return x, info(it + 1, "step")
        alpha = 1.0
        for _ in range(BACKTRACK_MAX):
            accepted = trial(step, alpha)
            if accepted is not None:
                break
            alpha *= 0.5
        else:
            raise NewtonFailure(
                f"line search failed at Newton iteration {it} (res = {rn:.3e}, r = {rel:.3e})")
        x, lam1, fint, gbd, rel, factor, rn = accepted

    raise NewtonFailure(
        f"no convergence in {sched.newton_max} iterations (res = {rn:.3e}, r = {rel:.3e})")


def newton_solve(s0: CapField, q: float, rhs: CapField, params: CapParams, sched: Schedule):
    """Damped Newton in the even subspace with positivity and cone guards.

    Runs the shared corrector `_damped_newton`, whose point evaluates
    tau_sharp once for the cone guard, the residual and the Jacobian.
    `_factorize` factorizes the modal system with SuperLU (`splu`,
    LU_OPTIONS), and its step is the mode-0 ring step or the defect-corrected
    modal step.
    Returns (s, info); raises NewtonFailure if the cone guard, the line search
    or the iteration budget gives out.  Accepted iterates always satisfy
    min s > 0 and lam1min > DELTA_CONE.
    """
    g = s0.grid
    s = s0.project_even()

    def point(x):
        sx = CapField(g, x)
        tau = tau_sharp(sx)
        fint, gbd, rel = residual(sx, q, rhs, params, tau=tau)
        return tau.lam1min, fint, gbd, rel, lambda: _factorize(sx, q, rhs, params, tau)

    x, info = _damped_newton(s.values, point, sched)
    return CapField(g, x), info


# -- continuation driver -----------------------------------------------------------


def run_continuation(newton_fn, rhs_fn, s_init, sched: Schedule, *, grid, report=None):
    """Adaptive predictor-corrector walk of t from 0 to 1.

    newton_fn(s, q, rhs) -> (s, info) runs the layer's corrector and raises
    NewtonFailure; rhs_fn(t) -> (q, rhs); grid is the label the report
    records for every step; report, if given, is the empty SolveReport to
    fill.
    The previous solution is the predictor; dt starts at DT_MAX, shrinks by
    SHRINK on failure and grows by GROW, up to DT_MAX, on fast correctors
    (info["iters"] <= FAST_ITERS); the branch point t = 1/2 is always hit
    exactly.  Raises ContinuationStall, with the partial report, when the
    corrector fails at t = 0 or dt underflows sched.dt_min.
    """
    report = SolveReport() if report is None else report
    q, rhs = rhs_fn(0.0)
    try:
        s, info = newton_fn(s_init, q, rhs)
    except NewtonFailure as exc:
        raise ContinuationStall(0.0, None, report, exc) from exc
    report.record(0.0, info, grid)

    t, dt = 0.0, DT_MAX
    while t < 1.0:
        t_next = min(t + dt, 1.0)
        if t < 0.5 < t_next:
            t_next = 0.5
        q, rhs = rhs_fn(t_next)
        try:
            s_new, info = newton_fn(s, q, rhs)
        except NewtonFailure as exc:
            dt *= SHRINK
            if dt < sched.dt_min:
                raise ContinuationStall(t, dt, report, exc) from exc
            continue
        s = s_new
        t = t_next
        report.record(t, info, grid)
        if info["iters"] <= FAST_ITERS:
            dt = min(dt * GROW, DT_MAX)
    report.converged = True
    return s, report


def model_scale(phi_values, params: CapParams) -> float:
    """(mean phi / C(n,k))^{1/(k+1-p)}, with the plain mean over the layer's
    nodes, rim included (the one definition both layers use).

    sigma_k(tau_sharp[c ell]) = C(n,k) c^k, so at this c the model function
    c ell balances the equation at t = 1 for constant data mean phi.  Outside
    the float range the power is inf or 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        mean = np.mean(phi_values) / params.cnk
        return float(mean ** (1.0 / (params.k + 1.0 - params.p)))


def newton_first(newton_fn, rhs_fn, phi_values, model, params: CapParams, sched: Schedule,
                 *, grid):
    """One damped-Newton solve at t = 1, with the continuation as its fallback.

    newton_fn and rhs_fn are run_continuation's: the layer's corrector and
    the homotopy data; phi_values is phi on the layer's nodes and model the
    model function ell on them (anything a float scales); grid labels the
    report's steps.

    The direct attempt solves at q = p, H = phi from model_scale(phi) ell.
    Only if it raises NewtonFailure does run_continuation walk t from 0 to 1,
    from C(n,k)^{-1/k} ell, which is the solve the continuation alone
    makes; its report keeps the direct failure.
    Returns (s, SolveReport); raises ContinuationStall if the fallback stalls.
    """
    q, rhs = rhs_fn(1.0)
    c = model_scale(phi_values, params)
    try:
        if not 0.0 < c < math.inf:
            raise NewtonFailure(f"model scale {c:.3e} is outside the float range")
        s, info = newton_fn(c * model, q, rhs)
    except NewtonFailure as exc:
        return run_continuation(newton_fn, rhs_fn, params.cnk ** (-1.0 / params.k) * model,
                                sched, grid=grid, report=SolveReport(direct_failure=str(exc)))
    report = SolveReport(method="newton", converged=True)
    report.record(1.0, info, grid)
    return s, report


# -- grid sequencing -----------------------------------------------------------------

# solve_path coarsens while the coarser grid keeps at least this many rings,
# runs the continuation on the coarsest grid and one Newton corrector on each
# finer one.
COARSE_MIN_NBETA = 32


def _label(grid: CapGrid) -> str:
    return f"{grid.nbeta}x{grid.nphi}"


def _coarser(grid: CapGrid) -> CapGrid | None:
    """The grid with Nbeta // 2 rings and 2 (Nphi // 4) columns, or None
    where sequencing stops: below COARSE_MIN_NBETA rings or 8 columns.

    The column count stays even, so phi + pi stays on the grid.
    """
    nb, np_ = grid.nbeta // 2, 2 * (grid.nphi // 4)
    if nb < COARSE_MIN_NBETA or np_ < 8:
        return None
    return CapGrid(nb, np_, grid.theta)


def _lagrange(d, idx, ncols: int):
    """Sparse interpolation matrix with ncols columns: row i holds, in columns
    idx[i], the 4-point Lagrange weights at 0 of the nodes at offsets d[i].

    A node at offset exactly 0 gets weight exactly 1 and the others 0.
    """
    w = np.stack([np.prod([d[:, m] / (d[:, m] - d[:, k]) for m in range(4) if m != k], axis=0)
                  for k in range(4)], axis=1)
    return sp.csr_matrix((w.ravel(), idx.ravel(), np.arange(0, w.size + 1, 4)),
                         shape=(len(d), ncols))


def _interpolate(f: CapField, grid: CapGrid) -> CapField:
    """f interpolated to another grid on the same cap, finer or coarser.

    Fourth order on smooth fields, by 4-point Lagrange weights in each
    direction.  In phi: over the 4 periodic columns around each target
    column, so a column that both grids share is copied exactly.  In beta:
    over the nodes -beta_1, -beta_0 (the first two rings mirrored across the
    pole, where the chart identity s(-beta, phi) = s(beta, phi + pi) gives
    their values), the rings and the rim; the rim ring is interpolated in phi
    only.  The result is projected onto the even subspace.

    A ring whose values are bitwise equal is interpolated in phi to that
    exact value: the Lagrange weights need not sum to exactly 1 in floating
    point.  The beta weights and the projection keep such rings constant, so
    a ring-constant field comes back exactly ring-constant, on any grid.
    """
    g = f.grid
    # column j of `grid` lies t columns right of column `left` of f's grid
    pos = np.arange(grid.nphi) * g.nphi
    left, t = pos // grid.nphi, (pos % grid.nphi) / grid.nphi
    cols = (left[:, None] + np.arange(-1, 3)) % g.nphi
    # phi first: the beta matrix then acts from the left and its product is row-major
    in_phi = (_lagrange(np.arange(-1.0, 3.0) - t[:, None], cols, g.nphi) @ f.values.T).T
    bits = f.values.view(np.uint64)
    flat = (bits == bits[:, :1]).all(axis=1)
    in_phi[flat] = f.values[flat, :1]
    nodes = np.concatenate([-g.beta_cells[1::-1], g.beta_all])
    ext = np.vstack([np.roll(in_phi[1::-1], grid.nphi // 2, axis=1), in_phi])
    rows = np.clip(np.searchsorted(nodes, grid.beta_cells) - 2, 0, nodes.size - 4)
    rows = rows[:, None] + np.arange(4)
    in_beta = _lagrange(nodes[rows] - grid.beta_cells[:, None], rows, nodes.size) @ ext
    return CapField(grid, np.vstack([in_beta, in_phi[-1:]])).project_even()


def solve_path(phi: CapField, params: CapParams, sched: Schedule | None = None,
               s0: CapField | None = None):
    """Solve sigma_k(tau_sharp[s]) = s^{p-1} phi on phi's grid.

    s0, if given, must be on phi's grid.
    Grid sequencing: phi (and s0, if given) are interpolated to the coarsest
    grid `_coarser` reaches from phi's, one of 32-63 rings (phi's own, if it
    has fewer than 64).  There `newton_first` solves at t = 1, falling back on
    the continuation; from a given s0 the continuation runs instead.  Each
    finer grid, up to phi's own, gets the interpolated solution and one
    Newton corrector at t = 1.

    Returns the solution field and the SolveReport (its relative residual is
    the last corrector's, on phi's grid; structural-hypothesis report
    included, informational only).  Raises ContinuationStall with the partial report if the
    continuation stalls, or at t = 1, with the grid named in its failure, if
    a finer grid's corrector fails.
    """
    if params.n != 2:
        raise ValueError("full-field solves are restricted to n = 2; use the rotsym oracle")
    sched = sched or Schedule()
    with np.errstate(over="ignore"):
        even = phi.project_even()  # inf where phi >= 2^1023
    if not (np.all(np.isfinite(even.values)) and np.min(phi.values) > 0.0):
        raise ValueError("phi must be finite and strictly positive")
    if not phi.is_even(tol=1e-12 * max(1.0, float(np.max(np.abs(phi.values))))):
        raise ValueError("phi must be even (invariant under phi -> phi + pi)")
    phi = even
    if s0 is not None and s0.grid != phi.grid:
        raise ValueError(f"s0 is on {s0.grid!r}, not on phi's {phi.grid!r}")

    phis = [phi]  # finest first
    while (coarse := _coarser(phis[-1].grid)) is not None:
        phis.append(_interpolate(phis[-1], coarse))
        if s0 is not None:
            s0 = _interpolate(s0, coarse)
    coarsest = phis.pop()

    def newton_fn(s, q, rhs):
        return newton_solve(s, q, rhs, params, sched)

    def rhs_fn(t):
        return homotopy_rhs(t, coarsest, params)

    label = _label(coarsest.grid)
    if s0 is None:
        s, report = newton_first(newton_fn, rhs_fn, coarsest.values, ell_field(coarsest.grid),
                                 params, sched, grid=label)
    else:
        s, report = run_continuation(newton_fn, rhs_fn, s0, sched, grid=label)
    while phis:
        level = phis.pop()
        # rebinding s frees the coarser solution, and with it the coarser
        # grid's cached terms and modal blocks, before this grid factorizes
        s = _interpolate(s, level.grid)
        q, rhs = homotopy_rhs(1.0, level, params)
        try:
            s, info = newton_fn(s, q, rhs)
        except NewtonFailure as exc:
            failure = NewtonFailure(f"corrector on {_label(level.grid)}: {exc}")
            raise ContinuationStall(1.0, None, report, failure) from exc
        report.record(1.0, info, _label(level.grid))
    report.structural = structural_hypothesis_check(phi, params)
    return s, report


# -- checks -------------------------------------------------------------------------


def structural_hypothesis_check(phi: CapField, params: CapParams) -> dict:
    """Discrete test of the sufficient structural hypotheses on phi.

    Interior: tau[phi^{-1/(p+k-1)}] >= 0 (min eigenvalue over interior rings);
    boundary: cot(theta) w - d_beta w >= 0 for w = phi^{-1/(p+k-1)}.
    Informational: the hypotheses are sufficient, not necessary.
    """
    e = -1.0 / (params.p + params.k - 1.0)
    w = CapField(phi.grid, phi.values**e)
    lam1 = tau_sharp(w).lam1min
    bmargin = float(np.min(-robin_residual(w)))
    return {
        "interior_min_eigenvalue": lam1,
        "interior_pass": bool(lam1 >= 0.0),
        "boundary_margin": bmargin,
        "boundary_pass": bool(bmargin >= 0.0),
        "pass": bool(lam1 >= 0.0 and bmargin >= 0.0),
    }


def jacobian_fd_error(s: CapField, q: float, rhs: CapField, params: CapParams,
                      v: CapField) -> float:
    """Relative gap between the Jacobian action the solver applies
    (`linearize`, at full width) and central differences."""
    eps = 1e-6
    jv = linearize(s, q, rhs, params, tau_sharp(s))(v.flat)
    fp, gp, _ = residual(CapField(s.grid, s.values + eps * v.values), q, rhs, params)
    fm, gm, _ = residual(CapField(s.grid, s.values - eps * v.values), q, rhs, params)
    fd = (np.concatenate([fp.ravel(), gp]) - np.concatenate([fm.ravel(), gm])) / (2.0 * eps)
    scale = max(1.0, float(np.max(np.abs(jv))))
    return float(np.max(np.abs(jv - fd))) / scale
