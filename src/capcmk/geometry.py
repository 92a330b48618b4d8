"""Closed-form geometry of the spherical cap and capillary test-function generators.

The domain is the polar cap about e_{n+1},

    S^n_theta = {u in S^n : <u, e_{n+1}> >= cos(theta)},   0 < theta < pi/2,

parametrized by the polar angle beta in [0, theta] from e_{n+1} and (for n = 2)
the azimuth phi.  The capillary support function s lives on the translate
C_theta = S^n_theta - cos(theta) e_{n+1}; all chart formulas below are written
on the unit-vector cap, using <zeta, e_{n+1}> = cos(beta) - cos(theta) for the
translated coordinate.

Evenness: the ambient reflection R(x_1,...,x_n, x_{n+1}) = (-x_1,...,-x_n, x_{n+1})
fixes e_{n+1} and acts on the chart as phi -> phi + pi with beta unchanged,
because the cap is rotationally symmetric about the e_{n+1} axis and R restricted
to the horizontal hyperplane is the antipode.  "Even" always means invariance
under that chart action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CapField, CapGrid


@dataclass(frozen=True)
class CapParams:
    """Problem quintuple (n, k, p, theta) with admissibility validation.

    n : hypersurface dimension (>= 2)
    k : curvature order, 1 <= k <= n (k < n required for the constant-rank
        structural hypotheses; k = n runs but is untested against theory)
    p : exponent, strictly inside (1, k+1)
    theta : contact angle in (0, pi/2)
    """

    n: int
    k: int
    p: float
    theta: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.k, int) or not (1 <= self.k <= self.n):
            raise ValueError(f"k must be an integer in [1, n={self.n}], got {self.k!r}")
        if not (1.0 < self.p < self.k + 1.0):
            raise ValueError(
                f"p must lie in the open interval (1, k+1) = (1, {self.k + 1}), got {self.p!r}"
            )
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta!r}")

    @property
    def cnk(self) -> float:
        """Binomial C(n, k) = sigma_k(identity)."""
        return float(math.comb(self.n, self.k))


def ell(theta, beta):
    """Model capillary support function, chart form: 1 - cos(theta) cos(beta).

    Equals sin^2(theta) - cos(theta) <zeta, e_{n+1}> on the translated cap.
    Monotone increasing in beta, from 1 - cos(theta) at the pole to
    sin^2(theta) at beta = theta.  Satisfies the Robin condition exactly:
    d/dbeta ell(theta) = cos(theta) sin(theta) = cot(theta) ell(theta).
    """
    return 1.0 - math.cos(theta) * np.cos(beta)


def ell_field(grid: CapGrid) -> CapField:
    """The model function ell sampled on a cap grid (even, capillary)."""
    values = np.broadcast_to(
        ell(grid.theta, grid.beta_all)[:, None], (grid.nbeta + 1, grid.nphi)
    ).copy()
    return CapField(grid, values)


class NeumannFactor:
    """Even factor v(beta, phi) with d v/d beta = 0 at beta = theta, in closed form.

    v = 1 + sum_m eps_m cos(2 m phi - psi_m) rho_m(beta),
    rho_m(beta) = sin^{2m}(beta) (1 + a_m (cos beta - cos theta)),
    a_m = 2 m cos(theta) / sin^2(theta).

    The sin^{2m} factor makes each term the restriction of an ambient polynomial
    (smooth at the pole: the 2m-th azimuthal harmonic must vanish like beta^{2m}),
    and a_m is chosen so rho_m'(theta) = 0 identically, hence dbeta() evaluates
    to roundoff at the rim.  An optional rotationally symmetric part
    c0 + c1 (1 - cos beta) (1 + a (cos beta - cos theta)) is supported through
    m = 0 terms with the same rim correction.
    """

    def __init__(self, theta, terms):
        # terms: iterable of (m, amplitude, phase) with integer m >= 0
        self.theta = float(theta)
        self.terms = [(int(m), float(a), float(ps)) for m, a, ps in terms]
        if any(m < 0 for m, _, _ in self.terms):
            raise ValueError("harmonic index m must be >= 0")

    def _rho(self, m, beta):
        ct, st = math.cos(self.theta), math.sin(self.theta)
        if m == 0:
            # the profile's derivative at theta is sin(theta) (1 - a (1 - cos theta)) = 0
            a = 1.0 / (1.0 - ct)
            return (1.0 - np.cos(beta)) * (1.0 + a * (np.cos(beta) - ct))
        a = 2.0 * m * ct / st**2
        return np.sin(beta) ** (2 * m) * (1.0 + a * (np.cos(beta) - ct))

    def _rho_dbeta(self, m, beta):
        ct, st = math.cos(self.theta), math.sin(self.theta)
        sb, cb = np.sin(beta), np.cos(beta)
        if m == 0:
            a = 1.0 / (1.0 - ct)
            return sb * (1.0 + a * (cb - ct)) - (1.0 - cb) * a * sb
        a = 2.0 * m * ct / st**2
        return (
            2.0 * m * sb ** (2 * m - 1) * cb * (1.0 + a * (cb - ct))
            - sb ** (2 * m) * a * sb
        )

    def __call__(self, beta, phi):
        beta = np.asarray(beta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out = np.ones(np.broadcast_shapes(beta.shape, phi.shape))
        for m, amp, psi in self.terms:
            ang = np.cos(2 * m * phi - psi) if m > 0 else 1.0
            out = out + amp * ang * self._rho(m, beta)
        return out

    def dbeta(self, beta, phi):
        beta = np.asarray(beta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(np.broadcast_shapes(beta.shape, phi.shape))
        for m, amp, psi in self.terms:
            ang = np.cos(2 * m * phi - psi) if m > 0 else 1.0
            out = out + amp * ang * self._rho_dbeta(m, beta)
        return out


def random_neumann_factor(theta, rng) -> NeumannFactor:
    """Seeded random admissible factor: a radial part of amplitude up to 0.1
    plus the harmonics m = 1, 2, 3 of amplitude up to 0.05."""
    terms = [(0, 0.1 * (2.0 * rng.random() - 1.0), 0.0)]
    for m in range(1, 4):
        terms.append((m, 0.05 * (2.0 * rng.random() - 1.0), 2.0 * math.pi * rng.random()))
    return NeumannFactor(theta, terms)


def make_capillary_test_function(grid: CapGrid, v: NeumannFactor) -> CapField:
    """Build the capillary field s = ell * v from a Neumann factor v.

    The product rule gives d(ell v)/dbeta = cot(theta) ell v at beta = theta
    whenever dv/dbeta(theta, .) = 0, so the output is capillary exactly at the
    analytic level.  A factor whose closed-form v.dbeta exceeds 1e-8 anywhere
    on the rim is rejected.
    """
    theta = grid.theta
    worst = float(np.max(np.abs(v.dbeta(np.full(grid.nphi, theta), grid.phi))))
    if worst > 1e-8:
        raise ValueError(
            f"factor violates the rim Neumann condition: max |dv/dbeta(theta)| = {worst:.3e}")
    bb, pp = np.meshgrid(grid.beta_all, grid.phi, indexing="ij")
    values = ell(theta, bb) * v(bb, pp)
    return CapField(grid, values).project_even()


def random_capillary_field(grid: CapGrid, rng) -> CapField:
    """Seeded random even, strictly convex capillary field."""
    return make_capillary_test_function(grid, random_neumann_factor(grid.theta, rng))
