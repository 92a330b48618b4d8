"""Elementary symmetric functions of 2x2 symmetric endomorphisms.

Everything here is batched: a SymEndo holds arrays (a11, a12, a22) of any
common shape, one symmetric 2x2 endomorphism per entry (components in an
orthonormal frame, so plain matrix symmetry).  Eigenvalues are closed-form;
no iterative eigensolver is used.

sigma_k derivatives follow the matrix convention sigma_k^{ij} = d sigma_k / d a_ij
with a12 and a21 treated as independent entries, so the homogeneity
contraction sum_ij sigma_k^{ij} a_ij = k sigma_k holds exactly and directional
derivatives are d sigma_k . V = s11 V11 + 2 s12 V12 + s22 V22.

The general-n path (only the 1-eigenvalue-plus-multiplicity structure of the
rotationally symmetric reduction needs it) lives in `rotsym`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


class ConeViolation(ValueError):
    """Raised when an endomorphism leaves the Garding cone Gamma_k.

    Carries the first violated order j and the worst sigma_j value.
    """

    def __init__(self, j, worst):
        self.j = int(j)
        self.worst = float(worst)
        super().__init__(f"Gamma_k exit: min sigma_{self.j} = {self.worst:.6e} <= cone margin")


@dataclass(eq=False)
class SymEndo:
    """Batch of symmetric 2x2 endomorphisms in an orthonormal frame."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        self.a11, self.a12, self.a22 = np.broadcast_arrays(
            np.asarray(self.a11, dtype=float),
            np.asarray(self.a12, dtype=float),
            np.asarray(self.a22, dtype=float),
        )
        self._eig = None

    @classmethod
    def identity(cls, shape=()):
        one = np.ones(shape)
        return cls(one, np.zeros(shape), one.copy())

    @classmethod
    def diagonal(cls, l1, l2):
        l1 = np.asarray(l1, dtype=float)
        return cls(l1, np.zeros_like(l1), np.asarray(l2, dtype=float))

    @property
    def shape(self):
        return self.a11.shape

    @property
    def eigenvalues(self):
        """(lam1, lam2) with lam1 <= lam2, closed-form 2x2."""
        if self._eig is None:
            mean = 0.5 * (self.a11 + self.a22)
            disc = np.hypot(0.5 * (self.a11 - self.a22), self.a12)
            self._eig = (mean - disc, mean + disc)
        return self._eig

    @property
    def lam1min(self) -> float:
        """Smallest eigenvalue over the batch: the convexity-cone margin."""
        return float(np.min(self.eigenvalues[0]))

    def __add__(self, other):
        if isinstance(other, SymEndo):
            return SymEndo(self.a11 + other.a11, self.a12 + other.a12, self.a22 + other.a22)
        return NotImplemented

    def __mul__(self, c):
        if np.isscalar(c):
            return SymEndo(self.a11 * c, self.a12 * c, self.a22 * c)
        return NotImplemented

    __rmul__ = __mul__


def sigma_k(a: SymEndo, k: int):
    """k-th elementary symmetric polynomial of the eigenvalues; sigma_0 = 1."""
    if k == 0:
        return np.ones(a.shape)
    if k == 1:
        return a.a11 + a.a22
    if k == 2:
        return a.a11 * a.a22 - a.a12**2
    if k > 2:
        return np.zeros(a.shape)
    raise ValueError(f"k must be >= 0, got {k}")


def sigma_k_grad(a: SymEndo, k: int) -> SymEndo:
    """Derivative endomorphism sigma_k^{ij}; for 2x2: id (k=1), adj(A) (k=2)."""
    if k == 1:
        return SymEndo.identity(a.shape)
    if k == 2:
        return SymEndo(a.a22.copy(), -a.a12, a.a11.copy())
    raise ValueError(f"sigma_k_grad defined for k in {{1, 2}}, got {k}")


def contract(grad: SymEndo, a: SymEndo):
    """sum_ij grad^{ij} a_ij = g11 a11 + 2 g12 a12 + g22 a22."""
    return grad.a11 * a.a11 + 2.0 * grad.a12 * a.a12 + grad.a22 * a.a22


def in_gamma_k(a: SymEndo, k: int, margin: float = 0.0):
    """Elementwise Gamma_k membership: sigma_j > margin for all j <= k."""
    ok = np.ones(a.shape, dtype=bool)
    for j in range(1, k + 1):
        ok &= sigma_k(a, j) > margin
    return ok


def assert_gamma_k(a: SymEndo, k: int, margin: float = 0.0):
    """Raise ConeViolation (with the violated order) if any entry leaves Gamma_k."""
    for j in range(1, k + 1):
        worst = float(np.min(sigma_k(a, j)))
        if worst <= margin:
            raise ConeViolation(j, worst)


def F_and_grad(a: SymEndo, k: int, margin: float = 0.0):
    """Normalized operator F = sigma_k^{1/k} and its derivative F^{ij}.

    F^{ij} = (1/k) sigma_k^{1/k - 1} sigma_k^{ij}; F is 1-homogeneous, so
    sum F^{ij} a_ij = F(A).  Requires A in Gamma_k (explicit cone error else).
    """
    assert_gamma_k(a, k, margin)
    sk = sigma_k(a, k)
    f = sk ** (1.0 / k)
    grad = sigma_k_grad(a, k)
    scale = (1.0 / k) * sk ** (1.0 / k - 1.0)
    return f, SymEndo(scale * grad.a11, scale * grad.a12, scale * grad.a22)


def polarize_qk(mats, n: int):
    """Full polarization Q_k of sigma_k, normalized so Q_k(A,...,A) = sigma_k(A)/C(n,k).

    Inclusion-exclusion over nonempty subsets:
    Q_k(A_1..A_k) = (1/(C(n,k) k!)) sum_S (-1)^{k-|S|} sigma_k(sum_{i in S} A_i).
    Symmetric and multilinear in its k slots by construction.
    """
    mats = list(mats)
    k = len(mats)
    if k == 0:
        raise ValueError("polarize_qk needs at least one argument")
    total = np.zeros(np.broadcast_shapes(*(m.shape for m in mats)))
    for size in range(1, k + 1):
        sign = (-1.0) ** (k - size)
        for subset in combinations(range(k), size):
            acc = mats[subset[0]]
            for i in subset[1:]:
                acc = acc + mats[i]
            total = total + sign * sigma_k(acc, k)
    return total / (math.comb(n, k) * math.factorial(k))


def newton_maclaurin_check(a: SymEndo, k: int, n: int = 2):
    """Maclaurin chain member (sigma_k/C(n,k))^{1/k} <= (sigma_{k-1}/C(n,k-1))^{1/(k-1)}.

    Returns (ok, margin) with margin = min(rhs - lhs); the k = 1 member is
    vacuous (the k = 0 side is the empty normalization) and passes with +inf.
    Requires A in Gamma_k so the fractional powers are real.
    """
    if k == 1:
        return True, math.inf
    assert_gamma_k(a, k)
    lhs = (sigma_k(a, k) / math.comb(n, k)) ** (1.0 / k)
    rhs = (sigma_k(a, k - 1) / math.comb(n, k - 1)) ** (1.0 / (k - 1))
    margin = float(np.min(rhs - lhs))
    return margin >= 0.0, margin
