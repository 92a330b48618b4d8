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
    def identity(cls, shape):
        one = np.ones(shape)
        return cls(one, np.zeros(shape), one.copy())

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
