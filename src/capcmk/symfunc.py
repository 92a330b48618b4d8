"""Elementary symmetric functions of 2x2 symmetric endomorphisms.

Everything here is batched: a SymEndo holds arrays (a11, a12, a22) of any
common shape, one symmetric 2x2 endomorphism per entry (components in an
orthonormal frame, so plain matrix symmetry).  Eigenvalues are closed-form;
no iterative eigensolver is used.  A batch whose components repeat one
column by stride-0 views (`tau_sharp` of a ring-constant field) is evaluated
on that column, and its eigenvalues and sigma_k come back as such views.

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


def _column(x):
    """The first column of a 2-D x that repeats it by a stride-0 view along
    the last axis (`tau_sharp` of a field whose every ring is constant, or
    `SymEndo.identity`), else None."""
    return x[:, :1] if x.ndim == 2 and x.strides[1] == 0 else None


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
        one = np.broadcast_to(1.0, shape)
        return cls(one, np.broadcast_to(0.0, shape), one)

    @property
    def shape(self):
        return self.a11.shape

    def unit(self) -> "SymEndo":
        """The batch on its first column where every component repeats that
        column by a stride-0 view along the last axis (`_column`), else the
        batch itself.  An elementwise function of the unit, repeated the same
        way, has every bit of the function of the whole batch."""
        cols = [_column(c) for c in (self.a11, self.a12, self.a22)]
        return self if any(c is None for c in cols) else SymEndo(*cols)

    def _ringwise(self, fn):
        """fn(a11, a12, a22) of an elementwise fn that returns an array or a
        tuple of them, evaluated on the `unit` and repeated over the batch
        by stride-0 views."""
        u = self.unit()
        out = fn(u.a11, u.a12, u.a22)
        if u is self:
            return out
        if isinstance(out, tuple):
            return tuple(np.broadcast_to(c, self.shape) for c in out)
        return np.broadcast_to(out, self.shape)

    @property
    def eigenvalues(self):
        """(lam1, lam2) with lam1 <= lam2, closed-form 2x2."""
        if self._eig is None:
            def eig(a11, a12, a22):
                mean = 0.5 * (a11 + a22)
                disc = np.hypot(0.5 * (a11 - a22), a12)
                return mean - disc, mean + disc

            self._eig = self._ringwise(eig)
        return self._eig

    @property
    def lam1min(self) -> float:
        """Smallest eigenvalue over the batch: the convexity-cone margin."""
        lam1 = self.eigenvalues[0]
        col = _column(lam1)
        return float(np.min(lam1 if col is None else col))

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
        return a._ringwise(lambda a11, a12, a22: np.ones(a11.shape))
    if k == 1:
        return a._ringwise(lambda a11, a12, a22: a11 + a22)
    if k == 2:
        return a._ringwise(lambda a11, a12, a22: a11 * a22 - a12**2)
    if k > 2:
        return a._ringwise(lambda a11, a12, a22: np.zeros(a11.shape))
    raise ValueError(f"k must be >= 0, got {k}")


def sigma_k_grad(a: SymEndo, k: int) -> SymEndo:
    """Derivative endomorphism sigma_k^{ij}; for 2x2: id (k=1), adj(A) (k=2)."""
    if k == 1:
        return SymEndo.identity(a.shape)
    if k == 2:
        return SymEndo(*a._ringwise(lambda a11, a12, a22: (a22.copy(), -a12, a11.copy())))
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
