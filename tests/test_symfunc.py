import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capcmk.symfunc import SymEndo, polarize_qk, sigma_k, sigma_k_grad

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def random_endo(rng, size=6):
    return SymEndo(
        rng.uniform(-2.0, 2.0, size), rng.uniform(-2.0, 2.0, size), rng.uniform(-2.0, 2.0, size)
    )


@given(a11=finite, a12=finite, a22=finite)
@settings(derandomize=True, max_examples=60)
def test_sigma_closed_forms(a11, a12, a22):
    a = SymEndo(np.array([a11]), np.array([a12]), np.array([a22]))
    assert sigma_k(a, 0)[0] == 1.0
    assert sigma_k(a, 1)[0] == pytest.approx(a11 + a22)
    assert sigma_k(a, 2)[0] == pytest.approx(a11 * a22 - a12 * a12)
    assert sigma_k(a, 3)[0] == 0.0


@given(a11=finite, a12=finite, a22=finite)
@settings(derandomize=True, max_examples=60)
def test_eigenvalues_match_dense_solver(a11, a12, a22):
    a = SymEndo(np.array([a11]), np.array([a12]), np.array([a22]))
    lo, hi = a.eigenvalues
    ref = np.linalg.eigvalsh(np.array([[a11, a12], [a12, a22]]))
    assert lo[0] == pytest.approx(ref[0], abs=1e-12)
    assert hi[0] == pytest.approx(ref[1], abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_homogeneity_contraction(k):
    # sum_ij sigma_k^{ij} a_ij = k sigma_k(A), an exact Euler identity
    a = random_endo(np.random.default_rng(0), size=200)
    grad = sigma_k_grad(a, k)
    lhs = grad.a11 * a.a11 + 2.0 * grad.a12 * a.a12 + grad.a22 * a.a22
    rhs = k * sigma_k(a, k)
    scale = np.maximum(1.0, np.abs(rhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_sigma_grad_matches_finite_differences(k):
    rng = np.random.default_rng(1)
    a = random_endo(rng, size=4)
    grad = sigma_k_grad(a, k)
    eps = 1e-6
    for comp, factor in (("a11", 1.0), ("a12", 2.0), ("a22", 1.0)):
        # off-diagonal entries move in pairs, hence the factor 2
        bump = {n: getattr(a, n).copy() for n in ("a11", "a12", "a22")}
        bump[comp] = bump[comp] + eps
        up = sigma_k(SymEndo(**bump), k)
        bump[comp] = bump[comp] - 2.0 * eps
        dn = sigma_k(SymEndo(**bump), k)
        fd = (up - dn) / (2.0 * eps)
        assert np.max(np.abs(fd - factor * getattr(grad, comp))) < 1e-7


def test_sigma_grad_rejects_unsupported_order():
    a = SymEndo.identity((2,))
    with pytest.raises(ValueError):
        sigma_k_grad(a, 3)


def test_identity_and_diagonal_constructors():
    i = SymEndo.identity((3,))
    assert np.all(i.a11 == 1.0) and np.all(i.a12 == 0.0) and np.all(i.a22 == 1.0)


def test_endo_algebra_matches_componentwise():
    rng = np.random.default_rng(2)
    a, b = random_endo(rng), random_endo(rng)
    s = a + b
    assert np.allclose(s.a11, a.a11 + b.a11)
    m = 2.5 * a
    assert np.allclose(m.a12, 2.5 * a.a12)


@pytest.mark.parametrize("k", [1, 2])
def test_polarization_diagonal_normalization(k):
    # Q_k(A, ..., A) = sigma_k(A) / C(n, k)
    a = random_endo(np.random.default_rng(3), size=50)
    got = polarize_qk([a] * k, n=2)
    want = sigma_k(a, k) / math.comb(2, k)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_polarization_is_symmetric_and_multilinear():
    rng = np.random.default_rng(4)
    a, b, c = random_endo(rng), random_endo(rng), random_endo(rng)
    ab = polarize_qk([a, b], n=2)
    ba = polarize_qk([b, a], n=2)
    assert np.max(np.abs(ab - ba)) < 1e-12
    lin = polarize_qk([2.0 * a + 0.5 * c, b], n=2)
    parts = 2.0 * polarize_qk([a, b], n=2) + 0.5 * polarize_qk([c, b], n=2)
    assert np.max(np.abs(lin - parts)) < 1e-12


def test_polarization_rejects_empty_argument_list():
    with pytest.raises(ValueError):
        polarize_qk([], n=2)


def test_ring_constant_batches_are_evaluated_on_one_column():
    """tau_sharp of a ring-constant field repeats one column by stride-0
    views; its eigenvalues, lam1min, sigma_k and sigma_k_grad are evaluated
    on that column and come back as such views, with the bits of the same
    batch held in contiguous arrays.  A batch with one contiguous component
    is evaluated in full."""
    from capcmk.fields import CapField, CapGrid, tau_sharp
    from capcmk.geometry import ell_field

    g = CapGrid(33, 64, math.pi / 3)
    ring = 1.0 + 0.1 * np.random.default_rng(4).random((g.nbeta + 1, 1))
    tau = tau_sharp(CapField(g, ell_field(g).values * ring, even=True))
    full = SymEndo(*(np.array(c) for c in (tau.a11, tau.a12, tau.a22)))
    assert all(c.strides[1] == 0 for c in (tau.a11, tau.a12, tau.a22))
    got = list(tau.eigenvalues) + [sigma_k(tau, k) for k in range(4)]
    want = list(full.eigenvalues) + [sigma_k(full, k) for k in range(4)]
    for k in (1, 2):
        got += [getattr(sigma_k_grad(tau, k), c) for c in ("a11", "a12", "a22")]
        want += [getattr(sigma_k_grad(full, k), c) for c in ("a11", "a12", "a22")]
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.strides[1] == 0
        assert np.ascontiguousarray(x).tobytes() == y.tobytes()
    assert tau.lam1min == full.lam1min
    mixed = SymEndo(np.array(tau.a11), tau.a12, tau.a22)
    assert sigma_k(mixed, 2).strides[1] != 0
    assert sigma_k(mixed, 2).tobytes() == sigma_k(full, 2).tobytes()
