import math

import numpy as np
import pytest

from capcmk.fields import CapGrid, robin_residual, tau_sharp
from capcmk.geometry import (
    CapParams,
    NeumannFactor,
    ell,
    ell_field,
    make_capillary_test_function,
    random_capillary_field,
    random_neumann_factor,
)

THETA = math.pi / 3


def test_params_accept_valid_range():
    p = CapParams(n=2, k=1, p=1.5, theta=THETA)
    assert p.cnk == 2.0
    CapParams(n=4, k=3, p=3.9, theta=0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, k=1, p=1.5, theta=THETA),
        dict(n=2, k=0, p=1.5, theta=THETA),
        dict(n=2, k=3, p=1.5, theta=THETA),
        dict(n=2, k=1, p=1.0, theta=THETA),
        dict(n=2, k=1, p=2.0, theta=THETA),
        dict(n=2, k=1, p=3.0, theta=THETA),
        dict(n=2, k=1, p=1.5, theta=0.0),
        dict(n=2, k=1, p=1.5, theta=math.pi / 2),
        dict(n=2.0, k=1, p=1.5, theta=THETA),
    ],
)
def test_params_reject_out_of_range(kwargs):
    with pytest.raises(ValueError):
        CapParams(**kwargs)


def test_ell_endpoint_values_and_monotonicity():
    beta = np.linspace(0.0, THETA, 200)
    v = ell(THETA, beta)
    assert v[0] == pytest.approx(1.0 - math.cos(THETA))
    assert v[-1] == pytest.approx(math.sin(THETA) ** 2)
    assert np.all(np.diff(v) > 0.0)


def test_ell_satisfies_robin_exactly():
    # d ell/d beta = cos(theta) sin(beta); at the rim it equals cot(theta) * ell(theta)
    lhs = math.cos(THETA) * math.sin(THETA)
    rhs = (math.cos(THETA) / math.sin(THETA)) * ell(THETA, THETA)
    assert abs(lhs - rhs) < 1e-15


def test_ell_field_is_even_and_matches_closed_form():
    g = CapGrid(16, 32, THETA)
    f = ell_field(g)
    assert f.is_even()
    assert np.allclose(f.values, ell(THETA, g.beta_all)[:, None])


def test_ell_field_tau_is_the_identity_to_h2():
    g = CapGrid(32, 64, THETA)
    tau = tau_sharp(ell_field(g))
    dev = max(
        float(np.max(np.abs(tau.a11 - 1.0))),
        float(np.max(np.abs(tau.a12))),
        float(np.max(np.abs(tau.a22 - 1.0))),
    )
    assert dev < 2e-4


def test_neumann_factor_rim_derivative_vanishes():
    nf = NeumannFactor(THETA, [(0, 0.1, 0.0), (1, 0.05, 0.3), (2, -0.04, 1.1)])
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    rim = nf.dbeta(np.full_like(phi, THETA), phi)
    assert np.max(np.abs(rim)) < 1e-14


def test_neumann_factor_rejects_negative_harmonic_index():
    with pytest.raises(ValueError):
        NeumannFactor(THETA, [(-1, 0.1, 0.0)])


def test_capillary_test_function_satisfies_discrete_robin():
    g16 = CapGrid(16, 32, THETA)
    g32 = CapGrid(32, 64, THETA)
    nf = NeumannFactor(THETA, [(0, 0.1, 0.0), (2, 0.05, 0.7)])
    r16 = float(np.max(np.abs(robin_residual(make_capillary_test_function(g16, nf)))))
    r32 = float(np.max(np.abs(robin_residual(make_capillary_test_function(g32, nf)))))
    assert r16 < 2e-3
    assert r16 / r32 > 3.5


def test_capillary_test_function_output_is_even():
    g = CapGrid(16, 32, THETA)
    s = make_capillary_test_function(g, random_neumann_factor(THETA, np.random.default_rng(4)))
    assert s.is_even()


def test_capillary_test_function_rejects_neumann_violation():
    g = CapGrid(16, 32, THETA)

    class Uncorrected(NeumannFactor):
        # v = 1 + 0.1 cos(2 phi) sin^2(beta): missing the rim correction,
        # so d v/d beta(theta) != 0
        def _rho(self, m, beta):
            return np.sin(beta) ** (2 * m)

        def _rho_dbeta(self, m, beta):
            return 2 * m * np.sin(beta) ** (2 * m - 1) * np.cos(beta)

    with pytest.raises(ValueError, match="Neumann"):
        make_capillary_test_function(g, Uncorrected(THETA, [(1, 0.1, 0.0)]))


def test_random_capillary_field_is_positive_even_convex():
    g = CapGrid(16, 32, THETA)
    for seed in range(5):
        s = random_capillary_field(g, np.random.default_rng(seed))
        assert s.is_even()
        assert np.min(s.values) > 0.0
        assert tau_sharp(s).lam1min > 0.0
