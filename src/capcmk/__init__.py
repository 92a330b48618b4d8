"""Solver and verification suite for a capillary prescribed-curvature problem.

Find the even, strictly convex capillary support function s on the spherical
cap solving sigma_k(tau_sharp[s]) = s^{p-1} phi with the Robin condition
d_mu s = cot(theta) s on the rim, by homotopy continuation from the exactly
solvable constant problem; then audit the result against every closed-form
identity and a priori bound the underlying theory supplies.
"""

from .audit import (
    af_inequality_check,
    estimates_audit,
    mixed_volume,
    mixed_volume_repeated,
    steiner_sigma_check,
)
from .fields import (
    CapField,
    CapGrid,
    boundary_tau_identity_residual,
    load_field,
    save_field,
    tau_sharp,
)
from .geometry import (
    CapParams,
    ell,
    ell_field,
    make_capillary_test_function,
    random_capillary_field,
    random_neumann_factor,
)
from .rotsym import cross_check_gap, solve_rotsym
from .solver import (
    ContinuationStall,
    NewtonFailure,
    Schedule,
    SolveReport,
    homotopy_rhs,
    jacobian_fd_error,
    phi_q,
    solve_path,
)

__version__ = "0.1.0"

__all__ = [
    "CapField",
    "CapGrid",
    "CapParams",
    "ContinuationStall",
    "NewtonFailure",
    "Schedule",
    "SolveReport",
    "af_inequality_check",
    "boundary_tau_identity_residual",
    "cross_check_gap",
    "ell",
    "ell_field",
    "estimates_audit",
    "homotopy_rhs",
    "jacobian_fd_error",
    "load_field",
    "make_capillary_test_function",
    "mixed_volume",
    "mixed_volume_repeated",
    "phi_q",
    "random_capillary_field",
    "random_neumann_factor",
    "save_field",
    "solve_path",
    "solve_rotsym",
    "steiner_sigma_check",
    "tau_sharp",
]
