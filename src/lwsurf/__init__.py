"""Rotational linear Weingarten surfaces in a rotationally symmetric
normed 3-space.

The ambient norm is ((x1^2 + x2^2)^m + x3^(2m))^(1/2m); curvatures are the
eigenvalues of the differential of the Birkhoff normal field.  The package
classifies and samples profile curves satisfying k1 + lam*k2 = mu, glues
them into complete surfaces, and verifies everything numerically.
"""

from .normgeom import (
    NormParameter,
    PrincipalCurvatures,
    oriented_radius_chart_curvatures,
    principal_curvatures,
    signed_odd_root_pow,
)
from .quadrature import (
    DomainInterval,
    EndpointKind,
    QuadratureResult,
    ToleranceError,
    bracket_roots,
    integrate_singular,
    profile_from_integral,
)
from .solver import (
    BracketError,
    CaseTag,
    IllConditionedWarning,
    NoSurfaceError,
    ProfileBranch,
    RelationForm,
    SolveRequest,
    WeingartenRelation,
    classify,
    solve,
    solve_constant_k1,
    solve_constant_k2,
    solve_homogeneous,
    solve_inhom_general,
    solve_inhom_lambda_minus1,
)
from .assembler import (
    AssembledSurface,
    GluingMismatch,
    NotPeriodic,
    Recipe,
    Smoothness,
    Topology,
    axis_smoothness,
    cylinder,
    extend_periodic,
    glue,
    reflect_branch,
)
from .verify import (
    VerificationReport,
    first_integral_drift,
    ode_oracle,
    residual_scan,
    residual_scan_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
