"""Spectral factorization of positive definite matrix Laurent polynomials.

Compute the causal polynomial factor X of a para-Hermitian spectrum S
(S = X X^* on the unit circle, det X outer, degree preserved), verify every
identity such a factor must satisfy, and generate exact ground-truth test
instances.
"""

__version__ = "0.1.0"

from .errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    IdenticallyZeroDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    RetryExhausted,
    SingularFactorOnGrid,
    SingularIterate,
    SingularLeadingCoefficient,
    SpectralFactorError,
)
from .laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    default_grid_size,
    evaluate_at,
    multiply_by_adjoint,
    sample_on_grid,
    unit_circle_grid,
)
from .factorize import (
    FactorizationOptions,
    FactorizationResult,
    bauer_factor,
    canonical_normalize,
    factor,
    scalar_root_factor,
    wilson_factor,
)
from .verify import (
    CheckEntry,
    VerificationReport,
    VerifyOptions,
    check_causal_identity,
    check_constant_unitary_equivalence,
    check_degree,
    check_factorization,
    check_outer_determinant,
    check_positivity,
    verify_all,
)
from .testgen import InstanceBundle, generate_boundary_instance, generate_instance
from .rng import SplitMix64
from .fileio import read_factor, read_spectrum, write_factor, write_spectrum

__all__ = [
    "__version__",
    "CholeskyBreakdown",
    "DegenerateDeterminant",
    "IdenticallyZeroDeterminant",
    "NoConvergence",
    "NotPositiveDefinite",
    "OddBoundaryMultiplicity",
    "RetryExhausted",
    "SingularFactorOnGrid",
    "SingularIterate",
    "SingularLeadingCoefficient",
    "SpectralFactorError",
    "HermitianLaurentPolynomial",
    "MatrixPolynomial",
    "default_grid_size",
    "evaluate_at",
    "multiply_by_adjoint",
    "sample_on_grid",
    "unit_circle_grid",
    "FactorizationOptions",
    "FactorizationResult",
    "bauer_factor",
    "canonical_normalize",
    "factor",
    "scalar_root_factor",
    "wilson_factor",
    "CheckEntry",
    "VerificationReport",
    "VerifyOptions",
    "check_causal_identity",
    "check_constant_unitary_equivalence",
    "check_degree",
    "check_factorization",
    "check_outer_determinant",
    "check_positivity",
    "verify_all",
    "InstanceBundle",
    "generate_boundary_instance",
    "generate_instance",
    "SplitMix64",
    "read_factor",
    "read_spectrum",
    "write_factor",
    "write_spectrum",
]
