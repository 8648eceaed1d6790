"""Spectral factorization of positive definite matrix Laurent polynomials.

Compute the causal polynomial factor X of a para-Hermitian spectrum S
(S = X X^* on the unit circle, det X outer, degree preserved), verify every
identity such a factor must satisfy, and generate exact ground-truth test
instances.

Importing the package loads no submodule, and so no numpy: a public name
imports its module on first access (PEP 562), so a command that never
verifies never compiles ``verify``.  Each access reads the name from its
module, so a name patched there is the one seen here too.
"""

import sys

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "errors": (
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
    ),
    "laurent": (
        "HermitianLaurentPolynomial",
        "MatrixPolynomial",
        "canonical_normalize",
        "check_outer_determinant",
        "default_grid_size",
        "evaluate_at",
        "multiply_by_adjoint",
        "sample_on_grid",
        "unit_circle_grid",
    ),
    "factorize": (
        "FactorizationOptions",
        "FactorizationResult",
        "bauer_factor",
        "factor",
        "scalar_root_factor",
        "wilson_factor",
    ),
    "verify": (
        "CheckEntry",
        "VerificationReport",
        "VerifyOptions",
        "check_causal_identity",
        "check_constant_unitary_equivalence",
        "check_degree",
        "check_factorization",
        "check_positivity",
        "verify_all",
    ),
    "testgen": ("InstanceBundle", "generate_boundary_instance", "generate_instance"),
    "rng": ("SplitMix64",),
    "fileio": ("read_factor", "read_spectrum", "write_factor", "write_spectrum"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def _submodule(name: str):
    # The call an import statement makes, so ``python -X importtime`` lists
    # the module, which it does not for ``importlib.import_module``.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(_submodule(_OWNER[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
