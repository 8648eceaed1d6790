"""Exception types raised by the factorization, verification and generation layers."""

from __future__ import annotations


class SpectralFactorError(Exception):
    """Base class for every library-specific failure."""


class NotPositiveDefinite(SpectralFactorError):
    """The spectrum is not positive semidefinite on the unit circle."""


class DegenerateDeterminant(SpectralFactorError):
    """S is singular at every node of the check grid: no node's smallest
    |eigenvalue| exceeds ``laurent.DEGENERATE_RTOL`` times the spectrum's
    scale, so det S vanishes identically (a rank-deficient or zero spectrum)."""


class CholeskyBreakdown(SpectralFactorError):
    """Bauer's doubling broke down on an indefinite or degenerate spectrum."""


class SingularIterate(SpectralFactorError):
    """A Newton iterate became (numerically) non-invertible at a grid point."""


class OddBoundaryMultiplicity(SpectralFactorError):
    """A root cluster on the unit circle has odd multiplicity; the input is not
    a consistent para-Hermitian spectrum."""


class SingularLeadingCoefficient(SpectralFactorError):
    """The constant coefficient of the factor is too ill-conditioned to normalize."""


class SingularFactorOnGrid(SpectralFactorError):
    """A factor is not invertible (condition number too large) at some grid point."""


class IdenticallyZeroDeterminant(SpectralFactorError):
    """det of the polynomial is numerically the zero polynomial."""


class RetryExhausted(SpectralFactorError):
    """Instance generation kept drawing degenerate candidates; try another seed."""


class NoConvergence(SpectralFactorError):
    """An iterative factorization hit its cap before reaching tolerance.

    Carries the best iterate seen so far, its residual and the name of the
    algorithm that produced it, so callers can still inspect or persist it.
    """

    def __init__(self, message, best_factor=None, achieved_residual=float("inf"),
                 iterations=0, algorithm=None):
        super().__init__(message)
        self.best_factor = best_factor
        self.achieved_residual = achieved_residual
        self.iterations = iterations
        self.algorithm = algorithm
