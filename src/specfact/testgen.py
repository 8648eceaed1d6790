"""Ground-truth-first construction of factorization test problems.

A bundle is built backwards: draw a random causal factor, push its
determinant roots outside the closed unit disk, canonicalize, and only then
form the induced spectrum.  The bundle's factor is therefore an exact oracle
for the factorization of its spectrum, with no factorization code trusted
anywhere in the construction.

Randomness comes from the portable splitmix64 stream (see :mod:`.rng`), so a
bundle is a pure function of ``(r, m, seed, root_margin)`` and reproduces
bit-for-bit.  Draw order: coefficient entries for n = 0..m in row-major
order, real part then imaginary part, each a standard normal; boundary
instances then draw the channel index and the boundary angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RetryExhausted, SingularLeadingCoefficient
from .factorize import canonical_normalize
from .laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _hermitian_scan,
    default_verify_grid,
    multiply_by_adjoint,
    sample_on_grid,
)
from .rng import SplitMix64
from .verify import check_outer_determinant

# Draws whose det roots cannot be pushed out without collapsing the variable
# are discarded; after this many the seed is rejected.
MAX_ATTEMPTS = 10

# Reject draws that would need a rescale factor below this (det root near 0).
MIN_RESCALE = 1e-3


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """A generated problem: exact ground-truth factor plus induced spectrum."""

    spectrum: HermitianLaurentPolynomial
    ground_truth: MatrixPolynomial
    seed: int
    root_margin: float
    condition_estimate: float
    boundary: bool = False


def _attempt_stream(seed: int, attempt: int) -> SplitMix64:
    # Attempt k reseeds at seed + k * (the splitmix64 Weyl increment).
    return SplitMix64((seed + attempt * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def _draw_coefficients(stream: SplitMix64, r: int, m: int) -> np.ndarray:
    draws = [complex(stream.normal(), stream.normal()) for _ in range((m + 1) * r * r)]
    return np.array(draws, dtype=np.complex128).reshape(m + 1, r, r)


def _condition_estimate(S: HermitianLaurentPolynomial) -> float:
    """2-norm condition number of S over the check grid, the largest |eig| at
    any node over the smallest at any node, so a scalar spectrum near zero on
    the circle reads large too; ``inf``, without a warning, when S is singular
    at a node."""
    eigs = np.abs(_hermitian_scan(sample_on_grid(S, default_verify_grid(S.m)))[0])
    with np.errstate(divide="ignore"):
        return float(eigs.max() / eigs.min())


def _build_ground_truth(stream: SplitMix64, r: int, m: int,
                        root_margin: float) -> MatrixPolynomial | None:
    """One attempt at a canonical factor with det roots out at 1 + margin."""
    coeffs = _draw_coefficients(stream, r, m)
    draw = MatrixPolynomial(coeffs)
    if draw.m != m:
        return None
    min_modulus, _ = check_outer_determinant(draw)
    if np.isfinite(min_modulus) and min_modulus < 1.0 + root_margin:
        # Substituting z -> t z scales every det root by 1/t.
        t = min_modulus / (1.0 + root_margin)
        if t < MIN_RESCALE:
            return None
        coeffs = coeffs * (t ** np.arange(m + 1))[:, None, None]
        draw = MatrixPolynomial(coeffs)
        if draw.m != m:
            return None
    try:
        canonical, _ = canonical_normalize(draw)
    except SingularLeadingCoefficient:
        return None
    if canonical.m != m:
        return None
    return canonical


def _boundary_truth(stream: SplitMix64, r: int, m: int) -> MatrixPolynomial | None:
    """One attempt at a canonical factor with one det root on the circle."""
    base = _build_ground_truth(stream, r, m - 1, 0.2)
    if base is None:
        return None
    channel = stream.integer(r)
    theta0 = 2.0 * np.pi * stream.uniform()
    phase = np.exp(-1j * theta0)

    coeffs = np.zeros((m + 1, r, r), dtype=np.complex128)
    coeffs[: m] += base.coeffs
    coeffs[:, :, channel] *= 1.0 / np.sqrt(2.0)
    coeffs[1:, :, channel] += base.coeffs[:, :, channel] * (phase / np.sqrt(2.0))
    truth = MatrixPolynomial(coeffs)
    if truth.m != m:
        return None
    try:
        truth, _ = canonical_normalize(truth)
    except SingularLeadingCoefficient:
        return None
    return truth


def _bundle(seed: int, build, what: str, boundary: bool = False) -> InstanceBundle:
    """Bundle of the first attempt whose ``build(stream)`` returns a factor."""
    for attempt in range(MAX_ATTEMPTS):
        truth = build(_attempt_stream(seed, attempt))
        if truth is None:
            continue
        spectrum = multiply_by_adjoint(truth)
        return InstanceBundle(
            spectrum=spectrum,
            ground_truth=truth,
            seed=seed,
            root_margin=check_outer_determinant(truth)[0] - 1.0,
            condition_estimate=_condition_estimate(spectrum),
            boundary=boundary,
        )
    raise RetryExhausted(
        f"{MAX_ATTEMPTS} degenerate draws in a row for {what}; try another seed"
    )


def generate_instance(r: int, m: int, seed: int,
                      root_margin: float = 0.2) -> InstanceBundle:
    """Deterministic problem instance with det roots at modulus >= 1 + margin."""
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    if not (root_margin > 0):
        raise ValueError("root_margin must be positive")
    return _bundle(seed, lambda stream: _build_ground_truth(stream, r, m, root_margin),
                   f"(r={r}, m={m}, seed={seed})")


def generate_boundary_instance(r: int, m: int, seed: int) -> InstanceBundle:
    """Instance whose spectrum vanishes at exactly one point of the circle.

    A healthy degree m-1 factor is multiplied on the right by a diagonal
    boundary stage: one channel picks up the scalar factor
    ``(1 + exp(-i theta0) z) / sqrt(2)``, planting one det root exactly on
    |z| = 1.  The result is warning grade: positivity is tangent to zero and
    factorization tolerances degrade.
    """
    if r < 1 or m < 1:
        raise ValueError("boundary instances need r >= 1 and m >= 1")
    return _bundle(seed, lambda stream: _boundary_truth(stream, r, m),
                   f"boundary (r={r}, m={m}, seed={seed})", boundary=True)
