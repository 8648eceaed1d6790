"""Ground-truth-first construction of factorization test problems.

A bundle is built backwards: draw a random causal factor, push its
determinant roots outside the closed unit disk, canonicalize, and only then
form the induced spectrum.  The bundle's factor is therefore an exact oracle
for the factorization of its spectrum, with no factorization code trusted
anywhere in the construction.

A draw's det coefficients are computed once (``laurent._det_coefficients``).
A det root below the trim radius ``rho_c`` (see :func:`_trim_radius`) forces
a rescale that trims the leading coefficient or falls below ``MIN_RESCALE``,
so the argument principle counts the roots inside ``rho_c /
ROOT_COUNT_BAND`` (:func:`_certified_root_count`) and a count of one or more
rejects the draw.  Only a draw the count does not reject pays for
``np.roots``, on the same coefficients, which gives the rescale t.  The
bundle's ``root_margin`` is the smallest modulus of those roots, divided by
t after a rescale, less one: canonicalization multiplies by a constant
unitary, which moves no det root.  A boundary truth reads its own det roots.

The canonical form (``laurent.canonical_normalize``) and the det-root
kernels live in ``laurent``, so generating loads neither ``factorize`` nor
``verify``.

Randomness comes from the portable splitmix64 stream (see :mod:`.rng`), so a
bundle is a pure function of ``(r, m, seed, root_margin)`` and reproduces
bit-for-bit.  Draw order: coefficient entries for n = 0..m in row-major
order, real part then imaginary part, each a standard normal, taken as one
``normals`` block; boundary instances then draw the channel index and the
boundary angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RetryExhausted, SingularLeadingCoefficient
from .laurent import (
    TRIM_RTOL,
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _det_coefficients,
    _det_roots,
    _frobenius,
    _hermitian_scan,
    _next_pow2,
    canonical_normalize,
    check_outer_determinant,
    default_verify_grid,
    multiply_by_adjoint,
    sample_on_grid,
)
from .rng import _WEYL, SplitMix64

# Draws whose det roots cannot be pushed out without collapsing the variable
# are discarded; after this many the seed is rejected.
MAX_ATTEMPTS = 10

# Reject draws that would need a rescale factor below this (det root near 0).
MIN_RESCALE = 1e-3

# Doublings of _certified_root_count's first grid before it declines, which
# leaves the draw to np.roots.  Building the newton pools (seeds 1000, 2000,
# 7717) and the toeplitz, near-circle and cli pools (seed 1000) took at most
# three, to K = 8192, and no count declined.
ROOT_COUNT_DOUBLINGS = 3

# The count runs on the circle of radius rho_c / ROOT_COUNT_BAND.  rho_c is
# exact for the trim rule, so the band only covers np.roots' error in the
# nearest root's modulus and the rounding of the trim comparison, both far
# below 1%.  On the newton pools (seeds 1000, 2000, 7717) it leaves one
# rejected draw, (8, 16) at seed 2037, to np.roots; a band of 1.1 left 28.
ROOT_COUNT_BAND = 1.01


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """A generated problem: exact ground-truth factor plus induced spectrum."""

    spectrum: HermitianLaurentPolynomial
    ground_truth: MatrixPolynomial
    seed: int
    root_margin: float
    boundary: bool = False

    @cached_property
    def condition_estimate(self) -> float:
        """:func:`_condition_estimate` of the spectrum, computed on first read."""
        return _condition_estimate(self.spectrum)


def _attempt_stream(seed: int, attempt: int) -> SplitMix64:
    # Attempt k reseeds at seed + k * (the splitmix64 Weyl increment).
    return SplitMix64(seed + attempt * _WEYL)


def _draw_coefficients(stream: SplitMix64, r: int, m: int) -> np.ndarray:
    return stream.normals(2 * (m + 1) * r * r).view(np.complex128).reshape(m + 1, r, r)


def _condition_estimate(S: HermitianLaurentPolynomial) -> float:
    """2-norm condition number of S over the check grid, the largest |eig| at
    any node over the smallest at any node, so a scalar spectrum near zero on
    the circle reads large too; ``inf``, without a warning, when S is singular
    at a node."""
    eigs = np.abs(_hermitian_scan(sample_on_grid(S, default_verify_grid(S.m))))
    with np.errstate(divide="ignore"):
        return float(eigs.max() / eigs.min())


def _trim_radius(coeffs: np.ndarray, root_margin: float) -> float:
    """``rho_c``: a draw with a det root below it is rejected.

    Under z -> t z the coefficient rho_k scales by t^k, so rho_m trims once
    ``t^(m-k) ||rho_m|| <= TRIM_RTOL ||rho_k||`` for some k < m, and for
    every smaller t too.  A root below ``rho_c = (1 + margin) max(MIN_RESCALE,
    max_k (TRIM_RTOL ||rho_k|| / ||rho_m||)^(1/(m-k)))`` sets t below that
    threshold or below ``MIN_RESCALE``.
    """
    norms = _frobenius(coeffs)
    m = len(coeffs) - 1
    threshold = np.max((TRIM_RTOL * norms[:m] / norms[m]) ** (1.0 / np.arange(m, 0, -1)),
                       initial=0.0)
    return (1.0 + root_margin) * max(MIN_RESCALE, float(threshold))


def _certified_root_count(c: np.ndarray, rho: float) -> int | None:
    """The number of roots of ``p(z) = sum_k c_k z^k`` in the open disk |z| < rho,
    or ``None`` where the sampled circle is not proven free of roots.

    The argument principle on K >= 16(d+1) equispaced samples of ``p(rho z)``,
    K doubling up to ``ROOT_COUNT_DOUBLINGS`` times.  On the arc from one node
    to the next, p moves by at most ``(2 pi / K) sum_k k |c_k| rho^k``; when
    every sampled ``|p|`` exceeds that plus a bound on the transform's
    rounding, the arc's image stays in a disk that excludes 0, so each phase
    step is the principal angle between neighbouring samples and their sum is
    2 pi times the count exactly.  Where ``rho^k`` overflows, it declines
    without a warning.
    """
    d = len(c) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        a = c * rho ** np.arange(d + 1)
    if not np.all(np.isfinite(a)):
        return None
    magnitudes = np.abs(a)
    slope = 2.0 * np.pi * float(np.arange(d + 1) @ magnitudes)
    total = float(magnitudes.sum())
    K = first = _next_pow2(16 * (d + 1))
    while K <= first << ROOT_COUNT_DOUBLINGS:
        # The forward transform samples p(rho z) at conj(z_j): clockwise.
        values = np.fft.fft(a, K)
        rounding = 16.0 * np.finfo(float).eps * np.log2(K) * np.sqrt(K) * total
        if np.abs(values).min() > slope / K + rounding:
            turns = -np.angle(np.roll(values, -1) / values).sum() / (2.0 * np.pi)
            return int(round(turns))
        K *= 2
    return None


def _rescaled(coeffs: np.ndarray, t: float) -> MatrixPolynomial | None:
    """The draw under z -> t z, or ``None`` when t is below ``MIN_RESCALE``
    or the rescale trims rho_m."""
    if t < MIN_RESCALE:
        return None
    m = len(coeffs) - 1
    draw = MatrixPolynomial(coeffs * (t ** np.arange(m + 1))[:, None, None])
    return draw if draw.m == m else None


def _canonical(draw: MatrixPolynomial, m: int) -> MatrixPolynomial | None:
    """The generator's acceptance step: the draw's canonical form, or
    ``None`` where canonicalization raises ``SingularLeadingCoefficient`` or
    the canonical form is not of degree m."""
    try:
        canonical, _ = canonical_normalize(draw)
    except SingularLeadingCoefficient:
        return None
    return canonical if canonical.m == m else None


def _build_ground_truth(stream: SplitMix64, r: int, m: int, root_margin: float
                        ) -> tuple[MatrixPolynomial, float] | None:
    """One attempt at a canonical factor with det roots out at 1 + margin,
    with the modulus of its nearest det root less one."""
    coeffs = _draw_coefficients(stream, r, m)
    draw = MatrixPolynomial(coeffs)
    if draw.m != m:
        return None
    det = _det_coefficients(draw)
    # A root inside rho_c / ROOT_COUNT_BAND forces a rescale that _rescaled
    # rejects; a count of 0 or none leaves the draw to the eigensolve.
    if _certified_root_count(det, _trim_radius(coeffs, root_margin) / ROOT_COUNT_BAND):
        return None
    min_modulus, _ = _det_roots(det)
    if np.isfinite(min_modulus) and min_modulus < 1.0 + root_margin:
        # Substituting z -> t z scales every det root by 1/t.
        t = min_modulus / (1.0 + root_margin)
        draw = _rescaled(coeffs, t)
        if draw is None:
            return None
        min_modulus /= t
    canonical = _canonical(draw, m)
    # Canonicalization multiplies by a constant unitary: no det root moves.
    return None if canonical is None else (canonical, min_modulus - 1.0)


def _boundary_truth(stream: SplitMix64, r: int, m: int
                    ) -> tuple[MatrixPolynomial, float] | None:
    """One attempt at a canonical factor with one det root on the circle,
    with the modulus of its nearest det root less one."""
    built = _build_ground_truth(stream, r, m - 1, 0.2)
    if built is None:
        return None
    base, _ = built
    channel = stream.integer(r)
    theta0 = 2.0 * np.pi * stream.uniform()
    phase = np.exp(-1j * theta0)

    coeffs = np.zeros((m + 1, r, r), dtype=np.complex128)
    coeffs[: m] += base.coeffs
    coeffs[:, :, channel] *= 1.0 / np.sqrt(2.0)
    coeffs[1:, :, channel] += base.coeffs[:, :, channel] * (phase / np.sqrt(2.0))
    truth = _canonical(MatrixPolynomial(coeffs), m)
    return None if truth is None else (truth, check_outer_determinant(truth)[0] - 1.0)


def _bundle(seed: int, build, what: str, boundary: bool = False) -> InstanceBundle:
    """Bundle of the first attempt whose ``build(stream)`` returns a factor
    and its root margin."""
    for attempt in range(MAX_ATTEMPTS):
        built = build(_attempt_stream(seed, attempt))
        if built is None:
            continue
        truth, root_margin = built
        return InstanceBundle(
            spectrum=multiply_by_adjoint(truth),
            ground_truth=truth,
            seed=seed,
            root_margin=root_margin,
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
    if not (0 < root_margin < np.inf):
        raise ValueError("root_margin must be positive and finite")
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


# The names the CLI binds the generators by (see ``cli._LAZY``).
_generate_instance = generate_instance
_generate_boundary_instance = generate_boundary_instance
