"""Executable checks for every identity a causal spectral factor must satisfy.

Each check measures one contract between a spectrum ``S`` and a candidate
factor ``X`` on a finite unit-circle grid:

* positivity of ``S`` (with ``det S`` not identically zero),
* the factorization identity ``S = X X^*`` in coefficient space,
* degree preservation (deg X <= order of S),
* outerness of ``det X`` (no roots inside the open unit disk),
* the pointwise identity ``X(z)^{-1} z^m S(z) = z^m X(z)^*`` together with
  the vanishing of the Fourier mass of its left side outside the causal
  window [0, m] -- the computable witness that the left side really is a
  polynomial of degree at most m,
* agreement of two factors up to one constant unitary matrix.

All functions are rational with known band or degree bounds, so a
sufficiently fine grid is decisive up to conditioning; every "almost
everywhere on the circle" statement is checked on ``K = max(256, 8(m+1))``
points by default, with a grid-doubling cross-check on the anticausal mass.
Failures inside :func:`verify_all` are reported as failed entries, never
raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IdenticallyZeroDeterminant,
    SingularFactorOnGrid,
    SpectralFactorError,
)
from .factorize import _residual_against
from .laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _frobenius,
    _next_pow2,
    coefficients_from_values,
    sample_on_grid,
    unit_circle_grid,
)

# Grid condition-number cap before a factor counts as singular on the grid.
GRID_COND_MAX = 1e10

# Roots of det X inside this band around |z| = 1 are boundary-ambiguous.
OUTER_BOUNDARY_BAND = 1e-6


@dataclass(frozen=True)
class VerifyOptions:
    """Tolerances and grid override for :func:`verify_all`."""

    grid_K: int | None = None
    residual_tol: float = 1e-9
    causal_identity_tol: float = 1e-8
    mass_stability_tol: float = 1e-9
    outer_tol: float = 1e-6
    positivity_tol: float = 1e-10


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    warning: bool = False

    @property
    def status(self) -> str:
        if not self.passed:
            return "fail"
        return "warn" if self.warning else "pass"


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckEntry] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(entry.passed for entry in self.checks if not entry.warning)

    @property
    def has_warnings(self) -> bool:
        return any(entry.warning for entry in self.checks)


def default_verify_grid(m: int) -> int:
    return _next_pow2(max(256, 8 * (m + 1)))


# Zoom refinement of the grid minimizer: each level evaluates this many
# equally spaced angles across the bracket, then re-centres a bracket of two
# spacings on the best one.  Six levels of 17 shrink the spacing by 8**6, to
# below 1e-7 rad on every grid of 256 or more points.
ZOOM_POINTS = 17
ZOOM_LEVELS = 6


def _values_at_angles(S: HermitianLaurentPolynomial, theta: np.ndarray) -> np.ndarray:
    """Values S(exp(i theta)) at a vector of angles, one matmul over the
    coefficient stack; exactly Hermitian, since sigma_0 is symmetrized and the
    rest is a sum of a tail and its adjoint."""
    r = S.r
    powers = np.exp(1j * np.outer(theta, np.arange(1, S.m + 1)))
    tail = (powers @ S.coeffs[1:].reshape(S.m, r * r)).reshape(len(theta), r, r)
    sigma0 = 0.5 * (S.coeffs[0] + S.coeffs[0].conj().T)
    return sigma0 + tail + tail.conj().transpose(0, 2, 1)


def check_positivity(S: HermitianLaurentPolynomial, K: int | None = None):
    """Minimum eigenvalue and minimum |det| of S over the circle.

    Scans the K-point grid, then zooms in on the grid minimizer theta_j: each
    of ``ZOOM_LEVELS`` levels evaluates S at ``ZOOM_POINTS`` angles across
    the bracket (first ``[theta_j - 2 pi/K, theta_j + 2 pi/K]``), takes the
    batch's smallest eigenvalues and re-centres on their argmin, so a
    boundary zero that falls between grid points is still seen as
    (numerically) zero.  The minimum |det| also includes the value at the
    refined minimizer.
    """
    if K is None:
        K = default_verify_grid(S.m)
    values = sample_on_grid(S, K).samples
    values = 0.5 * (values + values.conj().transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(values)
    dets = np.abs(np.linalg.det(values))
    min_eig = float(eigs[:, 0].min())
    center = 2.0 * np.pi * int(np.argmin(eigs[:, 0])) / K
    half_width = 2.0 * np.pi / K
    for _ in range(ZOOM_LEVELS):
        theta = center + np.linspace(-half_width, half_width, ZOOM_POINTS)
        batch = _values_at_angles(S, theta)
        low = np.linalg.eigvalsh(batch)[:, 0]
        best = int(np.argmin(low))
        min_eig = min(min_eig, float(low[best]))
        center = theta[best]
        half_width *= 2.0 / (ZOOM_POINTS - 1)
    min_det = min(float(dets.min()), float(abs(np.linalg.det(batch[best]))))
    return min_eig, min_det


def check_factorization(S: HermitianLaurentPolynomial, x: MatrixPolynomial) -> float:
    """Relative coefficientwise residual of the identity S = X X^*."""
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    return _residual_against(S.coeffs, x.coeffs)


def check_degree(S: HermitianLaurentPolynomial, x: MatrixPolynomial):
    """(order of S, degree of X, degree-preservation verdict), both trimmed."""
    return S.m, x.m, x.m <= S.m


def determinant_polynomial(x: MatrixPolynomial) -> np.ndarray:
    """Coefficients (low to high) of det X(z), degree <= r*m, via grid
    sampling and coefficient recovery."""
    bound = x.r * x.m
    K = _next_pow2(max(8, 2 * (bound + 1)))
    values = sample_on_grid(x, K).samples
    dets = np.linalg.det(values)
    coeffs = np.fft.fft(dets) / K
    return coeffs[: bound + 1]


def check_outer_determinant(x: MatrixPolynomial):
    """(min modulus of the roots of det X, all roots).

    Outer for a polynomial means no roots in the open unit disk; passing is
    min modulus >= 1 - OUTER_BOUNDARY_BAND, with roots inside the band
    reported as boundary warnings by the caller.
    """
    coeffs = determinant_polynomial(x)
    magnitudes = np.abs(coeffs)
    top = magnitudes.max()
    if top <= 0 or not np.isfinite(top):
        raise IdenticallyZeroDeterminant("det X is numerically the zero polynomial")
    keep = np.nonzero(magnitudes > 1e-10 * top)[0]
    trimmed = coeffs[: keep[-1] + 1]
    if len(trimmed) == 1:
        return float("inf"), np.zeros(0, dtype=np.complex128)
    roots = np.roots(trimmed[::-1])
    return float(np.abs(roots).min()), roots


def check_causal_identity(S: HermitianLaurentPolynomial, x: MatrixPolynomial,
                          K: int | None = None):
    """Gap in ``X(z)^{-1} z^m S(z) = z^m X(z)^*`` and the anticausal mass.

    ``pointwise_gap`` is the worst grid Frobenius gap between the two sides,
    relative to the coefficient scale of S.  ``anticausal_mass`` is the root
    sum of squares of the Fourier coefficients of the left side at indices
    outside [0, m]: numerically zero exactly when the left side is a causal
    polynomial of degree at most m.
    """
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    m = S.m
    if K is None:
        K = default_verify_grid(m)
    S_vals = sample_on_grid(S, K).samples
    x_vals = sample_on_grid(x, K).samples
    cond = np.linalg.cond(x_vals)
    if not np.all(np.isfinite(cond)) or cond.max() > GRID_COND_MAX:
        raise SingularFactorOnGrid(
            f"factor condition number {cond.max():.3e} on the grid exceeds "
            f"{GRID_COND_MAX:.1e}"
        )
    z_m = unit_circle_grid(K) ** m
    left = np.linalg.solve(x_vals, z_m[:, None, None] * S_vals)
    right = z_m[:, None, None] * x_vals.conj().transpose(0, 2, 1)
    scale = 1.0 + float(_frobenius(S.coeffs).max())
    pointwise_gap = float(_frobenius(left - right).max()) / scale

    window = coefficients_from_values(left, -(K // 2), K // 2 - 1)
    norms = _frobenius(window)
    causal = np.zeros(K, dtype=bool)
    causal[K // 2 : K // 2 + m + 1] = True  # window index K//2 holds n = 0
    anticausal_mass = float(np.sqrt(np.sum(norms[~causal] ** 2))) / scale
    return pointwise_gap, anticausal_mass


def check_constant_unitary_equivalence(x1: MatrixPolynomial, x2: MatrixPolynomial,
                                       K: int | None = None):
    """How far ``U(z) = X1(z)^{-1} X2(z)`` is from one constant unitary matrix.

    Both gaps small certifies that the factors induce the same spectrum and
    differ only by the constant unitary the uniqueness statement allows.
    """
    if x1.r != x2.r:
        raise ValueError(f"dimension mismatch: r={x1.r} vs r={x2.r}")
    if K is None:
        K = default_verify_grid(max(x1.m, x2.m))
    v1 = sample_on_grid(x1, K).samples
    v2 = sample_on_grid(x2, K).samples
    cond = np.linalg.cond(v1)
    if not np.all(np.isfinite(cond)) or cond.max() > GRID_COND_MAX:
        raise SingularFactorOnGrid(
            f"left factor condition number {cond.max():.3e} on the grid exceeds "
            f"{GRID_COND_MAX:.1e}"
        )
    U = np.linalg.solve(v1, v2)
    mean = U.mean(axis=0)
    constancy_gap = float(_frobenius(U - mean).max())
    eye = np.eye(x1.r)
    unitarity_gap = float(_frobenius(U @ U.conj().transpose(0, 2, 1) - eye).max())
    return constancy_gap, unitarity_gap


def verify_all(S: HermitianLaurentPolynomial, x: MatrixPolynomial,
               opts: VerifyOptions = VerifyOptions()) -> VerificationReport:
    """Run every (S, X) check and collect a report.

    Check errors become failed entries rather than exceptions, so reports for
    bad inputs are complete.  Overall pass is the conjunction of the
    non-warning entries.
    """
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    K = opts.grid_K if opts.grid_K is not None else default_verify_grid(S.m)
    entries: list[CheckEntry] = []

    scale = 1.0 + float(_frobenius(S.coeffs).max())
    try:
        min_eig, min_det = check_positivity(S, K)
        violation = max(0.0, -min_eig) / scale
        near_singular = min_eig <= 1e-8 * scale
        entries.append(CheckEntry(
            name="positivity",
            passed=violation <= opts.positivity_tol,
            measured=violation,
            tolerance=opts.positivity_tol,
            detail=f"min eigenvalue {min_eig:.3e}, min |det| {min_det:.3e}"
                   + ("; nearly singular on the circle" if near_singular else ""),
            warning=near_singular and violation <= opts.positivity_tol,
        ))
    except SpectralFactorError as exc:
        entries.append(CheckEntry("positivity", False, 0.0, opts.positivity_tol,
                                  detail=str(exc)))

    try:
        residual = check_factorization(S, x)
        entries.append(CheckEntry(
            name="factorization",
            passed=residual <= opts.residual_tol,
            measured=residual,
            tolerance=opts.residual_tol,
            detail="relative coefficientwise residual of S = X X*",
        ))
    except SpectralFactorError as exc:
        entries.append(CheckEntry("factorization", False, 0.0, opts.residual_tol,
                                  detail=str(exc)))

    deg_S, deg_x, degree_ok = check_degree(S, x)
    entries.append(CheckEntry(
        name="degree",
        passed=degree_ok,
        measured=float(max(0, deg_x - deg_S)),
        tolerance=0.0,
        detail=f"order of S = {deg_S}, degree of factor = {deg_x}",
    ))

    try:
        min_root, roots = check_outer_determinant(x)
        deficit = max(0.0, 1.0 - min_root) if np.isfinite(min_root) else 0.0
        boundary = bool(np.any(np.abs(np.abs(roots) - 1.0) <= OUTER_BOUNDARY_BAND))
        entries.append(CheckEntry(
            name="outer-determinant",
            passed=deficit <= opts.outer_tol,
            measured=deficit,
            tolerance=opts.outer_tol,
            detail=f"min det-root modulus {min_root:.6g} over {len(roots)} root(s)"
                   + ("; root(s) on the boundary band" if boundary else ""),
            warning=boundary and deficit <= opts.outer_tol,
        ))
    except SpectralFactorError as exc:
        entries.append(CheckEntry("outer-determinant", False, 0.0, opts.outer_tol,
                                  detail=str(exc)))

    try:
        gap, mass = check_causal_identity(S, x, K)
        entries.append(CheckEntry(
            name="causal-identity",
            passed=gap <= opts.causal_identity_tol,
            measured=gap,
            tolerance=opts.causal_identity_tol,
            detail=f"pointwise gap of X^-1 z^m S = z^m X* on K={K}",
        ))
        entries.append(CheckEntry(
            name="anticausal-mass",
            passed=mass <= opts.causal_identity_tol,
            measured=mass,
            tolerance=opts.causal_identity_tol,
            detail=f"Fourier mass outside the causal window [0, {S.m}]",
        ))
        _, mass2 = check_causal_identity(S, x, 2 * K)
        drift = abs(mass2 - mass)
        entries.append(CheckEntry(
            name="anticausal-mass-stability",
            passed=drift <= opts.mass_stability_tol,
            measured=drift,
            tolerance=opts.mass_stability_tol,
            detail=f"anticausal mass change when doubling the grid to {2 * K}",
        ))
    except SpectralFactorError as exc:
        for name in ("causal-identity", "anticausal-mass", "anticausal-mass-stability"):
            entries.append(CheckEntry(name, False, 0.0, opts.causal_identity_tol,
                                      detail=str(exc)))

    return VerificationReport(checks=entries)
