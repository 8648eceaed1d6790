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
sufficiently fine grid is decisive up to conditioning.  No check takes a grid:
the ones that sample S or a factor run on the one check grid K,
:func:`~specfact.laurent.default_verify_grid` (the smallest power of two
>= max(256, 8(m+1)), the grid ``factor()``'s hypothesis precheck and the
generator's condition estimate use too) at the larger of the orders of S and
X.  The causal check samples S and X once, on the doubled grid 2K, and
inverts X there once; it returns the gap and the anticausal mass on the K
grid, which is the even points of those samples, and how far the mass moves
on the full 2K grid.  :func:`verify_all` samples S on 2K once and hands those
values to every check; its causal entries are that same triple.  The outer
check instead samples det X on its own grid, the smallest power of two
>= max(8, 2(r m + 1)).
Checks that divide by a factor use its pointwise grid inverse, whose worst
1-norm condition number must stay below ``GRID_COND_MAX``.
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
from .laurent import (
    POSITIVITY_TOL,
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _coefficient_scale,
    _frobenius,
    _guarded_inverse,
    _next_pow2,
    _positivity_scan,
    _residual_against,
    coefficients_from_values,
    default_verify_grid,
    sample_on_grid,
    unit_circle_grid,
)

# Cap on the worst grid 1-norm condition number ||X(z_j)||_1 ||X(z_j)^{-1}||_1,
# taken from the pointwise inverse, before a factor counts as singular.
GRID_COND_MAX = 1e10

# Roots of det X inside this band around |z| = 1 are boundary-ambiguous.
OUTER_BOUNDARY_BAND = 1e-6

# Tolerances of the verify_all entries other than the factorization residual
# and positivity (laurent.POSITIVITY_TOL): causal-identity gap and anticausal
# mass, the mass change when the grid doubles, the det-root deficit below 1.
CAUSAL_IDENTITY_TOL = 1e-8
MASS_STABILITY_TOL = 1e-9
OUTER_TOL = 1e-6


@dataclass(frozen=True)
class VerifyOptions:
    """Factorization-residual tolerance for :func:`verify_all`; the other
    tolerances are module constants."""

    residual_tol: float = 1e-9

    def __post_init__(self):
        if not (self.residual_tol > 0):
            raise ValueError("residual_tol must be positive")
        if not np.isfinite(self.residual_tol):
            raise ValueError("residual_tol must be finite")


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


def check_positivity(S: HermitianLaurentPolynomial):
    """Minimum eigenvalue and minimum |det| of S over the circle, by the zoomed
    scan of the check grid, ``laurent._positivity_scan``, which still sees a
    boundary zero that falls between grid points."""
    return _positivity_scan(S, sample_on_grid(S, default_verify_grid(S.m)))[1:]


def check_factorization(S: HermitianLaurentPolynomial, x: MatrixPolynomial) -> float:
    """Relative coefficientwise residual of the identity S = X X^*, the same
    ``_residual_against`` that ``factor()`` reports."""
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    return _residual_against(S.coeffs, x.coeffs)


def check_degree(S: HermitianLaurentPolynomial, x: MatrixPolynomial):
    """(order of S, degree of X, degree-preservation verdict), both trimmed."""
    return S.m, x.m, x.m <= S.m


def check_outer_determinant(x: MatrixPolynomial):
    """(min modulus of the roots of det X, all roots).

    det X, of degree at most r m, is sampled on its own grid and read back
    as coefficients.  Outer for a polynomial means no roots in the open unit
    disk; passing is min modulus >= 1 - OUTER_BOUNDARY_BAND, with roots
    inside the band reported as boundary warnings by the caller.
    """
    bound = x.r * x.m
    dets = np.linalg.det(sample_on_grid(x, _next_pow2(max(8, 2 * (bound + 1)))))
    coeffs = coefficients_from_values(dets, 0, bound)
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


def check_causal_identity(S: HermitianLaurentPolynomial, x: MatrixPolynomial):
    """Gap in ``X(z)^{-1} z^m S(z) = z^m X(z)^*``, the anticausal mass, and its
    change when the grid doubles: ``verify_all``'s three causal entries.

    ``gap`` is the worst Frobenius gap between the two sides on the check
    grid K, relative to the coefficient scale of S.  ``mass`` is the root sum
    of squares of the K-grid Fourier coefficients of the left side at indices
    outside [0, m]: numerically zero exactly when the left side is a causal
    polynomial of degree at most m.  ``mass_change`` is ``|mass_2K - mass|``.
    S and X are sampled once, on 2K, and X is inverted there once, so a
    factor singular at any 2K node raises ``SingularFactorOnGrid``.
    """
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    S2K = sample_on_grid(S, 2 * default_verify_grid(max(S.m, x.m)))
    return _causal_triple(S, x, S2K, _coefficient_scale(S.coeffs))


def _causal_triple(S, x, S2K, scale):
    """:func:`check_causal_identity` on the values of S at the 2K grid."""
    left, gaps = _causal_identity_on_grid(S, S2K, sample_on_grid(x, len(S2K)))
    mass = _anticausal_mass(left[::2], S.m, scale)
    return (float(gaps[::2].max()) / scale, mass,
            abs(_anticausal_mass(left, S.m, scale) - mass))


def _causal_identity_on_grid(S: HermitianLaurentPolynomial, S_vals: np.ndarray,
                             x_vals: np.ndarray):
    """The left side ``X^{-1} z^m S`` on the grid the values sit on, from one
    guarded pointwise inverse of X, and its Frobenius gap to the right side
    ``z^m X^*`` at each grid point."""
    inverse = _guarded_inverse(x_vals, GRID_COND_MAX, SingularFactorOnGrid, "factor")
    z_m = (unit_circle_grid(len(x_vals)) ** S.m)[:, None, None]
    left = inverse @ (z_m * S_vals)
    return left, _frobenius(left - z_m * x_vals.conj().transpose(0, 2, 1))


def _anticausal_mass(left: np.ndarray, m: int, scale: float) -> float:
    # Indices m+1..K-1 are, modulo K, every index outside the window [0, m].
    norms = _frobenius(coefficients_from_values(left, 0, len(left) - 1))
    return float(np.sqrt(np.sum(norms[m + 1 :] ** 2))) / scale


def check_constant_unitary_equivalence(x1: MatrixPolynomial, x2: MatrixPolynomial):
    """How far ``U(z) = X1(z)^{-1} X2(z)`` is from one constant unitary matrix.

    Both gaps small certifies that the factors induce the same spectrum and
    differ only by the constant unitary the uniqueness statement allows.
    """
    if x1.r != x2.r:
        raise ValueError(f"dimension mismatch: r={x1.r} vs r={x2.r}")
    K = default_verify_grid(max(x1.m, x2.m))
    v1 = sample_on_grid(x1, K)
    v2 = sample_on_grid(x2, K)
    U = _guarded_inverse(v1, GRID_COND_MAX, SingularFactorOnGrid, "left factor") @ v2
    mean = U.mean(axis=0)
    constancy_gap = float(_frobenius(U - mean).max())
    eye = np.eye(x1.r)
    unitarity_gap = float(_frobenius(U @ U.conj().transpose(0, 2, 1) - eye).max())
    return constancy_gap, unitarity_gap


def _measure_positivity(S, x, S2K, scale):
    deficit, min_eig, min_det = _positivity_scan(S, S2K[::2])
    near_singular = min_eig <= 1e-8 * scale
    detail = (f"min eigenvalue {min_eig:.3e}, min |det| {min_det:.3e}"
              + ("; nearly singular on the circle" if near_singular else ""))
    return [(deficit, detail, near_singular)]


def _measure_factorization(S, x, S2K, scale):
    return [(check_factorization(S, x), "relative coefficientwise residual of S = X X*",
             False)]


def _measure_degree(S, x, S2K, scale):
    deg_S, deg_x, _ = check_degree(S, x)
    return [(float(max(0, deg_x - deg_S)),
             f"order of S = {deg_S}, degree of factor = {deg_x}", False)]


def _measure_outer(S, x, S2K, scale):
    min_root, roots = check_outer_determinant(x)
    deficit = max(0.0, 1.0 - min_root) if np.isfinite(min_root) else 0.0
    boundary = bool(np.any(np.abs(np.abs(roots) - 1.0) <= OUTER_BOUNDARY_BAND))
    detail = (f"min det-root modulus {min_root:.6g} over {len(roots)} root(s)"
              + ("; root(s) on the boundary band" if boundary else ""))
    return [(deficit, detail, boundary)]


def _measure_causal(S, x, S2K, scale):
    gap, mass, mass_change = _causal_triple(S, x, S2K, scale)
    K = len(S2K) // 2
    return [
        (gap, f"pointwise gap of X^-1 z^m S = z^m X* on K={K}", False),
        (mass, f"Fourier mass outside the causal window [0, {S.m}]", False),
        (mass_change, f"anticausal mass change when doubling the grid to {2 * K}",
         False),
    ]


def verify_all(S: HermitianLaurentPolynomial, x: MatrixPolynomial,
               opts: VerifyOptions = VerifyOptions()) -> VerificationReport:
    """Run every (S, X) check and collect a report.

    Each check measures one value per entry; an entry passes when its value
    is at most its tolerance, and a warning is kept only on a pass.  A
    ``SpectralFactorError`` fails every entry of its check, each with its own
    tolerance, so reports for bad inputs are complete.  Overall pass is the
    conjunction of the non-warning entries.  K is
    ``default_verify_grid(max(S.m, x.m))``, so a factor of any degree is
    sampled without aliasing.  A dimension mismatch raises ``ValueError``.
    """
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")
    S2K = sample_on_grid(S, 2 * default_verify_grid(max(S.m, x.m)))
    scale = _coefficient_scale(S.coeffs)
    checks = (
        (_measure_positivity, {"positivity": POSITIVITY_TOL}),
        (_measure_factorization, {"factorization": opts.residual_tol}),
        (_measure_degree, {"degree": 0.0}),
        (_measure_outer, {"outer-determinant": OUTER_TOL}),
        (_measure_causal, {"causal-identity": CAUSAL_IDENTITY_TOL,
                           "anticausal-mass": CAUSAL_IDENTITY_TOL,
                           "anticausal-mass-stability": MASS_STABILITY_TOL}),
    )
    entries: list[CheckEntry] = []
    for measure, tolerances in checks:
        try:
            measurements = measure(S, x, S2K, scale)
        except SpectralFactorError as exc:
            entries.extend(CheckEntry(name, False, 0.0, tolerance, detail=str(exc))
                           for name, tolerance in tolerances.items())
            continue
        for (name, tolerance), (measured, detail, warning) in zip(
                tolerances.items(), measurements, strict=True):
            passed = measured <= tolerance
            entries.append(CheckEntry(name, passed, measured, tolerance, detail,
                                      warning and passed))
    return VerificationReport(checks=entries)
