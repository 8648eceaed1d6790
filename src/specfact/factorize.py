"""Computation of the causal spectral factor of a positive definite spectrum.

Given a para-Hermitian Laurent polynomial ``S`` of order ``m`` that is
positive semidefinite on the unit circle with ``det S`` not identically zero,
there is a causal polynomial factor ``X`` of degree at most ``m`` with
``S = X X^*`` on the circle, ``det X`` free of zeros inside the open unit
disk, and ``X`` unique up to a constant unitary right factor.  This module
computes that factor by two independent algorithms and fixes the unitary
freedom by a canonical normalization, so the two routes can be compared
coefficientwise:

* :func:`bauer_factor` -- block Cholesky of growing banded block-Toeplitz
  matrices; the last block row converges (linearly) to the factor
  coefficients.  Each row comes from the carried inverse adjoint of the
  trailing m x m block of the factor, at a fixed number of numpy calls per
  row whatever m is.  Robust, no initial guess.
* :func:`wilson_factor` -- Newton-type iteration
  ``X_{k+1} = X_k * [X_k^{-1} S X_k^{-*} + I]_+`` on a unit-circle grid, where
  ``[.]_+`` keeps half the index-0 Fourier coefficient plus indices 1..m.
  The product with ``X_k`` is formed on the grid too, and ``X_k`` counts as
  singular when its worst grid 1-norm condition number, taken from its
  pointwise inverse, exceeds ``NEWTON_COND_MAX``.
  Quadratically convergent near the solution.
* :func:`scalar_root_factor` -- for r = 1 only: factor through the roots of
  ``z^m S(z)``, which pair as (a, 1/conj(a)); the factor collects the roots
  outside the closed unit disk plus half of each boundary cluster.

:func:`canonical_normalize` maps any factor to the unique representative of
its unitary equivalence class whose value at z = 0 is lower triangular with
strictly positive diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    SingularIterate,
    SingularLeadingCoefficient,
)
from .laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _frobenius,
    _hermitian_scan,
    _inverse_on_grid,
    adjoint_product_coefficients,
    coefficients_from_values,
    default_grid_size,
    default_verify_grid,
    sample_on_grid,
    sample_values_on_grid,
)

ALGORITHMS = ("auto", "bauer", "wilson", "scalar_roots")

# Roots of det X this close to the unit circle are treated as boundary cases.
BOUNDARY_ROOT_TOL = 1e-7

# Condition-number cap on rho_0 for canonical normalization.
LEADING_COND_MAX = 1e12

# Grid 1-norm condition-number cap before a Newton iterate counts as singular.
NEWTON_COND_MAX = 1e12


@dataclass(frozen=True)
class FactorizationOptions:
    """Knobs for :func:`factor` and the individual algorithms."""

    algorithm: str = "auto"
    residual_tol: float = 1e-9
    max_toeplitz_blocks: int = 2**14
    max_newton_iters: int = 60
    grid_K: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not (self.residual_tol > 0):
            raise ValueError("residual_tol must be positive")
        if self.max_toeplitz_blocks < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration and size caps must be >= 1")
        if self.grid_K is not None and self.grid_K < 2:
            raise ValueError("grid_K must be >= 2")


@dataclass(frozen=True)
class FactorizationResult:
    factor: MatrixPolynomial
    algorithm_used: str
    iterations_or_blocks: int
    achieved_residual: float
    warnings: list[str] = field(default_factory=list)


def _coefficient_scale(sigma: np.ndarray) -> float:
    return 1.0 + float(_frobenius(sigma).max())


def _residual_against(sigma: np.ndarray, factor_coeffs: np.ndarray) -> float:
    """Relative coefficientwise mismatch of the factorization identity.

    max_n ||sigma_n - (X X^*)_n||_F / (1 + max_n ||sigma_n||_F), over the
    union of both bands.
    """
    product = adjoint_product_coefficients(factor_coeffs)
    order = max(len(sigma), len(product))
    gap = np.zeros((order,) + sigma.shape[1:], dtype=np.complex128)
    gap[: len(sigma)] = sigma
    gap[: len(product)] -= product
    return float(_frobenius(gap).max()) / _coefficient_scale(sigma)


def _require_factorable(S: HermitianLaurentPolynomial, K: int) -> list[str]:
    """Enforce the factorization hypotheses on the grid; returns warnings."""
    eigs, dets = _hermitian_scan(sample_on_grid(S, K))
    min_eig, max_det = float(eigs.min()), float(dets.max())
    scale = float(np.sqrt(np.sum(eigs**2, axis=-1)).max())  # max_j ||S(z_j)||_F
    if min_eig < -1e-10 * scale:
        raise NotPositiveDefinite(
            f"spectrum has grid eigenvalue {min_eig:.3e} below -1e-10 * scale "
            f"(scale {scale:.3e})"
        )
    # A rank-deficient spectrum leaves only LU roundoff in the determinant.
    if max_det <= 1e-13 * scale**S.r:
        raise DegenerateDeterminant(
            f"det S is numerically identically zero on the grid (max |det| = {max_det:.3e})"
        )
    warnings = []
    if min_eig <= 1e-8 * scale:
        warnings.append(
            "spectrum is nearly singular on the unit circle; convergence and "
            "tolerances degrade near boundary zeros"
        )
    return warnings


def _bauer_core(S: HermitianLaurentPolynomial, opts: FactorizationOptions):
    """Streaming banded block Cholesky of the block-Toeplitz matrix of S.

    Row i of the Cholesky factor is the pivot L_i and the couplings
    ``c_i = [C_{i,m}, ..., C_{i,1}]`` to rows i-m..i-1, which solve
    ``c_i B_i^* = t`` for ``t = [sigma_m, ..., sigma_1]`` and B_i the trailing
    m x m block of the factor so far.  The sweep carries ``M_i = B_i^{-*}``
    (block upper triangular, from the identity; the first m rows use only
    the last i blocks of t), so a row is ``c_i = t M_i`` and
    ``L_i = chol(sigma_0 - c_i c_i^*)``.  The trailing block of a triangular
    inverse is the inverse of the trailing block, so M_{i+1} is M_i shifted
    by one block plus one new block column.  Leading principal submatrices
    factor nestedly, so checkpoints at N = 4(m+1) * 2^k reuse one sweep: the
    last-row estimates of (rho_0..rho_m) are compared until they differ by
    less than residual_tol (relative to the coefficient scale).
    """
    m, r = S.m, S.r
    sigma = S.coeffs
    scale = _coefficient_scale(sigma)
    cap = int(opts.max_toeplitz_blocks)
    first_checkpoint = 4 * (m + 1)
    checkpoints = set()
    n = first_checkpoint
    while n < cap:
        checkpoints.add(n)
        n *= 2
    checkpoints.add(cap)

    sigma0 = 0.5 * (sigma[0] + sigma[0].conj().T)
    t = sigma[m:0:-1].transpose(1, 0, 2).reshape(r, m * r)
    M = np.eye(m * r, dtype=np.complex128)
    prev_est = None
    for i in range(cap):
        k = max(m - i, 0) * r
        c = t[:, k:] @ M[k:]
        c_adj = c.conj().T
        try:
            L = np.linalg.cholesky(sigma0 - c @ c_adj)
        except np.linalg.LinAlgError:
            raise CholeskyBreakdown(
                f"pivot block at Toeplitz row {i} is not positive definite; "
                "the spectrum is indefinite or degenerate on the circle"
            ) from None
        pivot_inv_adj = np.linalg.inv(L).conj().T
        if m:
            # M's last block row stays zero off the diagonal through the shift.
            M[:-r, :-r] = M[r:, r:]
            M[:-r, -r:] = M[:-r, :-r] @ (c_adj[r:] @ -pivot_inv_adj)
            M[-r:, -r:] = pivot_inv_adj

        if i + 1 in checkpoints:
            cur = np.concatenate([L[None], c.reshape(r, m, r).transpose(1, 0, 2)[::-1]])
            if prev_est is not None:
                diff = float(_frobenius(cur - prev_est).max()) / scale
                if diff < opts.residual_tol:
                    return cur, i + 1
            prev_est = cur

    raise NoConvergence(
        f"Bauer sweep hit the block cap ({cap}) before the last-row estimate settled",
        best_factor=MatrixPolynomial(prev_est),
        achieved_residual=_residual_against(sigma, prev_est),
        iterations=cap,
        algorithm="bauer",
    )


def bauer_factor(S: HermitianLaurentPolynomial,
                 opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Spectral factor via banded block-Toeplitz Cholesky (last-row estimate)."""
    coeffs, _ = _bauer_core(S, opts)
    return MatrixPolynomial(coeffs)


def _wilson_core(S: HermitianLaurentPolynomial, opts: FactorizationOptions):
    """Newton iteration for the causal factor on a unit-circle grid.

    X_{k+1} = X_k * [X_k^{-1} S X_k^{-*} + I]_+ truncated to degree m, started
    from the constant lower Cholesky factor of sigma_0 (the circle average of
    S, positive definite under the preconditions).  Stops when successive
    iterates or the factorization residual drop below residual_tol.
    """
    m, r = S.m, S.r
    sigma = S.coeffs
    K = opts.grid_K if opts.grid_K is not None else default_grid_size(m)
    S_vals = sample_on_grid(S, K)
    eye = np.eye(r, dtype=np.complex128)

    sigma0 = 0.5 * (sigma[0] + sigma[0].conj().T)
    try:
        chi = np.zeros((m + 1, r, r), dtype=np.complex128)
        chi[0] = np.linalg.cholesky(sigma0)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "sigma_0 (the circle average of S) is not positive definite; "
            "Newton initialization is impossible"
        ) from None

    best = chi
    best_residual = _residual_against(sigma, chi)
    # Only buf[: m + 1] is ever written, so the rest stays zero.
    buf = np.zeros((K, r, r), dtype=np.complex128)
    polish_pending = False
    for iteration in range(1, opts.max_newton_iters + 1):
        buf[: m + 1] = chi
        chi_vals = sample_values_on_grid(buf)
        inverse, cond = _inverse_on_grid(chi_vals)
        if cond > NEWTON_COND_MAX:
            raise SingularIterate(
                f"iterate {iteration} is numerically singular on the grid "
                f"(max condition number {cond:.3e})"
            )
        G = inverse @ S_vals @ inverse.conj().transpose(0, 2, 1) + eye

        # [G]_+ (window [0, m], index-0 term halved) times X_k on the grid; the
        # product has degree 2m < K, so its window [0, m] comes back unaliased.
        buf[: m + 1] = coefficients_from_values(G, 0, m)
        buf[0] *= 0.5
        chi_next = coefficients_from_values(chi_vals @ sample_values_on_grid(buf), 0, m)

        step = float(_frobenius(chi_next - chi).max()) / _coefficient_scale(chi)
        residual = _residual_against(sigma, chi_next)
        chi = chi_next
        if residual < best_residual:
            best, best_residual = chi, residual
        if polish_pending or residual < 1e-13:
            return chi, iteration
        if step < opts.residual_tol or residual < opts.residual_tol:
            # One more contraction pass: quadratic convergence turns a
            # just-under-tolerance residual into a machine-level one.
            polish_pending = True

    if polish_pending:
        return chi, opts.max_newton_iters
    raise NoConvergence(
        f"Newton iteration hit the cap ({opts.max_newton_iters}) at residual "
        f"{best_residual:.3e}",
        best_factor=MatrixPolynomial(best),
        achieved_residual=best_residual,
        iterations=opts.max_newton_iters,
        algorithm="wilson",
    )


def wilson_factor(S: HermitianLaurentPolynomial,
                  opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Spectral factor via the grid Newton iteration."""
    coeffs, _ = _wilson_core(S, opts)
    return MatrixPolynomial(coeffs)


def _cluster_boundary_roots(roots: list[complex]) -> list[list[complex]]:
    """Group near-circle roots that coincide within the clustering tolerance."""
    clusters: list[list[complex]] = []
    for root in sorted(roots, key=lambda w: (np.angle(w), abs(w))):
        for cluster in clusters:
            if abs(root - cluster[0]) <= BOUNDARY_ROOT_TOL * (1.0 + abs(root)):
                cluster.append(root)
                break
        else:
            clusters.append([root])
    return clusters


def _scalar_roots_core(S: HermitianLaurentPolynomial, opts: FactorizationOptions):
    """Root-based factorization of a scalar spectrum.

    z^m S(z) is a degree-2m polynomial whose roots pair as (a, 1/conj(a));
    the causal factor takes the roots with |a| > 1 plus half of every
    boundary cluster, scaled to reproduce sigma_m exactly.
    """
    if S.r != 1:
        raise ValueError("root-based factorization applies to scalar spectra only")
    m = S.m
    sigma = S.coeffs[:, 0, 0]
    if m == 0:
        s0 = sigma[0].real
        if s0 <= 0:
            raise NotPositiveDefinite(f"constant scalar spectrum {s0:.3e} is not positive")
        return np.sqrt(s0).reshape(1, 1, 1).astype(np.complex128), []

    # Coefficients of z^m S(z), low to high: sigma_{-m}..sigma_m.
    full = np.concatenate([sigma[m:0:-1].conj(), sigma])
    roots = np.roots(full[::-1])

    outside: list[complex] = []
    boundary: list[complex] = []
    inside = 0
    for root in roots:
        gap = abs(root) - 1.0
        if abs(gap) <= BOUNDARY_ROOT_TOL:
            boundary.append(complex(root))
        elif gap > 0:
            outside.append(complex(root))
        else:
            inside += 1

    warnings = []
    selected = list(outside)
    if boundary:
        warnings.append(
            f"{len(boundary)} det root(s) on the unit circle; the spectrum is "
            "boundary-degenerate and the factor is only outer in the closed sense"
        )
        for cluster in _cluster_boundary_roots(boundary):
            if len(cluster) % 2 != 0:
                raise OddBoundaryMultiplicity(
                    f"boundary root cluster near {cluster[0]:.6f} has odd "
                    f"multiplicity {len(cluster)}; input is not a consistent spectrum"
                )
            rep = np.mean(cluster)
            rep = rep / abs(rep)
            selected.extend([complex(rep)] * (len(cluster) // 2))
    if len(selected) != m or inside != len(outside):
        raise OddBoundaryMultiplicity(
            f"root pairing failed: {len(outside)} outside, {inside} inside, "
            f"{len(boundary)} boundary for order m={m}; input is not a consistent spectrum"
        )

    monic = np.polynomial.polynomial.polyfromroots(selected)
    # sigma_m of the monic factor is conj(q(0)); scale so sigma_m matches.
    target = sigma[m]
    monic_sigma_m = np.conj(monic[0])
    amplitude = np.sqrt(abs(target / monic_sigma_m))
    coeffs = (amplitude * monic).reshape(m + 1, 1, 1)
    return coeffs.astype(np.complex128), warnings


def scalar_root_factor(S: HermitianLaurentPolynomial,
                       opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Spectral factor of an r=1 spectrum through companion-matrix roots."""
    coeffs, _ = _scalar_roots_core(S, opts)
    factor_poly, _ = canonical_normalize(MatrixPolynomial(coeffs))
    return factor_poly


def canonical_normalize(x: MatrixPolynomial) -> tuple[MatrixPolynomial, np.ndarray]:
    """Fix the constant-unitary freedom of a factor.

    Returns ``(x * U, U)`` with U the unique unitary for which the value at
    z = 0 becomes lower triangular with strictly positive diagonal (the
    Cholesky factor of rho_0 rho_0^*).  Idempotent on already-canonical
    factors.
    """
    rho0 = x.coeffs[0]
    cond = np.linalg.cond(rho0)
    if not np.isfinite(cond) or cond > LEADING_COND_MAX:
        raise SingularLeadingCoefficient(
            f"constant coefficient has condition number {cond:.3e}; "
            "no stable canonical representative"
        )
    gram = rho0 @ rho0.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularLeadingCoefficient(
            "constant coefficient is numerically singular"
        ) from None
    U = np.linalg.solve(rho0, lower)
    return MatrixPolynomial(x.coeffs @ U), U


def _canonical_or_raw(coeffs: np.ndarray) -> MatrixPolynomial:
    poly = MatrixPolynomial(coeffs)
    try:
        poly, _ = canonical_normalize(poly)
    except SingularLeadingCoefficient:
        pass
    return poly


def factor(S: HermitianLaurentPolynomial,
           opts: FactorizationOptions = FactorizationOptions()) -> FactorizationResult:
    """Compute the canonical causal spectral factor of S.

    Dispatches on ``opts.algorithm``; ``auto`` tries the Newton iteration
    first and falls back to the Toeplitz sweep if it stalls.  The returned
    factor is canonical; ``achieved_residual`` is the relative coefficientwise
    mismatch of the factorization identity.  Raises ``NotPositiveDefinite`` or
    ``DegenerateDeterminant`` when the hypotheses fail on the grid, and
    ``NoConvergence`` (carrying the canonicalized best iterate) when every
    attempted algorithm exhausts its cap.
    """
    check_K = opts.grid_K if opts.grid_K is not None else default_verify_grid(S.m)
    warnings = _require_factorable(S, check_K)

    if opts.algorithm == "scalar_roots" and S.r != 1:
        raise ValueError("scalar_roots requires a scalar (r = 1) spectrum")
    attempts = ("wilson", "bauer") if opts.algorithm == "auto" else (opts.algorithm,)

    best_failure: NoConvergence | None = None
    raw = None
    name_used = None
    count = 0
    for position, name in enumerate(attempts):
        try:
            if name == "scalar_roots":
                raw, extra = _scalar_roots_core(S, opts)
                warnings.extend(extra)
                count = 0
            elif name == "wilson":
                raw, count = _wilson_core(S, opts)
            else:
                raw, count = _bauer_core(S, opts)
            name_used = name
            break
        except (NoConvergence, SingularIterate) as exc:
            if isinstance(exc, NoConvergence):
                if best_failure is None or exc.achieved_residual < best_failure.achieved_residual:
                    best_failure = exc
            if position == len(attempts) - 1:
                if best_failure is None:
                    raise
                best = best_failure.best_factor
                raise NoConvergence(
                    str(best_failure),
                    best_factor=_canonical_or_raw(best.coeffs),
                    achieved_residual=best_failure.achieved_residual,
                    iterations=best_failure.iterations,
                    algorithm=best_failure.algorithm,
                ) from None
            warnings.append(f"{name} did not converge ({exc}); falling back")

    poly, _ = canonical_normalize(MatrixPolynomial(raw))
    residual = _residual_against(S.coeffs, poly.coeffs)
    if residual > opts.residual_tol:
        warnings.append(
            f"achieved residual {residual:.3e} exceeds the requested tolerance "
            f"{opts.residual_tol:.1e}"
        )
    if poly.m > S.m:
        warnings.append(
            f"factor degree {poly.m} exceeds spectrum order {S.m} after trimming"
        )
    return FactorizationResult(
        factor=poly,
        algorithm_used=name_used,
        iterations_or_blocks=count,
        achieved_residual=residual,
        warnings=warnings,
    )
