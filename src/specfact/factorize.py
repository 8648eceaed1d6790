"""Computation of the causal spectral factor of a positive definite spectrum.

Given a para-Hermitian Laurent polynomial ``S`` of order ``m`` that is
positive semidefinite on the unit circle with ``det S`` not identically zero,
there is a causal polynomial factor ``X`` of degree at most ``m`` with
``S = X X^*`` on the circle, ``det X`` free of zeros inside the open unit
disk, and ``X`` unique up to a constant unitary right factor.  This module
computes that factor by three independent routes and fixes the unitary
freedom by a canonical normalization, so the routes can be compared
coefficientwise:

* :func:`bauer_factor` -- Bauer's route: the last block row of the Cholesky
  factor of the infinite banded block-Toeplitz matrix of S, reached by a
  doubling recursion on its Schur complement in log2 many steps instead of
  one row at a time.  Robust, no initial guess.
* :func:`wilson_factor` -- Newton-type iteration
  ``X_{k+1} = X_k * [X_k^{-1} S X_k^{-*} + I]_+`` on the unit-circle grid of
  ``default_grid_size(m)`` points, where ``[.]_+`` keeps half the index-0
  Fourier coefficient plus indices 1..m.  Only the rational inner term needs
  the grid: the product with ``X_k`` and the residual band of ``X_k X_k^*``
  are products of degree-m polynomials, formed in coefficient space by
  ``laurent._causal_product_window``.  The first step, from the constant
  ``X_0 = chol(sigma_0)``, needs no grid at all:
  ``X_1 = [X_0, sigma_1 X_0^{-*}, ..., sigma_m X_0^{-*}]``.
  ``X_k`` counts as singular when ``laurent._guarded_inverse``, the grid
  guard ``verify`` uses too, finds its worst grid 1-norm condition number
  above ``NEWTON_COND_MAX``.  Quadratically convergent near the solution.
* :func:`scalar_root_factor` -- for r = 1 only: factor through the roots of
  ``z^m S(z)``, which pair as (a, 1/conj(a)); the factor collects the roots
  outside the closed unit disk plus half of each boundary cluster.

:func:`canonical_normalize` maps any factor to the unique representative of
its unitary equivalence class whose value at z = 0 is lower triangular with
strictly positive diagonal.

Each route has one core, ``(S, opts) -> (coefficients, count, warnings)``,
returning exactly m + 1 coefficients; the table ``_ATTEMPTS`` maps each
algorithm name to the cores :func:`factor` tries in order.  Both iterative
cores stop alike: a pass that starts from an iterate meeting the tolerance
is the last; a cap reached first raises ``NoConvergence``.

Every residual here -- each Newton iterate's, the best iterate's in
``NoConvergence`` and ``factor()``'s ``achieved_residual`` -- is
``laurent._residual_against``, the one ``S = X X^*`` residual that
``verify.check_factorization`` reports too.
"""

from __future__ import annotations

import contextlib
import functools
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
    _band_coefficient_buffer,
    _causal_product_window,
    _frobenius,
    _guarded_inverse,
    _hermitian_scan,
    _residual_against,
    coefficients_from_values,
    default_grid_size,
    default_verify_grid,
    sample_on_grid,
    sample_values_on_grid,
)

# Roots of det X this close to the unit circle are treated as boundary cases.
BOUNDARY_ROOT_TOL = 1e-7

# Condition-number cap on rho_0 for canonical normalization.
LEADING_COND_MAX = 1e12

# Grid 1-norm condition-number cap before a Newton iterate counts as singular.
NEWTON_COND_MAX = 1e12

# Iteration cap of the Newton (Wilson) route.
NEWTON_MAX_ITERS = 60

# Floor of the Newton route's stopping tolerance: one quadratic pass from a
# residual below this lands at roundoff, so a smaller residual_tol stops here.
NEWTON_ROUNDOFF = 1e-13

# Step cap of Bauer's doubling; step k stands for max(m, 1) * 2^k block rows.
DOUBLING_MAX_STEPS = 64

# Budget of auto's doubling, which runs first, in Toeplitz block rows.  With a
# det root on the circle the doubling needs 2^23 rows or more to meet 1e-9, so
# auto stops it here, its Wilson fallback stalls too and auto reports no
# convergence (exit 3, the exit perfbench's smoke check runs on such a
# spectrum); only a forced bauer runs on to factor it.  At m = 2 the budget
# stops a double root's doubling one step before the pivot that breaks down.
AUTO_BAUER_BLOCK_ROWS = 2**14

# Below this relative change of Bauer's Schur complement, a change that stops
# decreasing or a failed pivot is roundoff (a det root on the circle brings
# both at about 1e-8); a grid eigenvalue -d of S fails one at ~sqrt(d/scale).
DOUBLING_ROUNDOFF = 1e-6


@dataclass(frozen=True)
class FactorizationOptions:
    """Knobs for :func:`factor` and the individual routes: the row of
    ``_ATTEMPTS`` to run and the tolerance that stops the Newton and doubling
    routes (``factor()`` warns above it).  Every grid follows from the order
    of S; the iteration caps are the module constants ``NEWTON_MAX_ITERS``
    and ``DOUBLING_MAX_STEPS``."""

    algorithm: str = "auto"
    residual_tol: float = 1e-9

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not (self.residual_tol > 0):
            raise ValueError("residual_tol must be positive")
        if not np.isfinite(self.residual_tol):
            raise ValueError("residual_tol must be finite")


@dataclass(frozen=True)
class FactorizationResult:
    factor: MatrixPolynomial
    algorithm_used: str
    iterations_or_blocks: int  # Newton iterations; Bauer doubling steps; 0 for roots
    achieved_residual: float
    warnings: list[str] = field(default_factory=list)


def _require_factorable(S: HermitianLaurentPolynomial, K: int) -> list[str]:
    """Enforce the factorization hypotheses on the grid; returns warnings.

    A healthy spectrum is certified by one batched Cholesky of
    ``S(z_j) - 1e-8 * scale * I``: success at every point puts every grid
    eigenvalue above the warning threshold, and since
    ``det(S - dI) <= det S`` a largest shifted determinant above the floor
    bounds max |det S| from below.  Anything else is decided by the
    eigen-scan, which words every error and warning.
    """
    values = sample_on_grid(S, K)
    values = 0.5 * (values + values.conj().transpose(0, 2, 1))
    scale = float(_frobenius(values).max())
    try:
        lower = np.linalg.cholesky(values - 1e-8 * scale * np.eye(S.r))
    except np.linalg.LinAlgError:
        pass
    else:
        diagonal = np.diagonal(lower, axis1=-2, axis2=-1).real
        if float((diagonal.prod(axis=-1) ** 2).max()) > 1e-13 * scale**S.r:
            return []

    # Symmetrizing exactly Hermitian values again leaves them unchanged.
    eigs, dets = _hermitian_scan(values)
    min_eig, max_det = float(eigs.min()), float(dets.max())
    scale = float(np.sqrt(np.sum(eigs**2, axis=-1)).max())  # max_j ||S(z_j)||_F
    if min_eig < -1e-10 * scale:
        raise NotPositiveDefinite(
            f"spectrum has grid eigenvalue {min_eig:.3e} below -1e-10 * scale "
            f"(scale {scale:.3e})"
        )
    # A rank-deficient spectrum leaves only LU roundoff in the determinant.
    det_floor = 1e-13 * scale**S.r
    if max_det <= det_floor:
        raise DegenerateDeterminant(
            f"max |det S| on the grid is {max_det:.3e}, at or below "
            f"1e-13 * scale^{S.r} = {det_floor:.3e} (scale {scale:.3e})"
        )
    warnings = []
    if min_eig <= 1e-8 * scale:
        warnings.append(
            "spectrum is nearly singular on the unit circle; convergence and "
            "tolerances degrade near boundary zeros"
        )
    return warnings


def _doubling_cholesky(matrix: np.ndarray, steps: int, g: int) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise CholeskyBreakdown(
            f"Bauer doubling pivot at step {steps} ({g * 2**steps} Toeplitz block rows) is not "
            "positive definite; the spectrum is indefinite or degenerate on the circle"
        ) from None


def _bauer_core(S: HermitianLaurentPolynomial, opts: FactorizationOptions,
                max_rows: int | None = None):
    """Bauer's limit by doubling; returns ``(coefficients, steps, warnings)``.

    In blocks of g = max(m, 1) rows the Toeplitz matrix is block tridiagonal,
    ``A0 = [sigma_{a-b}]`` on and ``A1 = [sigma_{g+a-b}]`` below the diagonal.
    From ``Q = A0, P = 0, A = A1^*`` each step sets ``Q -= A^* W^{-1} A``,
    ``P += A W^{-1} A^*``, ``A = A W^{-1} A`` for ``W = Q - P``; after k steps
    Q is Bauer's Schur complement at g * 2^k rows (Meini, Math. Comp. 71,
    2002).  The last block row of chol(Q) is rho_{g-1}..rho_0, and
    ``rho_m = sigma_m rho_0^{-*}``.  The run stops one step after the relative
    change of Q drops below residual_tol, or, converging linearly with a det
    root on the circle (Chiang et al., SIAM J. Matrix Anal. Appl. 31, 2009),
    on a stall below ``DOUBLING_ROUNDOFF``, keeping the iterate before it.
    Given ``max_rows``, it also stops before g * 2^k exceeds that many rows.
    """
    m, r = S.m, S.r
    g = max(m, 1)
    cap = DOUBLING_MAX_STEPS
    if max_rows is not None:
        cap = min(cap, (max_rows // g).bit_length() - 1)
    # sigma_n at index n mod 3g: lags -(g-1)..2g-1 read zero past m.
    stack = _band_coefficient_buffer(S, 3 * g)
    lags = np.subtract.outer(np.arange(g), np.arange(g))
    Q, A = (stack[lags + shift].transpose(0, 2, 1, 3).reshape(g * r, g * r)
            for shift in (0, g))

    P, A = np.zeros_like(Q), A.conj().T
    steps, change, converged, stalled = 0, np.inf, False, False
    while not (converged or stalled or steps >= cap):
        try:
            lower = _doubling_cholesky(Q - P, steps, g)
        except CholeskyBreakdown:
            if change >= DOUBLING_ROUNDOFF:
                raise
            stalled = True
            break
        # L^{-1} A and L^{-1} A^* for W = L L^*, so Q and P stay Hermitian.
        # Each solve on its own, and every temporary dropped before the next
        # Cholesky, keeps a step's traced peak near six (m r)^2 blocks.
        right = np.linalg.solve(lower, A.conj().T)
        left = np.linalg.solve(lower, A)
        del lower, A
        drop = left.conj().T @ left
        converged = change < opts.residual_tol
        previous, change = change, float(np.linalg.norm(drop) / np.linalg.norm(Q - drop))
        stalled = not converged and previous <= change < DOUBLING_ROUNDOFF
        if not stalled:
            Q -= drop
            del drop
            P += right.conj().T @ right
            A = right.conj().T @ left
            steps += 1
        del left, right

    row = _doubling_cholesky(Q, steps, g)[-r:].reshape(r, g, r).transpose(1, 0, 2)
    coeffs = np.concatenate([row[::-1], np.zeros((m + 1 - g, r, r))])
    if m:
        coeffs[m] = np.linalg.solve(coeffs[0], S.coeffs[m].conj().T).conj().T
    if not (converged or stalled):
        raise NoConvergence(
            f"Bauer doubling hit the step cap ({steps}) at relative change {change:.3e}",
            best_factor=MatrixPolynomial(coeffs),
            achieved_residual=_residual_against(S.coeffs, coeffs),
            iterations=steps,
            algorithm="bauer",
        )
    return coeffs, steps, [
        f"Bauer doubling stopped on roundoff after step {steps}: its relative change "
        f"stalled at {change:.3e}, above the tolerance {opts.residual_tol:.1e}"
    ] if stalled else []


def _wilson_core(S: HermitianLaurentPolynomial, opts: FactorizationOptions):
    """Newton iteration; returns ``(coefficients, iterations, [])``.

    X_{k+1} = X_k * [X_k^{-1} S X_k^{-*} + I]_+ truncated to degree m, started
    from the constant lower Cholesky factor of sigma_0 (the circle average of
    S, positive definite under the preconditions).  As in the doubling, a
    pass is ``converged`` when the previous residual is below residual_tol
    (floored at ``NEWTON_ROUNDOFF``) and is the last: one more contraction
    turns a just-under-tolerance residual into a machine-level one, so where
    it stops does not hang on roundoff.  It raises ``NoConvergence`` after
    ``NEWTON_MAX_ITERS`` passes without a converged one.  An iteration
    samples its iterate once (one inverse FFT) for the guarded grid inverse
    and G, and takes one FFT of G for ``[G]_+``; the update ``X_k [G]_+``
    and, through ``_residual_against``, the residual band of ``X_k X_k^*``
    come from ``_causal_product_window``, off the grid.  The first
    iteration is exact in coefficient space: from ``X_0 = L``,
    ``G = L^{-1} S L^{-*} + I`` is a Laurent polynomial with ``G_0 = 2I``,
    so ``X_1 = [L, sigma_1 L^{-*}, ..., sigma_m L^{-*}]``; its guard inverts
    L alone, the value of X_0 at every grid point.
    """
    m, r = S.m, S.r
    sigma = S.coeffs
    K = default_grid_size(m)
    S_vals = sample_on_grid(S, K)
    eye = np.eye(r, dtype=np.complex128)
    tol = max(opts.residual_tol, NEWTON_ROUNDOFF)

    try:
        chi = np.zeros((m + 1, r, r), dtype=np.complex128)
        chi[0] = np.linalg.cholesky(sigma[0])
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "sigma_0 (the circle average of S) is not positive definite; "
            "Newton initialization is impossible"
        ) from None

    # Only buf[: m + 1] is ever written, so the rest stays zero.
    buf = np.zeros((K, r, r), dtype=np.complex128)
    best, best_residual = chi, _residual_against(sigma, chi)
    residual = np.inf
    for iteration in range(1, NEWTON_MAX_ITERS + 1):
        converged = residual < tol
        if iteration == 1:
            inverse = _guarded_inverse(chi[:1], NEWTON_COND_MAX, SingularIterate, "iterate 1")
            chi = np.concatenate([chi[:1], sigma[1:] @ inverse[0].conj().T])
        else:
            buf[: m + 1] = chi
            inverse = _guarded_inverse(sample_values_on_grid(buf), NEWTON_COND_MAX,
                                       SingularIterate, f"iterate {iteration}")
            G = inverse @ S_vals @ inverse.conj().transpose(0, 2, 1) + eye
            # [G]_+: the window [0, m] of G with its index-0 term halved.
            plus = coefficients_from_values(G, 0, m)
            plus[0] *= 0.5
            chi = _causal_product_window(chi, plus, 0)

        residual = _residual_against(sigma, chi)
        if residual < best_residual:
            best, best_residual = chi, residual
        if converged:
            return chi, iteration, []

    raise NoConvergence(
        f"Newton iteration hit the cap ({NEWTON_MAX_ITERS}) at residual "
        f"{best_residual:.3e}",
        best_factor=MatrixPolynomial(best),
        achieved_residual=best_residual,
        iterations=NEWTON_MAX_ITERS,
        algorithm="wilson",
    )


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
    """Root-based factorization; returns ``(coefficients, 0, warnings)``.

    z^m S(z) is a degree-2m polynomial whose roots pair as (a, 1/conj(a));
    the causal factor takes the roots with |a| > 1 plus half of every
    boundary cluster, scaled to reproduce sigma_m exactly.
    """
    if S.r != 1:
        raise ValueError("scalar_roots requires a scalar (r = 1) spectrum")
    m = S.m
    sigma = S.coeffs[:, 0, 0]
    if m == 0:
        s0 = sigma[0].real
        if s0 <= 0:
            raise NotPositiveDefinite(f"constant scalar spectrum {s0:.3e} is not positive")
        return np.sqrt(s0).reshape(1, 1, 1).astype(np.complex128), 0, []

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
    return coeffs.astype(np.complex128), 0, warnings


# Each algorithm's routes, in the order factor() tries them.
_ATTEMPTS = {
    "auto": (("bauer", functools.partial(_bauer_core, max_rows=AUTO_BAUER_BLOCK_ROWS)),
             ("wilson", _wilson_core)),
    "bauer": (("bauer", _bauer_core),),
    "wilson": (("wilson", _wilson_core),),
    "scalar_roots": (("scalar_roots", _scalar_roots_core),),
}
ALGORITHMS = tuple(_ATTEMPTS)


def bauer_factor(S: HermitianLaurentPolynomial,
                 opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Spectral factor as Bauer's limit, by the doubling recursion."""
    return MatrixPolynomial(_bauer_core(S, opts)[0])


def wilson_factor(S: HermitianLaurentPolynomial,
                  opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Spectral factor via the grid Newton iteration."""
    return MatrixPolynomial(_wilson_core(S, opts)[0])


def scalar_root_factor(S: HermitianLaurentPolynomial,
                       opts: FactorizationOptions = FactorizationOptions()) -> MatrixPolynomial:
    """Canonical spectral factor of an r=1 spectrum through companion-matrix roots."""
    return canonical_normalize(MatrixPolynomial(_scalar_roots_core(S, opts)[0]))[0]


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


def factor(S: HermitianLaurentPolynomial,
           opts: FactorizationOptions = FactorizationOptions()) -> FactorizationResult:
    """Compute the canonical causal spectral factor of S.

    Runs the routes of ``_ATTEMPTS[opts.algorithm]`` in order until one
    returns; ``auto`` runs Bauer's doubling first, within
    ``AUTO_BAUER_BLOCK_ROWS``, and falls back to the Newton iteration if it
    stalls.  The returned factor is canonical;
    ``achieved_residual`` is the relative coefficientwise mismatch of the
    factorization identity.  Raises ``NotPositiveDefinite`` or
    ``DegenerateDeterminant`` when the hypotheses fail on the check grid
    ``default_verify_grid(S.m)``; if every attempt fails, ``NoConvergence`` of
    the stalled attempt with the smallest residual (best iterate
    canonicalized), else the last ``SingularIterate``.
    """
    warnings = _require_factorable(S, default_verify_grid(S.m))

    failures: list[NoConvergence | SingularIterate] = []
    for name, core in _ATTEMPTS[opts.algorithm]:
        try:
            raw, count, extra = core(S, opts)
            warnings.extend(extra)
            break
        except (NoConvergence, SingularIterate) as exc:
            failures.append(exc)
            warnings.append(f"{name} did not converge ({exc}); falling back")
    else:
        stalled = [exc for exc in failures if isinstance(exc, NoConvergence)]
        if not stalled:
            raise failures[-1]
        best = min(stalled, key=lambda exc: exc.achieved_residual)
        with contextlib.suppress(SingularLeadingCoefficient):
            best.best_factor, _ = canonical_normalize(best.best_factor)
        raise best

    poly, _ = canonical_normalize(MatrixPolynomial(raw))
    residual = _residual_against(S.coeffs, poly.coeffs)
    if residual > opts.residual_tol:
        warnings.append(
            f"achieved residual {residual:.3e} exceeds the requested tolerance "
            f"{opts.residual_tol:.1e}"
        )
    return FactorizationResult(
        factor=poly,
        algorithm_used=name,
        iterations_or_blocks=count,
        achieved_residual=residual,
        warnings=warnings,
    )
