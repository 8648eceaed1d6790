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
  ``laurent._causal_product_window``.  ``X_k`` counts as singular when
  ``laurent._guarded_inverse``, the grid guard ``verify`` uses too, finds
  its worst grid 1-norm condition number above ``NEWTON_COND_MAX``.
  Quadratically convergent near the solution.
* :func:`scalar_root_factor` -- for r = 1 only: factor through the roots of
  ``z^m S(z)``, which pair as (a, 1/conj(a)); the factor collects the roots
  outside the closed unit disk plus half of each boundary cluster.

:func:`canonical_normalize` maps any factor to the unique representative of
its unitary equivalence class whose value at z = 0 is lower triangular with
strictly positive diagonal.

Each route has one core, ``(S, opts) -> (coefficients, count, warnings)``,
returning exactly m + 1 coefficients; the table ``_ROUTES`` maps each
algorithm name to the one core :func:`factor` runs.  Both iterative
cores stop alike: a pass that starts from an iterate meeting the tolerance
is the last; a cap reached first raises ``NoConvergence``.  One positivity
rule, ``laurent._require_semidefinite``, tells a stall from an indefinite S.

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
    _require_semidefinite,
    _require_tolerance,
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

# Leaf size of the doubling step's recursive triangular inverse.
TRIANGULAR_LEAF = 32

# Budget of auto's doubling, in Toeplitz block rows.  With a det root on the
# circle the doubling needs 2^23 rows or more to meet 1e-9, so auto stops it
# here and reports no convergence (exit 3, the exit perfbench's smoke check
# runs on such a spectrum); only a forced bauer runs on to factor it.  At
# m = 2 the budget stops a double root's doubling one step before its pivot
# fails.
AUTO_BAUER_BLOCK_ROWS = 2**14


@dataclass(frozen=True)
class FactorizationOptions:
    """Knobs for :func:`factor` and the individual routes: the route of
    ``_ROUTES`` to run and the tolerance that stops the Newton and doubling
    routes (``factor()`` warns above it).  Every grid follows from the order
    of S; the iteration caps are the module constants ``NEWTON_MAX_ITERS``
    and ``DOUBLING_MAX_STEPS``."""

    algorithm: str = "auto"
    residual_tol: float = 1e-9

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        _require_tolerance(self.residual_tol)


@dataclass(frozen=True)
class FactorizationResult:
    factor: MatrixPolynomial
    algorithm_used: str
    iterations_or_blocks: int  # Newton iterations; Bauer doubling steps; 0 for roots
    achieved_residual: float
    warnings: list[str] = field(default_factory=list)


def _require_factorable(S: HermitianLaurentPolynomial) -> list[str]:
    """Enforce the factorization hypotheses on the check grid
    ``default_verify_grid(S.m)``; returns warnings.

    A healthy spectrum is certified by one batched Cholesky of
    ``S(z_j) - 1e-8 * scale * I``: success at every point puts every grid
    eigenvalue above the warning threshold, and since
    ``det(S - dI) <= det S`` a largest shifted determinant above the floor
    bounds max |det S| from below.  Anything else is decided by the
    eigen-scan, which words every error and warning.  The samples are used
    as the transform gives them: the Cholesky reads their lower triangle
    only, and the eigen-scan symmetrizes them itself.  Both determinant
    tests read ``S / scale``, whose determinants stay in double range at any
    scale: ``|det S| > 1e-13 scale^r`` as ``prod_i |lambda_i| / scale >
    1e-13``.  The message's absolute numbers saturate to 0 or ``inf``
    beyond double range, without a warning.
    """
    values = sample_on_grid(S, default_verify_grid(S.m))
    scale = float(_frobenius(values).max())  # max_j ||S(z_j)||_F
    try:
        lower = np.linalg.cholesky(values - 1e-8 * scale * np.eye(S.r))
    except np.linalg.LinAlgError:
        pass
    else:
        diagonal = np.diagonal(lower, axis1=-2, axis2=-1).real / np.sqrt(scale)
        if float((diagonal.prod(axis=-1) ** 2).max()) > 1e-13:
            return []

    with np.errstate(over="ignore", under="ignore"):
        eigs, dets = _hermitian_scan(values)
        det_floor = 1e-13 * np.float64(scale) ** S.r
    min_eig, max_det = float(eigs.min()), float(dets.max())
    if min_eig < -1e-10 * scale:
        raise NotPositiveDefinite(
            f"spectrum has grid eigenvalue {min_eig:.3e} below -1e-10 * scale "
            f"(scale {scale:.3e})"
        )
    # A rank-deficient spectrum leaves only LU roundoff in the determinant.
    # The zero spectrum, all of whose eigenvalues are 0, is divided by 1.
    if float((np.abs(eigs) / (scale or 1.0)).prod(axis=-1).max()) <= 1e-13:
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


def _triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2 x 2 blocks,
    ``[[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]``, down
    to leaves of at most ``TRIANGULAR_LEAF`` rows that ``np.linalg.inv``
    inverts: at n = 128 a third of the time of ``np.linalg.inv`` and under a
    fifth of two ``np.linalg.solve`` calls, which LU-factor the triangle."""
    n = len(lower)
    if n <= TRIANGULAR_LEAF:
        return np.linalg.inv(lower)
    h = n // 2
    head = _triangular_inverse(lower[:h, :h])
    tail = _triangular_inverse(lower[h:, h:])
    inverse = np.zeros_like(lower)
    inverse[:h, :h] = head
    inverse[h:, h:] = tail
    inverse[h:, :h] = -(tail @ (lower[h:, :h] @ head))
    return inverse


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
    change of Q drops below residual_tol.  Short of it, a failed pivot W or a
    change below ``sqrt(residual_tol)`` that stops decreasing (convergence is
    linear with a det root on the circle: Chiang et al., SIAM J. Matrix Anal.
    Appl. 31, 2009) is a stall,
    which keeps the iterate before it and warns, unless the positivity rule of
    ``verify_all``, ``_require_semidefinite``, raises ``CholeskyBreakdown``.
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
            lower = np.linalg.cholesky(Q - P)
        except np.linalg.LinAlgError:
            stalled = True
            break
        # L^{-1} A and L^{-1} A^* for W = L L^*, so Q and P stay Hermitian:
        # one triangular inverse and two matmuls.  Every temporary dropped
        # before the next Cholesky keeps a step's traced peak near six (m r)^2
        # blocks.  The converged step is the last and updates Q alone, so it
        # skips L^{-1} A^* and the products that feed P and A.
        converged = change < opts.residual_tol
        inverse = _triangular_inverse(lower)
        del lower
        right = None if converged else inverse @ A.conj().T
        left = inverse @ A
        del inverse, A
        drop = left.conj().T @ left
        previous, change = change, float(np.linalg.norm(drop) / np.linalg.norm(Q - drop))
        # Before the quadratic regime the change can rise once, so a rise is a
        # stall only below the square root of the tolerance.
        stalled = (not converged and previous <= change
                   and change < opts.residual_tol ** 0.5)
        if not stalled:
            Q -= drop
            del drop
            if not converged:
                P += right.conj().T @ right
                A = right.conj().T @ left
            steps += 1
        del left, right

    if stalled:
        _require_semidefinite(S, CholeskyBreakdown, f"Bauer doubling stalled at step {steps}")
    try:
        row = np.linalg.cholesky(Q)[-r:].reshape(r, g, r).transpose(1, 0, 2)
    except np.linalg.LinAlgError:
        raise CholeskyBreakdown(f"Bauer's Q at step {steps} is not positive definite") from None
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
    ``NEWTON_MAX_ITERS`` passes without a converged one.  Every iteration,
    the first included, samples its iterate once (one inverse FFT) for the
    guarded grid inverse and G, and takes one FFT of G for ``[G]_+``; the
    update ``X_k [G]_+`` and, through ``_residual_against``, the residual
    band of ``X_k X_k^*`` come from ``_causal_product_window``, off the grid.
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
        buf[: m + 1] = chi
        inverse = _guarded_inverse(sample_values_on_grid(buf), NEWTON_COND_MAX,
                                   SingularIterate, f"iterate {iteration}")
        G = inverse @ S_vals @ inverse.conj().transpose(0, 2, 1) + eye
        # [G]_+: the window [0, m] of G with its index-0 term halved.
        plus = coefficients_from_values(G, m)
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
    boundary cluster, scaled to reproduce sigma_m exactly.  At m = 0 there
    are no roots, and the scaling alone gives sqrt(sigma_0).
    """
    if S.r != 1:
        raise ValueError("scalar_roots requires a scalar (r = 1) spectrum")
    m = S.m
    sigma = S.coeffs[:, 0, 0]
    if m == 0 and sigma[0].real <= 0:
        raise NotPositiveDefinite(f"constant scalar spectrum {sigma[0].real:.3e} is not positive")

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


# Each algorithm's one route: the name factor() reports and its core.
_ROUTES = {
    "auto": ("bauer", functools.partial(_bauer_core, max_rows=AUTO_BAUER_BLOCK_ROWS)),
    "bauer": ("bauer", _bauer_core),
    "wilson": ("wilson", _wilson_core),
    "scalar_roots": ("scalar_roots", _scalar_roots_core),
}
ALGORITHMS = tuple(_ROUTES)


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

    Runs the one route ``_ROUTES[opts.algorithm]``; ``auto`` is Bauer's
    doubling within ``AUTO_BAUER_BLOCK_ROWS``.  The returned factor is
    canonical; ``achieved_residual`` is the relative coefficientwise mismatch
    of the factorization identity.  Raises ``NotPositiveDefinite`` or
    ``DegenerateDeterminant`` when the hypotheses fail on the check grid
    ``default_verify_grid(S.m)``.  A route's own errors (``SingularIterate``,
    ``CholeskyBreakdown``, ...) propagate; if it hits its cap, raises
    ``NotPositiveDefinite`` when the positivity rule finds S indefinite, else
    its ``NoConvergence`` with the best iterate canonicalized.
    """
    warnings = _require_factorable(S)

    name, core = _ROUTES[opts.algorithm]
    try:
        raw, count, extra = core(S, opts)
    except NoConvergence as exc:
        _require_semidefinite(S, NotPositiveDefinite, f"{name} did not converge")
        with contextlib.suppress(SingularLeadingCoefficient):
            exc.best_factor, _ = canonical_normalize(exc.best_factor)
        raise
    warnings.extend(extra)

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
