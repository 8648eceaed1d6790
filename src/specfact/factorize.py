"""Computation of the causal spectral factor of a positive definite spectrum.

Given a para-Hermitian Laurent polynomial ``S`` of order ``m`` that is
positive semidefinite on the unit circle with ``det S`` not identically zero,
there is a causal polynomial factor ``X`` of degree at most ``m`` with
``S = X X^*`` on the circle, ``det X`` free of zeros inside the open unit
disk, and ``X`` unique up to a constant unitary right factor.  This module
computes that factor by three independent routes and fixes the unitary
freedom by one canonical form, so the routes can be compared
coefficientwise:

* :func:`bauer_factor` -- Bauer's route: the last block row of the Cholesky
  factor of the infinite banded block-Toeplitz matrix of S, reached by a
  doubling recursion on its Schur complement in log2 many steps instead of
  one row at a time.  Robust, no initial guess.  Its rho_0 is a diagonal
  block of a Cholesky factor, so the factor is canonical as it stands.
* :func:`wilson_factor` -- Newton-type iteration
  ``X_{k+1} = X_k * [X_k^{-1} S X_k^{-*} + I]_+`` on the unit-circle grid of
  ``default_grid_size(m)`` points, where ``[.]_+`` keeps half the index-0
  Fourier coefficient plus indices 1..m.  Only the rational inner term needs
  the grid: the product with ``X_k`` and the residual band of ``X_k X_k^*``
  are products of degree-m polynomials, formed in coefficient space by
  ``laurent._causal_product_window``.  ``X_k`` counts as singular when
  ``laurent._guarded_inverse``, the one grid guard, which ``verify`` takes
  on factors too, finds its worst grid 1-norm condition number above
  ``laurent.GRID_COND_MAX``.  Quadratically convergent near the solution.
* :func:`scalar_root_factor` -- for r = 1 only: factor through the roots of
  ``z^m S(z)``, which pair as (a, 1/conj(a)); the factor collects the roots
  outside the closed unit disk plus half of each boundary cluster.

``laurent.canonical_normalize`` maps any factor to the unique
representative of its unitary equivalence class whose value at z = 0 is
lower triangular with strictly positive diagonal; :func:`factor` runs it on
the Newton and root routes' factors and returns the doubling's exactly as
the Cholesky made it, taking only the one guard on rho_0,
``laurent._canonical_leading``, which canonicalization takes too.  The
canonical form lives in ``laurent`` so that ``testgen`` canonicalizes
without loading this module.

Each route has one core, ``(S, opts) -> (coefficients, count, warnings)``,
returning exactly m + 1 coefficients; the table ``_ROUTES`` maps each
algorithm name to the one core :func:`factor` runs.  The Newton core's
last pass is the one that starts from an iterate meeting the tolerance.
The doubling's last step is the one whose change meets the tolerance while
falling quadratically; a change that meets it falling linearly, as with a
det root on the circle, buys one confirming step.  In both cores a cap
reached first raises ``NoConvergence``.  One positivity rule,
``laurent._require_semidefinite``, tells a stall from an indefinite S.

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
    DEGENERATE_RTOL,
    NEAR_SINGULAR_TOL,
    POSITIVITY_TOL,
    RESIDUAL_TOL,
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _band_coefficient_buffer,
    _canonical_leading,
    _causal_product_window,
    _frobenius,
    _guarded_inverse,
    _hermitian_scan,
    _require_semidefinite,
    _require_tolerance,
    _residual_against,
    canonical_normalize,
    coefficients_from_values,
    default_grid_size,
    default_verify_grid,
    sample_on_grid,
    sample_values_on_grid,
)

# Roots of det X this close to the unit circle are treated as boundary cases.
BOUNDARY_ROOT_TOL = 1e-7

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
# circle the doubling converges linearly and needs 2^23 rows or more to meet
# 1e-9, plus the confirming step the linear regime takes, so auto stops it
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
    residual_tol: float = RESIDUAL_TOL

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
    ``default_verify_grid(S.m)``; returns warnings.  Scale is the largest
    grid Frobenius norm of S.

    One batched Cholesky of ``S(z_j) - NEAR_SINGULAR_TOL * scale * I``, which
    reads the lower triangle only, certifies a healthy spectrum: success puts
    every grid eigenvalue above the warning threshold.  Otherwise one test
    on the grid eigenvalues decides each verdict: ``NotPositiveDefinite``
    below ``-POSITIVITY_TOL * scale``; ``DegenerateDeterminant`` when S is
    singular at every node, no node's smallest |eigenvalue| above
    ``DEGENERATE_RTOL * scale`` (the zero spectrum too); the warning at or
    below ``NEAR_SINGULAR_TOL * scale``.
    """
    values = sample_on_grid(S, default_verify_grid(S.m))
    scale = float(_frobenius(values).max())  # max_j ||S(z_j)||_F
    with contextlib.suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(values - NEAR_SINGULAR_TOL * scale * np.eye(S.r))
        return []
    eigs = _hermitian_scan(values)
    min_eig = float(eigs.min())
    if min_eig < -POSITIVITY_TOL * scale:
        raise NotPositiveDefinite(
            f"spectrum has grid eigenvalue {min_eig:.3e} below "
            f"-{POSITIVITY_TOL:.0e} * scale (scale {scale:.3e})"
        )
    least_singular = max(float(np.abs(node).min()) for node in eigs)
    if least_singular <= DEGENERATE_RTOL * scale:
        raise DegenerateDeterminant(
            f"S is singular at every grid node: each has an eigenvalue of modulus "
            f"at most {least_singular:.3e}, at or below {DEGENERATE_RTOL:.0e} * scale "
            f"(scale {scale:.3e}); det S vanishes identically"
        )
    if min_eig <= NEAR_SINGULAR_TOL * scale:
        return ["spectrum is nearly singular on the unit circle; convergence and "
                "tolerances degrade near boundary zeros"]
    return []


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
    ``rho_m = sigma_m rho_0^{-*}``.  A step whose relative change of Q is
    below residual_tol and at most ``sqrt(residual_tol)`` times the change
    before it is the last: with every det root off the circle the change
    squares each step, so the next would move Q below roundoff.  A change
    below residual_tol that falls more slowly, as where a det root on the
    circle makes convergence linear (Chiang et al., SIAM J. Matrix Anal.
    Appl. 31, 2009), buys one confirming step.  Short of the tolerance, a
    failed pivot W or a change below ``sqrt(residual_tol)`` that stops
    decreasing is a stall, which keeps the iterate before it and warns,
    unless the positivity rule of ``verify_all``, ``_require_semidefinite``,
    raises ``CholeskyBreakdown``.
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
    tol, root_tol = opts.residual_tol, opts.residual_tol ** 0.5
    steps, change, converged, stalled = 0, np.inf, False, False
    while not (converged or stalled or steps >= cap):
        try:
            lower = np.linalg.cholesky(Q - P)
        except np.linalg.LinAlgError:
            stalled = True
            break
        # L^{-1} A and L^{-1} A^* for W = L L^*, so Q and P stay Hermitian:
        # one triangular inverse and two matmuls.  Every temporary dropped as
        # soon as it is spent keeps a step's traced peak near seven (m r)^2
        # blocks.  The last step updates Q alone, so it skips L^{-1} A^* and
        # the products that feed P and A.
        inverse = _triangular_inverse(lower)
        del lower
        left = inverse @ A
        drop = left.conj().T @ left
        updated = Q - drop
        previous, change = change, float(_frobenius(drop) / _frobenius(updated))
        del drop
        # A change below the tolerance ends the run at once where it is at
        # most sqrt(tol) times the previous one (the quadratic regime), else
        # it buys one confirming step, which is the last.  Before the
        # quadratic regime the change can rise once, so a rise is a stall
        # only below the square root of the tolerance.
        converged = previous < tol or (change < tol and change <= root_tol * previous)
        stalled = not converged and previous <= change and change < root_tol
        if not stalled:
            Q = updated
            if not converged:
                right = inverse @ A.conj().T
                del inverse, A
                adjoint = right.conj().T
                P += adjoint @ right
                del right
                A = adjoint @ left
                del adjoint
            steps += 1
        del left

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
    S, positive definite under the preconditions).  A pass is ``converged``
    when the previous residual is below residual_tol (floored at
    ``NEWTON_ROUNDOFF``) and is the last: like the doubling's confirming
    step, but made on every run, one more contraction turns a
    just-under-tolerance residual into a machine-level one, so where it
    stops does not hang on roundoff.  It raises ``NoConvergence`` after
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
        inverse = _guarded_inverse(sample_values_on_grid(buf), SingularIterate,
                                   f"iterate {iteration}")
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

    Refuses sigma_0 <= 0, sigma_0 being the circle average of S, at every
    order: the amplitude below takes |sigma_m|, so -S would pass for S.
    z^m S(z) is a degree-2m polynomial whose roots pair as (a, 1/conj(a));
    the causal factor takes the roots with |a| > 1 plus half of every
    boundary cluster, scaled to reproduce sigma_m exactly.  At m = 0 there
    are no roots, and the scaling alone gives sqrt(sigma_0).
    """
    if S.r != 1:
        raise ValueError("scalar_roots requires a scalar (r = 1) spectrum")
    m = S.m
    sigma = S.coeffs[:, 0, 0]
    if sigma[0].real <= 0:
        raise NotPositiveDefinite(f"circle average sigma_0 = {sigma[0].real:.3e} is not positive")

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


def factor(S: HermitianLaurentPolynomial,
           opts: FactorizationOptions = FactorizationOptions()) -> FactorizationResult:
    """Compute the canonical causal spectral factor of S.

    Runs the one route ``_ROUTES[opts.algorithm]``; ``auto`` is Bauer's
    doubling within ``AUTO_BAUER_BLOCK_ROWS``.  The returned factor is
    canonical: the doubling's exactly so, as its Cholesky made it, and any
    other route's by ``canonical_normalize``.  Either way the guard of
    ``canonical_normalize`` on rho_0 holds, else
    ``SingularLeadingCoefficient`` is raised.  ``achieved_residual`` is the
    relative coefficientwise mismatch of the factorization identity.  Raises
    ``NotPositiveDefinite`` or
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

    poly = MatrixPolynomial(raw)
    # The doubling's rho_0 is the last diagonal block of chol(Q): lower
    # triangular with a real positive diagonal already.
    if name == "bauer":
        _canonical_leading(poly.coeffs[0])
    else:
        poly, _ = canonical_normalize(poly)
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


# The name the CLI binds factor() by (see ``cli._LAZY``).
_factor = factor
