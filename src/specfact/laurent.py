"""Matrix Laurent polynomials on the unit circle.

Data model and arithmetic for the two polynomial families the factorization
works with, plus the FFT bridge between coefficient space and values on the
uniform unit-circle grid ``z_j = exp(2*pi*i*j/K)`` (sampling returns the
``(K, r, r)`` value array; coefficient recovery reads one back).  A short
causal stack, m + 1 coefficients well below K, is sampled instead by a GEMM
against a cached (K, m + 1) block of the monomials, ``_causal_values``,
which takes a batch of stacks and returns a contiguous (K, r, r) value
stack for each; ``verify_all`` samples X and ``z X'`` on its check grid
that way:

* :class:`HermitianLaurentPolynomial` -- a para-Hermitian spectrum
  ``S(z) = sum_{n=-m}^{m} sigma_n z^n`` with ``sigma_{-n} = sigma_n^*``.
  Only the nonnegative-index coefficients are stored; the negative side is
  always derived, so the symmetry cannot be broken by construction.
* :class:`MatrixPolynomial` -- a causal factor ``X(z) = sum_{n=0}^{m} rho_n z^n``.

Products of causal stacks are formed in coefficient space by one kernel,
``_causal_product_window``; the factorization residual and ``verify_all``'s
positivity bound take the band of ``S - X X^*`` from it, through
``_residual_band_norms``.  :func:`multiply_by_adjoint` alone keeps its own
per-lag sum, because the golden fixtures pin its bytes.

The kernels that ``factorize``, ``verify`` and ``testgen`` share live here
too, so that each loads only the modules it runs: the canonical form
:func:`canonical_normalize` with its guard on rho_0, ``_canonical_leading``
(refusing a condition number above ``LEADING_COND_MAX``, and choosing the
Cholesky or the QR route), the det-root kernels ``_det_coefficients``,
``_det_roots`` (which also reads the roots of ``z^m S(z)`` for the scalar
route) and :func:`check_outer_determinant`, and the eigenvalue kernel
``_hermitian_scan`` with the positivity scan built on it.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import IdenticallyZeroDeterminant, SingularLeadingCoefficient, SpectralFactorError

# A trailing coefficient counts as zero when its Frobenius norm is below this
# fraction of the largest coefficient norm; degrees are always reported trimmed.
TRIM_RTOL = 1e-10

# Per-entry absolute tolerance for the Hermitian-symmetry invariant of sigma_0.
HERMITIAN_ATOL = 1e-12

# |1 - |z|| tolerance when evaluating a Laurent polynomial, whose negative
# powers are only meaningful on the unit circle.
UNIT_CIRCLE_ATOL = 1e-9

# Largest negative eigenvalue of S on the circle, relative to the coefficient
# scale, that still counts as positive semidefinite.
POSITIVITY_TOL = 1e-10

# Relative to the scale of S: factor() and verify_all warn that S is nearly
# singular on the circle at a minimum eigenvalue of at most NEAR_SINGULAR_TOL,
# and factor() takes det S as identically zero when no check-grid node's
# smallest |eigenvalue| exceeds DEGENERATE_RTOL.
NEAR_SINGULAR_TOL = 1e-8
DEGENERATE_RTOL = 1e-13

# Zoom refinement of the grid minimizer: each level evaluates this many
# equally spaced angles across the bracket, then re-centres a bracket of two
# spacings on the best one.  Six levels of 17 shrink the spacing by 8**6, to
# below 1e-7 rad on every grid of 256 or more points.
ZOOM_POINTS = 17
ZOOM_LEVELS = 6

# Condition-number cap on rho_0 of a factor that factor() returns or
# canonical_normalize maps.
LEADING_COND_MAX = 1e12

# Above this condition number of rho_0, canonical_normalize reads U off a QR
# of rho_0^*, not off the Cholesky of rho_0 rho_0^* (see _canonical_leading).
CHOLESKY_COND_MAX = 1e4

# Cap of the grid guard, _guarded_inverse, on the worst grid 1-norm condition
# number before a Newton iterate or a factor counts as singular on the grid.
GRID_COND_MAX = 1e10

# Default relative residual tolerance of factor(), verify_all and the CLI.
RESIDUAL_TOL = 1e-9


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def default_grid_size(m: int) -> int:
    """Smallest power of two >= 8*(m+1): FFT friendly, with aliasing headroom
    for products of order-m polynomials."""
    return _next_pow2(8 * (m + 1))


def default_verify_grid(m: int) -> int:
    """The one check grid: ``default_grid_size(m)``, but at least 256 points.
    Used by the hypothesis precheck of ``factor()``, by every verify check
    that samples S or a factor and by the generator's condition estimate."""
    return max(256, default_grid_size(m))


def _as_coefficient_stack(coeffs) -> np.ndarray:
    """Coerce to a complex (m+1, r, r) stack and validate finiteness."""
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(
            f"coefficients must form a (m+1, r, r) stack, got shape {a.shape}"
        )
    if a.shape[1] < 1:
        raise ValueError("matrix dimension r must be >= 1")
    if len(a) < 1:
        raise ValueError("coefficient stack is empty; need m + 1 >= 1 coefficients")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients contain non-finite entries")
    return a


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes, summed from a real view."""
    v = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    v = v.reshape(v.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _trimmed_length(norms: np.ndarray) -> int:
    """The trim rule on a nonempty vector of finite coefficient norms: one
    past the last index whose norm exceeds ``TRIM_RTOL`` times the largest,
    and at least 1."""
    keep = np.flatnonzero(norms > TRIM_RTOL * norms.max())
    return int(keep[-1]) + 1 if len(keep) else 1


def trim_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients whose norm is below the trim threshold.

    Always keeps index 0, so the zero polynomial trims to a single zero
    coefficient.  The rule compares the norms of the stack divided by its
    largest |entry|, so a squared norm that underflows cannot drop a
    coefficient.  Raises ``ValueError`` when a coefficient norm overflows
    to ``inf`` (entries beyond about 1e154), or when every norm underflows
    to 0 though an entry is not (entries below about 1e-162).
    """
    with np.errstate(over="ignore"):
        norms = _frobenius(coeffs)
    if not np.all(np.isfinite(norms)):
        raise ValueError("coefficient norms overflow double precision")
    peak = np.abs(coeffs).max()
    if norms.max() == 0 and peak:
        raise ValueError("coefficient norms underflow double precision")
    return coeffs[: _trimmed_length(_frobenius(coeffs / peak) if peak else norms)]


@dataclass(frozen=True, eq=False)
class _CoefficientStack:
    """Both polynomial families: a read-only (m + 1, r, r) stack ``coeffs``,
    index n holding the coefficient of z^n, which each subclass validates and
    trims in ``__post_init__`` and stores by ``_freeze``."""

    coeffs: np.ndarray

    def _freeze(self, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "coeffs", stack)

    @property
    def r(self) -> int:
        return self.coeffs.shape[1]

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True, eq=False)
class MatrixPolynomial(_CoefficientStack):
    """Causal matrix polynomial ``X(z) = sum_{n=0}^{m} rho_n z^n``.

    ``coeffs`` holds ``rho_n`` at index ``n``.  The stack is trimmed on
    construction so the reported degree is tight.
    """

    def __post_init__(self):
        self._freeze(trim_coefficients(_as_coefficient_stack(self.coeffs)).copy())

    def is_zero(self) -> bool:
        return self.m == 0 and not np.any(self.coeffs[0])


@dataclass(frozen=True, eq=False)
class HermitianLaurentPolynomial(_CoefficientStack):
    """Para-Hermitian spectrum ``S(z) = sum_{n=-m}^{m} sigma_n z^n``.

    Stores ``sigma_n`` for ``n = 0..m`` only; ``sigma_{-n}`` is always the
    conjugate transpose of ``sigma_n``.  Requires ``sigma_0`` Hermitian to
    ``HERMITIAN_ATOL`` per entry and stores it symmetrized,
    ``(sigma_0 + sigma_0^*) / 2``, so it is exactly Hermitian and so is
    ``S(z)`` at every point of the unit circle.
    """

    def __post_init__(self):
        stack = _as_coefficient_stack(self.coeffs)
        # A gap beyond double precision reads inf, and is refused, quietly.
        with np.errstate(over="ignore", invalid="ignore"):
            asym = np.max(np.abs(stack[0] - stack[0].conj().T))
        if asym > HERMITIAN_ATOL:
            raise ValueError(
                "sigma_0 violates the Hermitian symmetry invariant "
                f"(max |entry - conj transpose| = {asym:.3e} > {HERMITIAN_ATOL:.1e})"
            )
        stack = trim_coefficients(stack).copy()
        stack[0] = 0.5 * (stack[0] + stack[0].conj().T)
        self._freeze(stack)


def unit_circle_grid(K: int) -> np.ndarray:
    """The K-point grid ``z_j = exp(2*pi*i*j/K)``."""
    return np.exp(2j * np.pi * np.arange(K) / K)


def _values_at_angles(S: HermitianLaurentPolynomial, theta: np.ndarray) -> np.ndarray:
    """Values S(exp(i theta)) at a vector of angles, one matmul over the
    coefficient stack; exactly Hermitian.  sigma_0 is stored symmetrized, and
    the tail and its adjoint are summed first: ``a + conj(a)^T`` is Hermitian
    bit for bit, and so is its sum with a Hermitian sigma_0, while
    ``(sigma_0 + tail) + tail^*`` rounds its two mirrored entries apart."""
    r = S.r
    powers = np.exp(1j * np.outer(theta, np.arange(1, S.m + 1)))
    tail = (powers @ S.coeffs[1:].reshape(S.m, r * r)).reshape(len(theta), r, r)
    return S.coeffs[0] + (tail + tail.conj().transpose(0, 2, 1))


def evaluate_at(p, z: complex) -> np.ndarray:
    """Evaluate a polynomial at one point.

    ``MatrixPolynomial`` accepts any finite z and is evaluated by Horner
    recursion.  ``HermitianLaurentPolynomial`` requires |z| = 1 (to
    ``UNIT_CIRCLE_ATOL``) because the negative powers are evaluated as
    conjugates; it is evaluated at the angle of z by
    :func:`_values_at_angles`, so the result equals its conjugate transpose
    bit for bit.
    """
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    if isinstance(p, MatrixPolynomial):
        acc = np.array(p.coeffs[p.m])
        for n in range(p.m - 1, -1, -1):
            acc = acc * z + p.coeffs[n]
        return acc
    if isinstance(p, HermitianLaurentPolynomial):
        if abs(abs(z) - 1.0) > UNIT_CIRCLE_ATOL:
            raise ValueError(
                f"Laurent evaluation needs |z| = 1, got |z| = {abs(z)!r}"
            )
        return _values_at_angles(p, np.angle([z]))[0]
    raise TypeError(f"cannot evaluate object of type {type(p).__name__}")


def _band_coefficient_buffer(p, K: int) -> np.ndarray:
    """Lay coefficients into a length-K FFT buffer (negative indices wrap)."""
    r = p.r
    buf = np.zeros((K, r, r), dtype=np.complex128)
    buf[: p.m + 1] = p.coeffs
    if isinstance(p, HermitianLaurentPolynomial):
        buf[K - p.m :] = p.coeffs[p.m : 0 : -1].conj().transpose(0, 2, 1)
    return buf


def sample_values_on_grid(coeff_buffer: np.ndarray) -> np.ndarray:
    """Values at z_j of the polynomial whose (wrapped) coefficients fill the
    buffer: an inverse DFT scaled by K, entrywise.  The transform leaves the
    scale out (``norm="forward"``) rather than dividing by K and multiplying
    back, which for a power-of-two K gives the same bits and allocates one
    array fewer."""
    return np.fft.ifft(coeff_buffer, axis=0, norm="forward")


@lru_cache(maxsize=8)
def _monomial_block(K: int, m1: int) -> np.ndarray:
    """``z_j^n`` for j < K, n < m1, as the inverse transform itself samples
    each monomial, so a value it makes exact (1, i, -1, -i at the quarter
    nodes) is exact here too, and a root at such a node is an exact zero.
    The block is allocated ahead of the transform's temporaries, so that
    none of them is stranded below it while it stays cached."""
    block = np.empty((K, m1), dtype=np.complex128)
    block[:] = sample_values_on_grid(np.eye(K, m1, dtype=np.complex128))
    block.setflags(write=False)
    return block


def _causal_values(stack: np.ndarray, K: int) -> np.ndarray:
    """Values on the K grid of a batch of causal polynomials, a (b, m+1, r, r)
    stack of their coefficients 0..m with m < K, as a (b, K, r, r) stack:
    one GEMM per polynomial of the cached (K, m+1) block of the monomials
    against its coefficients flattened to (m+1, r^2).  Each polynomial's
    values come out C-contiguous, so no consumer copies them.  For m + 1 well
    below K this is cheaper than the transform of a zero-padded K-row
    buffer: for a batch of two it wins at every r up to m = 31 (K = 256);
    from K = 512 the transform wins at r = 1, and from m of about 64 at
    r = 4 too."""
    b, m1, r = stack.shape[:3]
    values = _monomial_block(K, m1) @ stack.reshape(b, m1, r * r)
    return values.reshape(b, K, r, r)


def _pointwise_inverse(values: np.ndarray) -> np.ndarray | None:
    """Pointwise inverses of a (K, r, r) stack, ``None`` when inversion fails
    at an exactly singular point."""
    try:
        return np.linalg.inv(values)
    except np.linalg.LinAlgError:
        return None


def _worst_condition(values: np.ndarray, inverse: np.ndarray | None) -> float:
    """The worst 1-norm condition number ``||A||_1 ||A^{-1}||_1`` over a
    stack, from its inverse already in hand: ``inf`` when the inverse is
    ``None`` or the product is not finite, without a warning."""
    if inverse is None:
        return float("inf")
    column_sums = lambda a: np.einsum("kij->kj", np.abs(a)).max(axis=-1)
    with np.errstate(over="ignore"):
        worst = float((column_sums(values) * column_sums(inverse)).max())
    return worst if np.isfinite(worst) else float("inf")


def _guarded_inverse(values: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """The "is X singular on the grid" guard: the :func:`_pointwise_inverse`
    of ``values``, or ``error`` raised when its :func:`_worst_condition`
    exceeds ``GRID_COND_MAX``."""
    inverse = _pointwise_inverse(values)
    cond = _worst_condition(values, inverse)
    if cond > GRID_COND_MAX:
        raise error(f"{what} condition number {cond:.3e} on the grid exceeds {GRID_COND_MAX:.1e}")
    return inverse


def _hermitian_scan(values: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending, per point) of sampled spectrum values,
    symmetrized first so roundoff cannot make a point non-Hermitian."""
    return np.linalg.eigvalsh(0.5 * (values + values.conj().transpose(0, 2, 1)))


def _positivity_scan(S: HermitianLaurentPolynomial):
    """``(deficit, min_eig, min_det)`` of S on the circle; S is semidefinite
    when ``deficit = max(0, -min_eig) / _coefficient_scale`` is at most
    ``POSITIVITY_TOL``.  Samples S on the check grid of
    ``K = default_verify_grid(S.m)`` points and scans it, then each of
    ``ZOOM_LEVELS`` levels evaluates S at ``ZOOM_POINTS`` angles across a
    bracket of the minimizer (first theta_j +- 2 pi/K) and re-centres on the
    smallest eigenvalue, so a zero or a dip between grid points is still
    seen.  Every eigenvalue, on the grid and in the zoom, comes from
    :func:`_hermitian_scan`.  ``min_det``, quietly ``inf`` where it
    overflows, includes the value at the refined minimizer."""
    K = default_verify_grid(S.m)
    eigs = _hermitian_scan(sample_on_grid(S, K))
    min_eig = float(eigs[:, 0].min())
    center = 2.0 * np.pi * int(np.argmin(eigs[:, 0])) / K
    half_width = 2.0 * np.pi / K
    for _ in range(ZOOM_LEVELS):
        theta = center + np.linspace(-half_width, half_width, ZOOM_POINTS)
        batch_eigs = _hermitian_scan(_values_at_angles(S, theta))
        best = int(np.argmin(batch_eigs[:, 0]))
        min_eig = min(min_eig, float(batch_eigs[best, 0]))
        center = theta[best]
        half_width *= 2.0 / (ZOOM_POINTS - 1)
    with np.errstate(over="ignore"):
        min_det = min(float(np.abs(eigs).prod(axis=-1).min()),
                      float(np.abs(batch_eigs[best]).prod()))
    return max(0.0, -min_eig) / _coefficient_scale(S.coeffs), min_eig, min_det


def _require_semidefinite(S: HermitianLaurentPolynomial, error: type[Exception], what: str):
    """The one positivity rule, of ``verify_all`` and Bauer's doubling: raise
    ``error`` when :func:`_positivity_scan` finds S indefinite."""
    deficit, min_eig, _ = _positivity_scan(S)
    if deficit > POSITIVITY_TOL:
        raise error(f"{what}: S has eigenvalue {min_eig:.3e} on the unit circle, "
                    f"below -{POSITIVITY_TOL:.0e} * scale; the spectrum is indefinite")


def _require_grid(K: int, m: int) -> None:
    """Raise ``ValueError`` unless K is a power of two with K >= 2m+2, so a
    band [-m, m] fits on the K-point grid without aliasing."""
    if K < 1 or K & (K - 1):
        raise ValueError(f"grid size K={K} must be a power of two")
    if K < 2 * m + 2:
        raise ValueError(
            f"grid size K={K} aliases a band of order m={m}; need K >= {2 * m + 2}"
        )


def _require_tolerance(value: float) -> None:
    """Raise ``ValueError`` unless a ``residual_tol`` is positive and finite."""
    if not (value > 0):
        raise ValueError("residual_tol must be positive")
    if not np.isfinite(value):
        raise ValueError("residual_tol must be finite")


def sample_on_grid(p, K: int) -> np.ndarray:
    """Values ``p(z_j)`` on the K-point unit-circle grid, a (K, r, r) array,
    via FFT.

    K must pass :func:`_require_grid` for the order of p.  No sample needs a
    scan: each is below 2m + 1 times the largest coefficient norm, which
    :func:`trim_coefficients` keeps below about 1.34e154, so it is finite.
    """
    _require_grid(K, p.m)
    return sample_values_on_grid(_band_coefficient_buffer(p, K))


def coefficients_from_values(values: np.ndarray, hi: int) -> np.ndarray:
    """Fourier coefficients c_0..c_hi of the trigonometric interpolant of raw
    grid values, a view of the transform, which divides by K itself
    (``norm="forward"``); c_{-n} is c_{K-n}, so ``hi = K - 1`` returns the
    whole transform."""
    K = values.shape[0]
    if hi >= K:
        raise ValueError(f"coefficient window [0, {hi}] is wider than the grid (K={K})")
    return np.fft.fft(values, axis=0, norm="forward")[: hi + 1]


def _causal_product_window(a: np.ndarray, b: np.ndarray, lo: int) -> np.ndarray:
    """Coefficients lo..lo+m (lo >= 0) of ``A(z) B(z)`` for two causal
    (m+1, r, r) stacks: ``sum_k a_k b_{n-k}``.

    One matmul of A's block row, reversed, against the block-Hankel view
    ``H[k, j] = b_{lo+k+j-m}`` of a zero-padded copy of B; the view reads
    pad entries lo..lo+2m, all inside the pad.
    """
    m1, r = a.shape[:2]
    m = m1 - 1
    pad = np.zeros((r, lo + 2 * m + 1, r), dtype=np.complex128)
    pad[:, m : 2 * m + 1] = b.transpose(1, 0, 2)
    row_stride, lag_stride, col_stride = pad.strides
    hankel = as_strided(pad[:, lo:], shape=(m1, r, m1, r),
                        strides=(lag_stride, row_stride, lag_stride, col_stride))
    row = a[::-1].transpose(1, 0, 2).reshape(r, m1 * r)
    product = row @ hankel.reshape(m1 * r, m1 * r)
    return product.reshape(r, m1, r).transpose(1, 0, 2)


def _coefficient_scale(sigma: np.ndarray) -> float:
    return 1.0 + float(_frobenius(sigma).max())


def _residual_band_norms(sigma: np.ndarray, factor_coeffs: np.ndarray) -> np.ndarray:
    """Frobenius norms of the coefficients ``e_0..e_M`` of ``E = S - X X^*``,
    over the union M of both bands; ``e_{-n} = e_n^*``.

    Coefficients 0..m of ``X X^*`` are coefficients m..2m of the causal
    product ``X(z) z^m X^*(z)``, whose stack is X's reversed and adjoined.
    A product or norm that overflows reads ``inf`` or ``nan``, quietly.
    """
    c = factor_coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        product = _causal_product_window(c, c[::-1].conj().transpose(0, 2, 1), len(c) - 1)
        order = max(len(sigma), len(product))
        gap = np.zeros((order,) + sigma.shape[1:], dtype=np.complex128)
        gap[: len(sigma)] = sigma
        gap[: len(product)] -= product
        return _frobenius(gap)


def _residual_against(sigma: np.ndarray, factor_coeffs: np.ndarray) -> float:
    """Relative coefficientwise mismatch of the factorization identity,
    ``max_n ||e_n||_F / (1 + max_n ||sigma_n||_F)`` from
    :func:`_residual_band_norms`."""
    return float(_residual_band_norms(sigma, factor_coeffs).max()) / _coefficient_scale(sigma)


def multiply_by_adjoint(x: MatrixPolynomial) -> HermitianLaurentPolynomial:
    """The spectrum induced by a causal factor: ``S = X X^*`` on |z| = 1.

    Computed exactly in coefficient space: ``sigma_n = sum_k rho_{k+n} rho_k^*``
    for n = 0..m, which makes the para-Hermitian invariant hold by
    construction.
    """
    if x.is_zero():
        raise ValueError("cannot form the induced spectrum of the zero polynomial")
    c, m = x.coeffs, x.m
    # One einsum per lag, not _causal_product_window: the golden fixtures and
    # the bytes `specfact gen` writes are pinned to this summation order.
    sigma = np.empty_like(c)
    for n in range(m + 1):
        sigma[n] = np.einsum("kij,klj->il", c[n:], c[: m + 1 - n].conj())
    return HermitianLaurentPolynomial(sigma)


def canonical_normalize(x: MatrixPolynomial) -> tuple[MatrixPolynomial, np.ndarray]:
    """Fix the constant-unitary freedom of a factor.

    Returns ``(x * U, U)`` with U the unique unitary for which the value at
    z = 0 becomes lower triangular with strictly positive diagonal (the
    Cholesky factor of rho_0 rho_0^*).  Idempotent on already-canonical
    factors.
    """
    rho0 = x.coeffs[0]
    U = None
    if _canonical_leading(rho0):
        gram = rho0 @ rho0.conj().T
        with suppress(np.linalg.LinAlgError):
            U = np.linalg.solve(rho0, np.linalg.cholesky(0.5 * (gram + gram.conj().T)))
    if U is None:
        # rho0^* = Q R gives rho0 Q = R^*, lower triangular; D, the phases
        # of R's diagonal, makes the diagonal of R^* D real and positive.
        q, upper = np.linalg.qr(rho0.conj().T)
        diagonal = np.diagonal(upper)
        U = q * (diagonal / np.abs(diagonal))
    return MatrixPolynomial(x.coeffs @ U), U


def _canonical_leading(rho0: np.ndarray) -> bool:
    """The guard on rho0, the value at z = 0 of every factor ``factor()``
    returns: raises ``SingularLeadingCoefficient`` above ``LEADING_COND_MAX``.
    Returns whether cond(rho0) is at most ``CHOLESKY_COND_MAX``, where
    :func:`canonical_normalize` may take the Cholesky of ``rho0 rho0^*``.
    That squares the condition number, so the U solved from it drifts from
    unitary long before it fails (from about 1e8 on); above the cap, or
    where it fails, the canonical form is read off a QR of ``rho0^*``."""
    cond = np.linalg.cond(rho0)
    if not np.isfinite(cond) or cond > LEADING_COND_MAX:
        raise SingularLeadingCoefficient(
            f"constant coefficient has condition number {cond:.3e}; "
            "no stable canonical representative"
        )
    return cond <= CHOLESKY_COND_MAX


def _det_coefficients(x: MatrixPolynomial) -> np.ndarray:
    """Coefficients of det X, constant first, trimmed by the trim rule of
    the coefficient stacks (``TRIM_RTOL``) on their magnitudes.

    det X, of degree at most r m, is sampled on its own grid, the smallest
    power of two >= max(8, 2(r m + 1)), and read back as coefficients.  A det
    X that overflows at a grid point, or whose coefficients overflow though
    its values do not, raises ``SpectralFactorError``; one that is zero to
    the last coefficient raises ``IdenticallyZeroDeterminant``.
    """
    bound = x.r * x.m
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(sample_on_grid(x, _next_pow2(max(8, 2 * (bound + 1)))))
        coeffs = coefficients_from_values(dets, bound)
        magnitudes = np.abs(coeffs)
    if not np.all(np.isfinite(magnitudes)):
        raise SpectralFactorError("det X overflows double precision on the grid")
    if magnitudes.max() <= 0:
        raise IdenticallyZeroDeterminant("det X is numerically the zero polynomial")
    return coeffs[: _trimmed_length(magnitudes)]


def _det_roots(det: np.ndarray):
    """(min modulus, all roots) of the polynomial with coefficients ``det``,
    constant first, by ``np.roots``; a constant has no roots and min modulus
    ``inf``."""
    if len(det) == 1:
        return float("inf"), np.zeros(0, dtype=np.complex128)
    roots = np.roots(det[::-1])
    return float(np.abs(roots).min()), roots


def check_outer_determinant(x: MatrixPolynomial):
    """(min modulus of the roots of det X, all roots).

    The roots are read by ``np.roots`` off the trimmed coefficients of det X
    that ``_det_coefficients`` samples and transforms, which raises on a det
    X that overflows or is identically zero.  Outer for a polynomial means
    no roots in the open unit disk; passing is min modulus >= 1 - OUTER_TOL
    (``verify.OUTER_TOL``), with roots within OUTER_TOL of the circle
    reported as boundary warnings by the caller.
    """
    return _det_roots(_det_coefficients(x))
