"""Matrix Laurent polynomials on the unit circle.

Data model and arithmetic for the two polynomial families the factorization
works with, plus the FFT bridge between coefficient space and values on a
uniform unit-circle grid:

* :class:`HermitianLaurentPolynomial` -- a para-Hermitian spectrum
  ``S(z) = sum_{n=-m}^{m} sigma_n z^n`` with ``sigma_{-n} = sigma_n^*``.
  Only the nonnegative-index coefficients are stored; the negative side is
  always derived, so the symmetry cannot be broken by construction.
* :class:`MatrixPolynomial` -- a causal factor ``X(z) = sum_{n=0}^{m} rho_n z^n``.
* :class:`SampledMatrixFunction` -- values on the grid ``z_j = exp(2*pi*i*j/K)``,
  the FFT dual of the coefficient representation.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A trailing coefficient counts as zero when its Frobenius norm is below this
# fraction of the largest coefficient norm; degrees are always reported trimmed.
TRIM_RTOL = 1e-10

# Per-entry absolute tolerance for the Hermitian-symmetry invariant of sigma_0.
HERMITIAN_ATOL = 1e-12

# |1 - |z|| tolerance when evaluating a Laurent polynomial, whose negative
# powers are only meaningful on the unit circle.
UNIT_CIRCLE_ATOL = 1e-9


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def default_grid_size(m: int) -> int:
    """Smallest power of two >= 8*(m+1): FFT friendly, with aliasing headroom
    for products of order-m polynomials."""
    return _next_pow2(8 * (m + 1))


def _as_coefficient_stack(coeffs) -> np.ndarray:
    """Coerce to a complex (m+1, r, r) stack and validate finiteness."""
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(
            f"coefficients must form a (m+1, r, r) stack, got shape {a.shape}"
        )
    if a.shape[1] < 1:
        raise ValueError("matrix dimension r must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients contain non-finite entries")
    return a


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)).real)


def trim_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients whose norm is below the trim threshold.

    Always keeps index 0, so the zero polynomial trims to a single zero
    coefficient.
    """
    norms = _frobenius(coeffs)
    threshold = TRIM_RTOL * (norms.max() if norms.size else 0.0)
    last = 0
    for n in range(len(coeffs) - 1, -1, -1):
        if norms[n] > threshold:
            last = n
            break
    return coeffs[: last + 1]


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Causal matrix polynomial ``X(z) = sum_{n=0}^{m} rho_n z^n``.

    ``coeffs`` holds ``rho_n`` at index ``n``.  The stack is trimmed on
    construction so the reported degree is tight.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        stack = trim_coefficients(_as_coefficient_stack(self.coeffs)).copy()
        stack.setflags(write=False)
        object.__setattr__(self, "coeffs", stack)

    @property
    def r(self) -> int:
        return self.coeffs.shape[1]

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.m == 0 and not np.any(self.coeffs[0])


@dataclass(frozen=True, eq=False)
class HermitianLaurentPolynomial:
    """Para-Hermitian spectrum ``S(z) = sum_{n=-m}^{m} sigma_n z^n``.

    Stores ``sigma_n`` for ``n = 0..m`` only; ``sigma_{-n}`` is always the
    conjugate transpose of ``sigma_n``.  Requires ``sigma_0`` Hermitian to
    ``HERMITIAN_ATOL`` per entry, which makes ``S(z)`` Hermitian at every
    point of the unit circle.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        stack = _as_coefficient_stack(self.coeffs)
        asym = np.max(np.abs(stack[0] - stack[0].conj().T))
        if asym > HERMITIAN_ATOL:
            raise ValueError(
                "sigma_0 violates the Hermitian symmetry invariant "
                f"(max |entry - conj transpose| = {asym:.3e} > {HERMITIAN_ATOL:.1e})"
            )
        stack = trim_coefficients(stack).copy()
        stack.setflags(write=False)
        object.__setattr__(self, "coeffs", stack)

    @property
    def r(self) -> int:
        return self.coeffs.shape[1]

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> np.ndarray:
        """sigma_n for any index in [-m, m]; the negative side is derived."""
        if abs(n) > self.m:
            return np.zeros((self.r, self.r), dtype=np.complex128)
        if n >= 0:
            return self.coeffs[n]
        return self.coeffs[-n].conj().T


@dataclass(frozen=True, eq=False)
class SampledMatrixFunction:
    """Values of a matrix function on the grid ``z_j = exp(2*pi*i*j/K)``."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"samples must form a (K, r, r) stack, got {a.shape}")
        if not _is_power_of_two(a.shape[0]) or a.shape[0] < 2:
            raise ValueError(f"grid size K={a.shape[0]} must be a power of two >= 2")
        if not np.all(np.isfinite(a)):
            raise ValueError("samples contain non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def K(self) -> int:
        return self.samples.shape[0]

    @property
    def r(self) -> int:
        return self.samples.shape[1]


def unit_circle_grid(K: int) -> np.ndarray:
    """The K-point grid ``z_j = exp(2*pi*i*j/K)``."""
    return np.exp(2j * np.pi * np.arange(K) / K)


def evaluate_at(p, z: complex) -> np.ndarray:
    """Evaluate a polynomial at one point by Horner recursion.

    ``MatrixPolynomial`` accepts any finite z.  ``HermitianLaurentPolynomial``
    requires |z| = 1 (to ``UNIT_CIRCLE_ATOL``) because the negative powers are
    evaluated as conjugates; the result is then Hermitian up to the sigma_0
    tolerance.
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
        if p.m == 0:
            return np.array(p.coeffs[0])
        # causal tail sum_{n>=1} sigma_n z^n via Horner, then S = sigma_0 + tail + tail*.
        acc = np.array(p.coeffs[p.m])
        for n in range(p.m - 1, 0, -1):
            acc = acc * z + p.coeffs[n]
        acc = acc * z
        return p.coeffs[0] + acc + acc.conj().T
    raise TypeError(f"cannot evaluate object of type {type(p).__name__}")


def _band_coefficient_buffer(p, K: int) -> np.ndarray:
    """Lay coefficients into a length-K FFT buffer (negative indices wrap)."""
    r = p.r
    buf = np.zeros((K, r, r), dtype=np.complex128)
    buf[: p.m + 1] = p.coeffs
    if isinstance(p, HermitianLaurentPolynomial):
        for n in range(1, p.m + 1):
            buf[K - n] = p.coeffs[n].conj().T
    return buf


def sample_values_on_grid(coeff_buffer: np.ndarray) -> np.ndarray:
    """Values at z_j of the polynomial whose (wrapped) coefficients fill the
    buffer: an inverse DFT scaled by K, entrywise."""
    K = coeff_buffer.shape[0]
    return np.fft.ifft(coeff_buffer, axis=0) * K


def sample_on_grid(p, K: int) -> SampledMatrixFunction:
    """Sample a polynomial on the K-point unit-circle grid via FFT.

    K must be a power of two with K >= 2m+2 so the band [-m, m] fits without
    aliasing.
    """
    if not _is_power_of_two(K):
        raise ValueError(f"grid size K={K} must be a power of two")
    if K < 2 * p.m + 2:
        raise ValueError(
            f"grid size K={K} aliases a band of order m={p.m}; need K >= {2 * p.m + 2}"
        )
    return SampledMatrixFunction(sample_values_on_grid(_band_coefficient_buffer(p, K)))


def coefficients_from_values(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Fourier coefficients c_lo..c_hi of the trigonometric interpolant of raw
    grid values; indices wrap modulo K."""
    K = values.shape[0]
    if hi - lo >= K:
        raise ValueError(
            f"coefficient window [{lo}, {hi}] is wider than the grid (K={K})"
        )
    spectrum = np.fft.fft(values, axis=0) / K
    idx = [n % K for n in range(lo, hi + 1)]
    return spectrum[idx]


def coefficients_from_samples(f: SampledMatrixFunction, lo: int, hi: int) -> np.ndarray:
    """Fourier coefficients c_lo..c_hi of the interpolant through ``f``.

    Exact (to roundoff) whenever ``f`` sampled a Laurent polynomial whose band
    lies inside [lo, hi].
    """
    return coefficients_from_values(f.samples, lo, hi)


def adjoint_product_coefficients(c: np.ndarray) -> np.ndarray:
    """Coefficients n = 0..m of ``X X^*`` for a causal stack ``c`` of degree m:
    ``sum_k c_{k+n} c_k^*``, one einsum per lag."""
    m = len(c) - 1
    out = np.empty((m + 1,) + c.shape[1:], dtype=np.complex128)
    for n in range(m + 1):
        out[n] = np.einsum("kij,klj->il", c[n:], c[: m + 1 - n].conj())
    return out


def multiply_by_adjoint(x: MatrixPolynomial) -> HermitianLaurentPolynomial:
    """The spectrum induced by a causal factor: ``S = X X^*`` on |z| = 1.

    Computed exactly in coefficient space: ``sigma_n = sum_k rho_{k+n} rho_k^*``
    for n = 0..m, which makes the para-Hermitian invariant hold by
    construction.
    """
    if x.is_zero():
        raise ValueError("cannot form the induced spectrum of the zero polynomial")
    sigma = adjoint_product_coefficients(x.coeffs)
    # sigma_0 is Hermitian in exact arithmetic; remove summation-order noise.
    sigma[0] = 0.5 * (sigma[0] + sigma[0].conj().T)
    return HermitianLaurentPolynomial(sigma)
