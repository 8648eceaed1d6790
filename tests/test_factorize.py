"""Factorization algorithms, canonical normalization, and their failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfact.errors import (
    CholeskyBreakdown,
    NoConvergence,
    NotPositiveDefinite,
    DegenerateDeterminant,
    OddBoundaryMultiplicity,
    SingularLeadingCoefficient,
)
from specfact.factorize import (
    FactorizationOptions,
    _residual_against,
    bauer_factor,
    canonical_normalize,
    factor,
    scalar_root_factor,
    wilson_factor,
)
from specfact.laurent import HermitianLaurentPolynomial, MatrixPolynomial, multiply_by_adjoint
from specfact.testgen import generate_instance
from specfact.verify import check_factorization, check_outer_determinant


def scalar_laurent(*values):
    return HermitianLaurentPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


def coeff_gap(a: MatrixPolynomial, b: MatrixPolynomial) -> float:
    if a.m != b.m:
        return float("inf")
    return float(np.max(np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2, axis=(1, 2)))))


def forward_error(x: MatrixPolynomial, truth: MatrixPolynomial) -> float:
    """max_n ||rho_n - rho_n^true||_F / (1 + max_n ||rho_n^true||_F), with the
    shorter stack zero-padded."""
    n = max(len(x.coeffs), len(truth.coeffs))
    a = np.zeros((n, x.r, x.r), dtype=complex)
    b = np.zeros_like(a)
    a[: len(x.coeffs)] = x.coeffs
    b[: len(truth.coeffs)] = truth.coeffs
    norm = lambda c: np.sqrt(np.sum(np.abs(c) ** 2, axis=(1, 2)))
    return float(norm(a - b).max() / (1.0 + norm(b).max()))


S_SCALAR = scalar_laurent(5.0, 2.0)  # 5 + 2z + 2/z = (2 + z)(2 + 1/z)
X_SCALAR = MatrixPolynomial(np.array([2.0, 1.0], dtype=complex).reshape(2, 1, 1))


class TestFactorDispatch:
    @pytest.mark.parametrize("algorithm", ["auto", "bauer", "wilson", "scalar_roots"])
    def test_scalar_exact(self, algorithm):
        result = factor(S_SCALAR, FactorizationOptions(algorithm=algorithm))
        assert coeff_gap(result.factor, X_SCALAR) < 1e-9
        assert result.achieved_residual <= 1e-10

    def test_constructed_matrix_spectrum(self):
        S = HermitianLaurentPolynomial(
            np.array([[[1, 0], [0, 2]], [[0, 0], [1, 0]]], dtype=complex))
        expected = MatrixPolynomial(np.array([np.eye(2), [[0, 0], [1, 0]]], dtype=complex))
        result = factor(S)
        assert coeff_gap(result.factor, expected) < 1e-8

    def test_identity_spectrum(self):
        S = HermitianLaurentPolynomial(np.eye(3, dtype=complex)[None])
        result = factor(S)
        assert coeff_gap(result.factor, MatrixPolynomial(np.eye(3, dtype=complex)[None])) < 1e-14

    def test_ground_truth_recovery(self):
        bundle = generate_instance(3, 4, seed=42, root_margin=0.2)
        result = factor(bundle.spectrum)
        assert coeff_gap(result.factor, bundle.ground_truth) < 1e-7
        assert result.achieved_residual < 1e-9

    def test_degree_never_exceeds_order(self):
        for seed in range(6):
            bundle = generate_instance(2, 3, seed=seed)
            result = factor(bundle.spectrum)
            assert result.factor.m <= bundle.spectrum.m

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            factor(scalar_laurent(-1.0))

    def test_degenerate_determinant(self):
        S = HermitianLaurentPolynomial(np.array([[[1, 0], [0, 0]]], dtype=complex))
        with pytest.raises(DegenerateDeterminant):
            factor(S)

    def test_scalar_roots_rejects_matrix_input(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        with pytest.raises(ValueError, match="scalar"):
            factor(S, FactorizationOptions(algorithm="scalar_roots"))

    def test_no_convergence_carries_best_iterate(self):
        opts = FactorizationOptions(algorithm="wilson", residual_tol=1e-30,
                                    max_newton_iters=3)
        with pytest.raises(NoConvergence) as excinfo:
            factor(S_SCALAR, opts)
        exc = excinfo.value
        assert exc.best_factor is not None
        assert np.isfinite(exc.achieved_residual)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            FactorizationOptions(algorithm="newton")
        with pytest.raises(ValueError):
            FactorizationOptions(residual_tol=0.0)
        with pytest.raises(ValueError):
            FactorizationOptions(max_newton_iters=0)


class TestBauer:
    def test_scalar(self):
        x = bauer_factor(S_SCALAR)
        canon, _ = canonical_normalize(x)
        assert coeff_gap(canon, X_SCALAR) < 1e-9

    def test_constant_spectrum_is_cholesky(self):
        x = bauer_factor(scalar_laurent(4.0))
        assert x.coeffs[0, 0, 0] == pytest.approx(2.0)

    def test_converges_within_block_budget(self):
        bundle = generate_instance(2, 2, seed=3, root_margin=0.5)
        opts = FactorizationOptions(max_toeplitz_blocks=256, residual_tol=1e-9)
        x = bauer_factor(bundle.spectrum, opts)
        canon, _ = canonical_normalize(x)
        assert coeff_gap(canon, bundle.ground_truth) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("r, m, margin", [(4, 8, 0.1), (3, 4, 0.05)])
    def test_forward_error_against_oracle(self, r, m, margin, seed):
        bundle = generate_instance(r, m, seed=seed, root_margin=margin)
        canon, _ = canonical_normalize(bauer_factor(bundle.spectrum))
        assert forward_error(canon, bundle.ground_truth) <= 1e-10

    def test_breakdown_on_indefinite_band(self):
        with pytest.raises(CholeskyBreakdown):
            bauer_factor(scalar_laurent(0.0, 1.0))

    def test_block_cap_raises_no_convergence(self):
        # Cap low enough that the checkpoint estimates cannot settle.
        opts = FactorizationOptions(residual_tol=1e-30, max_toeplitz_blocks=12)
        with pytest.raises(NoConvergence) as excinfo:
            bauer_factor(S_SCALAR, opts)
        assert excinfo.value.best_factor is not None
        assert excinfo.value.achieved_residual < 1e-2  # cap hit, iterate still usable


class TestWilson:
    def test_identity_fixed_point(self):
        from specfact.factorize import _wilson_core
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        coeffs, iterations = _wilson_core(S, FactorizationOptions())
        assert iterations <= 1
        assert np.max(np.abs(coeffs[0] - np.eye(2))) < 1e-14

    def test_scalar(self):
        x = wilson_factor(S_SCALAR)
        canon, _ = canonical_normalize(x)
        assert coeff_gap(canon, X_SCALAR) < 1e-10

    def test_requires_positive_definite_average(self):
        with pytest.raises(NotPositiveDefinite):
            wilson_factor(scalar_laurent(0.0, 1.0))

    def test_agreement_with_bauer_after_canonicalization(self):
        for seed in range(8):
            bundle = generate_instance(2, 3, seed=seed)
            w, _ = canonical_normalize(wilson_factor(bundle.spectrum))
            b, _ = canonical_normalize(bauer_factor(bundle.spectrum))
            assert coeff_gap(w, b) < 1e-6


class TestScalarRoots:
    def test_keeps_outer_root(self):
        x = scalar_root_factor(S_SCALAR)
        assert coeff_gap(x, X_SCALAR) < 1e-12

    def test_boundary_double_root(self):
        # 2 + z + 1/z = (1 + z)(1 + 1/z): double det root at -1.
        from specfact.factorize import _scalar_roots_core
        coeffs, warnings = _scalar_roots_core(scalar_laurent(2.0, 1.0),
                                              FactorizationOptions())
        assert np.allclose(coeffs[:, 0, 0], [1.0, 1.0], atol=1e-7)
        assert warnings

    def test_odd_boundary_multiplicity(self):
        # 1.9 + z + 1/z dips negative at z = -1: inconsistent input.
        with pytest.raises(OddBoundaryMultiplicity):
            scalar_root_factor(scalar_laurent(1.9, 1.0))

    def test_matches_ground_truth(self):
        bundle = generate_instance(1, 5, seed=21)
        x = scalar_root_factor(bundle.spectrum)
        assert coeff_gap(x, bundle.ground_truth) < 1e-9

    def test_constant_spectrum(self):
        x = scalar_root_factor(scalar_laurent(9.0))
        assert x.coeffs[0, 0, 0] == pytest.approx(3.0)

    def test_sigma_m_reproduced_exactly(self):
        bundle = generate_instance(1, 3, seed=4)
        x = scalar_root_factor(bundle.spectrum)
        reproduced = multiply_by_adjoint(x)
        top = bundle.spectrum.m
        assert abs(reproduced.coeffs[top, 0, 0]) == pytest.approx(
            abs(bundle.spectrum.coeffs[top, 0, 0]), rel=1e-9)


class TestCanonicalNormalize:
    def test_identity_leading_coefficient(self):
        x = MatrixPolynomial(np.array([np.eye(2), [[0, 0], [1, 0]]], dtype=complex))
        y, U = canonical_normalize(x)
        assert np.array_equal(U, np.eye(2))
        assert np.array_equal(y.coeffs, x.coeffs)

    def test_scalar_sign_flip(self):
        x = MatrixPolynomial(np.array([-2.0, -1.0], dtype=complex).reshape(2, 1, 1))
        y, U = canonical_normalize(x)
        assert U == pytest.approx(np.array([[-1.0]]))
        assert y.coeffs[:, 0, 0] == pytest.approx(np.array([2.0, 1.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        x = MatrixPolynomial(rng.standard_normal((3, 3, 3))
                             + 1j * rng.standard_normal((3, 3, 3)))
        y, _ = canonical_normalize(x)
        z, U = canonical_normalize(y)
        assert np.max(np.abs(U - np.eye(3))) < 1e-10
        assert np.max(np.abs(z.coeffs - y.coeffs)) < 1e-10

    def test_result_is_lower_triangular_positive_diagonal(self):
        rng = np.random.default_rng(19)
        x = MatrixPolynomial(rng.standard_normal((2, 4, 4))
                             + 1j * rng.standard_normal((2, 4, 4)))
        y, U = canonical_normalize(x)
        rho0 = y.coeffs[0]
        assert np.max(np.abs(np.triu(rho0, k=1))) < 1e-10
        assert np.all(np.diag(rho0).real > 0)
        assert np.max(np.abs(np.diag(rho0).imag)) < 1e-10
        assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-12

    def test_singular_leading_coefficient(self):
        x = MatrixPolynomial(np.array([[[0, 0], [0, 0]], [[1, 0], [0, 1]]],
                                      dtype=complex))
        with pytest.raises(SingularLeadingCoefficient):
            canonical_normalize(x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_canonicalization_kills_unitary_scrambling(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    x = MatrixPolynomial(rng.standard_normal((3, r, r))
                         + 1j * rng.standard_normal((3, r, r)))
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    scrambled = MatrixPolynomial(x.coeffs @ Q)
    try:
        a, _ = canonical_normalize(x)
        b, _ = canonical_normalize(scrambled)
    except SingularLeadingCoefficient:
        return  # degenerate draw; nothing to compare
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10 * (1 + np.max(np.abs(a.coeffs)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), m=st.integers(0, 3),
       r=st.integers(1, 3))
def test_factor_residual_and_outerness_property(seed, m, r):
    bundle = generate_instance(r, m, seed=seed)
    result = factor(bundle.spectrum)
    assert check_factorization(bundle.spectrum, result.factor) <= 1e-9
    min_modulus, _ = check_outer_determinant(result.factor)
    assert min_modulus >= 1 - 1e-6


def loop_residual(sigma, c):
    """Reference for the residual: one r x r matmul per (lag, index) pair."""
    order = max(len(sigma), len(c))
    worst = 0.0
    for n in range(order):
        acc = np.zeros(sigma.shape[1:], dtype=complex)
        for k in range(len(c) - n):
            acc += c[k + n] @ c[k].conj().T
        if n < len(sigma):
            acc -= sigma[n]
        worst = max(worst, float(np.linalg.norm(acc)))
    scale = 1.0 + max(float(np.linalg.norm(s)) for s in sigma)
    return worst / scale


@pytest.mark.parametrize("sigma_len, factor_len", [(1, 1), (3, 3), (2, 5), (6, 2)])
@pytest.mark.parametrize("r", [1, 3])
def test_residual_matches_loop_reference(sigma_len, factor_len, r):
    rng = np.random.default_rng(100 * sigma_len + 10 * factor_len + r)
    draw = lambda n: rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    sigma, c = draw(sigma_len), draw(factor_len)
    assert _residual_against(sigma, c) == pytest.approx(loop_residual(sigma, c), rel=1e-12)
