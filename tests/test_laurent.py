"""Data model and grid arithmetic for matrix Laurent polynomials."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfact.laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _guarded_inverse,
    _pointwise_inverse,
    _trimmed_length,
    _worst_condition,
    coefficients_from_values,
    default_grid_size,
    evaluate_at,
    multiply_by_adjoint,
    sample_on_grid,
    unit_circle_grid,
)
from specfact.testgen import generate_instance


def scalar_laurent(*values):
    return HermitianLaurentPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


def scalar_poly(*values):
    return MatrixPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


def random_poly(rng, r, m):
    return MatrixPolynomial(rng.standard_normal((m + 1, r, r))
                            + 1j * rng.standard_normal((m + 1, r, r)))


def horner_reference(coeffs, z):
    """Independent oracle: plain power-sum evaluation."""
    total = np.zeros_like(coeffs[0])
    for n, c in enumerate(coeffs):
        total = total + c * z**n
    return total


class TestEvaluateAt:
    def test_constant_laurent(self):
        S = scalar_laurent(4.0)
        assert evaluate_at(S, 1j) == pytest.approx(np.array([[4.0]]))

    def test_matrix_polynomial_at_one(self):
        x = MatrixPolynomial(np.array([np.eye(2), [[0, 0], [1, 0]]], dtype=complex))
        assert evaluate_at(x, 1.0) == pytest.approx(np.array([[1, 0], [1, 1]]))

    def test_scalar_laurent_at_minus_one(self):
        S = scalar_laurent(5.0, 2.0)
        assert evaluate_at(S, -1.0) == pytest.approx(np.array([[1.0]]))

    def test_rejects_nonfinite_point(self):
        with pytest.raises(ValueError):
            evaluate_at(scalar_poly(1.0), complex("nan"))

    def test_laurent_requires_unit_modulus(self):
        with pytest.raises(ValueError, match=r"\|z\| = 1"):
            evaluate_at(scalar_laurent(5.0, 2.0), 0.5)

    def test_rejects_a_non_polynomial(self):
        with pytest.raises(TypeError, match="^cannot evaluate object of type ndarray$"):
            evaluate_at(np.eye(2), 1.0)

    def test_matches_power_sum_oracle(self):
        rng = np.random.default_rng(3)
        x = random_poly(rng, 3, 5)
        for z in (0.3 - 0.7j, 1.0, np.exp(0.4j)):
            expected = horner_reference(x.coeffs, z)
            assert np.max(np.abs(evaluate_at(x, z) - expected)) < 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_laurent_value_is_hermitian_bit_for_bit(self, r):
        # sigma_0 + (tail + tail^*): the sum grouped the other way rounds
        # mirrored entries apart.
        for seed in range(5):
            S = generate_instance(r, 4, seed).spectrum
            for theta in np.linspace(0.1, 2 * np.pi + 0.1, 50, endpoint=False):
                value = evaluate_at(S, np.exp(1j * theta))
                assert np.array_equal(value, value.conj().T), (seed, theta)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        b = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        z = np.exp(1.3j)
        lhs = evaluate_at(MatrixPolynomial(a + b), z)
        rhs = evaluate_at(MatrixPolynomial(a), z) + evaluate_at(MatrixPolynomial(b), z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSampleOnGrid:
    def test_scalar_example_k4(self):
        S = scalar_laurent(5.0, 2.0)
        samples = sample_on_grid(S, 4)[:, 0, 0]
        assert samples == pytest.approx(np.array([9, 5, 1, 5]), abs=1e-12)

    def test_identity_polynomial(self):
        x = MatrixPolynomial(np.eye(3, dtype=complex)[None])
        samples = sample_on_grid(x, 16)
        assert np.max(np.abs(samples - np.eye(3))) < 1e-14

    def test_matches_pointwise_horner(self):
        rng = np.random.default_rng(7)
        x = random_poly(rng, 2, 6)
        K = 64
        samples = sample_on_grid(x, K)
        grid = unit_circle_grid(K)
        for j in (0, 5, 31, 63):
            expected = horner_reference(x.coeffs, grid[j])
            assert np.max(np.abs(samples[j] - expected)) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            sample_on_grid(scalar_poly(1.0), 12)

    def test_rejects_aliasing_grid(self):
        S = scalar_laurent(*np.r_[4.0, np.ones(5)])
        with pytest.raises(ValueError, match="alias"):
            sample_on_grid(S, 8)


class TestInverseOnGrid:
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_matches_numpy_inverse_and_one_norm_condition(self, r):
        rng = np.random.default_rng(40 + r)
        values = rng.standard_normal((16, r, r)) + 1j * rng.standard_normal((16, r, r))
        inverse = _pointwise_inverse(values)
        cond = _worst_condition(values, inverse)
        np.testing.assert_allclose(inverse, np.linalg.inv(values), rtol=1e-12, atol=1e-12)
        assert cond == pytest.approx(float(np.linalg.cond(values, 1).max()), rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_exactly_singular_point_is_infinite(self, r):
        # 1 - z in the first channel vanishes exactly at the grid point z = 1.
        coeffs = np.zeros((2, r, r), dtype=complex)
        coeffs[0] = np.eye(r)
        coeffs[1, 0, 0] = -1.0
        values = sample_on_grid(MatrixPolynomial(coeffs), 8)
        assert np.all(values[0, 0] == 0)
        cond = _worst_condition(values, _pointwise_inverse(values))
        assert cond == float("inf")

    def test_non_finite_inverse_is_infinite(self):
        values = np.full((4, 1, 1), 1e-320, dtype=complex)
        cond = _worst_condition(values, _pointwise_inverse(values))
        assert cond == float("inf")

    def test_overflowing_condition_number_is_infinite_without_a_warning(self):
        values = np.diag([1e200, 1e-200]).astype(complex)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _worst_condition(values, _pointwise_inverse(values)) == float("inf")

    def test_guard_returns_the_inverse_in_hand_or_raises(self):
        # diag(1, 1e-12) has 1-norm condition number 1e12, its 1 x 1 slice 1.
        values = np.diag([1.0, 1e-12]).astype(complex)[None]
        assert _guarded_inverse(values[:, :1, :1], ValueError, "stack").tolist() == [[[1]]]
        with pytest.raises(ValueError, match=r"^stack condition number 1\.000e\+12 "
                                             r"on the grid exceeds 1\.0e\+10$"):
            _guarded_inverse(values, ValueError, "stack")


class TestCoefficientsFromSamples:
    def test_scalar_window(self):
        # c_{-1} wraps to index K - 1 of the full window.
        S = scalar_laurent(5.0, 2.0)
        coeffs = coefficients_from_values(sample_on_grid(S, 8), 7)[:, 0, 0]
        assert coeffs[[7, 0, 1]] == pytest.approx(np.array([2, 5, 2]), abs=1e-13)

    def test_constant_identity(self):
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        coeffs = coefficients_from_values(sample_on_grid(x, 8), 0)
        assert np.max(np.abs(coeffs[0] - np.eye(2))) < 1e-14

    def test_round_trip_random_degree_three(self):
        rng = np.random.default_rng(11)
        x = random_poly(rng, 2, 3)
        coeffs = coefficients_from_values(sample_on_grid(x, 16), 3)
        assert np.max(np.abs(coeffs - x.coeffs)) < 1e-12

    def test_rejects_window_wider_than_grid(self):
        f = sample_on_grid(scalar_poly(1.0, 1.0), 8)
        with pytest.raises(ValueError, match="wider"):
            coefficients_from_values(f, 8)


class TestMultiplyByAdjoint:
    def test_scalar(self):
        S = multiply_by_adjoint(scalar_poly(2.0, 1.0))
        assert S.coeffs[:, 0, 0] == pytest.approx(np.array([5.0, 2.0]))

    def test_two_by_two(self):
        x = MatrixPolynomial(np.array([np.eye(2), [[0, 0], [1, 0]]], dtype=complex))
        S = multiply_by_adjoint(x)
        assert S.coeffs[0] == pytest.approx(np.array([[1, 0], [0, 2]]))
        assert S.coeffs[1] == pytest.approx(np.array([[0, 0], [1, 0]]))

    def test_matches_pointwise_product(self):
        rng = np.random.default_rng(13)
        x = random_poly(rng, 3, 4)
        K = 64
        S_samples = sample_on_grid(multiply_by_adjoint(x), K)
        x_samples = sample_on_grid(x, K)
        product = x_samples @ x_samples.conj().transpose(0, 2, 1)
        scale = np.max(np.abs(S_samples))
        assert np.max(np.abs(S_samples - product)) < 1e-10 * scale

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero"):
            multiply_by_adjoint(scalar_poly(0.0))


class TestInvariants:
    def test_sigma0_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianLaurentPolynomial(np.array([[[0, 1], [0, 0]]], dtype=complex))

    def test_sigma0_within_tolerance_is_stored_exactly_hermitian(self):
        sigma0 = np.array([[2.0, 0.5 + 1e-13j], [0.5 + 3e-13, 1.0 + 2e-13j]])
        coeffs = np.array([sigma0, [[0.1, 0.2], [0.3, 0.4]]], dtype=complex)
        stored = HermitianLaurentPolynomial(coeffs).coeffs
        assert np.array_equal(stored[0], stored[0].conj().T)
        assert np.array_equal(stored[1], coeffs[1])
        assert np.array_equal(coeffs[0], sigma0)

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError, match="finite"):
            MatrixPolynomial(np.array([[[np.inf]]], dtype=complex))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(np.zeros((2, 2, 3), dtype=complex))

    @pytest.mark.parametrize("cls", [MatrixPolynomial, HermitianLaurentPolynomial])
    def test_rejects_zero_dimension(self, cls):
        with pytest.raises(ValueError, match="^matrix dimension r must be >= 1$"):
            cls(np.zeros((1, 0, 0)))

    @pytest.mark.parametrize("cls", [MatrixPolynomial, HermitianLaurentPolynomial])
    def test_rejects_an_empty_stack(self, cls):
        with pytest.raises(ValueError, match="coefficient stack is empty"):
            cls(np.zeros((0, 2, 2), dtype=complex))

    def test_degree_is_trimmed(self):
        x = MatrixPolynomial(np.array([[[1.0]], [[1e-30]]], dtype=complex))
        assert x.m == 0

    def test_tiny_but_uniform_scale_is_kept(self):
        x = MatrixPolynomial(np.array([[[1e-20]], [[1e-20]]], dtype=complex))
        assert x.m == 1

    # Entries past ~1.3e154 overflow the squared Frobenius norms; trimming
    # against an infinite norm would silently drop every coefficient above 0.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cls", [MatrixPolynomial, HermitianLaurentPolynomial])
    def test_rejects_coefficients_whose_norm_overflows(self, cls):
        with pytest.raises(ValueError, match="overflow"):
            cls(np.array([[[3e155]], [[1e155]]], dtype=complex))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cls", [MatrixPolynomial, HermitianLaurentPolynomial])
    def test_rejects_coefficients_whose_norm_underflows(self, cls):
        # Every squared norm of a 1e-170 stack reads 0, which would trim it
        # to index 0; the zero polynomial itself stays valid.
        with pytest.raises(ValueError, match="^coefficient norms underflow double precision$"):
            cls(np.full((5, 2, 2), 1e-170, dtype=complex))
        assert cls(np.zeros((3, 2, 2), dtype=complex)).m == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cls", [MatrixPolynomial, HermitianLaurentPolynomial])
    def test_trim_keeps_a_coefficient_whose_squared_norm_underflows(self, cls):
        # 1e-163 squared underflows to 0 while 1e-155 squared does not, but
        # their ratio, 1e-8, is above TRIM_RTOL: the trim rule keeps it.
        assert cls(np.array([[[1e-155]], [[1e-163]]], dtype=complex)).m == 1
        assert cls(np.array([[[1e-155]], [[1e-166]]], dtype=complex)).m == 0

    def test_default_grid_size(self):
        assert default_grid_size(0) == 8
        assert default_grid_size(3) == 32
        assert default_grid_size(4) == 64


@given(st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 1.0, 3.0]), min_size=1, max_size=6))
def test_trim_keeps_through_the_last_norm_above_the_threshold(norms):
    # A reverse scan as the reference; 1e-10 of a largest norm of 1.0 sits
    # exactly on the threshold and is trimmed.
    norms = np.array(norms)
    last = next((n for n in range(len(norms) - 1, -1, -1)
                 if norms[n] > 1e-10 * norms.max()), 0)
    assert _trimmed_length(norms) == last + 1


@st.composite
def polynomial_stacks(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m + 1, r, r)) + 1j * rng.standard_normal((m + 1, r, r))


@settings(max_examples=40, deadline=None)
@given(stack=polynomial_stacks(), pad=st.integers(min_value=0, max_value=2))
def test_sampling_round_trip_property(stack, pad):
    x = MatrixPolynomial(stack)
    K = default_grid_size(x.m) << pad
    coeffs = coefficients_from_values(sample_on_grid(x, K), x.m)
    assert np.max(np.abs(coeffs - x.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(x.coeffs)))


@settings(max_examples=40, deadline=None)
@given(stack=polynomial_stacks())
def test_grid_samples_of_spectra_are_hermitian(stack):
    S = multiply_by_adjoint(MatrixPolynomial(stack))
    samples = sample_on_grid(S, default_grid_size(S.m))
    for value in samples:
        gap = np.linalg.norm(value - value.conj().T)
        assert gap <= 1e-10 * (1.0 + np.linalg.norm(value))


@settings(max_examples=40, deadline=None)
@given(stack=polynomial_stacks())
def test_induced_spectra_are_positive_semidefinite(stack):
    S = multiply_by_adjoint(MatrixPolynomial(stack))
    samples = sample_on_grid(S, default_grid_size(S.m))
    for value in samples:
        hermitized = 0.5 * (value + value.conj().T)
        min_eig = np.linalg.eigvalsh(hermitized)[0]
        assert min_eig >= -1e-10 * np.linalg.norm(value)
