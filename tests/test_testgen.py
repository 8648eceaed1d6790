"""Ground-truth instance generation: oracle exactness, determinism, margins."""

import warnings

import numpy as np
import pytest

import specfact.testgen as testgen
from specfact.errors import RetryExhausted
from specfact.factorize import canonical_normalize
from specfact.laurent import HermitianLaurentPolynomial, evaluate_at
from specfact.testgen import generate_boundary_instance, generate_instance
from specfact.verify import check_factorization, check_positivity, verify_all


def det_roots_oracle_2x2(x):
    """Independent root check: det of a 2x2 polynomial via coefficient
    convolution, then numpy roots."""
    c = x.coeffs
    m = x.m
    det = np.zeros(2 * m + 1, dtype=complex)
    for a in range(m + 1):
        for b in range(m + 1):
            det[a + b] += c[a, 0, 0] * c[b, 1, 1] - c[a, 0, 1] * c[b, 1, 0]
    det = np.trim_zeros(det, "b")
    return np.roots(det[::-1])


class TestGenerateInstance:
    def test_constant_scalar_instance(self):
        bundle = generate_instance(1, 0, seed=2)
        s0 = bundle.spectrum.coeffs[0, 0, 0]
        g0 = bundle.ground_truth.coeffs[0, 0, 0]
        assert s0.real > 0 and abs(s0.imag) < 1e-15
        assert g0.real == pytest.approx(np.sqrt(s0.real))

    def test_root_margin_is_enforced(self):
        bundle = generate_instance(2, 1, seed=42, root_margin=0.2)
        roots = det_roots_oracle_2x2(bundle.ground_truth)
        assert np.abs(roots).min() >= 1.2 - 1e-9

    @pytest.mark.parametrize("r,m,margin", [(1, 4, 0.2), (3, 2, 0.5), (4, 6, 0.2)])
    def test_reported_margin_matches_field(self, r, m, margin):
        bundle = generate_instance(r, m, seed=5, root_margin=margin)
        assert bundle.root_margin >= margin - 1e-9

    def test_oracle_identity(self):
        for seed in range(10):
            bundle = generate_instance(3, 3, seed=seed)
            assert check_factorization(bundle.spectrum, bundle.ground_truth) <= 1e-13

    def test_ground_truth_is_canonical(self):
        bundle = generate_instance(3, 2, seed=9)
        recanon, U = canonical_normalize(bundle.ground_truth)
        assert np.max(np.abs(U - np.eye(3))) < 1e-12
        assert np.max(np.abs(recanon.coeffs - bundle.ground_truth.coeffs)) < 1e-12

    def test_verify_all_passes(self):
        for seed in (0, 1, 2):
            bundle = generate_instance(2, 4, seed=seed)
            assert verify_all(bundle.spectrum, bundle.ground_truth).overall

    def test_bit_identical_reproducibility(self):
        a = generate_instance(3, 4, seed=77, root_margin=0.3)
        b = generate_instance(3, 4, seed=77, root_margin=0.3)
        assert np.array_equal(a.spectrum.coeffs, b.spectrum.coeffs)
        assert np.array_equal(a.ground_truth.coeffs, b.ground_truth.coeffs)
        assert a.root_margin == b.root_margin
        assert a.condition_estimate == b.condition_estimate

    def test_different_seeds_differ(self):
        a = generate_instance(2, 2, seed=1)
        b = generate_instance(2, 2, seed=2)
        assert not np.array_equal(a.spectrum.coeffs, b.spectrum.coeffs)

    def test_degree_is_exactly_m(self):
        bundle = generate_instance(4, 7, seed=3)
        assert bundle.ground_truth.m == 7
        assert bundle.spectrum.m == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_instance(0, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(1, -1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(1, 1, seed=0, root_margin=0.0)

    def test_retry_exhausted(self, monkeypatch):
        monkeypatch.setattr(testgen, "_build_ground_truth",
                            lambda *args, **kwargs: None)
        with pytest.raises(RetryExhausted, match="seed"):
            generate_instance(2, 2, seed=0)


class TestGenerateBoundaryInstance:
    def test_scalar_order_one_shape(self):
        bundle = generate_boundary_instance(1, 1, seed=6)
        sigma = bundle.spectrum.coeffs[:, 0, 0]
        # Up to scale: 1 + (e^{-i theta}/2) z + conj on the other side.
        assert abs(sigma[1]) == pytest.approx(sigma[0].real / 2, rel=1e-12)
        # The spectrum vanishes at the planted angle, opposite arg(sigma_1).
        value = evaluate_at(bundle.spectrum, -np.exp(-1j * np.angle(sigma[1])))
        assert abs(value[0, 0]) < 1e-12 * abs(sigma[0])

    def test_flagged_and_margin_zero(self):
        bundle = generate_boundary_instance(2, 3, seed=4)
        assert bundle.boundary
        assert abs(bundle.root_margin) < 1e-9

    def test_positivity_is_tangent_to_zero(self):
        bundle = generate_boundary_instance(3, 2, seed=11)
        min_eig, _ = check_positivity(bundle.spectrum)
        scale = 1 + float(np.max(np.abs(bundle.spectrum.coeffs)))
        assert abs(min_eig) < 1e-10 * scale

    def test_verify_report_is_warning_grade(self):
        bundle = generate_boundary_instance(2, 2, seed=8)
        report = verify_all(bundle.spectrum, bundle.ground_truth)
        assert report.overall
        by_name = {entry.name: entry for entry in report.checks}
        assert by_name["positivity"].warning

    def test_condition_estimate_is_infinite_at_a_zero_on_a_node(self):
        # 2 + z + 1/z vanishes at z = -1, node 128 of the 256-point check grid.
        S = HermitianLaurentPolynomial(np.array([2.0, 1.0], dtype=complex).reshape(-1, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert testgen._condition_estimate(S) == np.inf

    def test_oracle_identity_still_exact(self):
        bundle = generate_boundary_instance(2, 4, seed=15)
        assert check_factorization(bundle.spectrum, bundle.ground_truth) <= 1e-13

    def test_reproducible(self):
        a = generate_boundary_instance(2, 2, seed=3)
        b = generate_boundary_instance(2, 2, seed=3)
        assert np.array_equal(a.spectrum.coeffs, b.spectrum.coeffs)

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            generate_boundary_instance(2, 0, seed=0)
