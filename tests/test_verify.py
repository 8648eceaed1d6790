"""Verifier checks: each identity, its failure modes, and their couplings."""

import numpy as np
import pytest

from specfact.errors import IdenticallyZeroDeterminant, SingularFactorOnGrid
from specfact.laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    multiply_by_adjoint,
    sample_on_grid,
    unit_circle_grid,
)
from specfact.testgen import generate_instance
from specfact.verify import (
    VerifyOptions,
    check_causal_identity,
    check_constant_unitary_equivalence,
    check_degree,
    check_factorization,
    check_outer_determinant,
    check_positivity,
    verify_all,
)


def scalar_laurent(*values):
    return HermitianLaurentPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


def scalar_poly(*values):
    return MatrixPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


S_SCALAR = scalar_laurent(5.0, 2.0)
X_GOOD = scalar_poly(2.0, 1.0)
X_NON_OUTER = scalar_poly(1.0, 2.0)  # same spectrum, det root inside the disk


class TestPositivity:
    def test_identity(self):
        min_eig, min_det = check_positivity(
            HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None]))
        assert min_eig == pytest.approx(1.0, abs=1e-12)
        assert min_det == pytest.approx(1.0, abs=1e-12)

    def test_boundary_zero_on_grid_point(self):
        # 2 + z + 1/z vanishes at z = -1, which the K=8 grid hits exactly.
        min_eig, min_det = check_positivity(scalar_laurent(2.0, 1.0), 8)
        assert abs(min_eig) < 1e-12
        assert abs(min_det) < 1e-12

    def test_boundary_zero_between_grid_points_is_found(self):
        # Root planted at an angle no power-of-two grid hits.
        theta = 0.7345
        x = scalar_poly(1 / np.sqrt(2), np.exp(-1j * theta) / np.sqrt(2))
        min_eig, _ = check_positivity(multiply_by_adjoint(x), 256)
        assert abs(min_eig) < 1e-10

    def test_strictly_positive_with_margin(self):
        bundle = generate_instance(2, 3, seed=12, root_margin=0.2)
        min_eig, min_det = check_positivity(bundle.spectrum)
        assert min_eig > 0
        assert min_det > 0


class TestFactorization:
    def test_exact_pair(self):
        assert check_factorization(S_SCALAR, X_GOOD) <= 1e-15

    def test_identity_pair(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        assert check_factorization(S, x) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            check_factorization(S_SCALAR, MatrixPolynomial(np.eye(2, dtype=complex)[None]))

    def test_perturbation_tracks_first_order_prediction(self):
        bundle = generate_instance(2, 3, seed=8)
        truth = bundle.ground_truth
        delta = np.zeros_like(truth.coeffs)
        rng = np.random.default_rng(0)
        delta[0] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

        # Independent oracle: directional derivative of the residual by
        # central finite differences through multiply_by_adjoint.
        h = 1e-7
        r_plus = check_factorization(bundle.spectrum,
                                     MatrixPolynomial(truth.coeffs + h * delta))
        slope = r_plus / h

        t = 1e-3
        measured = check_factorization(bundle.spectrum,
                                       MatrixPolynomial(truth.coeffs + t * delta))
        predicted = slope * t
        assert measured < 10 * predicted
        assert measured > predicted / 10


class TestDegree:
    def test_matching_orders(self):
        assert check_degree(S_SCALAR, X_GOOD) == (1, 1, True)

    def test_constants(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        assert check_degree(S, x) == (0, 0, True)

    def test_violation(self):
        S = scalar_laurent(3.0, 1.0, 0.25)
        x = scalar_poly(1.0, 0.5, 0.25, 0.125)
        deg_S, deg_x, ok = check_degree(S, x)
        assert (deg_S, deg_x) == (2, 3)
        assert not ok


class TestOuterDeterminant:
    def test_outer_scalar(self):
        min_modulus, roots = check_outer_determinant(X_GOOD)
        assert min_modulus == pytest.approx(2.0, abs=1e-10)
        assert roots == pytest.approx(np.array([-2.0]), abs=1e-10)

    def test_unimodular_determinant_passes_vacuously(self):
        x = MatrixPolynomial(np.array([np.eye(2), [[0, 0], [1, 0]]], dtype=complex))
        min_modulus, roots = check_outer_determinant(x)
        assert np.isinf(min_modulus)
        assert len(roots) == 0

    def test_inner_root_fails(self):
        min_modulus, _ = check_outer_determinant(X_NON_OUTER)
        assert min_modulus == pytest.approx(0.5, abs=1e-10)
        assert min_modulus < 1 - 1e-6

    def test_identically_zero_determinant(self):
        x = MatrixPolynomial(np.array([[[1, 0], [0, 0]]], dtype=complex))
        with pytest.raises(IdenticallyZeroDeterminant):
            check_outer_determinant(x)


class TestCausalIdentity:
    def test_scalar_pair(self):
        gap, mass = check_causal_identity(S_SCALAR, X_GOOD)
        assert gap <= 1e-12
        assert mass <= 1e-12

    def test_identity_pair(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        gap, mass = check_causal_identity(S, x)
        assert gap == 0.0
        assert mass <= 1e-15

    def test_ground_truth_instance(self):
        bundle = generate_instance(3, 4, seed=31)
        gap, mass = check_causal_identity(bundle.spectrum, bundle.ground_truth)
        assert gap <= 1e-8
        assert mass <= 1e-8

    def test_singular_factor_on_grid(self):
        # det(1 - z) vanishes at the grid point z = 1.
        with pytest.raises(SingularFactorOnGrid):
            check_causal_identity(scalar_laurent(2.0, -1.0), scalar_poly(1.0, -1.0))

    def test_gap_bounds_residual(self):
        # Both quantities rearrange the same identity; empirically the
        # coefficient residual is within a factor 100 of the pointwise gap.
        rng = np.random.default_rng(5)
        for seed in range(10):
            bundle = generate_instance(2, 3, seed=seed)
            perturbed = MatrixPolynomial(
                bundle.ground_truth.coeffs
                + 1e-6 * (rng.standard_normal(bundle.ground_truth.coeffs.shape)))
            gap, _ = check_causal_identity(bundle.spectrum, perturbed)
            residual = check_factorization(bundle.spectrum, perturbed)
            assert residual <= 100 * gap


def reference_anticausal_mass(S, x, K):
    """Anticausal mass read from the re-centred window [-K/2, K/2) of the
    left side's Fourier coefficients, with a mask over the causal indices."""
    m = S.m
    z_m = unit_circle_grid(K) ** m
    left = np.linalg.inv(sample_on_grid(x, K)) @ (z_m[:, None, None] * sample_on_grid(S, K))
    window = (np.fft.fft(left, axis=0) / K)[np.arange(-(K // 2), K // 2) % K]
    norms = np.sqrt(np.sum(np.abs(window) ** 2, axis=(1, 2)))
    causal = np.zeros(K, dtype=bool)
    causal[K // 2 : K // 2 + m + 1] = True  # window index K//2 holds n = 0
    scale = 1.0 + np.sqrt(np.sum(np.abs(S.coeffs) ** 2, axis=(1, 2))).max()
    return float(np.sqrt(np.sum(norms[~causal] ** 2))) / scale


def _anticausal_pairs():
    rng = np.random.default_rng(17)
    # An exact non-outer factor still satisfies the identity: mass ~ 0.
    pairs = [pytest.param(S_SCALAR, X_NON_OUTER, False, id="scalar-non-outer")]
    for r, m, seed in [(1, 3, 2), (2, 4, 3), (3, 2, 5), (4, 8, 7)]:
        bundle = generate_instance(r, m, seed=seed)
        truth = bundle.ground_truth.coeffs
        noise = rng.standard_normal(truth.shape) + 1j * rng.standard_normal(truth.shape)
        pairs += [
            pytest.param(bundle.spectrum, bundle.ground_truth, False, id=f"truth-r{r}m{m}"),
            pytest.param(bundle.spectrum, MatrixPolynomial(truth + 1e-6 * noise), False,
                         id=f"perturbed-r{r}m{m}"),
            # Reversing the stack inverts every det root into the open disk and
            # no longer factors S, so the mass is large.
            pytest.param(bundle.spectrum, MatrixPolynomial(truth[::-1]), True,
                         id=f"non-outer-r{r}m{m}"),
        ]
    return pairs


@pytest.mark.parametrize("S, x, large_mass", _anticausal_pairs())
@pytest.mark.parametrize("K", [256, 512])
def test_anticausal_mass_matches_recentred_window(S, x, large_mass, K):
    _, mass = check_causal_identity(S, x, K)
    assert mass == pytest.approx(reference_anticausal_mass(S, x, K), rel=1e-12, abs=1e-20)
    if large_mass:
        assert mass > 1e-3


class TestConstantUnitaryEquivalence:
    def test_equal_factors(self):
        constancy, unitarity = check_constant_unitary_equivalence(X_GOOD, X_GOOD)
        assert constancy <= 1e-14
        assert unitarity <= 1e-14

    def test_unitary_rotation_is_invisible(self):
        rng = np.random.default_rng(23)
        x1 = MatrixPolynomial(rng.standard_normal((4, 3, 3))
                              + 1j * rng.standard_normal((4, 3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        x2 = MatrixPolynomial(x1.coeffs @ V)
        constancy, unitarity = check_constant_unitary_equivalence(x1, x2)
        assert constancy <= 1e-10
        assert unitarity <= 1e-10

    def test_blaschke_swap_is_flagged(self):
        # (1 + 2z) induces the same spectrum as (2 + z) but U(z) is a
        # genuinely non-constant inner function.
        constancy, _ = check_constant_unitary_equivalence(X_GOOD, X_NON_OUTER)
        assert constancy > 0.1

    def test_swap_symmetry(self):
        # Swapping the arguments must not flip the verdict at 10x tolerance.
        bundle = generate_instance(2, 2, seed=14)
        from specfact.factorize import bauer_factor, wilson_factor
        a = bauer_factor(bundle.spectrum)
        b = wilson_factor(bundle.spectrum)
        tol = 1e-6
        for x1, x2 in ((a, b), (b, a)):
            constancy, unitarity = check_constant_unitary_equivalence(x1, x2)
            assert constancy <= 10 * tol
            assert unitarity <= 10 * tol
        bad_forward = check_constant_unitary_equivalence(X_GOOD, X_NON_OUTER)[0] > 10 * tol
        bad_reverse = check_constant_unitary_equivalence(X_NON_OUTER, X_GOOD)[0] > 10 * tol
        assert bad_forward and bad_reverse


class TestVerifyAll:
    def test_passes_on_exact_pair(self):
        report = verify_all(S_SCALAR, X_GOOD)
        assert report.overall
        assert all(entry.passed for entry in report.checks)

    def test_passes_on_ground_truth(self):
        bundle = generate_instance(3, 2, seed=44)
        report = verify_all(bundle.spectrum, bundle.ground_truth)
        assert report.overall
        # soundness margin: every hard check clears its tolerance 10x over
        for entry in report.checks:
            if not entry.warning and entry.tolerance > 0:
                assert entry.measured <= entry.tolerance / 10

    def test_fails_on_non_outer_factor(self):
        report = verify_all(S_SCALAR, X_NON_OUTER)
        assert not report.overall
        by_name = {entry.name: entry for entry in report.checks}
        assert by_name["factorization"].passed
        assert not by_name["outer-determinant"].passed

    def test_errors_become_failed_entries(self):
        report = verify_all(scalar_laurent(2.0, -1.0), scalar_poly(1.0, -1.0))
        assert not report.overall
        by_name = {entry.name: entry for entry in report.checks}
        assert not by_name["causal-identity"].passed
        assert "condition" in by_name["causal-identity"].detail

    def test_boundary_spectrum_warns_but_passes(self):
        # An exact boundary pair: factorization is perfect, positivity is
        # tangent to zero and must surface as warning grade, not failure.
        x = scalar_poly(1 / np.sqrt(2), np.exp(-0.3j) / np.sqrt(2))
        report = verify_all(multiply_by_adjoint(x), x)
        assert report.overall
        assert report.has_warnings
        by_name = {entry.name: entry for entry in report.checks}
        assert by_name["positivity"].warning

    def test_each_check_listed_once_when_only_the_doubled_grid_is_singular(self):
        # det X has a root a 1/512 turn off the K = 256 nodes: X passes the
        # condition cap on K but is singular at a node of 2K.
        x = MatrixPolynomial(np.array(
            [np.eye(2), np.diag([0, -np.exp(-1j * np.pi / 256)])], dtype=complex))
        report = verify_all(multiply_by_adjoint(x), x)
        causal = ("causal-identity", "anticausal-mass", "anticausal-mass-stability")
        names = [entry.name for entry in report.checks]
        assert sorted(names) == sorted(
            ("positivity", "factorization", "degree", "outer-determinant") + causal)
        failed = [entry for entry in report.checks if entry.name in causal]
        assert not any(entry.passed for entry in failed)
        assert all("condition" in entry.detail for entry in failed)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            verify_all(S_SCALAR, MatrixPolynomial(np.eye(2, dtype=complex)[None]))

    def test_custom_tolerances(self):
        report = verify_all(S_SCALAR, X_GOOD, VerifyOptions(residual_tol=1e-16))
        by_name = {entry.name: entry for entry in report.checks}
        assert by_name["factorization"].tolerance == 1e-16
