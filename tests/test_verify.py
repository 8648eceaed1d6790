"""Verifier checks: each identity, its failure modes, and their couplings."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from specfact.errors import (
    IdenticallyZeroDeterminant,
    RetryExhausted,
    SingularFactorOnGrid,
    SpectralFactorError,
)
from specfact import laurent
from specfact.factorize import FactorizationOptions, factor
from specfact.laurent import (
    POSITIVITY_TOL,
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _coefficient_scale,
    _det_coefficients,
    _frobenius,
    _guarded_inverse,
    _pointwise_inverse,
    _worst_condition,
    coefficients_from_values,
    default_verify_grid,
    multiply_by_adjoint,
    sample_on_grid,
)
from specfact.testgen import generate_boundary_instance, generate_instance
from specfact.verify import (
    GRID_COND_MAX,
    MASS_STABILITY_TOL,
    NEAR_SINGULAR_TOL,
    WINDING_COUNT_TOL,
    WINDING_TAIL_TOL,
    CheckEntry,
    VerificationReport,
    VerifyOptions,
    _Grid,
    _anticausal_mass,
    _causal_bound,
    _causal_gap,
    _positivity_bound,
    _winding_number,
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
        # 2 + z + 1/z vanishes at z = -1, node j = 128 of the 256-point grid.
        assert default_verify_grid(1) == 256
        min_eig, min_det = check_positivity(scalar_laurent(2.0, 1.0))
        assert abs(min_eig) < 1e-12
        assert abs(min_det) < 1e-12

    def test_boundary_zero_between_grid_points_is_found(self):
        # Root planted at an angle no power-of-two grid hits.
        theta = 0.7345
        x = scalar_poly(1 / np.sqrt(2), np.exp(-1j * theta) / np.sqrt(2))
        min_eig, _ = check_positivity(multiply_by_adjoint(x))
        assert abs(min_eig) < 1e-10

    def test_strictly_positive_with_margin(self):
        bundle = generate_instance(2, 3, seed=12, root_margin=0.2)
        min_eig, min_det = check_positivity(bundle.spectrum)
        assert min_eig > 0
        assert min_det > 0


def entries(S, x):
    return {entry.name: entry for entry in verify_all(S, x).checks}


def quiet_report(S, x):
    """verify_all with every numpy warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return entries(S, x)


def smallest_singular_value(x, K):
    """min over the K-point grid of sigma_min(X(z_j)), by SVD."""
    return float(np.linalg.svd(sample_on_grid(x, K), compute_uv=False)[:, -1].min())


class TestPositivityCertificate:
    # verify_all's positivity entry skips the eigen-scan when S = X X^* + E
    # bounds the minimum eigenvalue of S above the near-singular threshold.

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 8, 16])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_bound_is_below_the_scan_and_the_entry_reads_as_the_scan(self, r, m):
        for seed in (0, 1):
            bundle = generate_instance(r, m, seed)
            S = bundle.spectrum
            for x in (bundle.ground_truth, factor(S).factor):
                grid = _Grid(S, x)
                bound = _positivity_bound(grid)
                # The K-node certificate decides, and sigma_lb holds between
                # the nodes too.
                assert 0 < grid.sigma_lb <= smallest_singular_value(x, 8 * grid.K) + 1e-13
                min_eig, _ = check_positivity(S)
                deficit = max(0.0, -min_eig) / grid.scale
                # Equal up to rounding when E vanishes and X is constant.
                assert bound <= min_eig + 1e-13 * grid.scale
                assert bound > NEAR_SINGULAR_TOL * grid.scale
                entry = entries(S, x)["positivity"]
                passed = deficit <= POSITIVITY_TOL
                scan = (passed, deficit, passed and min_eig <= NEAR_SINGULAR_TOL * grid.scale)
                assert (entry.passed, entry.measured, entry.warning) == scan
                assert entry.detail == (f"min eigenvalue >= {bound:.3e} on the whole "
                                        f"circle, from S = X X* + E")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 4)])
    def test_boundary_spectra_take_the_scan_and_keep_their_warning(self, r, m, seed):
        bundle = generate_boundary_instance(r, m, seed)
        entry = entries(bundle.spectrum, bundle.ground_truth)["positivity"]
        assert entry.passed and entry.warning
        assert "min |det|" in entry.detail and "nearly singular" in entry.detail

    def test_constant_factor_refused_by_the_grid_guard_takes_the_scan(self):
        singular = np.diag([1.0, 0.0]).astype(complex)[None]
        S, x = HermitianLaurentPolynomial(singular), MatrixPolynomial(singular)
        assert _positivity_bound(_Grid(S, x)) == -np.inf
        entry = entries(S, x)["positivity"]
        assert entry.passed and entry.warning
        assert entry.detail.startswith("min eigenvalue 0.000e+00, min |det| 0.000e+00")

    def test_wrong_constant_factor_of_a_boundary_spectrum_takes_the_scan(self):
        # X = 1 is far from a factor of 2 + z + 1/z, which vanishes at z = -1:
        # E outweighs X X^*, so the scan finds the zero and warns.
        S, x = scalar_laurent(2.0, 1.0), scalar_poly(1.0)
        assert _positivity_bound(_Grid(S, x)) < 0
        entry = entries(S, x)["positivity"]
        assert entry.passed and entry.warning
        assert "min |det|" in entry.detail

    def test_overflowing_factor_takes_the_scan_without_a_warning(self):
        # The ground truth scaled by 1.2e153: E and its sum of norms overflow.
        bundle = generate_instance(8, 16, 1000)
        x = MatrixPolynomial(bundle.ground_truth.coeffs * 1.2e153)
        report = quiet_report(bundle.spectrum, x)
        assert not np.isfinite(_positivity_bound(_Grid(bundle.spectrum, x)))
        assert report["positivity"].passed and not report["positivity"].warning
        assert "min |det|" in report["positivity"].detail
        assert not report["factorization"].passed
        assert not report["causal-identity"].passed

    def test_overflowing_det_fails_the_outer_entry_without_a_warning(self):
        # det X of 1e120 (diag(1 + 2z, 1, 1)) overflows; its root at -1/2 sends
        # the outer entry to the roots of det X.
        y = np.zeros((2, 3, 3), dtype=complex)
        y[0], y[1, 0, 0] = np.eye(3), 2.0
        report = quiet_report(multiply_by_adjoint(MatrixPolynomial(y)),
                              MatrixPolynomial(1e120 * y))
        assert not report["outer-determinant"].passed
        assert report["outer-determinant"].detail == "det X overflows double precision on the grid"

    @pytest.mark.parametrize("pair", ["near-circle", "higher-degree-boundary"])
    def test_scan_entry_is_check_positivity_on_the_grid_of_S(self, pair):
        if pair == "near-circle":
            # The factor of test_near_circle_factor_takes_the_scan_and_the_public_causal_check.
            S = generate_instance(2, 4, 1209, 0.02).spectrum
            x = factor(S).factor
        else:
            # A boundary truth plus 1e-3 z^40: the pair's check grid is 512,
            # the check grid of S is 256, and the scan reads the latter.
            bundle = generate_boundary_instance(2, 1, 0)
            coeffs = np.zeros((41, 2, 2), dtype=complex)
            coeffs[:2], coeffs[40] = bundle.ground_truth.coeffs, 1e-3 * np.eye(2)
            S, x = bundle.spectrum, MatrixPolynomial(coeffs)
            assert _Grid(S, x).K == 512 and default_verify_grid(S.m) == 256
        scale = _coefficient_scale(S.coeffs)
        assert not _positivity_bound(_Grid(S, x)) > NEAR_SINGULAR_TOL * scale
        min_eig, min_det = check_positivity(S)
        near_singular = min_eig <= NEAR_SINGULAR_TOL * scale
        entry = entries(S, x)["positivity"]
        assert entry.measured == max(0.0, -min_eig) / scale
        assert entry.detail == (f"min eigenvalue {min_eig:.3e}, min |det| {min_det:.3e}"
                                + ("; nearly singular on the circle" if near_singular else ""))

    def test_factorization_entry_is_the_public_residual(self):
        bundle = generate_instance(4, 8, 3)
        x = MatrixPolynomial(bundle.ground_truth.coeffs * (1 + 1e-7))
        entry = entries(bundle.spectrum, x)["factorization"]
        assert entry.measured == check_factorization(bundle.spectrum, x)
        assert entry.measured > 1e-9 and not entry.passed


CAUSAL = ("causal-identity", "anticausal-mass", "anticausal-mass-stability")


def perturbed_truth(bundle, seed):
    """The ground truth with every coefficient entry moved by about 1%."""
    truth = bundle.ground_truth.coeffs
    noise = np.random.default_rng(seed).standard_normal(truth.shape)
    return MatrixPolynomial(truth * (1 + 0.01 * noise))


def assert_K_samples_match_the_transform(grid):
    """X and z X' / m on K, from the GEMM, agree with the inverse transform of
    the zero-padded (K, 2, r, r) buffer, laid out as (2, K, r, r), to 1e-14
    sum_n ||rho_n||_F, and each is a C-contiguous (K, r, r) stack."""
    x, K = grid.x, grid.K
    buf = np.zeros((K, 2, x.r, x.r), dtype=complex)
    buf[: x.m + 1, 0] = x.coeffs
    buf[: x.m + 1, 1] = np.arange(x.m + 1)[:, None, None] / max(x.m, 1) * x.coeffs
    transform = (np.fft.ifft(buf, axis=0) * K).transpose(1, 0, 2, 3)
    assert np.abs(grid._samples - transform).max() <= 1e-14 * _frobenius(x.coeffs).sum()
    for values in (grid.x_vals, grid.derivative_vals):
        assert values.shape == (K, x.r, x.r) and values.flags.c_contiguous


def count_work(monkeypatch):
    """Record, from here on, every ``sample_on_grid`` call of the verify and
    laurent modules (the positivity scan samples S in laurent) as ("S" or
    "X", grid size), the shape of every stack it inverts, guarded
    or not, and the shape of every stack whose condition number the grid
    guard takes, on a fresh inverse or on one in hand."""
    sampled, inverted, conditioned = [], [], []

    def counting_sample(p, K):
        sampled.append(("S" if isinstance(p, HermitianLaurentPolynomial) else "X", K))
        return sample_on_grid(p, K)

    def counting_inverse(values, *args):
        inverted.append(values.shape)
        return _guarded_inverse(values, *args)

    def counting_pointwise_inverse(values):
        inverted.append(values.shape)
        return _pointwise_inverse(values)

    def counting_condition(values, inverse):
        conditioned.append(values.shape)
        return _worst_condition(values, inverse)

    monkeypatch.setattr("specfact.verify.sample_on_grid", counting_sample)
    monkeypatch.setattr("specfact.laurent.sample_on_grid", counting_sample)
    monkeypatch.setattr("specfact.verify._guarded_inverse", counting_inverse)
    monkeypatch.setattr("specfact.verify._pointwise_inverse", counting_pointwise_inverse)
    monkeypatch.setattr("specfact.verify._worst_condition", counting_condition)
    monkeypatch.setattr("specfact.laurent._worst_condition", counting_condition)
    return sampled, inverted, conditioned


class TestCausalCertificate:
    # verify_all's causal entries skip the measurement when S = X X^* + E
    # bounds all three within the strictest causal tolerance.

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 8, 16])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_bound_is_above_the_measured_triple_and_keeps_the_verdict(self, r, m):
        for seed in (0, 1):
            bundle = generate_instance(r, m, seed)
            S = bundle.spectrum
            for x in (bundle.ground_truth, factor(S).factor):
                grid = _Grid(S, x)
                bound = _causal_bound(grid)
                measured = check_causal_identity(S, x)
                # The measurement carries the inverse's rounding; B does not.
                assert all(bound >= value - 1e-13 for value in measured)
                assert bound <= MASS_STABILITY_TOL
                report = entries(S, x)
                for name, value in zip(CAUSAL, measured, strict=True):
                    entry = report[name]
                    assert entry.measured == bound
                    assert entry.passed == (value <= entry.tolerance) and not entry.warning
                    assert entry.detail.endswith(f" at most {bound:.3e}, from S = X X* + E")

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 8, 16])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_K_samples_match_the_transform_and_sigma_lb_proves_the_guard(self, r, m):
        for seed in (0, 1):
            bundle = generate_instance(r, m, seed)
            for x in (bundle.ground_truth, factor(bundle.spectrum).factor):
                grid = _Grid(bundle.spectrum, x)
                assert_K_samples_match_the_transform(grid)
                # Where sigma_lb counts, the guard's condition number on K is
                # not formed; the one it would measure stays within the bound
                # (up to the rounding both sides carry).
                assert grid.sigma_lb > 0
                measured = _worst_condition(grid.x_vals, np.linalg.inv(grid.x_vals))
                bound = r * _frobenius(x.coeffs).sum() / grid.sigma_lb
                assert measured <= bound * (1 + 1e-12) and bound <= GRID_COND_MAX

    def test_verify_all_holds_few_grid_blocks_at_its_peak(self):
        # E's band formed before the grid stacks, X and z X' / m sampled as
        # contiguous (K, r, r) stacks and read in place keep the traced peak
        # near three (K r^2) complex blocks: the two samples and X's inverse.
        # A copy of either sample stack adds a fourth.
        bundle = generate_instance(8, 16, seed=1000, root_margin=0.2)
        S = bundle.spectrum
        x = factor(S).factor
        verify_all(S, x)  # caches the monomial block
        block = default_verify_grid(S.m) * S.r**2 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            report = verify_all(S, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.overall
        assert peak <= 3.5 * block

    @pytest.mark.parametrize("m", [31, 32])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_K_samples_match_the_transform_up_to_K_512(self, r, m):
        # The check grid doubles from 256 to 512 between m = 31 and m = 32.
        rng = np.random.default_rng(100 * r + m)
        x = MatrixPolynomial(rng.standard_normal((m + 1, r, r))
                             + 1j * rng.standard_normal((m + 1, r, r)))
        grid = _Grid(multiply_by_adjoint(x), x)
        assert grid.K == (256 if m == 31 else 512)
        assert_K_samples_match_the_transform(grid)

    @pytest.mark.parametrize("c", [-1.0, 1.0, -1j, 1j], ids=["z=1", "z=-1", "z=-i", "z=i"])
    def test_factor_singular_at_a_K_node_keeps_the_guard_detail(self, c):
        # det diag(1, 1 + c z) vanishes at a quarter node of K, where the
        # monomial block is exact, as the transform is: the sample is an
        # exact zero, inversion fails and the guard reads inf.
        x = MatrixPolynomial(np.array([np.eye(2), np.diag([0, c])], dtype=complex))
        S = multiply_by_adjoint(x)
        assert _Grid(S, x).sigma_lb == -np.inf
        detail = "factor condition number inf on the grid exceeds 1.0e+10"
        report = quiet_report(S, x)
        assert all(not report[name].passed and report[name].detail == detail
                   for name in CAUSAL)
        # The refused K-node inverse sends the outer entry to the roots of
        # det X, whose one root lies on the circle: a boundary warning.
        outer = report["outer-determinant"]
        assert outer.passed and outer.warning
        assert outer.detail.startswith("min det-root modulus 1 over 1 root(s)")
        with pytest.raises(SingularFactorOnGrid, match=f"^{re.escape(detail)}$"):
            check_causal_identity(S, x)

    @pytest.mark.parametrize("r, m, seed", [(1, 4, 0), (2, 4, 1), (4, 8, 2), (8, 16, 0)])
    def test_perturbed_truth_takes_the_measurement(self, r, m, seed):
        bundle = generate_instance(r, m, seed)
        S, x = bundle.spectrum, perturbed_truth(bundle, seed)
        assert _causal_bound(_Grid(S, x)) > MASS_STABILITY_TOL
        report = quiet_report(S, x)
        assert tuple(report[name].measured for name in CAUSAL) == check_causal_identity(S, x)
        assert not report["causal-identity"].passed
        assert not any("at most" in report[name].detail for name in CAUSAL)

    def test_factor_singular_on_the_doubled_grid_takes_the_measurement(self, monkeypatch):
        # The factor of test_each_check_listed_once_when_only_the_doubled_grid_is_singular.
        # sigma_lb does not count, so the causal entries take the public
        # check, whose one 2K sampling of X meets the singular node.
        x = MatrixPolynomial(np.array(
            [np.eye(2), np.diag([0, -np.exp(-1j * np.pi / 256)])], dtype=complex))
        S = multiply_by_adjoint(x)
        assert _causal_bound(_Grid(S, x)) == np.inf
        sampled, _, _ = count_work(monkeypatch)
        report = quiet_report(S, x)
        assert sampled.count(("X", 512)) == 1
        assert all(not report[name].passed and "condition" in report[name].detail
                   for name in CAUSAL)

    @pytest.mark.parametrize("S, x", [
        (S_SCALAR, scalar_poly(0.0, 2.0, 1.0)),  # z X_GOOD: same X X^*
        (HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None]),
         MatrixPolynomial(np.array([np.diag([1, 0]), np.diag([0, 1])], dtype=complex))),
    ], ids=["z-shifted-scalar", "diag(1,z)-against-I"])
    def test_factor_of_higher_degree_takes_the_measurement(self, S, x):
        # X X^* = S exactly, so B certifies, but X^* reaches index -deg X,
        # outside the causal window [-m, 0]: B does not bound the mass.
        assert x.m > S.m
        assert _causal_bound(_Grid(S, x)) <= MASS_STABILITY_TOL
        report = quiet_report(S, x)
        assert tuple(report[name].measured for name in CAUSAL) == check_causal_identity(S, x)
        assert not report["anticausal-mass"].passed
        assert not any("at most" in report[name].detail for name in CAUSAL)

    def test_overflowing_factor_takes_the_measurement(self):
        bundle = generate_instance(8, 16, 1000)
        S, x = bundle.spectrum, MatrixPolynomial(bundle.ground_truth.coeffs * 1.2e153)
        assert not np.isfinite(_causal_bound(_Grid(S, x)))
        report = quiet_report(S, x)
        assert tuple(report[name].measured for name in CAUSAL) == check_causal_identity(S, x)
        assert not report["causal-identity"].passed

    def test_spectrum_is_not_sampled_when_both_bounds_decide(self, monkeypatch):
        bundle = generate_instance(4, 8, 1000)
        sampled, inverted, conditioned = count_work(monkeypatch)
        report = quiet_report(bundle.spectrum, bundle.ground_truth)
        assert inverted == [(256, 4, 4)] and sampled == []
        # sigma_lb counts, so it proves the grid guard: no condition number.
        assert conditioned == []
        assert "from S = X X* + E" in report["positivity"].detail
        assert all("from S = X X* + E" in report[name].detail for name in CAUSAL)
        assert "of det X on K=256" in report["outer-determinant"].detail

    def test_near_circle_factor_takes_the_scan_and_the_public_causal_check(
            self, monkeypatch):
        # Roots 0.02 from the circle: the arc term sinks sigma_lb on K.
        # Positivity takes check_positivity, which samples S on its own check
        # grid.  The causal entries take check_causal_identity, which samples
        # S and X on 2K once each and inverts all of X there in one guarded
        # batch.
        S = generate_instance(2, 4, 1209, 0.02).spectrum
        x = factor(S).factor
        assert _Grid(S, x).sigma_lb == -np.inf
        sampled, inverted, conditioned = count_work(monkeypatch)
        report = quiet_report(S, x)
        assert inverted == [(256, 2, 2), (512, 2, 2)]
        # _Grid's guard measures the K-node inverse it has, then the public
        # check measures its batch.
        assert conditioned == [(256, 2, 2), (512, 2, 2)]
        # The outer entry's roots sample X on their own, smaller grid.
        assert [call for call in sampled if call[1] >= 256] == [
            ("S", default_verify_grid(S.m)), ("X", 512), ("S", 512)]
        positivity = report["positivity"]
        assert positivity.passed and not positivity.warning
        assert positivity.detail.startswith("min eigenvalue ")
        assert "min |det|" in positivity.detail
        assert tuple(report[name].measured for name in CAUSAL) == check_causal_identity(S, x)
        assert all(report[name].passed and "at most" not in report[name].detail
                   for name in CAUSAL)

    def test_each_public_check_samples_the_spectrum_once_when_both_bounds_fall_back(
            self, monkeypatch):
        # Positivity samples S on its check grid K.  The K-node causal bound
        # does not decide, so the causal entries take check_causal_identity,
        # the only place X is sampled on 2K: S and X once each, and all of X
        # inverted there in one guarded batch.
        bundle = generate_instance(2, 4, 1)
        sampled, inverted, conditioned = count_work(monkeypatch)
        report = quiet_report(bundle.spectrum, perturbed_truth(bundle, 1))
        assert inverted == [(256, 2, 2), (512, 2, 2)]
        # sigma_lb counts on K, so the guard measures only the public
        # check's batch.
        assert conditioned == [(512, 2, 2)]
        assert sampled == [("S", 256), ("X", 512), ("S", 512)]
        assert "min |det|" in report["positivity"].detail
        assert not any("at most" in report[name].detail for name in CAUSAL)

    def test_public_check_inverts_each_2K_node_once(self, monkeypatch):
        bundle = generate_instance(4, 8, 1000)
        sampled, inverted, conditioned = count_work(monkeypatch)
        check_causal_identity(bundle.spectrum, bundle.ground_truth)
        # The whole 2K grid in one guarded batch; the even half is the K grid.
        assert inverted == [(512, 4, 4)]
        assert conditioned == [(512, 4, 4)]
        assert sorted(sampled) == [("S", 512), ("X", 512)]

    def test_public_check_shares_nothing_with_the_certificates(self, monkeypatch):
        # The reference the bounds are compared against neither builds a
        # _Grid nor samples through the certificates' GEMM.
        bundle = generate_instance(4, 8, 1000)
        S, x = bundle.spectrum, perturbed_truth(bundle, 0)
        expected = check_causal_identity(S, x)

        def refuse(*args, **kwargs):
            raise AssertionError("the public check reached the certificates")

        monkeypatch.setattr("specfact.verify._causal_values", refuse)
        monkeypatch.setattr("specfact.verify._Grid", refuse)
        assert check_causal_identity(S, x) == expected

    def test_K_certificate_counts_only_within_the_grid_guard(self):
        # X = diag(1, 1.5e-10): the guard accepts its condition number 6.7e9,
        # but r sum_n ||rho_n||_F / sigma_lb = 1.3e10 does not prove that on
        # every grid, so the causal entries take the public check, and the
        # outer entry reads the winding number off the guarded K-node inverse.
        x = MatrixPolynomial(np.diag([1.0, 1.5e-10]).astype(complex)[None])
        S = multiply_by_adjoint(x)
        grid = _Grid(S, x)
        assert grid.sigma_lb == -np.inf and _causal_bound(grid) == np.inf
        report = quiet_report(S, x)
        assert tuple(report[name].measured for name in CAUSAL) == check_causal_identity(S, x)
        assert all(report[name].passed and "at most" not in report[name].detail
                   for name in CAUSAL)
        assert "of det X on K=256" in report["outer-determinant"].detail


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

    def test_overflowing_transform_is_not_the_zero_polynomial(self):
        # det X = 2.5e307 is finite at every node of its 8-point grid, but
        # the transform sums eight of them and overflows.
        x = MatrixPolynomial(np.diag([5e153, 5e153]).astype(complex)[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralFactorError,
                               match="^det X overflows double precision on the grid$"):
                check_outer_determinant(x)

    def test_overflowing_transform_fails_the_outer_entry_without_a_warning(self):
        # det X = 5e153 (5e153 + 1e154 z) has its root at -1/2, so the
        # winding number sends the outer entry to the roots of det X.
        S = HermitianLaurentPolynomial(np.array([2 * np.eye(2), 0.5 * np.eye(2)], dtype=complex))
        x = MatrixPolynomial(np.array([np.diag([5e153, 5e153]), np.diag([1e154, 0])],
                                      dtype=complex))
        entry = quiet_report(S, x)["outer-determinant"]
        assert not entry.passed
        assert entry.detail == "det X overflows double precision on the grid"

    def test_det_coefficients_trim_by_the_stack_trim_rule(self, monkeypatch):
        # det X = 1 + 1e-9 z: kept at TRIM_RTOL = 1e-10, trimmed at 1e-8, as
        # a stack's rho_1 is.
        coeffs = np.array([[[1.0]], [[1e-9]]], dtype=complex)
        x = MatrixPolynomial(coeffs)
        assert x.m == 1 and len(_det_coefficients(x)) == 2
        monkeypatch.setattr(laurent, "TRIM_RTOL", 1e-8)
        assert MatrixPolynomial(coeffs).m == HermitianLaurentPolynomial(coeffs).m == 0
        assert len(_det_coefficients(x)) == 1


def unitary(rng, r):
    q, t = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    return q * (np.diagonal(t) / np.abs(np.diagonal(t)))


def cascade_factor(r, m, modulus, seed):
    """``X = Q prod_k (I + z V_k diag(c_k) V_k^*)`` with Q and V_k unitary and
    every |c_{k,i}| = 1/modulus: det X has all r m roots, -1/c_{k,i}, at
    |z| = modulus, so X is exactly outer."""
    rng = np.random.default_rng(seed)
    x = unitary(rng, r)[None].astype(complex)
    for _ in range(m):
        v = unitary(rng, r)
        c = np.exp(2j * np.pi * rng.random(r)) / modulus
        step = (v * c) @ v.conj().T
        grown = np.zeros((len(x) + 1, r, r), dtype=complex)
        grown[:-1] += x
        grown[1:] += x @ step
        x = grown
    return MatrixPolynomial(x)


def outer_entry(S, x):
    return {entry.name: entry for entry in verify_all(S, x).checks}["outer-determinant"]


class TestOuterVerdict:
    # verify_all reads the outer entry off the winding number of det X on the
    # K grid and falls back to the roots of det X when that count is unclean.

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r, m, modulus", [(4, 16, 1.2257), (4, 32, 1.218)])
    def test_exact_outer_cascade_passes(self, r, m, modulus, seed):
        # np.roots of det X, degree 64 or 128 here, reads roots inside the
        # disk on some of these seeds; the winding number does not.
        x = cascade_factor(r, m, modulus, seed)
        values = sample_on_grid(x, default_verify_grid(m))
        assert _worst_condition(values, _pointwise_inverse(values)) <= GRID_COND_MAX
        entry = outer_entry(multiply_by_adjoint(x), x)
        assert entry.passed and not entry.warning
        assert entry.measured == 0.0
        assert entry.detail.startswith("no det root in the closed unit disk")

    def test_root_inside_beside_a_pair_on_the_circle_fails_through_the_roots(self):
        # The pair at (1 + 1e-7) e^{+-0.7i} leaves a heavy Fourier tail and a
        # count of 2, so the roots decide, and find 0.5.
        a = (1 + 1e-7) * np.exp(0.7j)
        x = scalar_poly(*np.polynomial.polynomial.polyfromroots([0.5, a, np.conj(a)]))
        entry = outer_entry(multiply_by_adjoint(x), x)
        assert not entry.passed
        assert entry.measured == pytest.approx(0.5, abs=1e-10)
        assert entry.detail.startswith("min det-root modulus 0.5 over 3 root(s)")

    def test_factor_whose_derivative_would_overflow_gets_a_full_report(self):
        # 16 rho_16 overflows the squared Frobenius norm where rho_16 does not.
        S = scalar_laurent(1.25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5)
        x = scalar_poly(2.5e153, *[0] * 15, 1.25e153)
        report = verify_all(S, x)
        assert len(report.checks) == 7 and not report.overall
        assert not {entry.name: entry for entry in report.checks}["factorization"].passed


# The cells of the benchmark's newton and toeplitz workloads (perfbench):
# (r, m, root margin, algorithm); instance i has seed seed + i and cell i
# modulo the list, and a seed the generator cannot serve is left out.
NEWTON_CELLS = [(r, m, 0.2, "auto") for r in (1, 2, 4, 8) for m in (4, 8, 16)] + [(1, 32, 0.2, "auto")]
TOEPLITZ_CELLS = [(r, m, margin, "bauer")
                  for margin in (0.2, 0.1, 0.1) for r in (1, 2, 4) for m in (2, 4, 8)]


def benchmark_reports(cells, size, seed):
    """(S, X) for the truth and the factor of every instance of a pool."""
    for i in range(size):
        r, m, margin, algorithm = cells[i % len(cells)]
        try:
            bundle = generate_instance(r, m, seed + i, margin)
        except RetryExhausted:
            continue
        S = bundle.spectrum
        yield S, bundle.ground_truth
        yield S, factor(S, FactorizationOptions(algorithm=algorithm)).factor


@pytest.mark.parametrize("seed", [1000, 2000])
@pytest.mark.parametrize("cells, size", [(NEWTON_CELLS, 208), (TOEPLITZ_CELLS, 108)],
                         ids=["newton", "toeplitz"])
def test_winding_number_decides_the_outer_entry_on_the_benchmark_pools(cells, size, seed):
    # A clean count is what sends the outer entry past check_outer_determinant.
    # Margin-0.1 roots leave a tail near 1.4e-4 over 3K/8..5K/8 at K = 256.
    worst = 0.0
    for S, x in benchmark_reports(cells, size, seed):
        count, tail = _winding_number(_Grid(S, x))
        assert count <= WINDING_COUNT_TOL
        worst = max(worst, tail)
    assert worst <= WINDING_TAIL_TOL


class TestCausalIdentity:
    def test_scalar_pair(self):
        gap, mass, _ = check_causal_identity(S_SCALAR, X_GOOD)
        assert gap <= 1e-12
        assert mass <= 1e-12

    def test_identity_pair(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        gap, mass, _ = check_causal_identity(S, x)
        assert gap == 0.0
        assert mass <= 1e-15

    def test_ground_truth_instance(self):
        bundle = generate_instance(3, 4, seed=31)
        gap, mass, _ = check_causal_identity(bundle.spectrum, bundle.ground_truth)
        assert gap <= 1e-8
        assert mass <= 1e-8

    def test_singular_factor_on_grid(self):
        # det(1 - z) vanishes at the grid point z = 1.
        with pytest.raises(SingularFactorOnGrid, match="^factor condition number "):
            check_causal_identity(scalar_laurent(2.0, -1.0), scalar_poly(1.0, -1.0))

    def test_singular_factor_between_check_grid_nodes(self):
        # det X vanishes at z = exp(i pi/256): no node of the 256-point check
        # grid, but node 1 of the 2K grid the check samples and inverts on.
        x = scalar_poly(1.0, -np.exp(-1j * np.pi / 256))
        with pytest.raises(SingularFactorOnGrid, match="^factor condition number "):
            check_causal_identity(multiply_by_adjoint(x), x)

    def test_dimension_mismatch(self):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        with pytest.raises(ValueError, match="^dimension mismatch: spectrum r=2, factor r=1$"):
            check_causal_identity(S, X_GOOD)

    def test_gap_bounds_residual(self):
        # Both quantities rearrange the same identity; empirically the
        # coefficient residual is within a factor 100 of the pointwise gap.
        rng = np.random.default_rng(5)
        for seed in range(10):
            bundle = generate_instance(2, 3, seed=seed)
            perturbed = MatrixPolynomial(
                bundle.ground_truth.coeffs
                + 1e-6 * (rng.standard_normal(bundle.ground_truth.coeffs.shape)))
            gap, _, _ = check_causal_identity(bundle.spectrum, perturbed)
            residual = check_factorization(bundle.spectrum, perturbed)
            assert residual <= 100 * gap


def causal_on_grid(S, x, K):
    """Gap and anticausal mass with S and X sampled on the K grid itself."""
    scale = _coefficient_scale(S.coeffs)
    x_vals = sample_on_grid(x, K)
    left = np.linalg.inv(x_vals) @ sample_on_grid(S, K)
    coeffs = coefficients_from_values(left, K - 1)
    return (float(_causal_gap(left, x_vals).max()) / scale,
            _anticausal_mass(coeffs, S.m, scale))


def reference_anticausal_mass(S, x, K):
    """Anticausal mass read from the re-centred window [-K/2, K/2) of the
    Fourier coefficients of the left side ``X^{-1} S`` (the identity with
    ``z^m`` divided out), with a mask over the causal indices [-m, 0]."""
    m = S.m
    left = np.linalg.inv(sample_on_grid(x, K)) @ sample_on_grid(S, K)
    window = (np.fft.fft(left, axis=0) / K)[np.arange(-(K // 2), K // 2) % K]
    norms = np.sqrt(np.sum(np.abs(window) ** 2, axis=(1, 2)))
    causal = np.zeros(K, dtype=bool)
    causal[K // 2 - m : K // 2 + 1] = True  # window index K//2 holds n = 0
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
    mass = causal_on_grid(S, x, K)[1]
    assert mass == pytest.approx(reference_anticausal_mass(S, x, K), rel=1e-12, abs=1e-20)
    if large_mass:
        assert mass > 1e-3


@pytest.mark.parametrize("S, x, large_mass", _anticausal_pairs())
def test_verify_all_causal_entries_match_the_public_check(S, x, large_mass):
    # The measurement reads K-grid values off one 2K sampling and one 2K
    # inversion, on the check grid of the larger order, 256 on every pair;
    # it agrees with sampling on K and on 2K directly to roundoff.  Where the
    # K-node bound from S = X X^* + E decides (deg X <= m), verify_all
    # reports the bound instead, with the verdict the measurement gives.
    K = default_verify_grid(max(S.m, x.m))
    assert K == 256
    gap, mass = causal_on_grid(S, x, K)
    _, mass2 = causal_on_grid(S, x, 2 * K)
    report = entries(S, x)
    measured = check_causal_identity(S, x)
    bound = _causal_bound(_Grid(S, x))
    if x.m <= S.m and bound <= MASS_STABILITY_TOL:
        for name, value in zip(CAUSAL, measured, strict=True):
            assert report[name].measured == bound >= value - 1e-13
            assert report[name].passed == (value <= report[name].tolerance)
    else:
        assert tuple(report[name].measured for name in CAUSAL) == measured
    assert abs(measured[0] - gap) <= 1e-13
    assert abs(measured[1] - mass) <= 1e-13
    assert abs(measured[2] - abs(mass2 - mass)) <= 1e-13


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

    def test_singular_left_factor_on_grid(self):
        # det(1 - z) vanishes at the grid point z = 1.
        with pytest.raises(SingularFactorOnGrid, match="^left factor condition number "):
            check_constant_unitary_equivalence(scalar_poly(1.0, -1.0), X_GOOD)

    def test_dimension_mismatch(self):
        x = MatrixPolynomial(np.eye(2, dtype=complex)[None])
        with pytest.raises(ValueError, match="^dimension mismatch: r=1 vs r=2$"):
            check_constant_unitary_equivalence(X_GOOD, x)

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


def overflowing_pair(r, m):
    """Every coefficient of X (1 + 1j) 1e153, just below the trim refusal,
    and S the same stack with sigma_0 replaced by its Hermitian part."""
    coeffs = np.full((m + 1, r, r), (1 + 1j) * 1e153)
    sigma = coeffs.copy()
    sigma[0] = coeffs[0].real
    return HermitianLaurentPolynomial(sigma), MatrixPolynomial(coeffs)


class TestVerifyAll:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r, m", [(8, 16), (8, 64), (4, 32)])
    def test_overflowing_products_fail_their_entries_without_a_warning(self, r, m):
        # Samples stay below (2m + 1) times the largest coefficient norm, so
        # they are finite with no scan; E's band and min |det S| overflow.
        S, x = overflowing_pair(r, m)
        K = default_verify_grid(m)
        for p in (S, x):
            for size in (K, 2 * K):
                assert np.all(np.isfinite(sample_on_grid(p, size)))
        assert np.all(np.isfinite(_Grid(S, x)._samples))
        report = verify_all(S, x)
        assert [entry.status for entry in report.checks] == [
            "fail", "fail", "pass", "fail", "fail", "fail", "fail"]

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
        # A count of one root inside the disk hands the entry to the roots.
        assert by_name["outer-determinant"].detail == "min det-root modulus 0.5 over 1 root(s)"

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
        # Without the inverse the outer entry is the roots': det X has its
        # one root on the circle, a boundary warning.
        outer = next(entry for entry in report.checks if entry.name == "outer-determinant")
        assert outer.passed and outer.warning
        assert outer.detail.startswith("min det-root modulus 1 over 1 root(s)")
        # A failed entry keeps the tolerance it carries when the check runs.
        running = {entry.name: entry.tolerance
                   for entry in verify_all(S_SCALAR, X_GOOD).checks}
        assert all(entry.tolerance == running[entry.name] for entry in failed)

    def test_a_failing_warning_entry_fails_the_report(self):
        # verify_all keeps a warning only on a pass, but a report is judged by
        # every entry's status, whoever built it.
        failing = CheckEntry("positivity", False, 1.0, POSITIVITY_TOL, warning=True)
        report = VerificationReport([failing, CheckEntry("degree", True, 0.0, 0.0)])
        assert failing.status == "fail"
        assert not report.overall

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            verify_all(S_SCALAR, MatrixPolynomial(np.eye(2, dtype=complex)[None]))

    def test_high_degree_factor_fails_the_degree_check(self):
        # A factor of degree 200 against an order-1 spectrum is sampled on
        # its own check grid, so it is reported, not rejected as aliasing.
        x = np.zeros((201, 1, 1), dtype=complex)
        x[:2] = X_GOOD.coeffs
        x[200] = 1e-3
        report = verify_all(S_SCALAR, MatrixPolynomial(x))
        by_name = {entry.name: entry for entry in report.checks}
        assert not by_name["degree"].passed
        assert by_name["degree"].measured == 199
        assert not report.overall

    def test_custom_tolerances(self):
        report = verify_all(S_SCALAR, X_GOOD, VerifyOptions(residual_tol=1e-16))
        by_name = {entry.name: entry for entry in report.checks}
        assert by_name["factorization"].tolerance == 1e-16
