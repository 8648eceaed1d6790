"""Factorization algorithms, canonical normalization, and their failure modes."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specfact.errors import (
    CholeskyBreakdown,
    NoConvergence,
    NotPositiveDefinite,
    DegenerateDeterminant,
    OddBoundaryMultiplicity,
    SingularIterate,
    SingularLeadingCoefficient,
)
from specfact import factorize, laurent
from specfact.factorize import (
    FactorizationOptions,
    _bauer_core,
    _residual_against,
    _triangular_inverse,
    _wilson_core,
    bauer_factor,
    canonical_normalize,
    factor,
    scalar_root_factor,
    wilson_factor,
)
from specfact.laurent import (
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _causal_product_window,
    default_grid_size,
    default_verify_grid,
    multiply_by_adjoint,
    sample_on_grid,
)
from specfact.testgen import generate_boundary_instance, generate_instance
from specfact.verify import check_factorization, check_outer_determinant, verify_all


def scalar_laurent(*values):
    return HermitianLaurentPolynomial(np.array(values, dtype=complex).reshape(-1, 1, 1))


def unitary(rng, r):
    q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    return q


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
        with pytest.raises(DegenerateDeterminant) as caught:
            factor(S)
        # The message states what is measured: at every node an eigenvalue of
        # modulus at most the largest smallest one, against its floor.
        assert "S is singular at every grid node" in str(caught.value)
        assert "modulus at most 0.000e+00, at or below 1e-13 * scale" in str(caught.value)

    @pytest.mark.parametrize("build", [
        lambda: HermitianLaurentPolynomial(np.zeros((1, 2, 2), dtype=complex)),
        lambda: HermitianLaurentPolynomial(np.zeros((3, 16, 16), dtype=complex)),
        # Factors with their last column zeroed induce rank-deficient spectra.
        lambda: multiply_by_adjoint(MatrixPolynomial(
            generate_instance(4, 2, seed=3).ground_truth.coeffs * [1, 1, 1, 0])),
        lambda: multiply_by_adjoint(MatrixPolynomial(
            generate_instance(16, 1, seed=0).ground_truth.coeffs * ([1] * 15 + [0]))),
    ], ids=["zero-r2", "zero-r16", "rank-deficient-r4", "rank-deficient-r16"])
    def test_singular_at_every_node_is_degenerate(self, build):
        with pytest.raises(DegenerateDeterminant, match="singular at every grid node"):
            factor(build())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("r, m", [(16, 1), (16, 2), (24, 1), (24, 2), (32, 1), (32, 2)])
    def test_many_channels_pass_the_precheck(self, r, m, seed):
        # Here the product of the r eigenvalue ratios at a node can fall below
        # 1e-13 though no eigenvalue comes near zero.
        bundle = generate_instance(r, m, seed)
        result = factor(bundle.spectrum)
        assert result.warnings == []
        assert forward_error(result.factor, bundle.ground_truth) <= 1e-12

    @pytest.mark.parametrize("r", [16, 24, 32])
    def test_condition_11_diagonal_spectrum_factors(self, r):
        # det S = 0.09^(r-1) lies below 1e-13 scale^r, yet S is far from singular.
        diagonal = np.array([1.0] + [0.09] * (r - 1))
        result = factor(HermitianLaurentPolynomial(np.diag(diagonal).astype(complex)[None]))
        assert result.warnings == []
        assert np.max(np.abs(result.factor.coeffs[0] - np.diag(np.sqrt(diagonal)))) <= 1e-15

    @pytest.mark.parametrize("scale", [1e40, 1e60, 1e-45, 1e-60])
    def test_determinant_floor_is_scale_free(self, scale):
        # At r = 8 |det S| leaves double range here; the precheck compares
        # eigenvalues with scale, and the factor is the truth's.
        bundle = generate_instance(8, 4, 0)
        S = HermitianLaurentPolynomial(bundle.spectrum.coeffs * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = factor(S).factor
            assert verify_all(S, x).overall
        unscaled = MatrixPolynomial(x.coeffs / np.sqrt(scale))
        assert forward_error(unscaled, bundle.ground_truth) <= 1e-13

    @pytest.mark.parametrize("entry", [
        lambda S: factor(S, FactorizationOptions(algorithm="scalar_roots")),
        scalar_root_factor,
    ], ids=["factor", "scalar_root_factor"])
    def test_scalar_roots_rejects_matrix_input(self, entry):
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        with pytest.raises(ValueError,
                           match=r"^scalar_roots requires a scalar \(r = 1\) spectrum$"):
            entry(S)

    def test_no_convergence_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(factorize, "NEWTON_MAX_ITERS", 3)
        opts = FactorizationOptions(algorithm="wilson", residual_tol=1e-30)
        with pytest.raises(NoConvergence) as excinfo:
            factor(S_SCALAR, opts)
        exc = excinfo.value
        assert exc.best_factor is not None
        assert np.isfinite(exc.achieved_residual)

    # Doubling steps 3 and 1 stand for 16 and 4 Toeplitz block rows (m = 2).
    @pytest.mark.parametrize("algorithm, newton_iters, steps, expected", [
        ("wilson", 2, 3, "wilson"),
        ("bauer", 2, 3, "bauer"),
        ("auto", 2, 3, "bauer"),  # auto's one route is Bauer's doubling
    ])
    def test_no_convergence_names_the_algorithm_of_its_iterate(
            self, monkeypatch, algorithm, newton_iters, steps, expected):
        spectrum = generate_boundary_instance(2, 2, seed=19).spectrum
        monkeypatch.setattr(factorize, "DOUBLING_MAX_STEPS", steps)
        monkeypatch.setattr(factorize, "NEWTON_MAX_ITERS", newton_iters)
        with pytest.raises(NoConvergence) as excinfo:
            factor(spectrum, FactorizationOptions(algorithm=algorithm))
        assert excinfo.value.algorithm == expected
        # factor() re-raises the best iterate canonicalized.
        rho0 = excinfo.value.best_factor.coeffs[0]
        assert np.max(np.abs(np.triu(rho0, k=1))) < 1e-10
        assert np.all(np.diag(rho0).real > 0)
        assert np.max(np.abs(np.diag(rho0).imag)) < 1e-10

    # Free-running, S_SCALAR takes 6 Newton passes: the residual meets the
    # tolerance after pass 5 and buys pass 6.  It takes 5 doubling steps: the
    # change of step 5, 1.7e-10, meets the tolerance at 1.5e-5 times the
    # change before it, so in this quadratic regime step 5 is the last.
    @pytest.mark.parametrize("cap, algorithm, passes", [
        ("NEWTON_MAX_ITERS", "wilson", 6),
        ("DOUBLING_MAX_STEPS", "bauer", 5),
    ], ids=["NEWTON_MAX_ITERS-wilson", "DOUBLING_MAX_STEPS-bauer"])
    def test_a_run_capped_before_its_converged_pass_does_not_converge(
            self, monkeypatch, cap, algorithm, passes):
        # Capped one pass short, the run's iterate meets the tolerance but the
        # run never makes the pass that would show it, so it is not converged.
        opts = FactorizationOptions(algorithm=algorithm)
        assert factor(S_SCALAR, opts).iterations_or_blocks == passes
        monkeypatch.setattr(factorize, cap, passes - 1)
        with pytest.raises(NoConvergence) as excinfo:
            factor(S_SCALAR, opts)
        assert excinfo.value.iterations == passes - 1
        assert excinfo.value.achieved_residual < opts.residual_tol

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            FactorizationOptions(algorithm="newton")
        with pytest.raises(ValueError):
            FactorizationOptions(residual_tol=0.0)
        with pytest.raises(ValueError, match="^residual_tol must be finite$"):
            FactorizationOptions(residual_tol=float("inf"))


class TestBauer:
    def test_scalar(self):
        x = bauer_factor(S_SCALAR)
        canon, _ = canonical_normalize(x)
        assert coeff_gap(canon, X_SCALAR) < 1e-9

    def test_constant_spectrum_is_cholesky(self):
        x = bauer_factor(scalar_laurent(4.0))
        assert x.coeffs[0, 0, 0] == pytest.approx(2.0)

    def test_converges_within_block_budget(self, monkeypatch):
        bundle = generate_instance(2, 2, seed=3, root_margin=0.5)
        monkeypatch.setattr(factorize, "DOUBLING_MAX_STEPS", 7)  # 2 * 2^7 = 256 block rows
        x = bauer_factor(bundle.spectrum, FactorizationOptions(residual_tol=1e-9))
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

    @pytest.mark.parametrize("coeffs, step", [
        ([[[1, 1], [1, 1]]], 0),
        ([[[2, 2], [2, 2]], [[1, 1], [1, 1]]], 1),
    ], ids=["m0", "m1"])
    def test_rank_one_spectrum_breaks_down_at_the_final_cholesky(self, coeffs, step):
        # S = (2 + z + 1/z)^m [[1, 1], [1, 1]] has rank 1 on the whole circle,
        # so it is semidefinite: wherever the doubling stops, the positivity
        # rule lets it through, and the Cholesky of Q that reads the factor's
        # row breaks down.  factor()'s precheck rejects S before any route runs.
        S = HermitianLaurentPolynomial(np.array(coeffs, dtype=complex))
        with pytest.raises(CholeskyBreakdown,
                           match=rf"^Bauer's Q at step {step} is not positive definite$"):
            bauer_factor(S)
        with pytest.raises(DegenerateDeterminant):
            factor(S)

    def test_block_cap_raises_no_convergence(self, monkeypatch):
        # Cap low enough that the doubling cannot settle: 3 steps, 8 block rows.
        monkeypatch.setattr(factorize, "DOUBLING_MAX_STEPS", 3)
        with pytest.raises(NoConvergence) as excinfo:
            bauer_factor(S_SCALAR, FactorizationOptions(residual_tol=1e-30))
        assert excinfo.value.best_factor is not None
        assert excinfo.value.achieved_residual < 1e-2  # cap hit, iterate still usable


class TestWilson:
    def test_identity_fixed_point(self):
        # X_1 = I already; the second iteration is the polish pass every
        # converged run makes.
        from specfact.factorize import _wilson_core
        S = HermitianLaurentPolynomial(np.eye(2, dtype=complex)[None])
        coeffs, iterations, _ = _wilson_core(S, FactorizationOptions())
        assert iterations == 2
        assert np.max(np.abs(coeffs[0] - np.eye(2))) < 1e-14

    def test_scalar(self):
        x = wilson_factor(S_SCALAR)
        canon, _ = canonical_normalize(x)
        assert coeff_gap(canon, X_SCALAR) < 1e-10

    def test_requires_positive_definite_average(self):
        with pytest.raises(NotPositiveDefinite):
            wilson_factor(scalar_laurent(0.0, 1.0))

    def test_first_step_guards_the_cholesky_start(self):
        # X_0 = diag(1, 1e-13) has 1-norm condition number 1e13 at every grid point.
        S = HermitianLaurentPolynomial(np.diag([1.0, 1e-26]).astype(complex)[None])
        with pytest.raises(SingularIterate, match=r"^iterate 1 condition number 1\.000e\+13 "
                           r"on the grid exceeds 1\.0e\+12$"):
            wilson_factor(S)

    def test_polishes_a_residual_already_below_roundoff(self):
        # Iteration 6 ends at residual 1e-13 here, where whether an early exit
        # fired hung on roundoff (forward error 2.6e-13 at 6 iterations); the
        # polish pass always runs, so the factor is exact to roundoff.
        bundle = generate_instance(1, 32, seed=2051)
        result = factor(bundle.spectrum, FactorizationOptions(algorithm="wilson"))
        assert result.iterations_or_blocks == 7
        assert forward_error(result.factor, bundle.ground_truth) <= 1e-15

    def test_tolerance_below_roundoff_stops_at_the_roundoff_floor(self):
        # At 1e-16 the run stops once a residual is below NEWTON_ROUNDOFF and
        # makes its pass, instead of hunting 1e-16 until the iteration cap.
        bundle = generate_instance(4, 8, seed=2)
        result = factor(bundle.spectrum,
                        FactorizationOptions(algorithm="wilson", residual_tol=1e-16))
        assert result.iterations_or_blocks == 8
        assert forward_error(result.factor, bundle.ground_truth) <= 1e-14
        assert any("exceeds the requested tolerance" in w for w in result.warnings)

    def test_indefinite_spectrum_at_the_cap_names_the_route(self):
        # S = 1 - 1e-6 - cos(3 theta + 3 pi/256) dips below zero between two
        # nodes of the check grid: the precheck passes it, Newton does not
        # converge, and the positivity rule words the error after the route.
        coeffs = np.zeros((4, 1, 1), dtype=complex)
        coeffs[0], coeffs[3] = 1 - 1e-6, -0.5 * np.exp(3j * np.pi / 256)
        with pytest.raises(NotPositiveDefinite,
                           match=r"^wilson did not converge: S has eigenvalue -1\.000e-06 "):
            factor(HermitianLaurentPolynomial(coeffs), FactorizationOptions(algorithm="wilson"))

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
        coeffs, _, warnings = _scalar_roots_core(scalar_laurent(2.0, 1.0),
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

    @pytest.mark.parametrize("value, shown", [(-1.0, "-1.000e+00"), (0.0, "0.000e+00")])
    def test_constant_spectrum_that_is_not_positive(self, value, shown):
        # The root path would return sqrt(|sigma_0|); the guard refuses first.
        with pytest.raises(NotPositiveDefinite) as caught:
            scalar_root_factor(scalar_laurent(value))
        assert str(caught.value) == f"constant scalar spectrum {shown} is not positive"

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

    def test_leading_coefficient_whose_gram_cholesky_fails_is_canonicalized(self):
        # rho_0 = U diag(1, s, t) V with t log-uniform in [1e-12, 1e-8]: its
        # condition number stays within LEADING_COND_MAX, but the Cholesky of
        # rho_0 rho_0^* squares it, so that Cholesky fails on many draws.
        # Those draws take the QR route; the others keep the Cholesky route.
        rng = np.random.default_rng(23)
        gram_failures = 0
        for _ in range(60):
            spread = np.diag([1.0, rng.uniform(0.1, 1.0), 10 ** rng.uniform(-12, -8)])
            rho0 = unitary(rng, 3) @ spread @ unitary(rng, 3)
            assert np.linalg.cond(rho0) <= laurent.LEADING_COND_MAX
            gram = rho0 @ rho0.conj().T
            try:
                np.linalg.cholesky(0.5 * (gram + gram.conj().T))
                continue
            except np.linalg.LinAlgError:
                gram_failures += 1
            y, U = canonical_normalize(MatrixPolynomial(np.array([rho0, np.eye(3)])))
            lead = y.coeffs[0]
            assert np.max(np.abs(np.triu(lead, k=1))) <= 1e-14
            assert np.all(np.diag(lead).real > 0)
            assert np.max(np.abs(np.diag(lead).imag)) <= 1e-14
            assert np.max(np.abs(U.conj().T @ U - np.eye(3))) <= 1e-14
            assert np.max(np.abs(rho0 @ U - lead)) <= 1e-14
        assert gram_failures >= 10

    def test_ill_conditioned_leading_coefficient_keeps_u_unitary(self):
        # rho_0 = Q_1 diag(1, c^-1/2, c^-1) Q_2 with c log-uniform in [1e5, 1e7]:
        # the Cholesky of rho_0 rho_0^* still succeeds, but squares c, so a U
        # solved from it is far from unitary; the QR route keeps it unitary.
        rng = np.random.default_rng(37)
        for _ in range(60):
            c = 10 ** rng.uniform(5, 7)
            rho0 = unitary(rng, 3) @ np.diag([1.0, c**-0.5, 1 / c]) @ unitary(rng, 3)
            _, U = canonical_normalize(MatrixPolynomial(np.array([rho0, np.eye(3)])))
            assert np.max(np.abs(U.conj().T @ U - np.eye(3))) <= 1e-12

    def test_qr_route_gives_the_cholesky_route_canonical_form(self, monkeypatch):
        rng = np.random.default_rng(29)
        x = MatrixPolynomial(rng.standard_normal((3, 4, 4))
                             + 1j * rng.standard_normal((3, 4, 4)))
        expected, _ = canonical_normalize(x)
        monkeypatch.setattr(laurent, "_canonical_leading", lambda rho0: None)
        y, U = canonical_normalize(x)
        assert np.max(np.abs(y.coeffs - expected.coeffs)) <= 1e-12
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) <= 1e-14


class TestFactorReturnsCanonical:
    # The doubling's rho_0 is the last diagonal block of chol(Q), so factor()
    # returns its factor as it stands; the other routes are canonicalized.

    @pytest.mark.parametrize("algorithm", ["auto", "bauer"])
    @pytest.mark.parametrize("r, m", [(1, 0), (1, 4), (3, 2), (4, 8), (8, 16)])
    def test_doubling_factor_is_exactly_canonical(self, algorithm, r, m):
        S = generate_instance(r, m, seed=5).spectrum
        x = factor(S, FactorizationOptions(algorithm=algorithm)).factor
        rho0 = x.coeffs[0]
        assert not np.any(np.triu(rho0, k=1))
        assert np.all(np.diag(rho0).imag == 0) and np.all(np.diag(rho0).real > 0)
        _, U = canonical_normalize(x)
        assert np.max(np.abs(U - np.eye(r))) <= 1e-13

    @pytest.mark.parametrize("algorithm", ["auto", "bauer"])
    def test_ill_conditioned_doubling_leading_coefficient_raises(self, monkeypatch, algorithm):
        # The doubling's factor skips the unitary solve, not the guard on rho_0.
        name, core = factorize._ROUTES[algorithm]

        def ill_conditioned_core(S, opts):
            coeffs, steps, warns = core(S, opts)
            coeffs[0] = np.diag([1.0, 1e-13])
            return coeffs, steps, warns

        monkeypatch.setitem(factorize._ROUTES, algorithm, (name, ill_conditioned_core))
        with pytest.raises(SingularLeadingCoefficient, match="condition number 1.000e"):
            factor(generate_instance(2, 2, seed=0).spectrum,
                   FactorizationOptions(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm, r", [("wilson", 1), ("wilson", 3), ("scalar_roots", 1)])
    def test_other_routes_return_the_canonical_normalize_output(self, algorithm, r):
        S = generate_instance(r, 4, seed=2).spectrum
        opts = FactorizationOptions(algorithm=algorithm)
        raw = factorize._ROUTES[algorithm][1](S, opts)[0]
        expected, _ = canonical_normalize(MatrixPolynomial(raw))
        assert not np.array_equal(raw, expected.coeffs)  # the unitary solve moves bits
        assert np.array_equal(factor(S, opts).factor.coeffs, expected.coeffs)


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


# Spectra whose doubling change rises once before its quadratic regime.
FALSE_STALL_SEEDS = [(3, 1, 204940708), (2, 1, 303804809), (3, 1, 746312779),
                     (3, 1, 745132541)]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), m=st.integers(0, 3),
       r=st.integers(1, 3))
@example(seed=204940708, m=1, r=3)
@example(seed=303804809, m=1, r=2)
def test_factor_residual_and_outerness_property(seed, m, r):
    bundle = generate_instance(r, m, seed=seed)
    result = factor(bundle.spectrum)
    assert check_factorization(bundle.spectrum, result.factor) <= 1e-9
    min_modulus, _ = check_outer_determinant(result.factor)
    assert min_modulus >= 1 - 1e-6


@pytest.mark.parametrize("algorithm", ["auto", "bauer"])
@pytest.mark.parametrize("r, m, seed", FALSE_STALL_SEEDS)
def test_a_rise_in_the_change_above_the_stall_floor_is_no_stall(r, m, seed, algorithm):
    # The change rises once at step 1 or 2, far above sqrt(residual_tol);
    # counting that as roundoff stopped the doubling at residual 1e-2 to 0.2.
    bundle = generate_instance(r, m, seed)
    result = factor(bundle.spectrum, FactorizationOptions(algorithm=algorithm))
    assert not any("stopped on roundoff" in w for w in result.warnings)
    assert forward_error(result.factor, bundle.ground_truth) <= 1e-12


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


# Random stacks of unequal lengths, and spectra induced by a degree-m factor
# against that factor perturbed by each spread.
@pytest.mark.parametrize("sigma_len, factor_len, spreads", [
    pytest.param(s, f, (), id=f"{s}-{f}") for s, f in [(1, 1), (3, 3), (2, 5), (6, 2)]
] + [
    pytest.param(m + 1, m + 1, (1e-8, 1e-3, 1.0), id=f"induced-m{m}") for m in (0, 4, 32)
])
@pytest.mark.parametrize("r", [1, 3])
def test_residual_matches_loop_reference(sigma_len, factor_len, spreads, r):
    rng = np.random.default_rng(100 * sigma_len + 10 * factor_len + r)
    draw = lambda n: rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    if spreads:
        c = draw(factor_len)
        sigma = multiply_by_adjoint(MatrixPolynomial(c)).coeffs
        pairs = [(sigma, c + spread * draw(factor_len)) for spread in spreads]
    else:
        pairs = [(draw(sigma_len), draw(factor_len))]
    # approx's default absolute floor of 1e-12 would swamp the near-zero
    # residuals of small spreads; they keep an absolute bound of 1e-14.
    for sigma, c in pairs:
        assert _residual_against(sigma, c) == pytest.approx(loop_residual(sigma, c),
                                                             rel=1e-12, abs=1e-14)


def loop_product(a, b, m):
    """Reference for the Newton update's product: coefficients 0..m of
    a(z) b(z), one r x r matmul per pair of indices."""
    r = a.shape[1]
    out = np.zeros((m + 1, r, r), dtype=np.complex128)
    for n in range(m + 1):
        for k in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
            out[n] += a[k] @ b[n - k]
    return out


def reference_newton_step(S, chi):
    """X_k [X_k^{-1} S X_k^{-*} + I]_+ with grid solves for the inner term and
    the product taken in coefficient space."""
    m, r = S.m, S.r
    K = default_grid_size(m)
    S_vals = sample_on_grid(S, K)
    chi_vals = sample_on_grid(MatrixPolynomial(chi), K)
    half = np.linalg.solve(chi_vals, S_vals)
    G = np.linalg.solve(chi_vals, half.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    plus = np.fft.fft(G + np.eye(r), axis=0)[: m + 1] / K
    plus[0] *= 0.5
    return loop_product(chi, plus, m)


def wilson_iterates(monkeypatch, S, iterations):
    """X_0..X_iterations of Wilson's loop.  Every iterate passes through the
    residual: record each one, and report no progress so nothing stops early."""
    iterates = []

    def record(sigma, chi):
        iterates.append(np.array(chi))
        return 1.0

    monkeypatch.setattr(factorize, "_residual_against", record)
    monkeypatch.setattr(factorize, "NEWTON_MAX_ITERS", iterations)
    try:
        _wilson_core(S, FactorizationOptions(residual_tol=1e-30))
    except NoConvergence:
        pass
    return iterates


@pytest.mark.parametrize("m", [0, 4, 32])
@pytest.mark.parametrize("r", [1, 3])
def test_grid_newton_update_matches_coefficient_product(monkeypatch, r, m):
    rng = np.random.default_rng(10 * m + r)
    draw = rng.standard_normal((m + 1, r, r)) + 1j * rng.standard_normal((m + 1, r, r))
    S = multiply_by_adjoint(MatrixPolynomial(draw))
    # X_2 is the first update that starts from a non-constant iterate.
    _, start, update = wilson_iterates(monkeypatch, S, 2)
    expected = reference_newton_step(S, start)
    assert np.linalg.norm(update - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_first_newton_step_matches_the_grid_step(monkeypatch, r, m):
    rng = np.random.default_rng(300 + 10 * m + r)
    draw = rng.standard_normal((m + 1, r, r)) + 1j * rng.standard_normal((m + 1, r, r))
    for S in (multiply_by_adjoint(MatrixPolynomial(draw)),
              generate_instance(r, m, seed=r + m).spectrum):
        start, first = wilson_iterates(monkeypatch, S, 1)
        expected = reference_newton_step(S, start)
        assert np.linalg.norm(first - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_wilson_samples_every_iterate(monkeypatch, r, m):
    # One step kind: every iteration, the first included, samples its iterate once.
    S = generate_instance(r, m, seed=10 * r + m).spectrum
    calls = []
    sample = factorize.sample_values_on_grid
    monkeypatch.setattr(factorize, "sample_values_on_grid",
                        lambda buf: calls.append(len(buf)) or sample(buf))
    _, iterations, _ = _wilson_core(S, FactorizationOptions())
    assert len(calls) == iterations


@pytest.mark.parametrize("m", [0, 4, 32])
@pytest.mark.parametrize("r", [1, 3, 8])
def test_causal_product_window_matches_loop_references(r, m):
    rng = np.random.default_rng(200 + 10 * m + r)
    draw = lambda: rng.standard_normal((m + 1, r, r)) + 1j * rng.standard_normal((m + 1, r, r))
    a, b = draw(), draw()
    for lo in (0, m):
        expected = loop_product(a, b, lo + m)[lo:]
        window = _causal_product_window(a, b, lo)
        assert np.linalg.norm(window - expected) <= 1e-12 * np.linalg.norm(expected)
    sigma = multiply_by_adjoint(MatrixPolynomial(draw())).coeffs
    assert abs(_residual_against(sigma, a) - loop_residual(sigma, a)) <= 1e-14


def loop_bauer(S, opts, cap):
    """Reference for Bauer's limit, row by row: each row of the block Cholesky
    factor of the banded block-Toeplitz matrix back-substitutes its m coupling
    blocks one at a time against a ring of the last m+1 rows and their
    pivots' inverse adjoints.  The last-row estimates at 4(m+1) * 2^k rows and
    at the cap are compared until they differ by less than residual_tol;
    returns ``(estimate, blocks)``, or raises ``NoConvergence`` with the
    estimate at ``cap`` rows."""
    m, r = S.m, S.r
    sigma = S.coeffs
    scale = 1.0 + float(np.sqrt(np.sum(np.abs(sigma) ** 2, axis=(1, 2))).max())
    checkpoints = {cap}
    n = 4 * (m + 1)
    while n < cap:
        checkpoints.add(n)
        n *= 2
    eye = np.eye(r, dtype=complex)
    row_adj, pivot_inv_adj = [None] * (m + 1), [None] * (m + 1)
    prev_est = None
    for i in range(cap):
        W = np.zeros((r, (m + 1) * r), dtype=complex)
        dmax = min(i, m)
        for d in range(dmax, 0, -1):
            j = (i - d) % (m + 1)
            coupled = W[:, (d + 1) * r:(dmax + 1) * r] @ row_adj[j][r:(dmax - d + 1) * r]
            W[:, d * r:(d + 1) * r] = (sigma[d] - coupled) @ pivot_inv_adj[j]
        tail = W[:, r:(dmax + 1) * r]
        X = sigma[0] - tail @ tail.conj().T
        try:
            L = np.linalg.cholesky(0.5 * (X + X.conj().T))
        except np.linalg.LinAlgError:
            raise CholeskyBreakdown(f"pivot block at Toeplitz row {i}") from None
        W[:, :r] = L
        row_adj[i % (m + 1)] = W.conj().T
        pivot_inv_adj[i % (m + 1)] = np.linalg.solve(L, eye).conj().T
        if i + 1 in checkpoints:
            cur = W.reshape(r, m + 1, r).transpose(1, 0, 2).copy()
            if prev_est is not None:
                diff = float(np.sqrt(np.sum(np.abs(cur - prev_est) ** 2, axis=(1, 2))).max())
                if diff / scale < opts.residual_tol:
                    return cur, i + 1
            prev_est = cur
    raise NoConvergence("cap", best_factor=MatrixPolynomial(prev_est),
                        achieved_residual=_residual_against(sigma, prev_est),
                        iterations=cap, algorithm="bauer")


def relative_gap(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


@pytest.mark.parametrize("margin", [0.2, 0.05])
@pytest.mark.parametrize("m", [0, 1, 2, 4, 8])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bauer_sweep_matches_back_substitution(r, m, margin):
    S = generate_instance(r, m, seed=10 * r + m, root_margin=margin).spectrum
    estimate, _, warnings = _bauer_core(S, FactorizationOptions())
    reference, _ = loop_bauer(S, FactorizationOptions(residual_tol=1e-13), cap=2**14)
    assert not warnings
    assert relative_gap(estimate, reference) <= 1e-12


# After k doubling steps rho_0..rho_{m-1} are the last-row estimate at
# m * 2^k rows; rho_m is read off sigma_m = rho_m rho_0^*.
@pytest.mark.parametrize("steps", [1, 2, 3, 4])
@pytest.mark.parametrize("r, m", [(1, 1), (2, 3), (3, 8)])
def test_bauer_best_iterate_at_the_cap_matches_back_substitution(monkeypatch, r, m, steps):
    S = generate_instance(r, m, seed=r + m, root_margin=0.05).spectrum
    opts = FactorizationOptions(residual_tol=1e-30)
    monkeypatch.setattr(factorize, "DOUBLING_MAX_STEPS", steps)
    with pytest.raises(NoConvergence) as got:
        _bauer_core(S, opts)
    with pytest.raises(NoConvergence) as want:
        loop_bauer(S, opts, cap=m * 2**steps)
    coeffs = got.value.best_factor.coeffs
    assert got.value.algorithm == "bauer" and got.value.iterations == steps
    assert relative_gap(coeffs[:m], want.value.best_factor.coeffs[:m]) <= 1e-12
    rho_m = S.coeffs[m] @ np.linalg.inv(coeffs[0]).conj().T
    assert relative_gap(coeffs[m], rho_m) <= 1e-12
    assert got.value.achieved_residual == _residual_against(S.coeffs, coeffs)


@pytest.mark.parametrize("coeffs", [
    [[[1.0]], [[0.6]]],  # S(-1) < 0: the Toeplitz sections turn indefinite at order 5
    [[[1.0, 0.1], [0.1, 2.0]], [[0.6, 0.0], [0.0, 0.3]]],
])
def test_bauer_breaks_down_at_the_back_substitution_row(coeffs):
    S = HermitianLaurentPolynomial(np.array(coeffs, dtype=complex))
    opts = FactorizationOptions()
    with pytest.raises(CholeskyBreakdown):
        _bauer_core(S, opts)
    with pytest.raises(CholeskyBreakdown):
        loop_bauer(S, opts, cap=2**14)


def test_bauer_stops_on_roundoff_with_a_det_root_on_the_circle():
    # The change of the Schur complement halves each step, then stalls near
    # 1e-8, above the default tolerance 1e-9.
    bundle = generate_boundary_instance(1, 1, seed=2000)
    result = factor(bundle.spectrum, FactorizationOptions(algorithm="bauer"))
    assert any("stopped on roundoff" in w for w in result.warnings)
    assert forward_error(result.factor, bundle.ground_truth) <= 1e-8
    # auto's doubling stops at its budget of 2^14 block rows, 14 steps at
    # m = 1.
    with pytest.raises(NoConvergence) as excinfo:
        factor(bundle.spectrum)
    assert (excinfo.value.algorithm, excinfo.value.iterations) == ("bauer", 14)


# Det roots down to modulus 1.001: a forced bauer converges in 11 to 14
# doubling steps, one step past auto's budget of 2^14 block rows.
@pytest.mark.parametrize("r, m, seed", [(1, 2, 1), (1, 4, 1), (2, 16, 0)])
def test_auto_reports_the_doublings_best_iterate_at_its_budget(r, m, seed):
    S = generate_instance(r, m, seed, root_margin=0.001).spectrum
    assert factor(S, FactorizationOptions(algorithm="bauer")).algorithm_used == "bauer"
    # auto has no second route: it reports the doubling's last iterate, which
    # is already an accurate factor, instead of another route's answer.
    with pytest.raises(NoConvergence) as excinfo:
        factor(S)
    assert excinfo.value.algorithm == "bauer"
    assert verify_all(S, excinfo.value.best_factor).overall


@pytest.mark.parametrize("n", [1, 5, 32, 33, 48, 136])
def test_triangular_inverse_inverts_a_cholesky_factor(n):
    # Leaves of at most 32 rows, odd splits and three levels of recursion.
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lower = np.linalg.cholesky(a @ a.conj().T + n * np.eye(n))
    eye = np.eye(n)
    gap = np.linalg.norm(_triangular_inverse(lower) @ lower - eye)
    assert gap <= 1e-13 * np.linalg.norm(eye)


def test_forced_bauer_factors_boundary_spectra_to_the_simple_root_accuracy():
    # A det root on the circle: the doubling pivot nearly loses definiteness,
    # where the triangular inverse must stay as accurate as a solve.
    opts = FactorizationOptions(algorithm="bauer")
    worst = 0.0
    for r in range(1, 5):
        for m in (1, 2, 4, 8):
            for seed in range(6):
                bundle = generate_boundary_instance(r, m, seed)
                x = factor(bundle.spectrum, opts).factor
                worst = max(worst, forward_error(x, bundle.ground_truth))
    assert worst < 2e-8


def test_doubling_step_holds_few_blocks_at_its_peak():
    # One triangular inverse, Q and P updated in place and each step's
    # temporaries dropped as soon as they are spent keep the traced peak near
    # seven (m r)^2 complex blocks.
    S = generate_instance(8, 16, seed=1000, root_margin=0.2).spectrum
    block = (S.m * S.r) ** 2 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        _bauer_core(S, FactorizationOptions())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * block


@pytest.mark.parametrize("r, m, margin", [(1, 1, 0.2), (2, 3, 0.02), (4, 16, 0.02)])
def test_bauer_meets_a_tolerance_below_roundoff_without_a_stall(r, m, margin):
    # The change is the norm of A^* W^{-1} A, which squares each step off the
    # circle, so it falls below 1e-17 instead of levelling off at roundoff.
    bundle = generate_instance(r, m, seed=0, root_margin=margin)
    result = factor(bundle.spectrum,
                    FactorizationOptions(algorithm="bauer", residual_tol=1e-17))
    assert not any("stopped on roundoff" in w for w in result.warnings)
    assert forward_error(result.factor, bundle.ground_truth) <= 1e-12


@pytest.mark.parametrize("r, m, margin", [(1, 4, 0.2), (2, 16, 0.2), (4, 8, 0.2), (8, 16, 0.2),
                                          (2, 4, 0.002)])
def test_bauer_stops_at_the_step_that_meets_the_tolerance(r, m, margin):
    # Off the circle the change squares each step, so the step whose change
    # first meets the tolerance is the last: the step after it moves Q below
    # roundoff and leaves the factor as it is.
    S = generate_instance(r, m, seed=0, root_margin=margin).spectrum
    result = factor(S, FactorizationOptions(algorithm="bauer"))
    tight = factor(S, FactorizationOptions(algorithm="bauer", residual_tol=1e-17))
    assert tight.iterations_or_blocks == result.iterations_or_blocks + 1
    norm = lambda c: np.sqrt(np.sum(np.abs(c) ** 2, axis=(1, 2)))
    gap = norm(result.factor.coeffs - tight.factor.coeffs) / norm(tight.factor.coeffs)
    assert gap.max() <= 1e-14


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("r, m", [(1, 8), (2, 4), (3, 2)])
def test_bauer_forward_error_near_the_circle(r, m, seed):
    bundle = generate_instance(r, m, seed=seed, root_margin=0.02)
    canon, _ = canonical_normalize(bauer_factor(bundle.spectrum))
    assert forward_error(canon, bundle.ground_truth) <= 1e-10


def eigen_precheck(S):
    """Reference for ``_require_factorable``: the hypotheses decided from the
    eigenvalues on the check grid alone, with the same messages and warning."""
    values = sample_on_grid(S, default_verify_grid(S.m))
    eigs = np.linalg.eigvalsh(0.5 * (values + values.conj().transpose(0, 2, 1)))
    min_eig = float(eigs.min())
    scale = float(np.sqrt(np.sum(eigs**2, axis=-1)).max())
    if min_eig < -1e-10 * scale:
        raise NotPositiveDefinite(
            f"spectrum has grid eigenvalue {min_eig:.3e} below -1e-10 * scale "
            f"(scale {scale:.3e})"
        )
    least_singular = float(np.abs(eigs).min(axis=-1).max())
    if least_singular <= 1e-13 * scale:
        raise DegenerateDeterminant(
            f"S is singular at every grid node: each has an eigenvalue of modulus "
            f"at most {least_singular:.3e}, at or below 1e-13 * scale "
            f"(scale {scale:.3e}); det S vanishes identically"
        )
    if min_eig <= 1e-8 * scale:
        return ["spectrum is nearly singular on the unit circle; convergence and "
                "tolerances degrade near boundary zeros"]
    return []


def precheck_outcome(check, S):
    try:
        return "returned", check(S)
    except (NotPositiveDefinite, DegenerateDeterminant) as exc:
        return type(exc).__name__, str(exc)


def grid_extremes(S):
    values = sample_on_grid(S, default_verify_grid(S.m))
    eigs = np.linalg.eigvalsh(0.5 * (values + values.conj().transpose(0, 2, 1)))
    return float(eigs.min()), float(np.sqrt(np.sum(eigs**2, axis=-1)).max())


def shifted_to_threshold(S, factor_of_threshold):
    """S + cI with its smallest grid eigenvalue at factor * 1e-8 * scale."""
    coeffs = np.array(S.coeffs)
    for _ in range(4):
        min_eig, scale = grid_extremes(HermitianLaurentPolynomial(coeffs))
        coeffs[0] += (factor_of_threshold * 1e-8 * scale - min_eig) * np.eye(S.r)
    return HermitianLaurentPolynomial(coeffs)


def precheck_cases():
    sweep = [(r, m) for r in (1, 2, 3, 4) for m in range(9)]
    cases = [pytest.param(lambda r=r, m=m, i=i: generate_instance(r, m, seed=i).spectrum,
                          id=f"sweep-r{r}m{m}") for i, (r, m) in enumerate(sweep)]
    cases += [pytest.param(lambda r=r, m=m, q=q: generate_instance(
                               r, m, seed=r + m, root_margin=q).spectrum,
                           id=f"margin{q}-r{r}m{m}")
              for q in (0.05, 0.02) for r, m in [(1, 8), (2, 4), (3, 2), (4, 4)]]
    cases += [pytest.param(lambda r=r, m=m: generate_boundary_instance(r, m, seed=1).spectrum,
                           id=f"boundary-r{r}m{m}")
              for r in (1, 2, 3) for m in (1, 2, 3)]
    cases += [
        pytest.param(lambda: scalar_laurent(1.0, 0.6), id="indefinite-scalar"),
        pytest.param(lambda: HermitianLaurentPolynomial(
            np.array([np.eye(2), 0.8 * np.eye(2)], dtype=complex)), id="indefinite-r2"),
        # A factor with its third column zeroed induces a rank-2 spectrum.
        pytest.param(lambda: multiply_by_adjoint(MatrixPolynomial(
            generate_instance(3, 2, seed=5).ground_truth.coeffs * [1, 1, 0])),
            id="rank-deficient-r3"),
        # det S is 1.2e-16, but every eigenvalue clears the warning threshold:
        # the Cholesky alone accepts it, as the eigenvalues do.
        pytest.param(lambda: HermitianLaurentPolynomial(
            np.diag([1.0, 1.1e-8, 1.1e-8]).astype(complex)[None]), id="small-det-r3"),
        # A double root of det S at z = 1, a grid point: the warning.
        pytest.param(lambda: scalar_laurent(2.0, -1.0), id="grid-root-scalar"),
        pytest.param(lambda: HermitianLaurentPolynomial(
            np.array([np.diag([2.0, 1.0]), np.diag([-1.0, 0.0])], dtype=complex)),
            id="grid-root-r2"),
    ]
    cases += [pytest.param(lambda r=r, m=m, f=f: shifted_to_threshold(
                               generate_instance(r, m, seed=r * m).spectrum, f),
                           id=f"threshold-{side}-r{r}m{m}")
              for side, f in [("below", 1 - 1e-6), ("above", 1 + 1e-6)]
              for r, m in [(1, 4), (2, 3), (4, 8)]]
    return cases


@pytest.mark.parametrize("build", precheck_cases())
def test_certificate_precheck_matches_eigen_precheck(build):
    S = build()
    assert (precheck_outcome(factorize._require_factorable, S)
            == precheck_outcome(eigen_precheck, S))
