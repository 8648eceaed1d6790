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
from specfact import factorize
from specfact.factorize import (
    FactorizationOptions,
    _bauer_core,
    _residual_against,
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
    default_grid_size,
    multiply_by_adjoint,
    sample_on_grid,
)
from specfact.testgen import generate_boundary_instance, generate_instance
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

    @pytest.mark.parametrize("algorithm, newton_iters, blocks, expected", [
        ("wilson", 2, 16, "wilson"),
        ("bauer", 2, 16, "bauer"),
        ("auto", 2, 16, "bauer"),   # Bauer's iterate has the lower residual
        ("auto", 8, 4, "wilson"),   # Wilson's iterate has the lower residual
    ])
    def test_no_convergence_names_the_algorithm_of_its_iterate(
            self, algorithm, newton_iters, blocks, expected):
        spectrum = generate_boundary_instance(2, 2, seed=19).spectrum
        opts = FactorizationOptions(algorithm=algorithm, max_newton_iters=newton_iters,
                                    max_toeplitz_blocks=blocks)
        with pytest.raises(NoConvergence) as excinfo:
            factor(spectrum, opts)
        assert excinfo.value.algorithm == expected

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


@pytest.mark.parametrize("m", [0, 4, 32])
@pytest.mark.parametrize("r", [1, 3])
def test_grid_newton_update_matches_coefficient_product(monkeypatch, r, m):
    rng = np.random.default_rng(10 * m + r)
    draw = rng.standard_normal((m + 1, r, r)) + 1j * rng.standard_normal((m + 1, r, r))
    S = multiply_by_adjoint(MatrixPolynomial(draw))
    # Every iterate passes through the residual: record the start and the
    # one update, and report no progress so nothing stops early.
    iterates = []

    def record(sigma, c):
        iterates.append(np.array(c))
        return 1.0

    monkeypatch.setattr(factorize, "_residual_against", record)
    try:
        _wilson_core(S, FactorizationOptions(max_newton_iters=1, residual_tol=1e-30))
    except NoConvergence:
        pass
    start, update = iterates
    expected = reference_newton_step(S, start)
    assert np.linalg.norm(update - expected) <= 1e-12 * np.linalg.norm(expected)


def loop_bauer(S, opts):
    """Reference for the Bauer sweep: each row back-substitutes its m coupling
    blocks one at a time against a ring of the last m+1 rows and their
    pivots' inverse adjoints.  Same checkpoints, stopping rule and errors as
    ``_bauer_core``; returns ``(estimate, blocks)``."""
    m, r = S.m, S.r
    sigma = S.coeffs
    scale = 1.0 + float(np.sqrt(np.sum(np.abs(sigma) ** 2, axis=(1, 2))).max())
    cap = opts.max_toeplitz_blocks
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
    opts = FactorizationOptions()
    estimate, blocks = _bauer_core(S, opts)
    reference, reference_blocks = loop_bauer(S, opts)
    assert blocks == reference_blocks
    assert relative_gap(estimate, reference) <= 1e-12


# Caps 1 and 8 stop before a second checkpoint, 40 and 100 after one or more.
@pytest.mark.parametrize("cap", [1, 8, 40, 100])
@pytest.mark.parametrize("r, m", [(1, 1), (2, 3), (3, 8)])
def test_bauer_best_iterate_at_the_cap_matches_back_substitution(r, m, cap):
    S = generate_instance(r, m, seed=r + m, root_margin=0.05).spectrum
    opts = FactorizationOptions(residual_tol=1e-30, max_toeplitz_blocks=cap)
    with pytest.raises(NoConvergence) as got:
        _bauer_core(S, opts)
    with pytest.raises(NoConvergence) as want:
        loop_bauer(S, opts)
    assert got.value.algorithm == "bauer" and got.value.iterations == cap
    assert relative_gap(got.value.best_factor.coeffs, want.value.best_factor.coeffs) <= 1e-12
    assert got.value.achieved_residual == pytest.approx(want.value.achieved_residual,
                                                         rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("coeffs", [
    [[[1.0]], [[0.6]]],  # S(-1) < 0: the Toeplitz sections turn indefinite at order 5
    [[[1.0, 0.1], [0.1, 2.0]], [[0.6, 0.0], [0.0, 0.3]]],
])
def test_bauer_breaks_down_at_the_back_substitution_row(coeffs):
    S = HermitianLaurentPolynomial(np.array(coeffs, dtype=complex))
    opts = FactorizationOptions()
    with pytest.raises(CholeskyBreakdown) as got:
        _bauer_core(S, opts)
    with pytest.raises(CholeskyBreakdown) as want:
        loop_bauer(S, opts)
    row = lambda exc: int(str(exc.value).split("Toeplitz row ")[1].split()[0])
    assert row(got) == row(want) > 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("r, m", [(1, 8), (2, 4), (3, 2)])
def test_bauer_forward_error_near_the_circle(r, m, seed):
    bundle = generate_instance(r, m, seed=seed, root_margin=0.02)
    canon, _ = canonical_normalize(bauer_factor(bundle.spectrum))
    assert forward_error(canon, bundle.ground_truth) <= 1e-10
