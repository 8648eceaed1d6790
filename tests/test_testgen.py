"""Ground-truth instance generation: oracle exactness, determinism, margins."""

import importlib.util
import json
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specfact.testgen as testgen
from specfact.errors import RetryExhausted, SingularLeadingCoefficient
from specfact.factorize import canonical_normalize
from specfact.laurent import HermitianLaurentPolynomial, evaluate_at
from specfact.testgen import generate_boundary_instance, generate_instance
from specfact.verify import (
    check_factorization,
    check_outer_determinant,
    check_positivity,
    verify_all,
)


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
        # The delivered truth's own det roots, not the generator's reading.
        assert check_outer_determinant(bundle.ground_truth)[0] >= 1 + margin - 1e-9

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

    def test_condition_estimate_is_computed_on_first_read_and_once(self):
        # Generation runs no eigen-scan; the first read runs one, kept after.
        with mock.patch.object(testgen, "_condition_estimate",
                               wraps=testgen._condition_estimate) as estimate:
            bundle = generate_boundary_instance(2, 2, seed=8)
            assert estimate.call_count == 0
            first = bundle.condition_estimate
            assert bundle.condition_estimate == first
            estimate.assert_called_once_with(bundle.spectrum)

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


GENERATOR_DIGESTS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "generator_digests.py"
PINNED_DIGESTS = pathlib.Path(__file__).resolve().parent / "generator_digests.json"


def test_generator_digests_match_the_pinned_table():
    # Spectrum and truth bytes, root_margin and condition_estimate across the
    # benchmark cells, rejected draws and retry exhaustion included; the
    # script regenerates the table on a deliberate generator change.
    spec = importlib.util.spec_from_file_location("generator_digests", GENERATOR_DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = json.loads(PINNED_DIGESTS.read_text())
    assert len(pinned) == len(module.CASES)
    for expected, actual in zip(pinned, module.table()):
        assert actual == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), r=st.integers(1, 8), m=st.integers(1, 16),
       margin=st.sampled_from([0.2, 0.1, 0.05, 0.02]), shrink=st.floats(-12, 0))
def test_every_rescale_below_the_trim_radius_is_rejected(seed, r, m, margin, shrink):
    # The certified count rejects a draw with a det root inside
    # rho_c / ROOT_COUNT_BAND without reading its roots: that root would set
    # t = |root| / (1 + margin) below rho_c / ((1 + margin) ROOT_COUNT_BAND),
    # and every such t must fall below MIN_RESCALE or trim rho_m.
    coeffs = testgen._draw_coefficients(testgen._attempt_stream(seed, 0), r, m)
    # Shrink the leading coefficient by up to 10^-9.6, short of the trim, so
    # the trim threshold, not MIN_RESCALE, sets rho_c for most draws.
    coeffs[m] *= 10.0 ** (shrink * 0.8)
    ceiling = testgen._trim_radius(coeffs, margin) / ((1 + margin) * testgen.ROOT_COUNT_BAND)
    for t in ceiling * np.array([1 - 1e-12, 0.99, 0.9, 0.5, 0.1, 1e-3]):
        assert testgen._rescaled(coeffs, t) is None


@pytest.mark.parametrize("r, m, seeds", [(8, 16, (1000, 1004, 1024)), (4, 16, (1002, 1004)),
                                         (1, 32, (1002, 1005))])
def test_the_certified_count_moves_no_bundle(monkeypatch, r, m, seeds):
    # Each seed has a draw that the count rejects; the bundle is the same
    # when every draw takes the eigensolve instead.
    count = testgen._certified_root_count
    for seed in seeds:
        counts = []
        monkeypatch.setattr(testgen, "_certified_root_count",
                            lambda c, rho: counts.append(count(c, rho)) or counts[-1])
        counted = generate_instance(r, m, seed)
        assert any(counts)
        monkeypatch.setattr(testgen, "_certified_root_count", lambda c, rho: None)
        solved = generate_instance(r, m, seed)
        assert solved.ground_truth.coeffs.tobytes() == counted.ground_truth.coeffs.tobytes()
        assert solved.root_margin == counted.root_margin
        # The truth's own det roots, read by np.roots at degree up to 128,
        # where the root read carries errors near 3e-9.
        truth_modulus = check_outer_determinant(counted.ground_truth)[0]
        assert truth_modulus >= 1.2 - 1e-8
        assert abs(counted.root_margin - (truth_modulus - 1)) <= 1e-8


@pytest.mark.parametrize("r, seed", [(8, 1063), (8, 1206), (2, 1083), (2, 1187)])
def test_only_the_returned_draw_pays_for_the_eigensolve(monkeypatch, r, seed):
    # Each seed has rejected draws whose nearest det root lies at 0.93-0.98
    # rho_c: a band of 1.1 left them to np.roots (2, 2, 3 and 3 solves), the
    # band of ROOT_COUNT_BAND rejects them by the count alone.
    solve, count, draw = (testgen._det_roots, testgen._certified_root_count,
                          testgen._draw_coefficients)
    solves, drawn, counted = [], [], []

    def recording_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def recording_count(c, rho):
        n = count(c, rho)
        if n:
            counted.append((drawn[-1], c))
        return n

    monkeypatch.setattr(testgen, "_det_roots", lambda det: solves.append(det) or solve(det))
    monkeypatch.setattr(testgen, "_draw_coefficients", recording_draw)
    monkeypatch.setattr(testgen, "_certified_root_count", recording_count)
    generate_instance(r, 16, seed)
    assert len(solves) == 1 and counted
    # np.roots on a counted draw would set a t that _rescaled rejects.
    for coeffs, det in counted:
        min_modulus, _ = solve(det)
        assert min_modulus < 1.2
        assert testgen._rescaled(coeffs, min_modulus / 1.2) is None


def test_retry_exhaustion_pays_for_no_eigensolve(monkeypatch):
    # All ten draws of (8, 16) at seed 1180 are rejected before an
    # eigensolve; a band of 1.1 left one of them to np.roots.
    monkeypatch.setattr(testgen, "_det_roots", mock.Mock(side_effect=AssertionError))
    with pytest.raises(RetryExhausted):
        generate_instance(8, 16, 1180)


@pytest.mark.parametrize("generate", [generate_instance, generate_boundary_instance])
def test_a_singular_canonicalization_of_every_draw_exhausts_the_retries(monkeypatch, generate):
    # Refused at degree 2 only: generate_instance(2, 2) canonicalizes each of
    # its draws there, and the boundary builder its truth on top of a degree
    # 1 base.
    canonicalize = testgen.canonical_normalize

    def refuse_degree_2(x):
        if x.m == 2:
            raise SingularLeadingCoefficient("constant coefficient is numerically singular")
        return canonicalize(x)

    refusals = mock.Mock(side_effect=refuse_degree_2)
    monkeypatch.setattr(testgen, "canonical_normalize", refusals)
    with pytest.raises(RetryExhausted):
        generate(2, 2, 0)
    assert sum(x.m == 2 for (x,), _ in refusals.call_args_list) == testgen.MAX_ATTEMPTS


def test_draw_order_is_real_then_imaginary_row_major():
    block, scalar = testgen._attempt_stream(7, 1), testgen._attempt_stream(7, 1)
    coeffs = testgen._draw_coefficients(block, 3, 2)
    expected = [complex(scalar.normal(), scalar.normal()) for _ in range(3 * 3 * 3)]
    assert coeffs.shape == (3, 3, 3)
    assert coeffs.ravel().tolist() == expected
    assert block.normal() == scalar.normal()


def planted(roots):
    """Coefficients, constant first, of the monic polynomial with these roots."""
    return np.polynomial.polynomial.polyfromroots(roots).astype(complex)


def scattered(rng, n, lo, hi, rho=1.0):
    """n points at moduli uniform in [lo, hi] rho, at uniform angles."""
    return rho * rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(size=n))


def wide_count(c, rho):
    """The count with seven doublings: planted roots spread out to 4 rho make
    the arc bound coarser than on the generator's dets, which take at most
    three."""
    with mock.patch.object(testgen, "ROOT_COUNT_DOUBLINGS", 7):
        return testgen._certified_root_count(c, rho)


class TestCertifiedRootCount:
    RHO = 0.3

    def test_counts_zero_when_the_nearest_root_is_at_1_01_rho(self):
        # A 1% gap at degree 31 needs K = 64 times the first grid: on the
        # generator's grids the count declines, on that one it reads 0.
        rng = np.random.default_rng(1)
        c = planted(np.concatenate([[1.01 * self.RHO * np.exp(0.7j)],
                                    scattered(rng, 30, 1.5, 4.0, self.RHO)]))
        assert testgen._certified_root_count(c, self.RHO) is None
        assert wide_count(c, self.RHO) == 0

    def test_counts_one_root_at_half_rho(self):
        rng = np.random.default_rng(2)
        c = planted(np.concatenate([[0.5 * self.RHO * np.exp(2.1j)],
                                    scattered(rng, 30, 1.2, 4.0, self.RHO)]))
        assert wide_count(c, self.RHO) == 1

    def test_counts_every_root_of_a_cluster(self):
        rng = np.random.default_rng(3)
        cluster = 0.5 * self.RHO + 1e-3 * self.RHO * np.exp(2j * np.pi * np.arange(4) / 4)
        c = planted(np.concatenate([cluster, scattered(rng, 20, 1.2, 4.0, self.RHO)]))
        assert wide_count(c, self.RHO) == 4

    def test_a_cluster_just_outside_never_counts_a_root(self):
        rng = np.random.default_rng(4)
        cluster = 1.02 * self.RHO + 1e-3 * self.RHO * np.exp(2j * np.pi * np.arange(3) / 3)
        c = planted(np.concatenate([cluster, scattered(rng, 20, 1.2, 4.0, self.RHO)]))
        assert wide_count(c, self.RHO) in (0, None)

    @pytest.mark.parametrize("modulus", [1.0, 1.0 - 1e-12, 1.0 + 1e-12])
    def test_declines_with_a_root_on_the_circle(self, modulus):
        # Between two nodes of every grid it tries, so no sample is exactly 0:
        # the arc bound fails at the node before the root.
        rng = np.random.default_rng(5)
        on_circle = modulus * self.RHO * np.exp(2j * np.pi * (0.1 + 1 / 3e5))
        c = planted(np.concatenate([[on_circle], scattered(rng, 12, 1.5, 3.0, self.RHO),
                                    scattered(rng, 3, 0.1, 0.5, self.RHO)]))
        assert wide_count(c, self.RHO) is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), degree=st.integers(1, 128),
           rho=st.floats(0.05, 2.0))
    def test_a_count_is_the_number_of_roots_inside(self, seed, degree, rho):
        # Random complex coefficients, the generator's det distribution up to
        # scaling; np.roots decides where no root is near the circle.
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        moduli = np.abs(np.roots(c[::-1]))
        count = wide_count(c, rho)
        if count is not None and np.all(np.abs(moduli / rho - 1) > 1e-6):
            assert count == np.sum(moduli < rho)
