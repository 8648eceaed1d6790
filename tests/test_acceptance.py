"""Acceptance sweep: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The sweep covers 200 generated instances spanning r in {1,2,3,4}
and m in {0,...,8} with det-root margin 0.2.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from specfact.cli import main
from specfact.errors import CholeskyBreakdown, NoConvergence, SingularIterate
from specfact.factorize import (
    FactorizationOptions,
    FactorizationResult,
    _bauer_core,
    bauer_factor,
    canonical_normalize,
    factor,
    scalar_root_factor,
    wilson_factor,
)
from specfact.fileio import read_factor, write_factor
from specfact.laurent import HermitianLaurentPolynomial, MatrixPolynomial, multiply_by_adjoint
from specfact.testgen import InstanceBundle, generate_boundary_instance, generate_instance
from specfact.verify import (
    check_causal_identity,
    check_constant_unitary_equivalence,
    verify_all,
)

SWEEP_SIZE = 200
DIMENSIONS = (1, 2, 3, 4)
ORDERS = range(0, 9)
ROOT_MARGIN = 0.2


def _criterion(number: int, description: str, passed: bool, detail: str):
    print(f"[criterion {number}] {description}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} ({description}): {detail}"


def coefficient_error(a: MatrixPolynomial, b: MatrixPolynomial) -> float:
    if a.m != b.m:
        return float("inf")
    return float(np.max(np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2, axis=(1, 2)))))


@dataclass
class SweepRecord:
    bundle: InstanceBundle
    result: FactorizationResult


@dataclass
class SweepData:
    records: list
    factor_seconds: float


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    combos = [(r, m) for r in DIMENSIONS for m in ORDERS]
    records = []
    elapsed = 0.0
    for index in range(SWEEP_SIZE):
        r, m = combos[index % len(combos)]
        bundle = generate_instance(r, m, seed=index, root_margin=ROOT_MARGIN)
        start = time.perf_counter()
        result = factor(bundle.spectrum)
        elapsed += time.perf_counter() - start
        records.append(SweepRecord(bundle=bundle, result=result))
    return SweepData(records=records, factor_seconds=elapsed)


@pytest.fixture(scope="module")
def algorithm_pairs(sweep):
    """Bauer and Wilson outputs per sweep instance, or the documented failure."""
    pairs = []
    for record in sweep.records:
        try:
            via_bauer = bauer_factor(record.bundle.spectrum)
            via_wilson = wilson_factor(record.bundle.spectrum)
            pairs.append((record, via_bauer, via_wilson, None))
        except (NoConvergence, SingularIterate) as exc:
            pairs.append((record, None, None, exc))
    return pairs


def test_criterion_1_ground_truth_recovery(sweep):
    worst_error = 0.0
    worst_residual = 0.0
    for record in sweep.records:
        worst_error = max(worst_error,
                          coefficient_error(record.result.factor,
                                            record.bundle.ground_truth))
        worst_residual = max(worst_residual, record.result.achieved_residual)
    passed = (worst_error < 1e-6 and worst_residual < 1e-9
              and sweep.factor_seconds < 60.0)
    _criterion(1, "ground-truth recovery over 200 instances", passed,
               f"max coeff error {worst_error:.3e}, max residual "
               f"{worst_residual:.3e}, factor time {sweep.factor_seconds:.1f} s")


def test_sweep_runs_wilson_for_a_fixed_iteration_count(sweep):
    # Forced Wilson converges on every sweep instance in 1,469 iterations in
    # total, each run one pass past the tolerance; a change to the Newton step
    # or its stopping rule shows up here.
    results = [factor(record.bundle.spectrum, FactorizationOptions(algorithm="wilson"))
               for record in sweep.records]
    assert ({result.algorithm_used for result in results}, len(results),
            sum(result.iterations_or_blocks for result in results)) == ({"wilson"}, 200, 1469)


def test_sweep_runs_bauer_for_a_fixed_step_count(sweep):
    # auto's doubling runs first and, well inside its budget, is the forced
    # Bauer run: it converges on every sweep instance in 969 doubling steps.
    # 167 runs stop at the first relative change of Q below 1e-9; 33 meet it
    # at more than sqrt(1e-9) times the change before (2.9e-5 -> 1.0e-9, say)
    # and make one confirming step.  A change to the recursion, its stopping
    # rule or auto's route order shows up here.
    results = [record.result for record in sweep.records]
    assert ({result.algorithm_used for result in results}, len(results),
            sum(result.iterations_or_blocks for result in results),
            [w for result in results for w in result.warnings]) == ({"bauer"}, 200, 969, [])


def test_criterion_2_degree_preservation(sweep):
    mismatches = [
        (record.bundle.spectrum.m, record.result.factor.m)
        for record in sweep.records
        if record.result.factor.m != record.bundle.spectrum.m
    ]
    _criterion(2, "factor degree equals spectrum order", not mismatches,
               f"{len(mismatches)} mismatches" +
               (f", first {mismatches[0]}" if mismatches else ""))


def test_criterion_3_causal_identity(sweep):
    worst_gap = 0.0
    worst_mass = 0.0
    worst_drift = 0.0
    for record in sweep.records:
        gap, mass, drift = check_causal_identity(record.bundle.spectrum,
                                                 record.result.factor)
        worst_gap = max(worst_gap, gap)
        worst_mass = max(worst_mass, mass)
        worst_drift = max(worst_drift, drift)
    passed = worst_gap < 1e-8 and worst_mass < 1e-8 and worst_drift < 1e-9
    _criterion(3, "pointwise identity and anticausal mass", passed,
               f"max gap {worst_gap:.3e}, max mass {worst_mass:.3e}, "
               f"max grid-doubling drift {worst_drift:.3e}")


def test_criterion_4_uniqueness_across_algorithms(algorithm_pairs):
    agreeing = 0
    warned = 0
    silent_disagreements = []
    for record, via_bauer, via_wilson, failure in algorithm_pairs:
        if failure is not None:
            warned += 1
            continue
        constancy, unitarity = check_constant_unitary_equivalence(
            via_bauer, via_wilson)
        canon_b, _ = canonical_normalize(via_bauer)
        canon_w, _ = canonical_normalize(via_wilson)
        agreement = coefficient_error(canon_b, canon_w)
        if constancy < 1e-6 and unitarity < 1e-6 and agreement < 1e-6:
            agreeing += 1
        else:
            silent_disagreements.append(
                (record.bundle.seed, constancy, unitarity, agreement))
    total = len(algorithm_pairs)
    passed = (agreeing / total >= 0.95) and not silent_disagreements
    _criterion(4, "constant-unitary equivalence of the two algorithms", passed,
               f"{agreeing}/{total} agree, {warned} carry convergence warnings, "
               f"{len(silent_disagreements)} silent disagreements")


def test_criterion_5_scalar_oracle_equivalence(algorithm_pairs):
    checked = 0
    worst = 0.0
    for record, via_bauer, via_wilson, failure in algorithm_pairs:
        if failure is not None or record.bundle.spectrum.r != 1:
            continue
        via_roots = scalar_root_factor(record.bundle.spectrum)
        canon_b, _ = canonical_normalize(via_bauer)
        canon_w, _ = canonical_normalize(via_wilson)
        worst = max(worst,
                    coefficient_error(via_roots, canon_b),
                    coefficient_error(via_roots, canon_w),
                    coefficient_error(canon_b, canon_w))
        checked += 1
    passed = checked > 0 and worst < 1e-8
    _criterion(5, "root-based oracle agrees with both matrix algorithms", passed,
               f"{checked} scalar instances, max pairwise error {worst:.3e}")


def test_criterion_6_discrimination(tmp_path):
    spectrum_path = tmp_path / "s.spectrum"
    spectrum_path.write_text(
        '{"r": 1, "m": 1, "coeffs": {"0": [[[5,0]]], "1": [[[2,0]]]}}')
    non_outer_path = tmp_path / "x.factor"
    non_outer_path.write_text(
        '{"r": 1, "m": 1, "coeffs": {"0": [[[1,0]]], "1": [[[2,0]]]}}')
    exit_code = main(["verify", str(spectrum_path), str(non_outer_path)])

    swapped_failures = 0
    cases = 0
    for seed in range(10):
        bundle = generate_instance(1, 3, seed=1000 + seed, root_margin=ROOT_MARGIN)
        truth = bundle.ground_truth.coeffs[:, 0, 0]
        roots = np.roots(truth[::-1])
        # Reflect one det root through the circle; |z - 1/conj(a)| =
        # |z - a| / |a| on |z| = 1, so amplitude |a| preserves the spectrum.
        target = int(np.argmax(np.abs(roots)))
        swapped_roots = roots.copy()
        swapped_roots[target] = 1.0 / np.conj(roots[target])
        amplitude = truth[-1] * np.abs(roots[target])
        swapped = amplitude * np.polynomial.polynomial.polyfromroots(swapped_roots)
        candidate = MatrixPolynomial(swapped.reshape(-1, 1, 1))
        report = verify_all(bundle.spectrum, candidate)
        by_name = {entry.name: entry for entry in report.checks}
        if (not report.overall and not by_name["outer-determinant"].passed
                and by_name["factorization"].passed):
            swapped_failures += 1
        cases += 1
    passed = exit_code == 4 and swapped_failures == cases
    _criterion(6, "verifier rejects non-outer factors of the same spectrum", passed,
               f"exit code {exit_code}, {swapped_failures}/{cases} root swaps rejected")


def test_criterion_7_boundary_degeneracy():
    cases = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2),
             (4, 4), (2, 6)]
    warning_grade = 0
    handled = 0
    worst_bauer_error = 0.0
    for index, (r, m) in enumerate(cases):
        bundle = generate_boundary_instance(r, m, seed=2000 + index)
        report = verify_all(bundle.spectrum, bundle.ground_truth)
        by_name = {entry.name: entry for entry in report.checks}
        if by_name["positivity"].warning and by_name["positivity"].passed:
            warning_grade += 1
        try:
            result = factor(bundle.spectrum,
                            FactorizationOptions(residual_tol=1e-4))
            if result.achieved_residual <= 1e-4:
                handled += 1
        except NoConvergence as exc:
            if exc.best_factor is not None:
                handled += 1
        # Bauer's doubling reaches the factor itself, to about 1e-8.
        via_bauer = factor(bundle.spectrum, FactorizationOptions(algorithm="bauer"))
        worst_bauer_error = max(worst_bauer_error,
                                coefficient_error(via_bauer.factor, bundle.ground_truth))
    passed = (warning_grade == len(cases) and handled == len(cases)
              and worst_bauer_error <= 1e-6)
    _criterion(7, "boundary instances warn, never crash, and Bauer factors them", passed,
               f"{warning_grade}/{len(cases)} warning-grade positivity, "
               f"{handled}/{len(cases)} factored at 1e-4 or reported best iterate, "
               f"forced Bauer forward error {worst_bauer_error:.3e}")


# Exact factors with one det root of multiplicity 1, 2 or 3 on the circle,
# with small-integer coefficients, so S and the truth are exact in floating
# point: name -> (coefficients, multiplicity).
EXACT_BOUNDARY_FACTORS = {
    "1+z": ([[[1]], [[1]]], 1),
    "(1+z)(1-z)": ([[[1]], [[0]], [[-1]]], 1),
    "(1+z)^2": ([[[1]], [[2]], [[1]]], 2),
    "(1+wz)^2": ([[[1]], [[2 * np.exp(-0.7j)]], [[np.exp(-1.4j)]]], 2),
    "diag((1+z)^2,1+z^2/2)": ([np.eye(2), np.diag([2, 0]), np.diag([1, 0.5])], 2),
    "(1+z)^2(2+z)": ([[[2]], [[5]], [[4]], [[1]]], 2),
    "(1+z)^3": ([[[1]], [[3]], [[3]], [[1]]], 3),
}

# Forward error of forced Bauer by the multiplicity of the boundary root:
# measured 2.9e-9; 2.7e-5 to 4.0e-5; 9.0e-4.
BOUNDARY_FORWARD_ERROR = {1: 1e-8, 2: 1e-4, 3: 3e-3}


def exact_boundary_case(name):
    coeffs, multiplicity = EXACT_BOUNDARY_FACTORS[name]
    truth = MatrixPolynomial(np.array(coeffs, dtype=complex))
    return multiply_by_adjoint(truth), canonical_normalize(truth)[0], multiplicity


def test_criterion_7_forced_bauer_factors_repeated_boundary_roots():
    failures = []
    worst = dict.fromkeys(BOUNDARY_FORWARD_ERROR, 0.0)
    for name in EXACT_BOUNDARY_FACTORS:
        S, truth, multiplicity = exact_boundary_case(name)
        result = factor(S, FactorizationOptions(algorithm="bauer"))
        scale = 1.0 + float(np.sqrt(np.sum(np.abs(truth.coeffs) ** 2, axis=(1, 2))).max())
        error = coefficient_error(result.factor, truth) / scale
        worst[multiplicity] = max(worst[multiplicity], error)
        stalled = any("stopped on roundoff" in w for w in result.warnings)
        off_tolerance = any("exceeds the requested tolerance" in w for w in result.warnings)
        if (error > BOUNDARY_FORWARD_ERROR[multiplicity]
                or not any("nearly singular" in w for w in result.warnings)
                # Real double roots stall at step 13, short of 1e-9 and warned.
                or (name in ("(1+z)^2", "diag((1+z)^2,1+z^2/2)")
                    and not (stalled and off_tolerance))):
            failures.append(name)
    _criterion(7, "forced Bauer factors boundary roots of multiplicity 1-3", not failures,
               f"failed {failures}; worst forward error by multiplicity "
               + ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()))


# Forced Bauer's doubling steps and forward error on each exact boundary
# spectrum.  Convergence is linear there, so a change below 1e-9 falls at
# more than sqrt(1e-9) times the one before and buys the confirming step:
# "1+z" meets the tolerance at step 29 and "(1+z)^3" at step 12.  The real
# double roots stall at step 13, and "(1+wz)^2" ends quadratically, at the
# step that meets the tolerance.
EXACT_BOUNDARY_RUNS = {
    "1+z": (30, 2.86e-9),
    "(1+z)(1-z)": (30, 2.86e-9),
    "(1+z)^2": (13, 3.707e-5),
    "(1+wz)^2": (17, 2.942e-5),
    "diag((1+z)^2,1+z^2/2)": (13, 3.707e-5),
    "(1+z)^2(2+z)": (13, 6.600e-6),
    "(1+z)^3": (13, 8.249e-4),
}


@pytest.mark.parametrize("name", EXACT_BOUNDARY_FACTORS)
def test_linear_regime_keeps_the_confirming_step(name):
    S, truth, _ = exact_boundary_case(name)
    result = factor(S, FactorizationOptions(algorithm="bauer"))
    scale = 1.0 + float(np.sqrt(np.sum(np.abs(truth.coeffs) ** 2, axis=(1, 2))).max())
    steps, error = EXACT_BOUNDARY_RUNS[name]
    assert result.iterations_or_blocks == steps
    assert coefficient_error(result.factor, truth) / scale == pytest.approx(error, rel=0.01)
    # Stopping (1+z)^3 at step 12 would let auto return a factor at forward
    # error 8e-4; its budget ends the doubling before the confirming step.
    with pytest.raises(NoConvergence):
        factor(S)


def dip_spectrum(m, depth):
    """1 - depth - cos(m theta + m pi/256): negative only between grid nodes."""
    coeffs = np.zeros((m + 1, 1, 1), dtype=complex)
    coeffs[0], coeffs[m] = 1 - depth, -0.5 * np.exp(1j * m * np.pi / 256)
    return HermitianLaurentPolynomial(coeffs)


def test_criterion_7_doubling_and_verify_share_one_positivity_rule():
    # The doubling calls S indefinite (CholeskyBreakdown) exactly when
    # verify_all's positivity entry fails S.
    spectra = {name: exact_boundary_case(name)[0] for name in EXACT_BOUNDARY_FACTORS}
    spectra |= {
        "dip-m3": dip_spectrum(3, 1e-6),
        "dip-m8": dip_spectrum(8, 1e-5),
        "1+0.6(z+1/z)": HermitianLaurentPolynomial(np.array([[[1.0]], [[0.6]]], dtype=complex)),
        "r2-band": HermitianLaurentPolynomial(np.array(
            [[[1.0, 0.1], [0.1, 2.0]], [[0.6, 0.0], [0.0, 0.3]]], dtype=complex)),
    }
    disagree, indefinite = [], 0
    for name, S in spectra.items():
        constant = MatrixPolynomial(np.eye(S.r, dtype=complex)[None])
        positivity = {e.name: e for e in verify_all(S, constant).checks}["positivity"]
        try:
            _bauer_core(S, FactorizationOptions())
            breaks_down = False
        except CholeskyBreakdown:
            breaks_down = True
        indefinite += breaks_down
        if breaks_down == positivity.passed:
            disagree.append(name)
    passed = not disagree and indefinite == 4
    _criterion(7, "the doubling's indefinite verdict is verify_all's positivity entry",
               passed, f"{indefinite}/{len(spectra)} indefinite, disagreeing on {disagree}")


def test_criterion_8_determinism_and_round_trip(sweep, tmp_path):
    reproducible = True
    for run in ("first", "second"):
        code = main(["gen", "3", "4", str(tmp_path / f"{run}"), "--seed", "123"])
        assert code == 0
    for suffix in (".spectrum", ".truth"):
        if (tmp_path / f"first{suffix}").read_bytes() != \
                (tmp_path / f"second{suffix}").read_bytes():
            reproducible = False

    round_trip_exact = True
    path = tmp_path / "roundtrip.factor"
    for record in sweep.records:
        write_factor(path, record.result.factor,
                     algorithm=record.result.algorithm_used,
                     residual=record.result.achieved_residual)
        back, _ = read_factor(path)
        if not np.array_equal(back.coeffs, record.result.factor.coeffs):
            round_trip_exact = False
            break
    passed = reproducible and round_trip_exact
    _criterion(8, "byte-reproducible gen and bit-exact factor round trip", passed,
               f"gen reproducible: {reproducible}, "
               f"round trip exact on {len(sweep.records)} factors: {round_trip_exact}")
