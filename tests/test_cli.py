"""CLI exit codes, output contracts, and the end-to-end pipeline."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from specfact import cli, factorize
from specfact.cli import main
from specfact.errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    RetryExhausted,
    SingularIterate,
    SingularLeadingCoefficient,
    SpectralFactorError,
)
from specfact.fileio import read_factor, write_factor, write_spectrum
from specfact.laurent import HermitianLaurentPolynomial, MatrixPolynomial, multiply_by_adjoint
from specfact.testgen import generate_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def write_scalar_spectrum(path):
    path.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[5,0]]], "1": [[[2,0]]]}}')


class TestFactorCommand:
    def test_scalar_success(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        out = tmp_path / "s.factor"
        write_scalar_spectrum(spectrum)
        assert main(["factor", str(spectrum), str(out)]) == 0
        line = capsys.readouterr().out
        assert "algorithm=" in line and "residual=" in line
        x, metadata = read_factor(out)
        assert np.max(np.abs(x.coeffs[:, 0, 0] - [2.0, 1.0])) < 1e-9
        assert metadata["tool_version"]

    @pytest.mark.parametrize("flag", ["bauer", "wilson", "roots", "auto"])
    def test_algorithm_flags(self, tmp_path, flag):
        spectrum = tmp_path / "s.spectrum"
        out = tmp_path / "s.factor"
        write_scalar_spectrum(spectrum)
        assert main(["factor", str(spectrum), str(out), "--algorithm", flag]) == 0
        x, _ = read_factor(out)
        assert np.max(np.abs(x.coeffs[:, 0, 0] - [2.0, 1.0])) < 1e-8

    def test_every_algorithm_has_exactly_one_flag(self):
        # A route added to factorize's table without a CLI flag fails here.
        assert sorted(cli._ALGORITHM_FLAGS.values()) == sorted(factorize.ALGORITHMS)

    def test_non_hermitian_file_exits_one(self, tmp_path, capsys):
        spectrum = tmp_path / "bad.spectrum"
        spectrum.write_text('{"r": 2, "m": 0, "coeffs": {"0": '
                            '[[[0,0],[1,0]],[[0,0],[0,0]]]}}')
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == 1
        assert "Hermitian symmetry" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coefficients_exit_one(self, tmp_path, capsys):
        spectrum = tmp_path / "huge.spectrum"
        spectrum.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[3e155,0]]], '
                            '"1": [[[1e155,0]]]}}')
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == 1
        assert "overflow" in capsys.readouterr().err

    def test_roots_on_a_matrix_spectrum_exits_one(self, tmp_path, capsys):
        spectrum, out = tmp_path / "s.spectrum", tmp_path / "out"
        write_spectrum(spectrum, generate_instance(2, 1, seed=0).spectrum)
        assert main(["factor", str(spectrum), str(out), "--algorithm", "roots"]) == 1
        assert capsys.readouterr().err == (
            "specfact: error: scalar_roots requires a scalar (r = 1) spectrum\n")
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["factor", str(tmp_path / "nope"), str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("flags, code", [((), 0), (("--boundary",), 3)],
                             ids=["converged", "no-convergence"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, flags, code):
        # Both writes, the factor and the best iterate at auto's budget, fail
        # into a missing directory with one error line and nothing on stdout.
        prefix = str(tmp_path / "g")
        assert main(["gen", "1", "1", prefix, "--seed", "1", *flags]) == 0
        assert main(["factor", prefix + ".spectrum", str(tmp_path / "ok.factor")]) == code
        capsys.readouterr()
        out = tmp_path / "missing" / "out.factor"
        assert main(["factor", prefix + ".spectrum", str(out)]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("specfact: error: ") and str(out) in line
        assert captured.out == ""

    def test_indefinite_spectrum_exits_two(self, tmp_path, capsys):
        spectrum = tmp_path / "neg.spectrum"
        spectrum.write_text('{"r": 1, "m": 0, "coeffs": {"0": [[[-1,0]]]}}')
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == 2
        assert "eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "0", "residual_tol must be positive"),
        ("--tol", "-1", "residual_tol must be positive"),
        ("--tol", "nan", "residual_tol must be positive"),
        ("--tol", "inf", "residual_tol must be finite"),
    ])
    def test_rejected_option_exits_one(self, tmp_path, capsys, flag, value, message):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        assert main(["factor", str(spectrum), str(tmp_path / "out"), flag, value]) == 1
        assert capsys.readouterr().err == f"specfact: error: {message}\n"

    @pytest.mark.parametrize("field", ["r", "m"])
    def test_boolean_dimension_exits_one(self, tmp_path, capsys, field):
        doc = {"r": 1, "m": 0, "coeffs": {"0": [[[1, 0]]]}}
        doc[field] = True
        spectrum = tmp_path / "bool.spectrum"
        spectrum.write_text(json.dumps(doc))
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == 1
        assert f": {field} must be a " in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind", [("factor", "spectrum"), ("verify", "factor")])
    def test_empty_coefficients_exit_one(self, tmp_path, capsys, command, kind):
        # numpy refuses a 2^40 x 2^40 stack without allocating; the reader
        # must refuse the document before r sizes anything.
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"r": 2**40, "m": 0, "coeffs": {}}))
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        args = {"factor": [empty, tmp_path / "out"], "verify": [spectrum, empty]}[command]
        assert main([command, *map(str, args)]) == 1
        assert capsys.readouterr().err == (
            f"specfact: error: {kind} file {empty}: coeffs holds no coefficient\n")

    def test_degenerate_determinant_exits_two(self, tmp_path):
        spectrum = tmp_path / "rank.spectrum"
        spectrum.write_text('{"r": 2, "m": 0, "coeffs": {"0": '
                            '[[[1,0],[0,0]],[[0,0],[0,0]]]}}')
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == 2

    def test_no_convergence_exits_three_and_writes_best(self, tmp_path, capsys):
        # The Newton iteration stalls above 1e-9 on a boundary-degenerate
        # spectrum; the best iterate must still land on disk.
        out = tmp_path / "s.factor"
        code = main(["factor", str(FIXTURES / "boundary_r2m2_seed19.spectrum"),
                     str(out), "--algorithm", "wilson"])
        assert code == 3
        assert out.exists()
        x, metadata = read_factor(out)
        assert any("did not converge" in w for w in metadata["warnings"])
        truth, _ = read_factor(FIXTURES / "boundary_r2m2_seed19.truth")
        assert np.max(np.abs(x.coeffs - truth.coeffs)) < 1e-2

    def test_no_convergence_metadata_names_algorithm_not_flag(self, tmp_path, monkeypatch,
                                                             capsys):
        # Under the default flag ("auto") Bauer's doubling stops at its cap
        # (one doubling step, 4 Toeplitz block rows) and its iterate is
        # written, so the metadata must say "bauer", not "auto".
        monkeypatch.setattr("specfact.factorize.DOUBLING_MAX_STEPS", 1)
        out = tmp_path / "s.factor"
        code = main(["factor", str(FIXTURES / "boundary_r2m2_seed19.spectrum"), str(out)])
        assert code == 3
        _, metadata = read_factor(out)
        assert metadata["algorithm"] == "bauer"

    def test_auto_writes_the_doublings_best_iterate_at_its_budget(self, tmp_path, capsys):
        # Det roots down to modulus 1.001: auto's doubling stops at its budget
        # one step short of convergence, and that iterate is the one written.
        spectrum, out = tmp_path / "near.spectrum", tmp_path / "near.factor"
        write_spectrum(spectrum, generate_instance(1, 2, 1, root_margin=0.001).spectrum)
        assert main(["factor", str(spectrum), str(out)]) == 3
        _, metadata = read_factor(out)
        assert metadata["algorithm"] == "bauer"

    @pytest.mark.parametrize("seed", range(3))
    def test_auto_factors_near_circle_roots_within_its_budget(self, tmp_path, capsys, seed):
        # Det roots down to modulus 1.002 at m = 3: the doubling's change meets
        # 1e-9 quadratically at step 12, the last that auto's budget allows,
        # and that step is the last, so auto writes a converged factor.
        bundle = generate_instance(1, 3, seed, root_margin=0.002)
        spectrum, out = tmp_path / "near.spectrum", tmp_path / "near.factor"
        write_spectrum(spectrum, bundle.spectrum)
        assert main(["factor", str(spectrum), str(out)]) == 0
        x, _ = read_factor(out)
        truth = bundle.ground_truth.coeffs
        assert np.abs(x.coeffs - truth).max() / (1.0 + np.abs(truth).max()) <= 1e-11

    # Exact factors with a det root of multiplicity one to three on the circle.
    @pytest.mark.parametrize("coeffs", [
        [[[1]], [[1]]],
        [[[1]], [[0]], [[-1]]],
        [[[1]], [[2]], [[1]]],
        [[[1]], [[2 * np.exp(-0.7j)]], [[np.exp(-1.4j)]]],
        [np.eye(2), np.diag([2, 0]), np.diag([1, 0.5])],
        [[[2]], [[5]], [[4]], [[1]]],
        [[[1]], [[3]], [[3]], [[1]]],
    ], ids=["1+z", "(1+z)(1-z)", "(1+z)^2", "(1+wz)^2", "diag((1+z)^2,1+z^2/2)",
            "(1+z)^2(2+z)", "(1+z)^3"])
    def test_auto_exits_three_at_its_doubling_budget(self, tmp_path, capsys, coeffs):
        # auto's doubling runs first and stops at its budget, short of these
        # spectra's limit; at m = 2 that is step 13, the step at which a
        # forced bauer's pivot breaks down on a double root.  So auto must
        # report no convergence, never a CholeskyBreakdown (exit 2).
        S = multiply_by_adjoint(MatrixPolynomial(np.array(coeffs, dtype=complex)))
        with pytest.raises(NoConvergence):
            factorize.factor(S)
        spectrum = tmp_path / "edge.spectrum"
        write_spectrum(spectrum, S)
        assert main(["factor", str(spectrum), str(tmp_path / "edge.factor")]) == 3

    @pytest.mark.parametrize("algorithm", ["auto", "bauer", "wilson"])
    @pytest.mark.parametrize("m, depth", [(3, 1e-6), (8, 1e-5)])
    def test_narrow_dip_between_grid_nodes_exits_two(self, tmp_path, capsys, m, depth,
                                                     algorithm):
        # S = 1 - depth - cos(m theta + m pi/256) dips to -depth halfway between
        # two nodes of the 256-point grid, where it is still positive, so the
        # precheck passes it; the zoomed positivity scan finds the dip.
        coeffs = np.zeros((m + 1, 1, 1), dtype=complex)
        coeffs[0], coeffs[m] = 1 - depth, -0.5 * np.exp(1j * m * np.pi / 256)
        spectrum = tmp_path / "dip.spectrum"
        write_spectrum(spectrum, HermitianLaurentPolynomial(coeffs))
        assert main(["factor", str(spectrum), str(tmp_path / "dip.factor"),
                     "--algorithm", algorithm]) == 2
        assert f"eigenvalue {-depth:.3e} on the unit circle" in capsys.readouterr().err

    def test_wilson_below_roundoff_tolerance_exits_zero(self, tmp_path, capsys):
        # Asked for 1e-16, Wilson stops at its roundoff floor and warns.
        prefix = str(tmp_path / "g")
        assert main(["gen", "4", "8", prefix, "--seed", "2"]) == 0
        out = tmp_path / "g.factor"
        assert main(["factor", prefix + ".spectrum", str(out), "--algorithm", "wilson",
                     "--tol", "1e-16"]) == 0
        _, metadata = read_factor(out)
        assert any("exceeds the requested tolerance" in w for w in metadata["warnings"])

    @pytest.mark.parametrize("error, code", [
        (NotPositiveDefinite, 2),
        (DegenerateDeterminant, 2),
        (CholeskyBreakdown, 2),
        (OddBoundaryMultiplicity, 2),
        (SingularIterate, 2),
        (SingularLeadingCoefficient, 2),
        (NoConvergence, 3),
        (type("UnlistedError", (SpectralFactorError,), {}), 2),
    ])
    def test_escaping_error_exit_code(self, tmp_path, monkeypatch, capsys, error, code):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)

        def raise_error(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr("specfact.cli.factor", raise_error)
        assert main(["factor", str(spectrum), str(tmp_path / "out")]) == code
        assert "planted failure" in capsys.readouterr().err

    def test_fixture_bundle_recovers_truth(self, tmp_path):
        out = tmp_path / "out.factor"
        assert main(["factor", str(FIXTURES / "bundle_r2m3_seed11.spectrum"),
                     str(out)]) == 0
        recovered, _ = read_factor(out)
        truth, _ = read_factor(FIXTURES / "bundle_r2m3_seed11.truth")
        assert recovered.m == truth.m
        assert np.max(np.abs(recovered.coeffs - truth.coeffs)) < 1e-7


class TestVerifyCommand:
    def test_good_pair_exits_zero(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[2,0]]], '
                               '"1": [[[1,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "positivity" in out

    def test_non_outer_factor_exits_four(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[1,0]]], '
                               '"1": [[[2,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file)]) == 4
        assert "overall: FAIL" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[2,0]]], '
                               '"1": [[[1,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "factorization" in names and "outer-determinant" in names

    def test_json_lists_each_check_once_when_the_doubled_grid_is_singular(
            self, tmp_path, capsys):
        # The factor is well conditioned on K = 256 but singular at a node of 2K.
        x = MatrixPolynomial(np.array(
            [np.eye(2), np.diag([0, -np.exp(-1j * np.pi / 256)])], dtype=complex))
        write_spectrum(tmp_path / "s.spectrum", multiply_by_adjoint(x))
        write_factor(tmp_path / "x.factor", x)
        assert main(["verify", str(tmp_path / "s.spectrum"), str(tmp_path / "x.factor"),
                     "--json"]) == 4
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert len(names) == len(set(names)) == 7

    def test_json_writes_an_overflowing_residual_as_null(self, tmp_path, capsys):
        # Entries of 1e153 are finite, but the residual of S = X X^* overflows.
        prefix = tmp_path / "g"
        assert main(["gen", "2", "2", str(prefix), "--seed", "1"]) == 0
        truth, _ = read_factor(f"{prefix}.truth")
        write_factor(tmp_path / "big.factor", MatrixPolynomial(np.full_like(truth.coeffs, 1e153)))
        capsys.readouterr()
        assert main(["verify", f"{prefix}.spectrum", str(tmp_path / "big.factor"),
                     "--json"]) == 4
        doc = json.loads(capsys.readouterr().out)
        measured = {c["name"]: c["measured"] for c in doc["checks"]}
        assert doc["overall"] is False and len(measured) == 7
        assert measured["factorization"] is None

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["table", "json"])
    def test_overflowing_residual_fails_without_a_numpy_warning(self, tmp_path, json_flag):
        # Run with numpy's RuntimeWarnings raised as errors: the residual
        # still reads inf and fails, and stderr stays empty.
        prefix = tmp_path / "g"
        assert main(["gen", "2", "2", str(prefix), "--seed", "1"]) == 0
        truth, _ = read_factor(f"{prefix}.truth")
        write_factor(tmp_path / "big.factor", MatrixPolynomial(np.full_like(truth.coeffs, 1e153)))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "verify",
             f"{prefix}.spectrum", str(tmp_path / "big.factor")] + json_flag,
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (4, "")

    def test_overflowing_det_transform_fails_without_a_numpy_warning(self, tmp_path):
        # det X is finite on its 8-point grid, but its transform overflows.
        write_spectrum(tmp_path / "s.spectrum", HermitianLaurentPolynomial(
            np.array([2 * np.eye(2), 0.5 * np.eye(2)], dtype=complex)))
        write_factor(tmp_path / "x.factor", MatrixPolynomial(
            np.array([np.diag([5e153, 5e153]), np.diag([1e154, 0])], dtype=complex)))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "verify",
             str(tmp_path / "s.spectrum"), str(tmp_path / "x.factor"), "--json"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (4, "")
        details = {c["name"]: c["detail"] for c in json.loads(proc.stdout)["checks"]}
        assert details["outer-determinant"] == "det X overflows double precision on the grid"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_factor_file_exits_one(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[1e200,0]]], '
                               '"1": [[[1e200,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file)]) == 1
        assert capsys.readouterr() == ("", f"specfact: error: factor file {factor_file}: "
                                           "coefficient norms overflow double precision\n")

    def test_spectrum_is_read_before_the_factor(self, tmp_path, capsys):
        spectrum, factor_file = tmp_path / "missing.spectrum", tmp_path / "x.factor"
        factor_file.write_text("[1]")
        assert main(["verify", str(spectrum), str(factor_file)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("specfact: error: ") and str(spectrum) in line

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 2, "m": 0, "coeffs": {"0": '
                               '[[[1,0],[0,0]],[[0,0],[1,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file)]) == 1
        assert capsys.readouterr().err == (
            "specfact: error: dimension mismatch: spectrum r=1, factor r=2\n")

    def test_high_degree_factor_exits_four(self, tmp_path, capsys):
        # Degree 200 against an order-1 spectrum: sampled on the factor's own
        # check grid, it fails the degree check instead of aliasing.
        truth, _ = read_factor(FIXTURES / "scalar_basic.truth")
        coeffs = np.zeros((201, 1, 1), dtype=complex)
        coeffs[:2] = truth.coeffs
        coeffs[200] = 1e-3
        write_factor(tmp_path / "x.factor", MatrixPolynomial(coeffs))
        assert main(["verify", str(FIXTURES / "scalar_basic.spectrum"),
                     str(tmp_path / "x.factor"), "--json"]) == 4
        status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert status["degree"] == "fail"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["table", "json"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_rejected_tolerance_exits_one(self, tmp_path, capsys, value, json_flag):
        prefix = tmp_path / "inst"
        assert main(["gen", "2", "3", str(prefix)]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "inst.spectrum"), str(tmp_path / "inst.truth"),
                     "--tol", value, *json_flag]) == 1
        rule = "finite" if value == "inf" else "positive"
        assert capsys.readouterr() == ("", f"specfact: error: residual_tol must be {rule}\n")

    def test_fixture_pair_exits_zero(self):
        assert main(["verify", str(FIXTURES / "bundle_r2m3_seed11.spectrum"),
                     str(FIXTURES / "bundle_r2m3_seed11.truth")]) == 0

    def test_boundary_fixture_warns_but_exits_zero(self, capsys):
        code = main(["verify", str(FIXTURES / "boundary_r2m2_seed19.spectrum"),
                     str(FIXTURES / "boundary_r2m2_seed19.truth")])
        assert code == 0
        assert "warning-grade" in capsys.readouterr().out


class TestGenCommand:
    def test_writes_pair_and_reports(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        assert main(["gen", "2", "1", str(prefix), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "root_margin=" in out and "condition_estimate=" in out
        assert (tmp_path / "inst.spectrum").exists()
        assert (tmp_path / "inst.truth").exists()

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "2", "1", str(a), "--seed", "7"]) == 0
        assert main(["gen", "2", "1", str(b), "--seed", "7"]) == 0
        assert (tmp_path / "a.spectrum").read_bytes() == (tmp_path / "b.spectrum").read_bytes()
        assert (tmp_path / "a.truth").read_bytes() == (tmp_path / "b.truth").read_bytes()

    def test_generated_pair_verifies(self, tmp_path):
        prefix = tmp_path / "inst"
        assert main(["gen", "3", "2", str(prefix), "--seed", "5"]) == 0
        assert main(["verify", str(tmp_path / "inst.spectrum"),
                     str(tmp_path / "inst.truth")]) == 0

    def test_boundary_flag_yields_warning_grade_spectrum(self, tmp_path, capsys):
        prefix = tmp_path / "edge"
        assert main(["gen", "2", "2", str(prefix), "--seed", "3", "--boundary"]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "edge.spectrum"),
                     str(tmp_path / "edge.truth")]) == 0
        assert "warning-grade" in capsys.readouterr().out

    def test_condition_estimate_of_a_scalar_boundary_spectrum_is_large(self, tmp_path,
                                                                        capsys):
        # The spectrum vanishes on the circle, between nodes of the check grid,
        # where its smallest node value is about 2e-5; every point of a scalar
        # spectrum has condition number 1.
        assert main(["gen", "1", "1", str(tmp_path / "b"), "--seed", "1", "--boundary"]) == 0
        estimate = capsys.readouterr().out.split("condition_estimate=")[1]
        assert float(estimate) >= 1e5

    def test_missing_output_directory_exits_one(self, tmp_path, capsys):
        prefix = tmp_path / "missing" / "g"
        assert main(["gen", "1", "1", str(prefix), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("specfact: error: ") and f"{prefix}.spectrum" in line
        assert captured.out == ""

    def test_refused_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise RetryExhausted("planted refusal")

        monkeypatch.setattr("specfact.cli.generate_instance", refuse)
        assert main(["gen", "1", "1", str(tmp_path / "x")]) == 1
        assert capsys.readouterr() == ("", "specfact: error: planted refusal\n")
        assert not any(tmp_path.iterdir())

    def test_invalid_parameters_exit_one(self, tmp_path):
        assert main(["gen", "0", "1", str(tmp_path / "x"), "--seed", "1"]) == 1
        assert main(["gen", "1", "1", str(tmp_path / "x"), "--seed", "1",
                     "--margin", "-0.5"]) == 1
        assert main(["gen", "1", "0", str(tmp_path / "x"), "--seed", "1",
                     "--boundary"]) == 1


@pytest.mark.parametrize("command, name, document, message", [
    ("factor", "s.spectrum", "[1]", "top level must be an object"),
    ("factor", "s.spectrum", '{"r": 1, "m": 0, "coeffs": [[[[1, 0]]]]}',
     "coeffs must be an object keyed by index"),
    ("factor", "s.spectrum", '{"r": 1, "m": 0, "coeffs": {"x": [[[1, 0]]]}}',
     "coefficient index 'x' is not an integer"),
    ("verify", "x.factor", '{"r": 1, "m": 0, "coeffs": {"0": [[[1, 0]]]}, "metadata": []}',
     "metadata must be an object"),
    ("verify", "x.factor", '{"r": 1, "m": 0, "coeffs": {"0": [[[1e200, 0]]]}, "metadata": []}',
     "metadata must be an object"),
], ids=["top-level-array", "coeffs-array", "index-x", "metadata-array",
        "metadata-array-overflowing-coeffs"])
def test_malformed_document_exits_one_naming_its_file(tmp_path, capsys, command, name,
                                                      document, message):
    bad = tmp_path / name
    bad.write_text(document)
    spectrum = tmp_path / "ok.spectrum"
    write_scalar_spectrum(spectrum)
    args = {"factor": [bad, tmp_path / "out.factor"], "verify": [spectrum, bad]}[command]
    assert main([command, *map(str, args)]) == 1
    kind = "spectrum" if name.endswith(".spectrum") else "factor"
    assert capsys.readouterr().err == f"specfact: error: {kind} file {bad}: {message}\n"


class TestPipeline:
    @pytest.mark.parametrize("argv", [
        [],
        ["factor", "in.spectrum"],
        ["factor", str(FIXTURES / "bundle_r2m3_seed11.spectrum"), "out", "--grid", "8"],
        ["verify", "s.spectrum"],
        ["verify", str(FIXTURES / "bundle_r2m3_seed11.spectrum"),
         str(FIXTURES / "bundle_r2m3_seed11.truth"), "--grid", "8"],
        ["gen", "1", "x", "p"],
        ["gen", "1", "1", "p", "--seed", "1.5"],
    ], ids=["no-command", "factor-missing", "factor-unknown-flag", "verify-missing",
            "verify-unknown-flag", "gen-bad-int", "gen-bad-seed"])
    def test_usage_error_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        # argparse's own 2 would read as "not factorable" on factor.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gen_factor_verify_round_trip(self, tmp_path):
        prefix = tmp_path / "p"
        assert main(["gen", "3", "3", str(prefix), "--seed", "13"]) == 0
        out = tmp_path / "p.factor"
        assert main(["factor", str(tmp_path / "p.spectrum"), str(out)]) == 0
        assert main(["verify", str(tmp_path / "p.spectrum"), str(out)]) == 0
        recovered, _ = read_factor(out)
        truth, _ = read_factor(tmp_path / "p.truth")
        assert np.max(np.abs(recovered.coeffs - truth.coeffs)) < 1e-6

    def test_module_entry_point(self, tmp_path):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        proc = subprocess.run(
            [sys.executable, "-m", "specfact", "factor", str(spectrum),
             str(tmp_path / "out.factor")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "algorithm=" in proc.stdout

    # Each command in a fresh interpreter, with the specfact modules it must
    # load and no others: factor never loads verify, testgen or rng, verify
    # never loads factorize, testgen or rng, gen loads neither factorize nor
    # verify, and a bare import loads no submodule and no numpy.
    @pytest.mark.parametrize("argv, loaded", [
        (["gen", "2", "2", "q", "--seed", "3"],
         {"cli", "errors", "fileio", "laurent", "rng", "testgen"}),
        (["factor", "p.spectrum", "q.factor"],
         {"cli", "errors", "fileio", "laurent", "factorize"}),
        (["verify", "p.spectrum", "p.truth", "--json"],
         {"cli", "errors", "fileio", "laurent", "verify"}),
        (None, set()),
    ], ids=["gen", "factor", "verify", "import"])
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, argv, loaded):
        assert main(["gen", "2", "2", str(tmp_path / "p"), "--seed", "3"]) == 0
        # The runtime is numpy only; scipy would add about half a second to
        # every command's start.
        script = (
            "import contextlib, io, json, sys\n"
            + ("import specfact\n" if argv is None else
               "from specfact.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main({argv!r}) == 0\n")
            + "print(json.dumps(sorted(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        modules = json.loads(proc.stdout)
        assert {name.split(".", 1)[1] for name in modules
                if name.startswith("specfact.")} == loaded
        assert "specfact" in modules
        assert not [name for name in modules if name.split(".")[0] == "scipy"]
        assert ("numpy" in modules) == (argv is not None)
