"""CLI exit codes, output contracts, and the end-to-end pipeline."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import specfact
from specfact import cli, factorize
from specfact.cli import main
from specfact.errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    SingularIterate,
    SingularLeadingCoefficient,
    SpectralFactorError,
)
from specfact.fileio import read_factor, write_factor, write_spectrum
from specfact.laurent import MatrixPolynomial, multiply_by_adjoint

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

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["factor", str(tmp_path / "nope"), str(tmp_path / "out")]) == 1

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
        # Under the default flag ("auto") Bauer's doubling stalls first and
        # Wilson falls back; with these caps (one doubling step, 4 Toeplitz
        # block rows) Wilson's iterate is the better one and is the one
        # written, so the metadata must say "wilson", not "auto".
        monkeypatch.setattr("specfact.factorize.NEWTON_MAX_ITERS", 8)
        monkeypatch.setattr("specfact.factorize.DOUBLING_MAX_STEPS", 1)
        out = tmp_path / "s.factor"
        code = main(["factor", str(FIXTURES / "boundary_r2m2_seed19.spectrum"), str(out)])
        assert code == 3
        _, metadata = read_factor(out)
        assert metadata["algorithm"] == "wilson"

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

    def test_invalid_parameters_exit_one(self, tmp_path):
        assert main(["gen", "0", "1", str(tmp_path / "x"), "--seed", "1"]) == 1
        assert main(["gen", "1", "1", str(tmp_path / "x"), "--seed", "1",
                     "--margin", "-0.5"]) == 1
        assert main(["gen", "1", "0", str(tmp_path / "x"), "--seed", "1",
                     "--boundary"]) == 1


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

    def test_commands_never_import_scipy(self, tmp_path):
        # The runtime is numpy only; scipy would add about half a second to
        # every command's start.
        script = (
            "import sys\n"
            "from specfact.cli import main\n"
            "assert main(['gen', '2', '2', 'p', '--seed', '3']) == 0\n"
            "assert main(['factor', 'p.spectrum', 'p.factor']) == 0\n"
            "assert main(['verify', 'p.spectrum', 'p.factor', '--json']) == 0\n"
            "loaded = sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
        )
        package_root = str(pathlib.Path(specfact.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
