"""CLI exit codes, output contracts, and the end-to-end pipeline."""

import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import specfact
from specfact.cli import main
from specfact.errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    SingularIterate,
    SingularLeadingCoefficient,
)
from specfact.factorize import FactorizationOptions
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
        # Under the default flag ("auto") Wilson stalls first and Bauer falls
        # back; with these caps Wilson's iterate is the better one and is the
        # one written, so the metadata must say "wilson", not "auto".
        monkeypatch.setattr("specfact.cli.FactorizationOptions", functools.partial(
            FactorizationOptions, max_newton_iters=8, max_toeplitz_blocks=4))
        out = tmp_path / "s.factor"
        code = main(["factor", str(FIXTURES / "boundary_r2m2_seed19.spectrum"), str(out)])
        assert code == 3
        _, metadata = read_factor(out)
        assert metadata["algorithm"] == "wilson"

    @pytest.mark.parametrize("error, code", [
        (NotPositiveDefinite, 2),
        (DegenerateDeterminant, 2),
        (CholeskyBreakdown, 2),
        (OddBoundaryMultiplicity, 2),
        (SingularIterate, 2),
        (SingularLeadingCoefficient, 2),
        (NoConvergence, 3),
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

    def test_dimension_mismatch_exits_one(self, tmp_path):
        spectrum = tmp_path / "s.spectrum"
        write_scalar_spectrum(spectrum)
        factor_file = tmp_path / "x.factor"
        factor_file.write_text('{"r": 2, "m": 0, "coeffs": {"0": '
                               '[[[1,0],[0,0]],[[0,0],[1,0]]]}}')
        assert main(["verify", str(spectrum), str(factor_file)]) == 1

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
