"""Tooling contracts: traced names stay bound, and the CLI raises no warning.

``perfbench/tracing.py`` wraps ``(module, attribute)`` pairs by
``setattr``; a name that a refactor removes makes ``--trace 1`` fail with
``AttributeError``.  The file is loaded by path, so nothing else under
``perfbench/`` is imported.  ``specfact factor`` runs with runtime warnings
turned into errors, so a numpy warning between input file and exit code
fails its tests.
"""

import importlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    targets = module._TARGETS
    unbound = [(name, attribute) for name, attribute, *_ in targets
               if not hasattr(importlib.import_module(name), attribute)]
    assert targets and not unbound


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# The boundary fixture's det roots sit on the circle: Wilson stalls, Bauer
# burns its block cap, and the CLI writes the best iterate and exits 3.
FIXTURE_EXIT_CODES = {
    "bundle_r2m3_seed11.spectrum": 0,
    "scalar_basic.spectrum": 0,
    "boundary_r2m2_seed19.spectrum": 3,
}


def factor_with_runtime_warnings_as_errors(spectrum, out):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "factor",
         str(spectrum), str(out)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, code", sorted(FIXTURE_EXIT_CODES.items()))
def test_factor_on_fixtures_raises_no_runtime_warning(tmp_path, name, code):
    run = factor_with_runtime_warnings_as_errors(FIXTURES / name, tmp_path / "x.factor")
    assert run.returncode == code, run.stderr
    assert "Warning" not in run.stderr


def test_overflowing_spectrum_reports_only_its_own_error(tmp_path):
    spectrum = tmp_path / "huge.spectrum"
    spectrum.write_text('{"r": 1, "m": 1, "coeffs": {"0": [[[3e155,0]]], '
                        '"1": [[[1e155,0]]]}}')
    run = factor_with_runtime_warnings_as_errors(spectrum, tmp_path / "x.factor")
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"specfact: error: spectrum file {spectrum}: coefficient norms overflow double precision"
    ]
