"""Tooling contracts: traced names stay bound, and the CLI raises no warning.

``perfbench/tracing.py`` wraps ``(module, attribute)`` pairs by
``setattr``; a name that a refactor removes makes ``--trace 1`` fail with
``AttributeError``.  The file is loaded by path, so nothing else under
``perfbench/`` is imported.  Every module-qualified name that README.md puts
in backticks, such as ``laurent._guarded_inverse``, stays bound too.
``scripts/make_fixtures.py``, loaded the same way, must write the committed
golden fixtures byte for byte, and ``scripts/report_digests.py`` must count
every report of a reduced pool and digest it the same way twice, and a
nudge to every measured value must move its full digest but not its verdict
digest.  ``scripts/soak.py`` must class every draw of a reduced grid and
list the factors above its bounds.  The splitmix64 constants are spelled in
``rng.py`` alone, ``__import__(`` in the package's ``__init__.py`` alone
(its ``_submodule`` makes every lazy load), no module of the package calls
``np.linalg.norm`` (every Frobenius norm is ``laurent._frobenius``), only
``laurent._hermitian_scan`` calls ``np.linalg.eigvalsh`` and only
``laurent._det_roots`` calls ``np.roots``, and ``factor()``'s precheck
spells no threshold.  ``specfact factor``,
``specfact verify`` and ``specfact gen`` run with runtime warnings turned
into errors, so a numpy warning between input and exit code fails their
tests.  No public entry point but the grid samplers, and no module-level
function of the computing modules but the kernels that lay out, sample or
check a grid, takes a grid size, and no module of the package, the tests or
the scripts imports a name it never uses.  The README's exit-code table must
parse, as ``perfbench/smoke.py`` reads it, to the codes the CLI documents.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import specfact
from specfact import factorize, laurent, testgen, verify
from specfact.fileio import read_factor, write_factor, write_spectrum
from specfact.laurent import HermitianLaurentPolynomial, MatrixPolynomial, multiply_by_adjoint

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specfact"
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
MAKE_FIXTURES = ROOT / "scripts" / "make_fixtures.py"
REPORT_DIGESTS = ROOT / "scripts" / "report_digests.py"
SOAK = ROOT / "scripts" / "soak.py"
SMOKE = ROOT / "perfbench" / "smoke.py"


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


# Replays gen, factor and verify --json of one cell through cli.main under the
# tracer, in an interpreter where specfact.cli is loaded but none of the
# modules that define its entry points, so the tracer reads those names
# through the CLI's lazy path.  Prints, per command, how many spans of each
# entry point it made; the spans a call makes after the tracer is gone; and
# whether each traced attribute is again the object its module defines.
TRACED_REPLAY = """
import collections, contextlib, importlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
from specfact import cli
assert "specfact.factorize" not in sys.modules

def replay(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0

tracer = tracing.Tracer()
spans = {}
with tracer.installed():
    for argv in (["gen", "2", "2", "p", "--seed", "3"], ["factor", "p.spectrum", "p.factor"],
                 ["verify", "p.spectrum", "p.factor", "--json"]):
        start = len(tracer.spans)
        replay(argv)
        spans[argv[0]] = collections.Counter(span.name for span in tracer.spans[start:])
after = len(tracer.spans)
replay(["factor", "p.spectrum", "p.factor"])
restored = {f"{name}.{attribute}":
            getattr(sys.modules[value.__module__], value.__name__, None) is value
            for name, attribute, *_ in tracing._TARGETS
            for value in [getattr(importlib.import_module(name), attribute)]}
print(json.dumps({"spans": spans, "after": len(tracer.spans) - after, "restored": restored}))
"""


def test_the_tracer_times_each_entry_point_of_the_lazy_cli_once(tmp_path):
    proc = subprocess.run([sys.executable, "-c", TRACED_REPLAY, str(TRACING)], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    entry_points = ("testgen.generate", "factorize.factor", "verify.verify_all",
                    "fileio.read", "fileio.write")
    made = {command: {name: counts.get(name, 0) for name in entry_points}
            for command, counts in result["spans"].items()}
    assert made == {
        "gen": dict.fromkeys(entry_points, 0) | {"testgen.generate": 1, "fileio.write": 2},
        "factor": dict.fromkeys(entry_points, 0) | {
            "fileio.read": 1, "factorize.factor": 1, "fileio.write": 1},
        "verify": dict.fromkeys(entry_points, 0) | {"fileio.read": 2, "verify.verify_all": 1},
    }
    assert all(counts["cli.main"] == 1 for counts in result["spans"].values())
    assert result["after"] == 0
    assert result["restored"] and all(result["restored"].values()), result["restored"]


def test_every_public_name_resolves_to_the_object_its_module_defines():
    names = specfact.__all__
    assert names[0] == "__version__" and len(set(names)) == len(names)
    for name in names[1:]:
        value = getattr(specfact, name)
        assert value.__name__ == name
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(names) <= set(dir(specfact))
    for module in ("cli", "errors", "factorize", "fileio", "laurent", "rng", "testgen", "verify"):
        assert getattr(specfact, module) is importlib.import_module(f"specfact.{module}")
    with pytest.raises(AttributeError, match="has no attribute 'absent'"):
        specfact.absent


def module_qualified_names(text: str, modules) -> set[tuple[str, str]]:
    """(module, attribute) for every backticked span of ``text``, outside
    fenced code blocks, that starts with ``module.attribute`` or
    ``specfact.module.attribute``; a file name such as ``verify.py`` is not
    an attribute."""
    pattern = re.compile(r"(?:specfact\.)?(%s)\.(?!py\b)([A-Za-z_]\w*)" % "|".join(modules))
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return {match.groups() for span in re.findall(r"`([^`]+)`", prose)
            if (match := pattern.match(span))}


def test_every_module_qualified_name_in_the_readme_is_bound():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))
    assert module_qualified_names(
        "`verify.GRID_COND_MAX`, `specfact.laurent._guarded_inverse(values)`, "
        "`verify.py`, `np.roots`\n```sh\nrun\n```\n`cli.main`", modules) == {
            ("verify", "GRID_COND_MAX"), ("laurent", "_guarded_inverse"), ("cli", "main")}
    names = module_qualified_names(README.read_text(encoding="utf-8"), modules)
    unbound = sorted(f"{module}.{attribute}" for module, attribute in names
                     if not hasattr(importlib.import_module(f"specfact.{module}"), attribute))
    assert names and unbound == []


def test_only_the_samplers_take_a_grid():
    # Grids follow from the degrees: no public function or class but the two
    # grid samplers takes a grid size K (exception types have no signature).
    public = [(name, getattr(specfact, name)) for name in specfact.__all__]
    takes_grid = sorted(
        name for name, obj in public
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
        and "K" in inspect.signature(obj).parameters)
    assert takes_grid == ["sample_on_grid", "unit_circle_grid"]
    # Inside the package, a function whose callers all derive the grid the
    # same way derives it itself; only the kernels below are handed one.
    kernels = sorted(
        name for module in (laurent, factorize, verify, testgen)
        for name, obj in vars(module).items()
        if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__
        and "K" in inspect.signature(obj).parameters)
    assert kernels == ["_band_coefficient_buffer", "_causal_values", "_monomial_block",
                       "_require_grid", "sample_on_grid", "unit_circle_grid"]


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind but its code never loads; ``from
    __future__`` imports and the names listed in ``__all__`` are exempt."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            # A computed entry, such as ``*_OWNER``, exempts nothing.
            exported.update(elt.value for elt in node.value.elts
                            if isinstance(elt, ast.Constant))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - loaded - exported)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from x import a, b as c\n__all__ = ['a']\n") == ["c", "os"]
    assert unused_imports("from x import a, b\n__all__ = ['a', *NAMES]\n") == ["b"]
    modules = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "scripts").glob("*.py")]
    unused = {str(path.relative_to(ROOT)): names for path in sorted(modules)
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# (fixture, extra options, exit code, a line of stdout).  The boundary
# fixture's det roots sit on the circle: under auto, Bauer's doubling runs out
# of its budget, so the CLI writes the best iterate and exits 3; forced Bauer
# runs on until it stops on roundoff and writes a factor within 1e-8 of the
# truth.  auto factors the healthy fixtures with the doubling.
FACTOR_RUNS = [
    ("boundary_r2m2_seed19.spectrum", (), 3, "no convergence: best iterate written"),
    ("boundary_r2m2_seed19.spectrum", ("--algorithm", "bauer"), 0, "stopped on roundoff"),
    ("bundle_r2m3_seed11.spectrum", (), 0, "algorithm=bauer"),
    ("scalar_basic.spectrum", (), 0, "algorithm=bauer"),
]


def factor_with_runtime_warnings_as_errors(spectrum, out, *options):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "factor",
         str(spectrum), str(out), *options],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, options, code, line", FACTOR_RUNS, ids=[
    "-".join([name, *options[1:], str(code)]) for name, options, code, _ in FACTOR_RUNS])
def test_factor_on_fixtures_raises_no_runtime_warning(tmp_path, name, options, code, line):
    run = factor_with_runtime_warnings_as_errors(FIXTURES / name, tmp_path / "x.factor",
                                                 *options)
    assert run.returncode == code, run.stderr
    assert "Warning" not in run.stderr
    assert line in run.stdout
    if code == 0:
        x, _ = read_factor(tmp_path / "x.factor")
        truth, _ = read_factor(FIXTURES / name.replace(".spectrum", ".truth"))
        assert np.max(np.abs(x.coeffs - truth.coeffs)) <= 1e-8


@pytest.mark.parametrize("margin", [None, "inf", "1e308"])
def test_gen_raises_no_runtime_warning(tmp_path, margin):
    # (8, 16) at seed 1063 rejects draws by the root count before it keeps one.
    # An infinite margin is refused by name.  At 1e308 the root count's circle
    # overflows, so it declines, and every draw needs a rescale below
    # MIN_RESCALE: the seed is rejected without a warning.
    options = () if margin is None else ("--margin", margin)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "gen", "8", "16",
         str(tmp_path / "p"), "--seed", "1063", *options],
        capture_output=True, text=True, timeout=120,
    )
    if margin is not None:
        assert run.returncode == 1 and "Warning" not in run.stderr
        if margin == "inf":
            assert run.stderr == "specfact: error: root_margin must be positive and finite\n"
        return
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    bundle = testgen.generate_instance(8, 16, 1063)
    write_spectrum(tmp_path / "q.spectrum", bundle.spectrum)
    write_factor(tmp_path / "q.truth", bundle.ground_truth, algorithm="ground_truth")
    for suffix in (".spectrum", ".truth"):
        assert (tmp_path / f"p{suffix}").read_bytes() == (tmp_path / f"q{suffix}").read_bytes()


def test_forced_bauer_on_a_double_root_raises_no_runtime_warning(tmp_path):
    # (1+z)^2: the doubling's pivot fails short of the tolerance, the
    # positivity scan finds S semidefinite, and the stall returns a factor.
    spectrum = tmp_path / "double.spectrum"
    write_spectrum(spectrum, multiply_by_adjoint(MatrixPolynomial(
        np.array([[[1]], [[2]], [[1]]], dtype=complex))))
    run = factor_with_runtime_warnings_as_errors(spectrum, tmp_path / "x.factor",
                                                 "--algorithm", "bauer")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "stopped on roundoff" in run.stdout


def test_verify_of_overflowing_products_raises_no_runtime_warning(tmp_path):
    # Every coefficient (1 + 1j) 1e153 at r = 8, m = 16: the samples stay
    # finite, while E's band and min |det S| overflow and fail their entries.
    coeffs = np.full((17, 8, 8), (1 + 1j) * 1e153)
    sigma = coeffs.copy()
    sigma[0] = coeffs[0].real
    write_spectrum(tmp_path / "p.spectrum", HermitianLaurentPolynomial(sigma))
    write_factor(tmp_path / "p.factor", MatrixPolynomial(coeffs))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfact", "verify",
         str(tmp_path / "p.spectrum"), str(tmp_path / "p.factor")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 4, run.stderr
    assert run.stderr == ""


@pytest.mark.parametrize("text, reason", [
    ('{"r": 1, "m": 1, "coeffs": {"0": [[[3e155,0]]], "1": [[[1e155,0]]]}}',
     "coefficient norms overflow double precision"),
    ('{"r": 1, "m": 0, "coeffs": {"0": [[[1, 1e308]]]}}',
     "sigma_0 violates the Hermitian symmetry invariant "
     "(max |entry - conj transpose| = inf > 1.0e-12)"),
    ('{"r": 1, "m": 1, "coeffs": {"0": [[[4, 0]]], "1": [[[1e308, 0]]], '
     '"-1": [[[-1e308, 0]]]}}',
     "sigma_-1 disagrees with the conjugate transpose of sigma_1 "
     "(max entry gap inf > 1.0e-09)"),
], ids=["norms", "hermitian-gap", "mirror-gap"])
def test_overflowing_spectrum_reports_only_its_own_error(tmp_path, text, reason):
    # A gap between finite entries may overflow; it reads inf and is refused.
    spectrum = tmp_path / "huge.spectrum"
    spectrum.write_text(text)
    run = factor_with_runtime_warnings_as_errors(spectrum, tmp_path / "x.factor")
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"specfact: error: spectrum file {spectrum}: {reason}"]


@pytest.mark.parametrize("entry", ['{"x": 1}', '[[["a", 0]]]', "[[[1" + "0" * 400 + ", 0]]]"],
                         ids=["object", "string", "int-beyond-double"])
def test_malformed_coefficient_reports_only_its_own_error(tmp_path, entry):
    spectrum = tmp_path / "malformed.spectrum"
    spectrum.write_text('{"r": 1, "m": 0, "coeffs": {"0": ' + entry + '}}')
    run = factor_with_runtime_warnings_as_errors(spectrum, tmp_path / "x.factor")
    assert run.returncode == 1
    [line] = run.stderr.splitlines()
    # numpy words the reason in the parentheses.
    assert line.startswith(f"specfact: error: spectrum file {spectrum}: coeffs[0]: "
                           "expected numeric [re, im] pairs (")


def test_indefinite_spectrum_reports_only_its_own_error(tmp_path):
    # S(-1) = -0.6 I: the Cholesky certificate fails, and the eigen-scan names it.
    spectrum = tmp_path / "indefinite.spectrum"
    spectrum.write_text('{"r": 2, "m": 1, "coeffs": {"0": [[[1,0],[0,0]],[[0,0],[1,0]]], '
                        '"1": [[[0.8,0],[0,0]],[[0,0],[0.8,0]]]}}')
    run = factor_with_runtime_warnings_as_errors(spectrum, tmp_path / "x.factor")
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "specfact: error: spectrum has grid eigenvalue -6.000e-01 below -1e-10 * scale "
        "(scale 3.677e+00)"
    ]


def load_script(monkeypatch, path):
    """The script at ``path`` as a module, loaded by path."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts add perfbench/
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_exit_code_table_parses_as_the_benchmark_reads_it(monkeypatch):
    # smoke.py imports its siblings, and run.py pins the BLAS threads on import.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, ""))
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    module = load_script(monkeypatch, SMOKE)
    assert module.readme_exit_codes() == {
        "factor": {0, 1, 2, 3}, "verify": {0, 1, 4}, "gen": {0, 1}}


def test_make_fixtures_reproduces_the_committed_fixtures(monkeypatch, tmp_path):
    module = load_script(monkeypatch, MAKE_FIXTURES)
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    module.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in FIXTURES.iterdir())
    assert len(written) == 6
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_report_digests_counts_every_report_of_a_reduced_pool(monkeypatch):
    module = load_script(monkeypatch, REPORT_DIGESTS)
    boundary = [(1, 1, 0), (2, 2, 0)]
    lines = module.lines(2, boundary)
    # A pool instance whose factor() returns gives three reports (factor,
    # truth, truth * 1.01); a boundary bundle two (truth, forced-bauer factor).
    assert [line.split(" sha256 ")[0] for line in lines] == [
        f"{name} {seed}: 6 reports" for name in ("newton", "toeplitz", "near-circle")
        for seed in (1000, 2000)] + ["boundary: 4 reports", "total: 40 reports"]
    assert module.lines(2, boundary) == lines
    # A relative 1e-12 on every measured value moves each group's full
    # digest but not its verdict digest.
    real = module.verify_all

    def nudged(S, x):
        return verify.VerificationReport([dataclasses.replace(e, measured=e.measured * (1 + 1e-12))
                                   for e in real(S, x).checks])

    monkeypatch.setattr(module, "verify_all", nudged)
    moved = module.lines(2, boundary)
    for before, after in zip(lines[:-1], moved[:-1], strict=True):
        full, verdicts = before.split(" verdicts ")
        moved_full, moved_verdicts = after.split(" verdicts ")
        assert moved_full != full and moved_verdicts == verdicts


def test_soak_classes_every_draw_of_a_reduced_grid(monkeypatch):
    module = load_script(monkeypatch, SOAK)
    cells = [(1, 0, 0.2), (2, 3, 0.002)]
    lines = module.lines(2, cells)
    # At m = 3 and margin 0.002 the doubling's change meets the tolerance,
    # falling quadratically, at the last step auto's budget allows.
    assert [line.split(";")[0] for line in lines] == [
        "soak: auto, 2 rounds of 2 cells, stream 20261020",
        "margin 0.2: 2 exit 0, 0 NoConvergence, 0 other error, 0 refused",
        "margin 0.002: 2 exit 0, 0 NoConvergence, 0 other error, 0 refused",
        "above bound: 0 factors",
    ]
    assert module.lines(2, cells) == lines
    # Below every forward error, the bounds list each exit-0 factor.
    monkeypatch.setattr(module, "BOUNDS", dict.fromkeys(module.BOUNDS, -1.0))
    listed = module.lines(2, cells)
    assert [line.split(" seed=")[0] for line in listed[3:]] == [
        "above bound: r=1 m=0 margin=0.2", "above bound: r=2 m=3 margin=0.002",
        "above bound: r=1 m=0 margin=0.2", "above bound: r=2 m=3 margin=0.002",
        "above bound: 4 factors",
    ]


def test_splitmix64_constants_are_spelled_only_in_rng():
    constants = ("9E3779B97F4A7C15", "BF58476D1CE4E5B9", "94D049BB133111EB")
    spelled = {path.name: [c for c in constants if c in path.read_text(encoding="utf-8").upper()]
               for path in sorted(PACKAGE.glob("*.py"))}
    assert spelled.pop("rng.py") == list(constants)
    assert not any(spelled.values()), spelled


def test_dynamic_imports_are_spelled_only_in_the_package_init():
    # Every lazy load goes through the package's _submodule.
    spelled = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "__import__(" in path.read_text(encoding="utf-8")]
    assert spelled == ["__init__.py"]


def test_frobenius_norms_are_taken_only_by_laurent_frobenius():
    spelled = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if "np.linalg.norm" in path.read_text(encoding="utf-8")]
    assert spelled == []


def functions_calling(dotted: str) -> list[str]:
    """``module.function`` of the innermost function around each spelling of
    ``dotted`` as an attribute of the package's code (not of its docstrings);
    ``module`` alone for one outside every function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == dotted:
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                inner = max(around, key=lambda f: f.lineno, default=None)
                found.append(path.stem + ("." + inner.name if inner else ""))
    return found


def test_eigenvalues_are_taken_only_by_laurent_hermitian_scan():
    assert functions_calling("np.linalg.eigvalsh") == ["laurent._hermitian_scan"]


def test_roots_are_taken_only_by_laurent_det_roots():
    assert functions_calling("np.roots") == ["laurent._det_roots"]


def test_precheck_thresholds_are_laurent_names():
    # Each threshold of factor()'s precheck is a named laurent constant, the
    # ones verify_all and the positivity rule read too.
    tree = ast.parse((PACKAGE / "factorize.py").read_text(encoding="utf-8"))
    (precheck,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "_require_factorable"]
    literals = [node.value for node in ast.walk(precheck) if isinstance(node, ast.Constant)
                and type(node.value) in (int, float, complex)]
    assert literals == []
