"""Command-line frontend: ``specfact {factor, verify, gen}``.

Exit codes are a stable contract:

* factor: 0 success, 1 usage, parse or I/O error, 2 spectrum not factorable
  (indefinite or degenerate determinant), 3 no convergence (the best iterate
  is still written, flagged in metadata).
* verify: 0 all checks pass (warnings allowed, noted), 1 usage, parse or
  dimension error, 4 any hard failure.
* gen: 0 success, 1 usage error, invalid parameters, I/O error or a refused
  seed (the generator kept drawing degenerate candidates).

``main`` maps every ``OSError`` and ``ValueError`` a command raises to exit 1,
so each command handles only the codes that are its own.

Each command loads only the modules it runs: ``factor`` never imports
``verify``, ``testgen`` or ``rng``, ``verify`` never imports ``factorize``,
``testgen`` or ``rng``, and ``gen`` imports neither ``factorize`` nor
``verify``.  The library entry points are resolved by the module
``__getattr__`` on first use, through the package's ``_submodule``, and the
commands call them as attributes of this module, so a name patched on it
(by a test or a tracer) is the one called.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from . import _submodule
from .errors import NoConvergence, SpectralFactorError
from .fileio import dumps_document, read_factor, read_spectrum, write_factor, write_spectrum
from .laurent import RESIDUAL_TOL

if TYPE_CHECKING:
    from .verify import VerificationReport

# The names the commands call, each with its module and the name it is read
# by there.  The functions are read by private aliases that nothing patches:
# a tracer wraps ``factorize.factor`` before it reads ``cli.factor``, and
# binding that wrapper here would time each call twice and outlive the tracer.
_LAZY = {
    "factor": ("factorize", "_factor"),
    "FactorizationOptions": ("factorize", "FactorizationOptions"),
    "verify_all": ("verify", "_verify_all"),
    "VerifyOptions": ("verify", "VerifyOptions"),
    "generate_instance": ("testgen", "_generate_instance"),
    "generate_boundary_instance": ("testgen", "_generate_boundary_instance"),
}

_ALGORITHM_FLAGS = {"auto": "auto", "bauer": "bauer", "wilson": "wilson",
                    "roots": "scalar_roots"}


class _Parser(argparse.ArgumentParser):
    """Exits 1, not 2 ("not factorable"), on a missing argument, an unknown flag
    or a malformed number; the subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specfact",
        description="Factor, verify, and generate matrix spectral factorization problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="compute the causal factor of a spectrum file")
    p_factor.add_argument("input", help="spectrum file to factor")
    p_factor.add_argument("output", help="factor file to write")
    p_factor.add_argument("--algorithm", choices=sorted(_ALGORITHM_FLAGS), default="auto")
    p_factor.add_argument("--tol", type=float, default=RESIDUAL_TOL, metavar="REAL",
                          help="relative residual tolerance (default %(default)g)")

    p_verify = sub.add_parser("verify", help="check a (spectrum, factor) file pair")
    p_verify.add_argument("spectrum", help="spectrum file")
    p_verify.add_argument("factor", help="factor file")
    p_verify.add_argument("--tol", type=float, default=RESIDUAL_TOL, metavar="REAL",
                          help="factorization residual tolerance (default %(default)g)")
    p_verify.add_argument("--json", action="store_true",
                          help="print the report as JSON instead of a table")

    p_gen = sub.add_parser("gen", help="generate a ground-truth instance")
    p_gen.add_argument("r", type=int, help="matrix dimension")
    p_gen.add_argument("m", type=int, help="polynomial order")
    p_gen.add_argument("prefix", help="output prefix; writes <prefix>.spectrum and <prefix>.truth")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--margin", type=float, default=0.2,
                       help="minimum det-root modulus above 1 (default 0.2)")
    p_gen.add_argument("--boundary", action="store_true",
                       help="plant one det root exactly on the unit circle")
    return parser


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _LAZY[name]
    globals()[name] = value = getattr(_submodule(module), attribute)
    return value


# This module, through which the commands look up the names of _LAZY.
_this = sys.modules[__name__]


def _fail(message: str, code: int) -> int:
    print(f"specfact: error: {message}", file=sys.stderr)
    return code


def _cmd_factor(args) -> int:
    spectrum = read_spectrum(args.input)
    opts = _this.FactorizationOptions(algorithm=_ALGORITHM_FLAGS[args.algorithm],
                                      residual_tol=args.tol)
    try:
        result = _this.factor(spectrum, opts)
    except NoConvergence as exc:
        if exc.best_factor is not None:
            write_factor(args.output, exc.best_factor, algorithm=exc.algorithm,
                         residual=exc.achieved_residual,
                         warnings=[f"did not converge: {exc}"])
            print(f"no convergence: best iterate written to {args.output} "
                  f"(residual {exc.achieved_residual:.3e})")
        return _fail(str(exc), 3)
    except SpectralFactorError as exc:
        # Every other library error, a singular Newton iterate or leading
        # coefficient included, means the spectrum is not factorable.
        return _fail(str(exc), 2)
    write_factor(args.output, result.factor, algorithm=result.algorithm_used,
                 residual=result.achieved_residual, warnings=result.warnings)
    print(f"algorithm={result.algorithm_used} degree={result.factor.m} "
          f"residual={result.achieved_residual:.3e}")
    for note in result.warnings:
        print(f"warning: {note}")
    return 0


def _report_table(report: VerificationReport) -> str:
    rows = [("check", "measured", "tolerance", "status")]
    for entry in report.checks:
        rows.append((entry.name, f"{entry.measured:.3e}", f"{entry.tolerance:.1e}",
                     entry.status))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = ["  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
             for row in rows]
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines)


def _report_json(report: VerificationReport) -> str:
    doc = {
        "overall": report.overall,
        "checks": [
            {
                "name": entry.name,
                "status": entry.status,
                "passed": entry.passed,
                "warning": entry.warning,
                "measured": float(entry.measured) if math.isfinite(entry.measured) else None,
                "tolerance": float(entry.tolerance),
                "detail": entry.detail,
            }
            for entry in report.checks
        ],
    }
    return dumps_document(doc)


def _cmd_verify(args) -> int:
    spectrum = read_spectrum(args.spectrum)
    candidate, _ = read_factor(args.factor)
    report = _this.verify_all(spectrum, candidate, _this.VerifyOptions(residual_tol=args.tol))
    if args.json:
        print(_report_json(report), end="")
    else:
        print(_report_table(report))
        if report.overall and report.has_warnings:
            print("note: warning-grade findings present; see rows marked 'warn'")
    return 0 if report.overall else 4


def _cmd_gen(args) -> int:
    try:
        if args.boundary:
            bundle = _this.generate_boundary_instance(args.r, args.m, args.seed)
        else:
            bundle = _this.generate_instance(args.r, args.m, args.seed, args.margin)
    except SpectralFactorError as exc:
        return _fail(str(exc), 1)
    spectrum_path = f"{args.prefix}.spectrum"
    truth_path = f"{args.prefix}.truth"
    notes = ["boundary-degenerate instance"] if bundle.boundary else []
    write_spectrum(spectrum_path, bundle.spectrum)
    write_factor(truth_path, bundle.ground_truth, algorithm="ground_truth",
                 residual=0.0, warnings=notes)
    print(f"wrote {spectrum_path} and {truth_path}")
    print(f"root_margin={bundle.root_margin:.6g} "
          f"condition_estimate={bundle.condition_estimate:.6g}")
    return 0


_COMMANDS = {"factor": _cmd_factor, "verify": _cmd_verify, "gen": _cmd_gen}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 1)
