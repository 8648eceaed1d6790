"""Command-line frontend: ``specfact {factor, verify, gen}``.

Exit codes are a stable contract:

* factor: 0 success, 1 parse/I-O error, 2 spectrum not factorable
  (indefinite or degenerate determinant), 3 no convergence (the best iterate
  is still written, flagged in metadata).
* verify: 0 all checks pass (warnings allowed, noted), 1 parse/dimension
  error, 4 any hard failure.
* gen: 0 success, 1 invalid parameters.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    CholeskyBreakdown,
    DegenerateDeterminant,
    NoConvergence,
    NotPositiveDefinite,
    OddBoundaryMultiplicity,
    SingularIterate,
    SingularLeadingCoefficient,
    SpectralFactorError,
)
from .factorize import FactorizationOptions, factor
from .fileio import dumps_document, read_factor, read_spectrum, write_factor, write_spectrum
from .testgen import generate_boundary_instance, generate_instance
from .verify import VerificationReport, VerifyOptions, verify_all

_ALGORITHM_FLAGS = {"auto": "auto", "bauer": "bauer", "wilson": "wilson",
                    "roots": "scalar_roots"}

# Exit code of ``specfact factor`` for every library error ``factor()`` can
# raise.  A singular Newton iterate or leading coefficient on a spectrum that
# passed the grid checks means det S (nearly) vanishes on the circle, so it
# counts as not factorable like the explicit hypothesis failures.
# ``NoConvergence`` also writes the best iterate before exiting.
_FACTOR_EXIT_CODES = {
    NotPositiveDefinite: 2,
    DegenerateDeterminant: 2,
    CholeskyBreakdown: 2,
    OddBoundaryMultiplicity: 2,
    SingularIterate: 2,
    SingularLeadingCoefficient: 2,
    NoConvergence: 3,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfact",
        description="Factor, verify, and generate matrix spectral factorization problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="compute the causal factor of a spectrum file")
    p_factor.add_argument("input", help="spectrum file to factor")
    p_factor.add_argument("output", help="factor file to write")
    p_factor.add_argument("--algorithm", choices=sorted(_ALGORITHM_FLAGS), default="auto")
    p_factor.add_argument("--tol", type=float, default=1e-9, metavar="REAL",
                          help="relative residual tolerance (default 1e-9)")
    p_factor.add_argument("--grid", type=int, default=None, metavar="K",
                          help="unit-circle grid size override (power of two)")

    p_verify = sub.add_parser("verify", help="check a (spectrum, factor) file pair")
    p_verify.add_argument("spectrum", help="spectrum file")
    p_verify.add_argument("factor", help="factor file")
    p_verify.add_argument("--tol", type=float, default=1e-9, metavar="REAL",
                          help="factorization residual tolerance (default 1e-9)")
    p_verify.add_argument("--grid", type=int, default=None, metavar="K")
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


def _fail(message: str, code: int) -> int:
    print(f"specfact: error: {message}", file=sys.stderr)
    return code


def _cmd_factor(args) -> int:
    try:
        spectrum = read_spectrum(args.input)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 1)
    opts = FactorizationOptions(
        algorithm=_ALGORITHM_FLAGS[args.algorithm],
        residual_tol=args.tol,
        grid_K=args.grid,
    )
    try:
        result = factor(spectrum, opts)
    except NoConvergence as exc:
        best = exc.best_factor
        if best is not None:
            try:
                write_factor(args.output, best, algorithm=exc.algorithm,
                             residual=exc.achieved_residual,
                             warnings=[f"did not converge: {exc}"])
            except OSError as io_exc:
                return _fail(str(io_exc), 1)
            print(f"no convergence: best iterate written to {args.output} "
                  f"(residual {exc.achieved_residual:.3e})")
        return _fail(str(exc), _FACTOR_EXIT_CODES[NoConvergence])
    except (SpectralFactorError, ValueError) as exc:
        return _fail(str(exc), _FACTOR_EXIT_CODES.get(type(exc), 1))
    try:
        write_factor(args.output, result.factor, algorithm=result.algorithm_used,
                     residual=result.achieved_residual, warnings=result.warnings)
    except OSError as exc:
        return _fail(str(exc), 1)
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
                "measured": float(entry.measured),
                "tolerance": float(entry.tolerance),
                "detail": entry.detail,
            }
            for entry in report.checks
        ],
    }
    return dumps_document(doc)


def _cmd_verify(args) -> int:
    try:
        spectrum = read_spectrum(args.spectrum)
        candidate, _ = read_factor(args.factor)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 1)
    if spectrum.r != candidate.r:
        return _fail(
            f"dimension mismatch: spectrum r={spectrum.r}, factor r={candidate.r}", 1
        )
    opts = VerifyOptions(grid_K=args.grid, residual_tol=args.tol)
    report = verify_all(spectrum, candidate, opts)
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
            bundle = generate_boundary_instance(args.r, args.m, args.seed)
        else:
            bundle = generate_instance(args.r, args.m, args.seed, args.margin)
    except (SpectralFactorError, ValueError) as exc:
        return _fail(str(exc), 1)
    spectrum_path = f"{args.prefix}.spectrum"
    truth_path = f"{args.prefix}.truth"
    notes = ["boundary-degenerate instance"] if bundle.boundary else []
    try:
        write_spectrum(spectrum_path, bundle.spectrum)
        write_factor(truth_path, bundle.ground_truth, algorithm="ground_truth",
                     residual=0.0, warnings=notes)
    except OSError as exc:
        return _fail(str(exc), 1)
    print(f"wrote {spectrum_path} and {truth_path}")
    print(f"root_margin={bundle.root_margin:.6g} "
          f"condition_estimate={bundle.condition_estimate:.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "factor":
        return _cmd_factor(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
