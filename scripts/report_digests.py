#!/usr/bin/env python3
"""Print one report count and two SHA-256 per group of ``verify_all`` reports.

A change that must move no verdict, warning, tolerance or measured value
prints the same lines before and after; one that may move measured values
but no verdict prints the same second digest.  The groups are the newton,
toeplitz and near-circle pools of ``perfbench/workloads.py`` at seeds 1000
and 2000, and the ``generate_boundary_instance`` bundles for r 1-4,
m in {1, 2, 4, 8} and seeds 0-5.  For each pool instance the digest takes
``factor()``'s outcome under the pool's algorithm, then ``verify_all`` of
that factor when one is returned, of the ground truth and of the truth
scaled by 1.01.  For each boundary bundle it takes ``verify_all`` of the
truth and of the forced-``bauer`` factor.  The first digest, after
``sha256``, hashes an outcome or a report with every float by its exact
bits, and a ``factor()`` error by its type and message.  The second, after
``verdicts``, leaves out measured values, details and factor bits: it hashes
``factor()``'s algorithm, count and warnings, or its error's type and
message, and each report entry's name, ``passed``, ``warning`` and
``tolerance``.  The count is the number of reports.  The first digest
depends on the machine, since exact float bits move with the BLAS and the
CPU: compare ``sha256`` only between runs on one machine.  The ``verdicts``
digest compares across machines.  Run it with

    PYTHONPATH=src python3 scripts/report_digests.py
"""

import hashlib
import pathlib
import sys

from specfact.errors import SpectralFactorError
from specfact.factorize import FactorizationOptions, factor
from specfact.laurent import MatrixPolynomial
from specfact.testgen import generate_boundary_instance
from specfact.verify import verify_all

# perfbench/ is a directory of scripts that import each other, not a package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

POOLS = ("newton", "toeplitz", "near-circle")
SEEDS = (1000, 2000)
BOUNDARY = [(r, m, seed) for r in (1, 2, 3, 4) for m in (1, 2, 4, 8) for seed in range(6)]


def _factor(S, algorithm: str):
    """(factor or None, the text that hashes ``factor()``'s outcome, the text
    that hashes its verdict)."""
    try:
        result = factor(S, FactorizationOptions(algorithm=algorithm))
    except SpectralFactorError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return None, error, error
    x = result.factor
    return x, (f"{result.algorithm_used} {result.iterations_or_blocks} "
               f"{result.achieved_residual.hex()} {result.warnings} "
               f"{x.coeffs.shape} {x.coeffs.tobytes().hex()}"), (
        f"{result.algorithm_used} {result.iterations_or_blocks} {result.warnings}")


class _Digest:
    def __init__(self):
        self.count, self.sha, self.verdicts = 0, hashlib.sha256(), hashlib.sha256()

    def add(self, text: str, verdict: str):
        self.sha.update(text.encode() + b"\0")
        self.verdicts.update(verdict.encode() + b"\0")

    def verify(self, S, x):
        """Hash ``verify_all(S, x)``, one line per entry."""
        self.count += 1
        checks = verify_all(S, x).checks
        self.add("\n".join(f"{e.name} {e.passed} {e.warning} {float(e.measured).hex()} "
                           f"{float(e.tolerance).hex()} {e.detail}" for e in checks),
                 "\n".join(f"{e.name} {e.passed} {e.warning} {float(e.tolerance).hex()}"
                           for e in checks))


def _pool_digest(name: str, seed: int, pool_size: int | None) -> _Digest:
    digest = _Digest()
    for inst in workloads.WORKLOADS[name](seed, pool_size).build_pool():
        S, truth = inst.bundle.spectrum, inst.truth
        x, *outcome = _factor(S, inst.cell.algorithm)
        digest.add(*outcome)
        if x is not None:
            digest.verify(S, x)
        digest.verify(S, truth)
        digest.verify(S, MatrixPolynomial(truth.coeffs * 1.01))
    return digest


def _boundary_digest(boundary) -> _Digest:
    digest = _Digest()
    for r, m, seed in boundary:
        bundle = generate_boundary_instance(r, m, seed)
        S = bundle.spectrum
        digest.verify(S, bundle.ground_truth)
        x, *outcome = _factor(S, "bauer")
        digest.add(*outcome)
        if x is not None:
            digest.verify(S, x)
    return digest


def lines(pool_size: int | None = None, boundary=BOUNDARY) -> list[str]:
    """The printed lines; ``pool_size`` None takes each workload's own."""
    groups = [(f"{name} {seed}", _pool_digest(name, seed, pool_size))
              for name in POOLS for seed in SEEDS]
    groups.append(("boundary", _boundary_digest(boundary)))
    out = [f"{label}: {d.count} reports sha256 {d.sha.hexdigest()} "
           f"verdicts {d.verdicts.hexdigest()}" for label, d in groups]
    return out + [f"total: {sum(d.count for _, d in groups)} reports"]


def main():
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
