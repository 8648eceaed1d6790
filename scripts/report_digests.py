#!/usr/bin/env python3
"""Print one report count and one SHA-256 per group of ``verify_all`` reports.

A change that must move no verdict, warning, tolerance or measured value
prints the same lines before and after.  The groups are the newton,
toeplitz and near-circle pools of ``perfbench/workloads.py`` at seeds 1000
and 2000, and the ``generate_boundary_instance`` bundles for r 1-4,
m in {1, 2, 4, 8} and seeds 0-5.  For each pool instance the digest takes
``factor()``'s outcome under the pool's algorithm, then ``verify_all`` of
that factor when one is returned, of the ground truth and of the truth
scaled by 1.01.  For each boundary bundle it takes ``verify_all`` of the
truth and of the forced-``bauer`` factor.  An outcome or a report is hashed
with every float by its exact bits, and a ``factor()`` error by its type
and message; the count is the number of reports.  Run it with

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
    """(factor or None, the text that hashes ``factor()``'s outcome)."""
    try:
        result = factor(S, FactorizationOptions(algorithm=algorithm))
    except SpectralFactorError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    x = result.factor
    return x, (f"{result.algorithm_used} {result.iterations_or_blocks} "
               f"{result.achieved_residual.hex()} {result.warnings} "
               f"{x.coeffs.shape} {x.coeffs.tobytes().hex()}")


def _report(S, x) -> str:
    """The text that hashes ``verify_all(S, x)``, one line per entry."""
    return "\n".join(
        f"{e.name} {e.passed} {e.warning} {float(e.measured).hex()} "
        f"{float(e.tolerance).hex()} {e.detail}" for e in verify_all(S, x).checks)


class _Digest:
    def __init__(self):
        self.count, self.sha = 0, hashlib.sha256()

    def add(self, text: str):
        self.sha.update(text.encode() + b"\0")

    def verify(self, S, x):
        self.count += 1
        self.add(_report(S, x))


def _pool_digest(name: str, seed: int, pool_size: int | None) -> _Digest:
    digest = _Digest()
    for inst in workloads.WORKLOADS[name](seed, pool_size).build_pool():
        S, truth = inst.bundle.spectrum, inst.truth
        x, outcome = _factor(S, inst.cell.algorithm)
        digest.add(outcome)
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
        x, outcome = _factor(S, "bauer")
        digest.add(outcome)
        if x is not None:
            digest.verify(S, x)
    return digest


def lines(pool_size: int | None = None, boundary=BOUNDARY) -> list[str]:
    """The printed lines; ``pool_size`` None takes each workload's own."""
    groups = [(f"{name} {seed}", _pool_digest(name, seed, pool_size))
              for name in POOLS for seed in SEEDS]
    groups.append(("boundary", _boundary_digest(boundary)))
    out = [f"{label}: {d.count} reports sha256 {d.sha.hexdigest()}" for label, d in groups]
    return out + [f"total: {sum(d.count for _, d in groups)} reports"]


def main():
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
