#!/usr/bin/env python3
"""Draw healthy spectra widely, factor each one and judge each factor by its
forward error against the generator's ground truth.

One fixed ``SplitMix64`` stream, seeded with ``STREAM_SEED``, draws every
instance seed.  A round visits every cell of ``CELLS``: r in {1, 2, 3, 4, 8, 16},
m in {0, 1, 2, 3, 4, 8, 16} and root margins {0.2, 0.02, 0.002}, one
``generate_instance`` bundle each, and runs ``factor()`` under ``auto`` on
it.  Each outcome falls in one class: exit 0 (a factor), ``NoConvergence``
(exit 3), another ``SpectralFactorError`` (exit 1 or 2), or a seed the
generator refuses with ``RetryExhausted`` (no input).  Per margin the
script prints the count of each class and the worst forward error of an
exit-0 factor, then the cells where ``NoConvergence`` fell and every exit-0
factor whose forward error exceeds ``BOUNDS[margin]``.  The forward error
is ``max_n ||rho_n - rho_n^true||_F / (1 + max_n ||rho_n^true||_F)``, as in
``perfbench/workloads.py``.  Run it with

    PYTHONPATH=src python3 scripts/soak.py [rounds]

whose default, 40 rounds (5,040 draws), takes about 46 s on one core of a
2-core Xeon VM, 32 s of it in the r = 16 cells.
"""

import collections
import pathlib
import sys

from specfact.errors import NoConvergence, RetryExhausted, SpectralFactorError
from specfact.factorize import factor
from specfact.rng import SplitMix64
from specfact.testgen import generate_instance

# perfbench/ is a directory of scripts that import each other, not a package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import forward_error  # noqa: E402

STREAM_SEED = 20261020
MARGINS = (0.2, 0.02, 0.002)
CELLS = [(r, m, margin) for margin in MARGINS for r in (1, 2, 3, 4, 8, 16)
         for m in (0, 1, 2, 3, 4, 8, 16)]
ROUNDS = 40

# An exit-0 factor above its margin's bound is listed.  The bounds sit above
# the worst errors an 80,550-draw run of this grid saw at each margin (2.3e-10,
# 4.1e-9, 1.1e-7), which follow the spectrum's conditioning, about
# eps * scale / lambda_min, not the stop; 1e-6 is perfbench's gate.
BOUNDS = {0.2: 1e-9, 0.02: 1e-8, 0.002: 1e-6}

CLASSES = ("exit 0", "NoConvergence", "other error", "refused")


def lines(rounds: int = ROUNDS, cells=CELLS) -> list[str]:
    """The printed lines for ``rounds`` passes over ``cells``."""
    stream = SplitMix64(STREAM_SEED)
    counts = {margin: collections.Counter() for _, _, margin in cells}
    worst = dict.fromkeys(counts, 0.0)
    stuck, above = collections.Counter(), []
    for _ in range(rounds):
        for r, m, margin in cells:
            seed = stream.integer(2**32)
            try:
                bundle = generate_instance(r, m, seed, margin)
            except RetryExhausted:
                counts[margin]["refused"] += 1
                continue
            try:
                result = factor(bundle.spectrum)
            except NoConvergence:
                counts[margin]["NoConvergence"] += 1
                stuck[r, m, margin] += 1
                continue
            except SpectralFactorError:
                counts[margin]["other error"] += 1
                continue
            counts[margin]["exit 0"] += 1
            error = forward_error(result.factor, bundle.ground_truth)
            worst[margin] = max(worst[margin], error)
            if error > BOUNDS[margin]:
                above.append(f"above bound: r={r} m={m} margin={margin} seed={seed} "
                             f"forward error {error:.2e} steps {result.iterations_or_blocks}")
    out = [f"soak: auto, {rounds} rounds of {len(cells)} cells, stream {STREAM_SEED}"]
    out += [f"margin {margin}: " + ", ".join(f"{c[k]} {k}" for k in CLASSES)
            + f"; worst forward error {worst[margin]:.2e} (bound {BOUNDS[margin]:.0e})"
            for margin, c in counts.items()]
    out += [f"NoConvergence: r={r} m={m} margin={margin}: {n}"
            for (r, m, margin), n in sorted(stuck.items())]
    return out + above + [f"above bound: {len(above)} factors"]


def main():
    print("\n".join(lines(int(sys.argv[1]) if len(sys.argv) > 1 else ROUNDS)))


if __name__ == "__main__":
    main()
