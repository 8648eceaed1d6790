#!/usr/bin/env python3
"""Print the generator digest table that tests/generator_digests.json pins.

Each row names one generator call and records the SHA-256 of the spectrum's
and the ground truth's coefficient bytes, with ``root_margin`` and
``condition_estimate`` at ``.6g``; a seed whose draws are all rejected
records the exception instead.  The cases cover one seed per newton cell,
the (8, 16) seeds whose first draws are rejected and one that exhausts its
retries, m = 16 seeds with a rejected draw whose nearest det root lies just
inside the trim radius, the toeplitz margin-0.1 cells, the near-circle
margins and the boundary instances.  The table changes only on a deliberate generator
change; regenerate it then with

    PYTHONPATH=src python3 scripts/generator_digests.py > tests/generator_digests.json
"""

import hashlib
import json

from specfact.errors import RetryExhausted
from specfact.testgen import generate_boundary_instance, generate_instance

NEWTON_CELLS = [(r, m) for r in (1, 2, 4, 8) for m in (4, 8, 16)] + [(1, 32)]

# (kind, r, m, seed, margin); kind "boundary" ignores the margin.
CASES = (
    [("instance", r, m, 1000 + i, 0.2) for i, (r, m) in enumerate(NEWTON_CELLS)]
    + [("instance", 8, 16, seed, 0.2) for seed in (1011, 1024, 1037, 1180)]
    + [("instance", r, 16, seed, 0.2)
       for r, seed in ((8, 1063), (8, 1206), (8, 2037), (2, 1083), (2, 1187), (4, 2047))]
    + [("instance", r, m, 1009 + 3 * i + j, 0.1)
       for i, r in enumerate((1, 2, 4)) for j, m in enumerate((2, 4, 8))]
    + [("instance", r, m, 1000 + 6 * i + 2 * j + k, margin)
       for i, r in enumerate((1, 2, 4)) for j, m in enumerate((4, 8, 16))
       for k, margin in enumerate((0.02, 0.05))]
    + [("boundary", r, m, 1038 + 40 * (r - 1) + m, None) for r in (1, 2, 3) for m in (1, 2)]
)


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def row(kind, r, m, seed, margin) -> dict:
    entry = {"kind": kind, "r": r, "m": m, "seed": seed, "margin": margin}
    try:
        if kind == "boundary":
            bundle = generate_boundary_instance(r, m, seed)
        else:
            bundle = generate_instance(r, m, seed, margin)
    except RetryExhausted:
        return entry | {"raises": "RetryExhausted"}
    return entry | {
        "spectrum": _sha256(bundle.spectrum.coeffs),
        "truth": _sha256(bundle.ground_truth.coeffs),
        "root_margin": f"{bundle.root_margin:.6g}",
        "condition_estimate": f"{bundle.condition_estimate:.6g}",
    }


def table() -> list[dict]:
    return [row(*case) for case in CASES]


def main():
    print(json.dumps(table(), indent=1))


if __name__ == "__main__":
    main()
