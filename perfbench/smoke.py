"""The benchmark's self-check: ``python3 perfbench/run.py --smoke``.

Runs every workload briefly on small pools and checks three things:

1. every metric named in BENCHMARK.json is printed, with its unit, by the
   untraced (end-to-end) and traced (per-layer) runs of every workload;
2. planted wrong answers are counted as failed, not dropped: a perturbed
   oracle (a wrong answer the verifier cannot see, so ``correct`` turns
   false) and a factor with a det root reflected inside the disk (which
   ``verify_all`` must reject);
3. every CLI exit code in the README's table is produced by the command it
   documents, and the table matches the one the benchmark gates on.
"""

from __future__ import annotations

import json
import math
import re
import shutil

import numpy as np

import run
import workloads
from specfact import fileio
from specfact.laurent import MatrixPolynomial

# (pool size, seconds) per workload: every cell once, or one gen-factor-verify chain.
SMOKE_RUNS = {"newton": (13, 1.0), "toeplitz": (18, 1.0), "near-circle": (20, 1.0),
              "cli": (1, 3.0)}


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def reflect_det_root(x: MatrixPolynomial) -> MatrixPolynomial:
    """Scalar factor with one root a moved to 1/conj(a): same spectrum, not outer."""
    high_to_low = x.coeffs[::-1, 0, 0]
    a = np.roots(high_to_low)[0]
    quotient, _ = np.polydiv(high_to_low, np.array([1.0, -a]))
    reflected = np.polymul(quotient, np.array([-np.conj(a), 1.0]))
    return MatrixPolynomial(reflected[::-1].reshape(-1, 1, 1))


class Plant:
    """Plants one perturbed oracle and one reflected factor into a pool."""

    def __init__(self, skip):
        self.skip = skip            # pool indices that already fail unplanted
        self.reflected = self.perturbed = None

    def prepare(self, pool):
        usable = [i for i in range(len(pool)) if i not in self.skip]
        self.reflected = next(pool[i] for i in usable
                              if pool[i].cell.r == 1 and pool[i].cell.m >= 1)
        self.perturbed = next(pool[i] for i in usable if pool[i] is not self.reflected)
        truth = self.perturbed.truth
        self.perturbed.truth = MatrixPolynomial(truth.coeffs * (1.0 + 1e-4))

    def factor_hook(self, inst):
        return reflect_det_root if inst is self.reflected else None


def check_metrics(spec, workdir):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            pool, seconds = SMOKE_RUNS[name]
            if trace:
                outcomes, metrics, _ = run.per_layer(
                    name, 1000, seconds, workdir, workdir / "trace.jsonl", pool)
            else:
                outcomes, metrics, _ = run.end_to_end(name, 1000, seconds, workdir, pool)
            line = json.loads(run.result_line(outcomes, metrics))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == wanted[trace],
                  f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                  "differ from BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in line["metrics"].values()), f"{name}: non-finite metric")
            check(line["attempted"] >= 1, f"{name} trace={trace}: no operation ran")
            print(f"smoke: {name} trace={trace}: {len(got)} metrics, "
                  f"{line['attempted']} operations, {line['failed']} failed")


def check_planted(workdir):
    size, _ = SMOKE_RUNS["newton"]
    clean, _, _ = run.end_to_end("newton", 1000, 300, workdir, size, max_ops=size)
    plant = Plant({i for i, o in enumerate(clean) if o.failed})
    planted, _, summary = run.end_to_end("newton", 1000, 300, workdir, size,
                                         max_ops=size, plant=plant)
    failed = lambda outs: sum(o.failed for o in outs)
    check(failed(planted) == failed(clean) + 2,
          f"planted answers not both counted: {failed(clean)} -> {failed(planted)} failed")
    check(sum(o.wrong for o in planted) == 1 and not any(o.wrong for o in clean),
          "the perturbed oracle did not mark the run incorrect")
    rejected = [o for o in planted if o.rejected and not o.wrong]
    check(len(rejected) >= 1, "verify_all did not reject the reflected factor")
    print(f"smoke: planted answers counted ({failed(clean)} -> {failed(planted)} failed, "
          f"fail_ratio {summary['fail_ratio']:.3f})")


def readme_exit_codes() -> dict[str, set[int]]:
    text = " ".join((run.ROOT / "README.md").read_text(encoding="utf-8").split())
    table = re.search(r"Exit codes: (.*?\.)(?: |$)", text).group(1)
    codes = {}
    for segment in table.rstrip(".").split(";"):
        command, rest = segment.strip().split(" ", 1)
        codes[command] = {int(c) for c in re.findall(r"(?:^|/ )(\d+) ", rest)}
    return codes


def check_exit_codes(workdir):
    table = readme_exit_codes()
    check(table == workloads.CLI_EXIT_CODES,
          f"README exit codes {table} differ from the gated table {workloads.CLI_EXIT_CODES}")
    w = str(workdir)
    bad_spectrum = workdir / "indefinite.spectrum"
    bad_spectrum.write_text(json.dumps(
        {"r": 1, "m": 1, "coeffs": {"0": [[[1, 0]]], "1": [[[2, 0]]]}}))
    cases = [
        ("gen", 0, ["gen", "1", "3", f"{w}/s", "--seed", "3"]),
        ("gen", 1, ["gen", "0", "3", f"{w}/bad"]),
        ("gen", 0, ["gen", "2", "2", f"{w}/d", "--seed", "4"]),
        ("gen", 0, ["gen", "1", "1", f"{w}/b", "--seed", "1", "--boundary"]),
        ("factor", 0, ["factor", f"{w}/s.spectrum", f"{w}/s.factor"]),
        ("factor", 1, ["factor", f"{w}/missing.spectrum", f"{w}/x.factor"]),
        ("factor", 2, ["factor", str(bad_spectrum), f"{w}/x.factor"]),
        ("factor", 3, ["factor", f"{w}/b.spectrum", f"{w}/b.factor"]),
        ("verify", 0, ["verify", f"{w}/s.spectrum", f"{w}/s.factor"]),
        ("verify", 1, ["verify", f"{w}/s.spectrum", f"{w}/d.truth"]),
        ("verify", 4, ["verify", f"{w}/s.spectrum", f"{w}/reflected.factor"]),
    ]
    seen = {command: set() for command in table}
    for command, expected, argv in cases:
        if argv[-1].endswith("reflected.factor"):
            x, _ = fileio.read_factor(f"{w}/s.factor")
            fileio.write_factor(argv[-1], reflect_det_root(x))
        code = workloads.run_child(["-m", "specfact"] + argv, workdir).returncode
        check(code == expected, f"specfact {' '.join(argv[:1])}: exit {code}, README says {expected}")
        seen[command].add(code)
    check(seen == table, f"exit codes exercised {seen} do not cover the README table {table}")
    print(f"smoke: CLI exit codes match the README table {table}")


def run_smoke() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]]
          == [name for name, w in workloads.WORKLOADS.items() if not w.known_failures],
          "BENCHMARK.json workloads differ from the benchmark's without known failures")
    manifest = json.loads((run.ROOT / "perfbench" / "manifest.json").read_text(encoding="utf-8"))
    check(list(manifest["layer_map"]) == [m["name"] for m in spec["per_layer"]],
          "manifest.json layer_map does not list the per-layer metrics in order")
    workdir = run.RUN_DIR / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_metrics(spec, workdir)
        check_planted(workdir)
        check_exit_codes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: ok")
    return 0
