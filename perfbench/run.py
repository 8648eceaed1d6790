#!/usr/bin/env python3
"""Certified-factorization benchmark for specfact.

    python3 perfbench/run.py --workload newton --seed 1000 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One client in one process runs a closed loop over a seeded instance pool for
``--seconds``; every operation is timed end to end and gated against the
exact ``testgen`` oracle.  ``--trace 0`` prints the end-to-end metrics, with
times corrected for co-tenant load (see calibration.py); ``--trace 1`` the
per-layer metrics from in-memory spans (see tracing.py).  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``correct`` is false when a certified answer is wrong (verify
passed, oracle gate failed) or a CLI exit code contradicts the README's
table; documented failures (exceptions, rejected factors) count in
``failed``.  Only workloads without known failures are in BENCHMARK.json;
``near-circle`` is run by hand and reports its failures as measured.

Runs from the root of a checkout, imports ``src/specfact`` from it, and writes
only below ``.bench_run/`` there.  BLAS is pinned to one thread before numpy
loads, here and in every CLI child.  See README.md in this directory.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
PROBE_REPEATS = 3


def load_program():
    """Import specfact from the checkout, never from anywhere else.

    workloads, tracing and smoke import specfact, so they load after this."""
    if not (SRC / "specfact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no specfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specfact
    if Path(specfact.__file__).resolve().parent != SRC / "specfact":
        sys.exit(f"perfbench: imported specfact from {specfact.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "cores": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def mean(values):
    return statistics.fmean(values) if values else 0.0


def closed_loop(ops, step, seconds, max_ops=None, after=lambda: None):
    """Run ``step`` over ``ops`` in order, cycling, until ``seconds`` pass;
    ``after`` runs once before the first operation and after every one."""
    outcomes = []
    start = time.perf_counter()
    after()
    while time.perf_counter() - start < seconds and (max_ops is None or len(outcomes) < max_ops):
        outcomes.append(step(ops[len(outcomes) % len(ops)], len(outcomes)))
        after()
    return outcomes


def slot_latencies(outcomes, slowdowns, slots):
    """Per latency slot of the cycled operations: the median corrected
    latency over its repeats, and the share of its repeats certified.

    Repeats in one slot do the same work; the correction (calibration.py)
    and the median over repeats remove the co-tenant slowdown of a shared
    machine.
    """
    per_slot = {}
    for n, outcome in enumerate(outcomes):
        entry = per_slot.setdefault(n % slots, ([], []))
        entry[1].append(not outcome.failed)
        entry[0].append(calibration.corrected(outcome.latency, slowdowns, n))
    return [(statistics.median(times), mean(ok)) for times, ok in per_slot.values()]


def corrected_setup(workload):
    """One set-up, in seconds of the quiet reference machine.

    The slowdown is sampled before each set-up step and after the last, and
    each step's time is corrected by the samples around it, as operations
    are (calibration.py); sampling time is not counted."""
    slowdowns, steps, start = [], [], None

    def tick():
        nonlocal start
        if start is not None:
            steps.append(time.perf_counter() - start)
        slowdowns.append(workload.slowdown())
        start = time.perf_counter()

    ops = workload.setup(tick)
    tick()
    return ops, sum(calibration.corrected(t, slowdowns, n) for n, t in enumerate(steps))


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name, seed, seconds, workdir, pool_size=None, max_ops=None, plant=None):
    """Untraced run: repeated set-up, then the timed closed loop."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, pool_size, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        ops, seconds_quiet = corrected_setup(workload)
        setups.append(seconds_quiet)
    if plant is not None:
        plant.prepare(ops)
    slowdowns = []
    outcomes = closed_loop(
        ops, lambda op, n: workload.run(op, plant and plant.factor_hook(op)),
        seconds, max_ops, after=lambda: slowdowns.append(workload.slowdown()))
    slots = slot_latencies(outcomes, slowdowns, workload.slots(ops))
    latencies = [t for t, _ in slots]
    distinct = list({n % len(ops): o for n, o in enumerate(outcomes)}.values())
    digits = [-math.log10(max(o.fwd_err, 1e-300)) for o in distinct if o.fwd_err is not None]
    certified = sum(not o.failed for o in distinct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms.p50": (1e3 * float(np.quantile(latencies, 0.5)), "ms"),
        "latency_ms.p90": (1e3 * float(np.quantile(latencies, 0.9)), "ms"),
        "throughput_ops_s": (sum(ok for _, ok in slots) / sum(latencies), "ops/s"),
        "fwd_err_digits.p10": (float(np.quantile(digits, 0.1)) if digits else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    summary = {
        "operations": len(outcomes), "distinct_operations": len(distinct),
        "latency_slots": len(slots), "fail_ratio": 1.0 - certified / len(distinct),
        "fwd_err_digits_min": min(digits, default=0.0),
        "wall_latency_ms_p50": 1e3 * float(np.quantile([o.latency for o in outcomes], 0.5)),
        "slowdown_min": min(slowdowns), "slowdown_median": statistics.median(slowdowns),
        "rejected": sum(bool(o.rejected) for o in outcomes),
        "cap_exhausted": sum(o.cap_exhausted for o in outcomes),
        "retry_exhausted": workload.retry_exhausted,
        "oracle_degree_mismatch": workload.degree_mismatch,
    }
    return outcomes, metrics, summary


def per_layer(name, seed, seconds, workdir, trace_path, pool_size=None):
    """Traced run: each operation runs untraced, then traced, then the two
    algorithms are called directly on its spectrum (traced)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Cli, run_child
    from specfact import cli, factorize
    from specfact.errors import NoConvergence, SpectralFactorError

    workload = WORKLOADS[name](seed, pool_size, workdir)
    tracer = Tracer()
    with tracer.installed():
        ops = workload.setup()

    untraced, traced, bauer_runs = [], [], []

    def replay(argv):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(argv)
        return time.perf_counter() - start

    def direct_calls(outcome, spectrum):
        with contextlib.suppress(SpectralFactorError):
            factorize.wilson_factor(spectrum)
        blocks = outcome.count if outcome.algorithm == "bauer" else None
        start = time.perf_counter()
        try:
            factorize.bauer_factor(spectrum)
        except NoConvergence as exc:
            blocks = exc.iterations
        except SpectralFactorError:
            blocks = None
        if blocks is not None:
            bauer_runs.append((blocks, time.perf_counter() - start))

    def step(op, n):
        if isinstance(workload, Cli):
            outcome = workload.run(op)
            untraced.append(replay(op.argv))
            tracer.op = f"op{n}"
            with tracer.installed():
                traced.append(replay(op.argv))
                if op.kind == "factor":
                    direct_calls(outcome, op.inst.bundle.spectrum)
            return outcome
        base = workload.run(op)
        tracer.op = f"op{n}"
        with tracer.installed():
            outcome = workload.run(op)
            direct_calls(outcome, op.bundle.spectrum)
        untraced.append(base.latency)
        traced.append(outcome.latency)
        return outcome

    outcomes = closed_loop(ops, step, seconds)

    interpreter = imported = 0.0
    if isinstance(workload, Cli):
        interpreter = statistics.median(
            _timed(lambda: run_child(["-c", "pass"], workdir)) for _ in range(PROBE_REPEATS))
        imported = statistics.median(
            _timed(lambda: run_child(["-c", "import specfact"], workdir))
            for _ in range(PROBE_REPEATS))
    tracer.write(trace_path)

    ms = lambda seconds_list: 1e3 * mean(seconds_list)
    per_op = _per_op_counts(tracer)
    wilson = [o.count for o in outcomes if o.algorithm == "wilson"]
    auto = [o for o in outcomes if o.fell_back is not None]
    verified = [o for o in outcomes if o.rejected is not None]
    verify_calls = max(1, len(tracer.durations("verify.verify_all")))
    checks = lambda n: 1e3 * sum(tracer.durations(n, "verify.verify_all")) / verify_calls
    blocks = [b for b, _ in bauer_runs]
    writes = [s.nbytes for s in tracer.spans if s.name == "fileio.write" and s.op != "setup"]
    everywhere = ("op", "setup")
    metrics = {
        "factorize.factor_ms": (ms(tracer.durations("factorize.factor")), "ms"),
        "factorize.wilson_ms": (ms(tracer.durations("factorize.wilson_factor")), "ms"),
        "factorize.bauer_ms": (ms(tracer.durations("factorize.bauer_factor")), "ms"),
        "factorize.bauer_rows_per_s": (
            sum(blocks) / sum(t for _, t in bauer_runs) if bauer_runs else 0.0, "1/s"),
        "factorize.canonical_normalize_ms": (
            ms(tracer.durations("factorize.canonical_normalize", "factorize.factor")), "ms"),
        "factorize.self_ms": (ms(tracer.self_times("factorize.factor")), "ms"),
        "factorize.newton_iters": (mean(wilson), "count"),
        "factorize.bauer_blocks": (mean(blocks), "count"),
        "factorize.fallback_ratio": (
            sum(o.fell_back for o in auto) / len(auto) if auto else 0.0, "ratio"),
        "factorize.cap_exhausted": (sum(o.cap_exhausted for o in outcomes), "count"),
        "laurent.fft_ms": (1e3 * mean(per_op["fft_s"]), "ms"),
        "laurent.fft_calls": (mean(per_op["fft_calls"]), "count"),
        "laurent.grid_points": (mean(per_op["grid_points"]), "count"),
        "laurent.multiply_by_adjoint_ms": (
            ms(tracer.durations("laurent.multiply_by_adjoint", include=everywhere)), "ms"),
        "verify.verify_all_ms": (ms(tracer.durations("verify.verify_all")), "ms"),
        "verify.check_positivity_ms": (checks("verify.check_positivity"), "ms"),
        "verify.check_factorization_ms": (checks("verify.check_factorization"), "ms"),
        "verify.check_outer_determinant_ms": (checks("verify.check_outer_determinant"), "ms"),
        "verify.check_causal_identity_ms": (checks("verify.check_causal_identity"), "ms"),
        "verify.self_ms": (ms(tracer.self_times("verify.verify_all")), "ms"),
        "verify.reject_ratio": (
            sum(o.rejected for o in verified) / len(verified) if verified else 0.0, "ratio"),
        "testgen.generate_ms": (ms(tracer.durations("testgen.generate", include=everywhere)), "ms"),
        "testgen.retry_exhausted": (workload.retry_exhausted, "count"),
        "testgen.oracle_degree_mismatch": (workload.degree_mismatch, "count"),
        "fileio.read_ms": (ms(tracer.durations("fileio.read")), "ms"),
        "fileio.write_ms": (ms(tracer.durations("fileio.write")), "ms"),
        "fileio.bytes_written": (mean(writes), "B"),
        "cli.interpreter_ms": (1e3 * interpreter, "ms"),
        "cli.import_ms": (1e3 * (imported - interpreter), "ms"),
        "cli.main_ms": (ms(tracer.durations("cli.main")), "ms"),
        "trace.overhead_ratio": (
            statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    summary = {"operations": len(outcomes), "spans": len(tracer.spans),
               "trace_file": str(trace_path.relative_to(ROOT))}
    return outcomes, metrics, summary


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _per_op_counts(tracer):
    """Per loop operation: FFT time, calls and grid points under the
    operation's own factor / verify / CLI calls (not the direct calls)."""
    from tracing import FFT_SPAN
    roots = {"factorize.factor", "verify.verify_all", "cli.main"}
    totals = {}
    for i, span in enumerate(tracer.spans):
        if not span.op.startswith("op"):
            continue
        entry = totals.setdefault(span.op, [0.0, 0, 0])
        if span.name == FFT_SPAN and tracer.root_name(i) in roots:
            entry[0] += span.end - span.start
            entry[1] += 1
            entry[2] += span.grid
    return {"fft_s": [e[0] for e in totals.values()],
            "fft_calls": [e[1] for e in totals.values()],
            "grid_points": [e[2] for e in totals.values()]}


def result_line(outcomes, metrics) -> str:
    return json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["newton", "toeplitz", "near-circle", "cli"])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-check instead of a measurement")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    load_program()
    # One client on one core: the calibration task, the operations and any
    # CLI child (which inherits the mask) then share one core's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.smoke:
        from smoke import run_smoke
        return run_smoke()

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            outcomes, metrics, summary = per_layer(
                args.workload, args.seed, args.seconds, workdir, trace_path)
        else:
            outcomes, metrics, summary = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(environment(args)))
    print("summary " + json.dumps(summary))
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit}")
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
