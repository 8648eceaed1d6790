"""Workload definitions: instance pools built from a seed, and the operations
run on them.

An in-process operation is one certified factorization: ``factor`` plus
``verify_all`` (timed), then a check against the exact ``testgen`` oracle
(untimed).  A ``cli`` operation is one ``python -m specfact`` command.

Instance ``i`` of a pool has seed ``seed + i`` and takes its cell round-robin
from the workload's cell list, so a pool is a pure function of the seed and
every cell gets the same share of operations however far a run gets.  A seed
for which ``testgen`` raises ``RetryExhausted`` is counted and left out of
the pool, never reseeded: there is no input to run an operation on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import calibration
from specfact import factorize, fileio, testgen, verify
from specfact.errors import NoConvergence, RetryExhausted, SpectralFactorError

# Criterion 1 of the acceptance suite: forward error against the oracle.
FWD_ERR_GATE = 1e-6

# README's exit-code table; an exit code outside it is a wrong answer.
CLI_EXIT_CODES = {"factor": {0, 1, 2, 3}, "verify": {0, 1, 4}, "gen": {0, 1}}


@dataclass(frozen=True)
class Cell:
    r: int
    m: int
    margin: float = 0.2
    algorithm: str = "auto"
    boundary: bool = False


@dataclass
class Instance:
    cell: Cell
    seed: int
    bundle: object                 # InstanceBundle
    truth: object                  # oracle factor the gate compares against


@dataclass
class Outcome:
    latency: float                 # seconds
    failed: bool
    wrong: bool = False            # a certified or documented answer that is wrong
    fwd_err: float | None = None   # set when a factor was returned
    algorithm: str | None = None
    count: int | None = None       # iterations_or_blocks, or NoConvergence.iterations
    rejected: bool | None = None   # verify_all verdict was False
    fell_back: bool | None = None  # None unless factor() ran with algorithm auto
    cap_exhausted: bool = False


def forward_error(x, truth) -> float:
    """max_n ||rho_n - rho_n^true||_F / (1 + max_n ||rho_n^true||_F), both
    stacks zero-padded to the same length."""
    n = max(len(x.coeffs), len(truth.coeffs))
    a = np.zeros((n,) + x.coeffs.shape[1:], dtype=np.complex128)
    b = np.zeros_like(a)
    a[: len(x.coeffs)] = x.coeffs
    b[: len(truth.coeffs)] = truth.coeffs
    norm = lambda s: np.sqrt(np.sum(np.abs(s) ** 2, axis=(1, 2)))
    return float(norm(a - b).max() / (1.0 + norm(b).max()))


def judge(outcome: Outcome, x, report, truth) -> Outcome:
    """Gate one returned factor: verify verdict and forward error."""
    outcome.fwd_err = forward_error(x, truth)
    outcome.rejected = not report.overall
    bad = outcome.fwd_err >= FWD_ERR_GATE
    outcome.failed = outcome.rejected or bad
    outcome.wrong = report.overall and bad
    return outcome


class Workload:
    name = ""
    cells: list[Cell] = []
    pool_size = 0
    # True when known program defects fail some of its operations: such a
    # workload is run by hand and left out of BENCHMARK.json, whose runs must
    # not fail.
    known_failures = False

    def __init__(self, seed: int, pool_size: int | None = None, workdir: Path | None = None):
        self.seed = seed
        self.pool_size = pool_size or self.pool_size
        self.workdir = workdir      # where CLI commands run and write their files
        self.retry_exhausted = 0
        self.degree_mismatch = 0

    def cell_of(self, i: int) -> Cell:
        return self.cells[i % len(self.cells)]

    def slots(self, ops) -> int:
        """Operations that repeat the same work when the loop cycles."""
        return len(ops)

    def slowdown(self) -> float:
        """Current slowdown against the quiet reference (calibration.py)."""
        return calibration.kernel_slowdown()

    def build_pool(self, tick=lambda: None) -> list[Instance]:
        """``tick`` runs before each instance is generated."""
        pool, self.retry_exhausted, self.degree_mismatch = [], 0, 0
        for i in range(self.pool_size):
            tick()
            c, seed = self.cell_of(i), self.seed + i
            try:
                if c.boundary:
                    bundle = testgen.generate_boundary_instance(c.r, c.m, seed)
                else:
                    bundle = testgen.generate_instance(c.r, c.m, seed, c.margin)
            except RetryExhausted:
                self.retry_exhausted += 1
                continue
            if bundle.ground_truth.m != bundle.spectrum.m:
                self.degree_mismatch += 1
            pool.append(Instance(c, seed, bundle, bundle.ground_truth))
        return pool

    def setup(self, tick=lambda: None):
        """Build the pool and warm up; returns the operations to cycle.
        ``tick`` runs before each step (an instance, the warm-up)."""
        pool = self.build_pool(tick)
        tick()
        self.run(pool[0])
        return pool

    def run(self, inst: Instance, plant=None) -> Outcome:
        """One certified factorization; ``plant`` may replace the returned
        factor (the self-check plants wrong answers through it)."""
        S = inst.bundle.spectrum
        auto = inst.cell.algorithm == "auto"
        opts = factorize.FactorizationOptions(algorithm=inst.cell.algorithm)
        start = _clock()
        try:
            result = factorize.factor(S, opts)
            x = result.factor if plant is None else plant(result.factor)
            report = verify.verify_all(S, x)
        except NoConvergence as exc:
            # Under auto, NoConvergence means the Bauer fallback ran too.
            return Outcome(_clock() - start, failed=True, count=exc.iterations,
                           cap_exhausted=True, fell_back=True if auto else None)
        except SpectralFactorError:
            return Outcome(_clock() - start, failed=True)
        outcome = Outcome(_clock() - start, failed=False,
                          algorithm=result.algorithm_used,
                          count=result.iterations_or_blocks,
                          fell_back=result.algorithm_used == "bauer" if auto else None)
        return judge(outcome, x, report, inst.truth)


class Newton(Workload):
    name = "newton"
    cells = [Cell(r, m) for r in (1, 2, 4, 8) for m in (4, 8, 16)] + [Cell(1, 32)]
    pool_size = 208


class Toeplitz(Workload):
    """Margin-0.1 cells come twice as often as margin-0.2 ones.

    With equal shares the median operation falls in the gap between the
    m=4 margin-0.2 cells (about 30 ms) and the m=4 margin-0.1 and m=8
    margin-0.2 cells (about 60 ms), where p50 jumps with the pool; with the
    margin-0.1 cells doubled it falls inside the upper group.
    """

    name = "toeplitz"
    cells = [Cell(r, m, margin, "bauer")
             for margin in (0.2, 0.1, 0.1) for r in (1, 2, 4) for m in (2, 4, 8)]
    pool_size = 108


class NearCircle(Workload):
    """Every BOUNDARY_EVERY-th instance is a boundary spectrum.

    Known defects fail about a sixth of its operations (``causal-identity``
    rejections, ``NoConvergence`` on every boundary spectrum), and it
    reports them as measured.

    At one in forty the boundary operations (each burning the Bauer block
    cap, about 0.8 s) sit above p90, so p90 stays inside the healthy
    population instead of on the edge between the two; their cost shows in
    throughput (nearly half of a pass) and in the fail counts instead.
    """

    name = "near-circle"
    known_failures = True
    cells = [Cell(r, m, margin)
             for r in (1, 2, 4) for m in (4, 8, 16) for margin in (0.02, 0.05)]
    boundary_cells = [Cell(r, 1, boundary=True) for r in (1, 2, 3)]
    BOUNDARY_EVERY = 40
    pool_size = 240

    def cell_of(self, i: int) -> Cell:
        k = self.BOUNDARY_EVERY
        if i % k == k - 1:
            return self.boundary_cells[(i // k) % len(self.boundary_cells)]
        return self.cells[(i - i // k) % len(self.cells)]


@dataclass
class Command:
    """One CLI operation: ``kind`` is gen, factor or verify of ``inst``."""

    kind: str
    inst: Instance
    argv: list[str] = field(default_factory=list)


class Cli(Workload):
    """Each pass of the loop runs fresh instances of the same three cells.

    A command's time is almost all interpreter start and imports, the same
    for every instance of a cell, so one latency slot is a (cell, command)
    pair whose repeats are comparable, while the oracle gate still sees a new
    instance on every pass.
    """

    name = "cli"
    cells = [Cell(1, 2), Cell(2, 4), Cell(4, 8)]
    pool_size = 18

    def slots(self, ops) -> int:
        return min(3 * len(self.cells), len(ops))

    def slowdown(self) -> float:
        return calibration.import_slowdown(lambda args: run_child(args, self.workdir))

    def commands(self, inst: Instance) -> list[Command]:
        """gen, factor and verify of one instance, as the README shows them."""
        c = inst.cell
        prefix = str(self.workdir / f"i{inst.seed}")
        spectrum, out = prefix + ".spectrum", prefix + ".factor"
        return [
            Command("gen", inst, ["gen", str(c.r), str(c.m), prefix,
                                  "--seed", str(inst.seed), "--margin", repr(c.margin)]),
            Command("factor", inst, ["factor", spectrum, out]),
            Command("verify", inst, ["verify", spectrum, out, "--json"]),
        ]

    def setup(self, tick=lambda: None):
        # One tick for the whole (small) pool: a tick here starts a child.
        tick()
        commands = [cmd for inst in self.build_pool() for cmd in self.commands(inst)]
        tick()
        run_child(["-c", "import specfact"], self.workdir)
        return commands

    def run(self, cmd: Command, plant=None) -> Outcome:
        start = _clock()
        proc = run_child(["-m", "specfact"] + cmd.argv, self.workdir)
        outcome = Outcome(_clock() - start, failed=False)
        outcome.wrong = proc.returncode not in CLI_EXIT_CODES[cmd.kind]
        if proc.returncode != 0:
            outcome.failed = True
            return outcome
        try:
            if cmd.kind == "gen":
                truth, _ = fileio.read_factor(cmd.argv[3] + ".truth")
                spectrum = fileio.read_spectrum(cmd.argv[3] + ".spectrum")
                # gen must reproduce the in-process oracle bit for bit.
                outcome.failed = not (
                    np.array_equal(truth.coeffs, cmd.inst.truth.coeffs)
                    and np.array_equal(spectrum.coeffs, cmd.inst.bundle.spectrum.coeffs))
                outcome.wrong = outcome.wrong or outcome.failed
            elif cmd.kind == "factor":
                x, _ = fileio.read_factor(cmd.argv[2])
                outcome.fwd_err = forward_error(x, cmd.inst.truth)
                outcome.failed = outcome.fwd_err >= FWD_ERR_GATE
            else:
                outcome.rejected = not json.loads(proc.stdout)["overall"]
                x, _ = fileio.read_factor(cmd.argv[2])
                # Exit 0 promises a passing report, and a passed factor must
                # meet the oracle gate.
                outcome.wrong = (outcome.wrong or outcome.rejected
                                 or forward_error(x, cmd.inst.truth) >= FWD_ERR_GATE)
                outcome.failed = outcome.wrong
        except (OSError, ValueError, KeyError):
            outcome.failed = True
        return outcome


def child_env() -> dict:
    """Environment for CLI children: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


WORKLOADS = {w.name: w for w in (Newton, Toeplitz, NearCircle, Cli)}
