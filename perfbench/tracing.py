"""In-memory spans around calls into the specfact layers.

The recorder patches module attributes, so a span covers exactly the calls
that go through the patched name: ``specfact.verify.sample_on_grid`` is the
name ``verify_all`` looks up when it samples, ``specfact.cli.factor`` the one
the CLI calls.  Nothing inside ``src/`` is changed; calls a module makes
through its own globals (``laurent`` calling itself, ``factorize`` calling
its private cores) stay invisible until the program traces itself.

Wrappers exist only inside :meth:`Tracer.installed`, so untraced runs pay
nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass

FFT_SPAN = "laurent.fft"


def _grid_of_sample_on_grid(args, kwargs):
    return int(kwargs.get("K", args[1]))


def _grid_of_values(args, kwargs):
    return int(args[0].shape[0])


# (module, attribute, span name, grid-size extractor or None)
_TARGETS = [
    ("specfact.factorize", "factor", "factorize.factor", None),
    ("specfact.factorize", "wilson_factor", "factorize.wilson_factor", None),
    ("specfact.factorize", "bauer_factor", "factorize.bauer_factor", None),
    ("specfact.factorize", "canonical_normalize", "factorize.canonical_normalize", None),
    ("specfact.factorize", "sample_on_grid", FFT_SPAN, _grid_of_sample_on_grid),
    ("specfact.factorize", "sample_values_on_grid", FFT_SPAN, _grid_of_values),
    ("specfact.factorize", "coefficients_from_values", FFT_SPAN, _grid_of_values),
    ("specfact.verify", "verify_all", "verify.verify_all", None),
    ("specfact.verify", "check_positivity", "verify.check_positivity", None),
    ("specfact.verify", "check_factorization", "verify.check_factorization", None),
    ("specfact.verify", "check_degree", "verify.check_degree", None),
    ("specfact.verify", "check_outer_determinant", "verify.check_outer_determinant", None),
    ("specfact.verify", "check_causal_identity", "verify.check_causal_identity", None),
    ("specfact.verify", "sample_on_grid", FFT_SPAN, _grid_of_sample_on_grid),
    ("specfact.verify", "coefficients_from_values", FFT_SPAN, _grid_of_values),
    ("specfact.testgen", "generate_instance", "testgen.generate", None),
    ("specfact.testgen", "generate_boundary_instance", "testgen.generate", None),
    ("specfact.testgen", "multiply_by_adjoint", "laurent.multiply_by_adjoint", None),
    ("specfact.testgen", "sample_on_grid", FFT_SPAN, _grid_of_sample_on_grid),
    ("specfact.testgen", "canonical_normalize", "factorize.canonical_normalize", None),
    ("specfact.testgen", "check_outer_determinant", "verify.check_outer_determinant", None),
    ("specfact.cli", "main", "cli.main", None),
    ("specfact.cli", "factor", "factorize.factor", None),
    ("specfact.cli", "verify_all", "verify.verify_all", None),
    ("specfact.cli", "generate_instance", "testgen.generate", None),
    ("specfact.cli", "generate_boundary_instance", "testgen.generate", None),
    ("specfact.cli", "read_spectrum", "fileio.read", None),
    ("specfact.cli", "read_factor", "fileio.read", None),
    ("specfact.cli", "write_spectrum", "fileio.write", None),
    ("specfact.cli", "write_factor", "fileio.write", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    grid: int = 0
    nbytes: int = 0


class Tracer:
    """Collects spans; ``op`` labels every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, fn, name, grid):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if grid is not None:
                    span.grid = grid(args, kwargs)
                elif name == "fileio.write":
                    span.nbytes = os.path.getsize(args[0])
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, grid in _TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, grid))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, name, parent_name=None, include=("op",)):
        """Durations (s) of spans called ``name`` whose operation label starts
        with one of ``include`` (loop operations by default), optionally only
        those whose parent is called ``parent_name``."""
        out = []
        for span in self.spans:
            if span.name != name or not span.op.startswith(include):
                continue
            if parent_name is not None and (
                    span.parent < 0 or self.spans[span.parent].name != parent_name):
                continue
            out.append(span.end - span.start)
        return out

    def self_times(self, name):
        """Self time (s) of each op span called ``name``: its duration minus
        the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [span.end - span.start - child_time[i]
                for i, span in enumerate(self.spans)
                if span.name == name and span.op.startswith("op")]

    def root_name(self, index):
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return self.spans[index].name

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
