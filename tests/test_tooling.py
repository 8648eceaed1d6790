"""Names the benchmark tracer patches must stay bound in the specfact modules.

``perfbench/tracing.py`` wraps ``(module, attribute)`` pairs by
``setattr``; a name that a refactor removes makes ``--trace 1`` fail with
``AttributeError``.  The file is loaded by path, so nothing else under
``perfbench/`` is imported.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    targets = module._TARGETS
    unbound = [(name, attribute) for name, attribute, *_ in targets
               if not hasattr(importlib.import_module(name), attribute)]
    assert targets and not unbound
