"""Shared test set-up.

``pyproject.toml`` puts ``src`` on the test process's ``sys.path``; this puts
it on ``PYTHONPATH`` as well, so ``python -m specfact`` subprocesses started
by tests import the same in-tree package on a checkout where specfact is not
installed.
"""

import os
import pathlib

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
