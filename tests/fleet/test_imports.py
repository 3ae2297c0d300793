"""The fleet tier stays off the evaluation stack.

A round runs in the process that drains it, so nothing under
``repro.fleet`` needs the sweep machinery of ``repro.eval`` or the baseline
methods, nor ``multiprocessing``.  Each import runs in a fresh interpreter,
where ``sys.modules`` shows everything it pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

FORBIDDEN = ("repro.eval", "repro.baselines", "multiprocessing")

PROBE = (
    "import importlib, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print('\\n'.join(sorted(sys.modules)))\n"
)


@pytest.mark.parametrize("module", ["repro.fleet", "repro.fleet.gateway"])
def test_import_loads_no_evaluation_module(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE, module],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert module in loaded
    assert [name for name in loaded if name.startswith(FORBIDDEN)] == []
