"""Every module imports cleanly as the first import of a fresh interpreter.

``repro.synthesis.portfolio`` and ``repro.eval.parallel`` import each
other's packages, so a module-scope import between them only works in
some orders.  Importing each entry point first, in its own process,
catches a reordered ``__init__`` or a new module-scope import that
lands on a partially initialized module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FIRST_IMPORTS = (
    "repro.defaults",
    "repro.eval.parallel",
    "repro.eval.serialize",
    "repro.synthesis.portfolio",
    "repro.synthesis.generator",
    "repro.service.spec",
    "repro.cli",
)


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_module_imports_first(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
