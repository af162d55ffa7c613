"""Every ``repro.*`` subpackage imports on its own, in a fresh interpreter.

The in-process suite can't see an import cycle: by the time any test
runs, ``conftest`` and earlier tests have imported ``repro.core``, which
happens to be the one order that works. One subprocess per subpackage
(plus the leaf modules PR 11's harness tripped over) pins every order.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SUBPACKAGES = sorted(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
)


@pytest.mark.parametrize(
    "module",
    SUBPACKAGES + ["repro.sharding.region", "repro.streaming.filters"],
)
def test_imports_alone(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_subpackages_found():
    assert {"repro.core", "repro.sharding", "repro.streaming"} <= set(SUBPACKAGES)
