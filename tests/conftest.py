"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmetroids


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this copy of the package.

    Returns the stripped stdout; a nonzero exit fails the test.
    """
    src = str(Path(symmetroids.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        return done.stdout.strip()

    return run
