"""Shared fixtures."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmetroids

REPO_ROOT = Path(__file__).resolve().parents[1]


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


@pytest.fixture
def repo_module():
    """Import a Python file of the repository (a script, a bench module) by its path.

    The path is relative to the repository root; each call loads a new
    module object, which is not registered in sys.modules.
    """

    def load(relative_path: str):
        path = REPO_ROOT / relative_path
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
