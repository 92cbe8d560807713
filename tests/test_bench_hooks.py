"""The benchmark's hooks into the package still hold.

``bench/tracer.py`` wraps dpcolor functions by module and attribute name, and
``bench/selfcheck.py`` runs a few quick dpcolor commands through the
benchmark's answer checks, so renaming a traced function or changing a printed
line fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracer._POINTS])
def test_traced_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"dpcolor.{module}"), attr))


def test_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selfcheck.py")], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
