"""The benchmark's own self-check, run as a subprocess: a library change that
breaks what the benchmark's answer checks expect (such as the number of
socle combinations a closure report counts) fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

SELFCHECK = Path(__file__).resolve().parent.parent / "bench" / "selfcheck.py"


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFCHECK)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
