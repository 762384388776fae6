"""The benchmark's own self-check, run as a subprocess: a library change that
breaks what the benchmark's answer checks expect (such as the number of
socle combinations a closure report counts) fails here.  The benchmark's
answer checks are also run on the library's current outputs, since the
benchmark itself reports a failed check without exiting non-zero."""

import importlib
import json
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


def test_every_benchmark_job_passes_its_answer_check(bench):
    """Every job of each workload at seed 11, run once on a fresh import."""
    run, _, api = bench
    workloads = importlib.import_module("workloads")
    refs = json.loads((run.HERE / "refs.json").read_text())
    failures = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.Builder(api, run.ROOT, refs).build(workload, 11):
            problem = job.check(job.canon(job.run()))
            if problem is not None:
                failures[f"{workload}/{job.name}"] = problem
    assert failures == {}
