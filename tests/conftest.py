"""Fixtures shared by the tests of the benchmark under ``bench/``."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _froblab_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "froblab" or k.startswith("froblab.")}


@pytest.fixture
def bench(monkeypatch):
    """(the bench ``run`` module, the bench ``spans`` module, a fresh froblab
    import); the modules imported before are put back afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    bench_names = ("run", "spans", "workloads", "checks", "gens")
    before = {name: sys.modules.get(name) for name in bench_names}
    saved = _froblab_modules()
    try:
        run = importlib.import_module("run")
        yield run, importlib.import_module("spans"), run.fresh_import()
    finally:
        for name in _froblab_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        for name, module in before.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
