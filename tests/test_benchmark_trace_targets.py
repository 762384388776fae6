"""The benchmark's trace wraps froblab's functions by name from outside the
library; a renamed or deleted target would only fail under ``--trace 1``.
This installs the tracer on a fresh import and checks every target."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TARGET_COUNT = 36


def _froblab_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "froblab" or k.startswith("froblab.")}


def test_every_trace_target_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    bench_names = ("run", "spans", "workloads", "checks", "gens")
    before = {name: sys.modules.get(name) for name in bench_names}
    saved = _froblab_modules()
    try:
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
        api = run.fresh_import()
        places = []
        for targets in spans.TARGETS.values():
            for place in targets:
                owner = api.modules[place[0]]
                if len(place) == 3:
                    owner = getattr(owner, place[1])
                places.append((owner, place[-1], owner.__dict__[place[-1]]))
        assert len(places) == TARGET_COUNT

        tracer = spans.Tracer(api.modules)
        tracer.install()
        try:
            assert len(tracer._saved) == TARGET_COUNT
            for owner, attr, original in places:
                assert owner.__dict__[attr].__wrapped__ is original, attr
        finally:
            tracer.uninstall()
        for owner, attr, original in places:
            assert owner.__dict__[attr] is original, attr
    finally:
        for name in _froblab_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        for name, module in before.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
