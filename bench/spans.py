"""Spans around froblab's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function at every name through which
callers reach it (a module attribute, a name imported into another module,
or a method or dunder on a class) with a wrapper that records one span per
call: name, job id, parent span, start and end.  ``uninstall`` puts the
originals back.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans;
calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import collections
import gzip
import json
import time

# span name -> [(module, attribute)] or [(module, class, attribute)]
TARGETS = {
    "polyring.mul": [("polyring", "Polynomial", "__mul__"), ("polyring", "Polynomial", "__rmul__")],
    "polyring.frobenius_pow": [("polyring", "Polynomial", "frobenius_pow")],
    "groebner.build": [
        ("froblab", "buchberger"), ("groebner", "buchberger"),
        ("froblab", "groebner_basis_of"), ("groebner", "groebner_basis_of"),
        ("ideals", "groebner_basis_of"),
    ],
    "groebner.nf": [("groebner", "GroebnerBasis", "normal_form")],
    "ideals.gb": [("ideals", "Ideal", "groebner_basis")],
    "ideals.colon": [("ideals", "Ideal", "colon")],
    "ideals.intersect": [("ideals", "Ideal", "intersect")],
    "ideals.eliminate": [("ideals", "Ideal", "eliminate")],
    "quotients.regseq": [
        ("quotients", "QuotientPresentation", "is_regular_sequence"),
        ("quotients", "QuotientPresentation", "is_nzd"),
    ],
    "quotients.socle": [("quotients", "QuotientPresentation", "socle")],
    "quotients.closure": [("quotients", "QuotientPresentation", "frobenius_closure_test")],
    "linalg.nullspace": [("linalg", "nullspace"), ("quotients", "nullspace")],
    "fsing.fedder": [("froblab", "fedder_f_pure"), ("fsing", "fedder_f_pure"), ("cli", "fedder_f_pure")],
    "fsing.socle_lift": [("froblab", "socle_lift"), ("fsing", "socle_lift")],
    "fsing.criterion": [
        ("froblab", "cover_f_injectivity_criterion"), ("fsing", "cover_f_injectivity_criterion"),
        ("cli", "cover_f_injectivity_criterion"),
        ("froblab", "even_char_degeneracy_check"), ("fsing", "even_char_degeneracy_check"),
        ("cli", "even_char_degeneracy_check"),
    ],
    "fsing.pipeline": [("froblab", "run_cover_pipeline"), ("fsing", "run_cover_pipeline"), ("cli", "run_cover_pipeline")],
    "specfile.load": [("specfile", "load_ring_spec"), ("cli", "load_ring_spec")],
    "cli.main": [("cli", "main")],
}

# span name -> what to keep from a call besides its times; polynomials are
# immutable, so keeping the arguments of a build is enough for its content key
_ARGS_KEPT = {
    "groebner.build": lambda args: args,
    "linalg.nullspace": lambda args: len(args[0]) * args[1],
}
_RESULT_KEPT = {
    "groebner.build": lambda result: len(result.polys),
    "groebner.nf": lambda result: result.is_zero,
    "quotients.closure": lambda result: result.combinations_tested,
}

# span fields
NAME, JOB, PARENT, START, END, ARGS, RESULT = range(7)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module ("froblab", "polyring", ...)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_job(self, name: str) -> None:
        """Open the root span of the next job; jobs are numbered from 0."""
        self.job += 1
        self.stack.append(len(self.spans))
        self.spans.append([f"job:{name}", self.job, -1, time.perf_counter(), 0.0, None, None])

    def end_job(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep_args = _ARGS_KEPT.get(name)
        keep_result = _RESULT_KEPT.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, tracer.job, stack[-1] if stack else -1, 0.0, 0.0,
                    keep_args(args) if keep_args else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result is not None:
                span[RESULT] = keep_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, places in TARGETS.items():
            for place in places:
                owner = self.modules[place[0]]
                if len(place) == 3:
                    owner = getattr(owner, place[1])
                attr = place[-1]
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds summed per span name (job spans under "bench.job")."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = collections.Counter()
        for i, span in enumerate(self.spans):
            key = "bench.job" if span[NAME].startswith("job:") else span[NAME]
            out[key] += span[END] - span[START] - child[i]
        return out

    def build_keys(self) -> list:
        """Content key (ring, order, generators) of every build span."""
        keys = []
        for span in self.spans:
            if span[NAME] != "groebner.build":
                continue
            args = span[ARGS]
            if hasattr(args[0], "nvars"):  # groebner_basis_of(ring, generators, order, ...)
                ring, generators, rest = args[0], args[1], args[2:]
            else:  # buchberger(generators, order, ...)
                generators, rest = args[0], args[1:]
                ring = next(g.ring for g in generators if not g.is_zero)
            order = rest[0] if rest and rest[0] is not None else ring.order
            keys.append((ring, order, tuple(g for g in generators if not g.is_zero)))
        return keys

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span[NAME], "job": span[JOB], "parent": span[PARENT],
                    "start": span[START], "end": span[END],
                }) + "\n")
