"""froblab benchmark: time to verdict and throughput on a fixed, seeded job list.

    python3 bench/run.py --workload fedder-colon --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

One process, one thread, a closed loop: the next job starts when the previous
verdict returns.  A run repeats whole passes over the workload's job list
until ``--seconds`` have passed and at least MIN_SAMPLES jobs have run.
A short fixed probe runs before every job; each timing is scaled to the
reference host speed by the probes around it (``at_reference_speed``).
Every answer is checked after the timed loop.  With ``--trace 0`` the last
line of stdout carries the end-to-end metrics; with ``--trace 1`` untraced
and traced passes alternate for ``--seconds`` and the line carries the
per-layer metrics.  See bench/README.md for the names.

Exits 0 after printing the result line, 2 when froblab's sources or golden
reports are not next to the benchmark, and 1 on any other error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import spans  # noqa: E402  (the benchmark's own modules sit next to this file)
import workloads  # noqa: E402

SETUP_REPEATS = 15
MIN_SAMPLES = 100
# The probe's time at the reference host speed; a timing scaled by it reads
# in seconds at that speed.  It is about the probe's time on a quiet vCPU of
# the Xeon host the baseline was taken on.
PROBE_REF_S = 0.0025
MODULES = ("polyring", "groebner", "ideals", "quotients", "linalg", "fsing", "specfile", "reports", "cli")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "polyring.mul", "polyring.frobenius_pow", "groebner.build", "groebner.nf",
    "ideals.colon", "ideals.intersect", "ideals.eliminate", "quotients.regseq",
    "quotients.socle", "quotients.closure", "linalg.nullspace", "fsing.fedder",
    "fsing.socle_lift", "fsing.criterion", "fsing.pipeline", "specfile.load", "cli.main",
    "bench.job",
)
COUNTED = (
    "polyring.mul", "polyring.frobenius_pow", "groebner.build", "groebner.nf",
    "ideals.colon", "ideals.intersect", "linalg.nullspace",
)


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in COUNTED}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({
        "groebner.build.distinct_ratio": "ratio",
        "groebner.build.basis_polys": "count",
        "groebner.nf.zero_ratio": "ratio",
        "ideals.gb.cache_hit_ratio": "ratio",
        "quotients.closure.combinations": "count",
        "linalg.nullspace.cells": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# set-up


def fresh_import() -> SimpleNamespace:
    """Import froblab from scratch, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "froblab" or m.startswith("froblab.")]:
        del sys.modules[name]
    froblab = importlib.import_module("froblab")
    mods = {name: importlib.import_module(f"froblab.{name}") for name in MODULES}
    return SimpleNamespace(froblab=froblab, cli=mods["cli"], specfile=mods["specfile"],
                           modules={"froblab": froblab, **mods})


def setup(workload: str, seed: int, refs: dict):
    """Import froblab, generate the inputs and parse them, SETUP_REPEATS
    times; the set-up time is the median at the reference host speed, and
    the last job list is used."""
    times, probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        api = jobs = None
        gc.collect()
        started = time.perf_counter()
        api = fresh_import()
        jobs = workloads.Builder(api, ROOT, refs).build(workload, seed)
        times.append(time.perf_counter() - started)
        probes.append(probe())
    return api, jobs, statistics.median(at_reference_speed(times, probes))


# ---------------------------------------------------------------------------
# host speed


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind froblab
    does: products of two sparse polynomials held as dicts from exponent
    tuples to coefficients mod p.  The collector is off while it runs, so
    the heap that froblab leaves behind does not change its cost."""
    poly = {(i, j, 6 - i - j): 7 * i + 3 * j + 1 for i in range(7) for j in range(7 - i)}
    product: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(10):
            product.clear()
            for ma, ca in poly.items():
                for mb, cb in poly.items():
                    m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                    product[m] = (product.get(m, 0) + ca * cb) % 32003
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(durations, probes) -> list[float]:
    """Each duration scaled by PROBE_REF_S over the mean of the probes
    timed just before and just after it, ``probes[i]`` and ``probes[i + 1]``.

    The host is a few vCPUs shared with other tenants, and its speed for
    pure Python swings by half or more for stretches of seconds to minutes,
    alike for froblab and for the probe.  Scaling by the probes timed in the
    same stretch takes that swing out; froblab does not run in the probe, so
    a change to froblab moves the scaled timings as it moves the raw ones."""
    return [2 * d * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, d in enumerate(durations)]


# ---------------------------------------------------------------------------
# the closed loop


def run_passes(jobs, seconds: float = 0.0, min_samples: int = 0, passes: int | None = None, tracer=None,
               probes: list[float] | None = None):
    """Whole passes over ``jobs``: exactly ``passes`` of them, or, once
    ``min_samples`` jobs have run, up to the pass boundary nearest to
    ``seconds``.  Returns (wall seconds, per-job seconds, answers per pass).
    An answer is the job's output in canonical form, taken outside the
    timing, or the exception it raised; an answer equal to the first pass's
    is kept as that one object, so memory does not grow with the passes.
    With ``probes``, a probe runs before every job and once at the end, and
    its times are appended."""
    durations: list[float] = []
    outputs: list[list] = []
    clock = time.perf_counter
    gc.collect()
    started = clock()
    while True:
        results = []
        for job in jobs:
            if probes is not None:
                probes.append(probe())
            if tracer is not None:
                tracer.begin_job(job.name)
            t0 = clock()
            try:
                out = job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                out = exc
            durations.append(clock() - t0)
            if tracer is not None:
                tracer.end_job()
            if not isinstance(out, Exception):
                try:
                    out = job.canon(out)
                except Exception as exc:  # an output of the wrong shape fails its check
                    out = exc
                if outputs and out == outputs[0][len(results)]:
                    out = outputs[0][len(results)]
            results.append(out)
        outputs.append(results)
        if passes is not None:
            if len(outputs) >= passes:
                break
        elif len(durations) >= min_samples and nearest_boundary(clock() - started, len(outputs), seconds):
            break
    if probes is not None:
        probes.append(probe())
    return clock() - started, durations, outputs


def nearest_boundary(elapsed: float, done: int, seconds: float) -> bool:
    """True when stopping after ``done`` equal steps ends nearer to
    ``seconds`` than one more step would."""
    return elapsed + 0.5 * elapsed / done >= seconds


def check_outputs(jobs, outputs) -> list[str]:
    """One check per job on its first answer; later passes must repeat it.
    Returns one line per failed job run."""
    failures = []
    for index, job in enumerate(jobs):
        first = verdict = None
        for pass_no, results in enumerate(outputs):
            answer = results[index]
            if isinstance(answer, Exception):
                failures.append(f"{job.name} pass {pass_no}: {type(answer).__name__}: {answer}")
                continue
            if first is None:
                first, verdict = answer, job.check(answer)
            problem = verdict if answer == first else "answer differs from the first pass"
            if problem:
                failures.append(f"{job.name} pass {pass_no}: {problem}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def harrell_davis(samples, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics, the i-th of n weighted by the Beta(q(n+1), (1-q)(n+1))
    probability of ((i-1)/n, i/n].  One job's timing jitters by a tenth or
    more on a shared host; averaging the order statistics near q keeps that
    jitter out of the percentile where the sorted job costs have gaps."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8  # Simpson's rule on each interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(durations, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "jobs_per_s": len(durations) / sum(durations),
        "job_p50_s": harrell_davis(durations, 0.5),
        "job_p90_s": harrell_davis(durations, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: spans.Tracer, passes: int, njobs: int, overhead: float) -> dict:
    """Layer figures per pass over the job list."""
    NAME, JOB, PARENT, ARGS, RESULT = spans.NAME, spans.JOB, spans.PARENT, spans.ARGS, spans.RESULT
    recorded = tracer.spans
    calls = Counter(span[NAME] for span in recorded)
    self_s = tracer.self_times()
    out = {f"{name}.calls": calls[name] / passes for name in COUNTED}
    out.update({f"{name}.self_s": self_s[name] / passes for name in SELF_TIMED})

    def named(name):
        return [s for s in recorded if s[NAME] == name]

    builds = named("groebner.build")
    per_pass = [set() for _ in range(passes)]
    for key, span in zip(tracer.build_keys(), builds):
        per_pass[span[JOB] // njobs].add(key)
    out["groebner.build.distinct_ratio"] = sum(map(len, per_pass)) / len(builds) if builds else 0.0
    out["groebner.build.basis_polys"] = sum(s[RESULT] for s in builds) / passes

    nf = named("groebner.nf")
    out["groebner.nf.zero_ratio"] = sum(1 for s in nf if s[RESULT]) / len(nf) if nf else 0.0

    built_under = {s[PARENT] for s in builds}
    gb_calls = [i for i, s in enumerate(recorded) if s[NAME] == "ideals.gb"]
    hits = sum(1 for i in gb_calls if i not in built_under)
    out["ideals.gb.cache_hit_ratio"] = hits / len(gb_calls) if gb_calls else 0.0

    out["quotients.closure.combinations"] = sum(s[RESULT] for s in named("quotients.closure")) / passes
    out["linalg.nullspace.cells"] = sum(s[ARGS] for s in named("linalg.nullspace")) / passes
    out["trace.overhead_ratio"] = overhead
    return out


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def measure_plain(args, jobs, setup_s: float):
    probes: list[float] = []
    wall, durations, outputs = run_passes(jobs, args.seconds, MIN_SAMPLES, probes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(at_reference_speed(durations, probes), setup_s, peak_rss_mb)
    extra = {
        "wall_s": wall,
        "wall_jobs_per_s": len(durations) / wall,
        "probe_median_s": statistics.median(probes),
        "job_names": [job.name for job in jobs],
        "durations": durations,
        "probes": probes,
    }
    return metrics, END_TO_END, outputs, extra


def measure_traced(args, api, jobs):
    # untraced and traced passes alternate, so drift slows both sides alike
    tracer = spans.Tracer(api.modules)
    plain_wall = traced_wall = 0.0
    outputs, traced_passes = [], 0
    started = time.perf_counter()
    while not outputs or not nearest_boundary(time.perf_counter() - started, traced_passes, args.seconds):
        seconds, _, results = run_passes(jobs, passes=1)
        plain_wall += seconds
        outputs += results
        with tracer:
            seconds, _, results = run_passes(jobs, passes=1, tracer=tracer)
        traced_wall += seconds
        outputs += results
        traced_passes += 1
    metrics = per_layer(tracer, traced_passes, len(jobs), traced_wall / plain_wall)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return metrics, per_layer_units(), outputs, {}


def run_one(args) -> dict:
    phases = {}
    started = time.perf_counter()
    refs = json.loads((HERE / "refs.json").read_text())
    api, jobs, setup_s = setup(args.workload, args.seed, refs)
    phases["setup"] = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, units, outputs, extra = measure_traced(args, api, jobs)
    else:
        metrics, units, outputs, extra = measure_plain(args, jobs, setup_s)
    phases["loop"] = time.perf_counter() - started - phases["setup"]
    attempted = len(outputs) * len(jobs)
    failures = check_outputs(jobs, outputs)
    phases["checks"] = time.perf_counter() - started - phases["setup"] - phases["loop"]
    report = {
        "stamp": stamp(args),
        "jobs": len(jobs),
        "passes": len(outputs),
        "samples": attempted,
        "failures": failures,
        "phase_s": phases,
        "metrics": metrics,
        **extra,
    }
    suffix = "trace" if args.trace else "plain"
    (OUT / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(json.dumps(report, indent=1))
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("# " + json.dumps(report["stamp"], sort_keys=True))
    print("# phases " + " ".join(f"{k}={v:.2f}s" for k, v in phases.items()), file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "froblab" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"froblab sources or golden reports not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
