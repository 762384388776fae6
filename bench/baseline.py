"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/baseline.py --seeds 1-10
    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_0.json

Each (workload, seed) runs in its own process through bench/run.py with the
run length from BENCHMARK.json.  For every end-to-end metric the summary
gives the median and quartiles over the seeds and the quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound.  ``--out`` writes the summary, the raw results and the
provenance stamp as one JSON trend point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2][2:]) if len(lines) > 1 and lines[-2].startswith("# ") else {}
    return json.loads(lines[-1]), stamp, time.perf_counter() - started


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary, raw, stamp = {}, {}, {}
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in seeds:
            result, stamp, elapsed = run(workload, seed, config["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed of {result['attempted']}")
            results.append(result)
            print(f"{workload} seed {seed} ({elapsed:.0f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        raw[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + ("  WIDE" if stats["spread"] > bound / 3 else "")
            print(f"  {workload:18s} {name:32s} median {stats['median']:.5g} {stats['unit']}"
                  f"  spread {stats['spread']:.3f}{flag}", flush=True)
    if args.out:
        stamp = {k: v for k, v in stamp.items() if k not in ("seed", "workload")}
        Path(args.out).write_text(json.dumps(
            {"stamp": stamp, "seeds": seeds, "summary": summary, "runs": raw}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
