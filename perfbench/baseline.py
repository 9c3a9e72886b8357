"""Measure a baseline and check that the benchmark is steady.

    python3 perfbench/baseline.py

Takes two sets of untraced runs of run.py, each over seeds 1-10.  Inside
a set the workloads alternate (seed 1 of every workload, then seed 2, ...),
so a slow stretch of the machine falls on all of them.  Per workload and
end-to-end metric it reports, for each set, the median and the quartile
spread (q3 - q1) / median from statistics.quantiles(values, n=4), and the
relative difference between the two medians, next to the metric's bound
from BENCHMARK.json.  Two traced runs of seed 1 per workload follow.  From
them it reports the tracing overhead (traced run_s over the median raw
untraced pass time of the same seed in the two sets), the unattributed
remainder, and whether the exact counters and digests repeated.  The
environment (CPUs, CPython, numpy, L2/L3 sizes from lscpu) is recorded
too.  The report is written to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from paths import ROOT

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SETS = 2
OUTPUT = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = dict(token.split("=", 1) for token in lines[-2].split())
    result["info"] = info
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> dict:
    import numpy

    caches = {}
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return {
        "nproc": os.cpu_count(),
        "cpython": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": caches.get("Model name"),
        "l2": caches.get("L2 cache"),
        "l3": caches.get("L3 cache"),
    }


def end_to_end(sets: list[list[dict]], spec: dict) -> dict:
    """Per metric: each set's median, spread and values, and how far the
    second median lies from the first, next to the bound."""
    metrics = {}
    for m in spec["end_to_end"]:
        per_set = []
        for runs in sets:
            values = [r["metrics"][m["name"]] for r in runs]
            per_set.append({
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            })
        first, second = per_set[0]["median"], per_set[-1]["median"]
        difference = (second - first) / first
        metrics[m["name"]] = {
            "unit": m["unit"],
            "bound": m["bound"],
            "sets": per_set,
            "median_difference": difference,
            "spreads_within_bound": all(s["spread"] <= m["bound"] for s in per_set),
            "spreads_below_third": all(s["spread"] < m["bound"] / 3 for s in per_set),
            "medians_agree": abs(difference) <= m["bound"],
        }
    return metrics


def traced(workload: str, untraced: list[dict], spec: dict) -> dict:
    """Two traced runs of the seed of the `untraced` runs, compared with
    them."""
    seed = int(untraced[0]["info"]["seed"])
    runs = [run_once(workload, seed, spec["run_seconds"], 1) for _ in range(2)]
    counts = [
        {m["name"]: t["metrics"][m["name"]] for m in spec["per_layer"]
         if m["unit"] == "count"}
        for t in runs
    ]
    layer = runs[0]["metrics"]
    untraced_run_s = statistics.median(float(u["info"]["run_s"])
                                       for u in untraced)
    time_sum = sum(v for k, v in layer.items()
                   if k.endswith("_s") and not k.startswith("trace."))
    return {
        "seed": seed,
        "correct": all(t["correct"] for t in runs),
        "digest_repeats": all(
            t["info"]["digest"] == untraced[0]["info"]["digest"] for t in runs
        ),
        "counters_repeat": counts[0] == counts[1],
        "overhead": [t["metrics"]["trace.run_s"] / untraced_run_s - 1
                     for t in runs],
        "unattributed_share": layer["trace.unattributed_s"] / layer["trace.run_s"],
        "sum_check": (time_sum + layer["trace.unattributed_s"])
        / layer["trace.run_s"],
        "per_layer": layer,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [[] for _ in range(SETS)] for name in names}
    for k in range(SETS):
        for seed in SEEDS:
            for name in names:
                runs[name][k].append(
                    run_once(name, seed, spec["run_seconds"], 0)
                )
    report = {"environment": environment(), "seeds": list(SEEDS),
              "workloads": {}}
    for name in names:
        sets = runs[name]
        every = [r for runs_of_set in sets for r in runs_of_set]
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "digests": {str(s): r["info"]["digest"]
                        for s, r in zip(SEEDS, sets[0])},
            "digests_repeat": all(
                a["info"]["digest"] == b["info"]["digest"]
                for a, b in zip(sets[0], sets[1])
            ),
            "raw_run_s": [[float(r["info"]["run_s"]) for r in s] for s in sets],
            "speed_scale": [[float(r["info"]["speed_scale"]) for r in s]
                            for s in sets],
            "end_to_end": end_to_end(sets, spec),
            "trace": traced(name, [s[0] for s in sets], spec),
        }
        print(json.dumps({name: {
            k: ([round(s["spread"], 4) for s in v["sets"]],
                round(v["median_difference"], 4))
            for k, v in report["workloads"][name]["end_to_end"].items()
        }}), flush=True)
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
