"""Alternating before/after pairs of the benchmark, one workload at a time.

    python tools/bench_pairs.py DIR_A DIR_B --workload W --seeds 1-5

runs `perfbench/run.py --workload W --seed N --seconds S` once in each of
the two checkouts DIR_A (before) and DIR_B (after) for every seed N in the
range, one run at a time: the pair of an odd seed runs A first, the pair of
an even seed B first.  S is `run_seconds` of DIR_A's BENCHMARK.json, so
both sides run as long as the benchmark says.  It prints one line per run,
then, for each end-to-end metric of BENCHMARK.json, each side's median and
interquartile range (IQR) and the pairs B wins, loses and ties, by the
metric's own direction.  A run whose result is not `correct` is reported
and counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """'1-5' or '3' as a list of seeds."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="checkout A")
    parser.add_argument("after", type=Path, help="checkout B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-5"),
                        help="seed range, e.g. 1-10 (default 1-5)")
    args = parser.parse_args(argv)

    spec = json.loads((args.before / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"A": args.before.resolve(), "B": args.after.resolve()}
    pairs = []
    for seed in args.seeds:
        pair = {}
        for side in ("AB" if seed % 2 else "BA"):
            result = run_once(sides[side], args.workload, seed, spec["run_seconds"])
            values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            shown = " ".join(f"{name}={value:.4g}" for name, value in values.items())
            print(f"seed={seed} side={side} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
            if result["correct"]:
                pair[side] = values
        pairs.append(pair)

    print(f"\nworkload={args.workload} seeds={args.seeds[0]}-{args.seeds[-1]} "
          f"seconds={spec['run_seconds']}")
    print(f"{'metric':<18} {'A median':>10} {'A IQR':>9} {'B median':>10} "
          f"{'B IQR':>9} {'change':>8}  B wins/losses/ties")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        both = [(p["A"][name], p["B"][name]) for p in pairs if len(p) == 2]
        if not both:
            print(f"{name:<18} no complete pair")
            continue
        a, b = [x for x, _ in both], [y for _, y in both]
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum(sign * (y - x) < 0 for x, y in both)
        losses = sum(sign * (y - x) > 0 for x, y in both)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{name:<18} {ma:>10.4g} {a3 - a1:>9.3g} {mb:>10.4g} {b3 - b1:>9.3g} "
              f"{change:>8}  {wins}/{losses}/{len(both) - wins - losses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
