"""vanishlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {table_m5,corpus,lemmas} \
        --seed N --seconds S --trace {0,1}

Set-up runs in a fresh interpreter, up to SETUP_REPEATS times while less
than SETUP_BUDGET_S seconds of set-up have been measured, and setup_s is
the median.  With --trace 0 the workload's passes repeat until S
seconds have been measured (at least one pass), and the end-to-end
metrics are reported.  With --trace 1 exactly one pass runs with every
layer's entry points wrapped (tracer.py), and the per-layer metrics are
reported; one pass keeps the exact counters comparable between runs.

The end-to-end times are scaled to the nominal machine speed measured by
probe.py while they run: a pass by the samples of the whole pass, an entry
by the samples taken around it.  The raw pass time and percentiles are on
the info line.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the seed, the
pass count, the output digest and the raw times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from paths import use_checkout_source
from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
# Set-up is repeated only while it is cheap.  A full measurement (tens
# of runs per workload) has to fit in under an hour and one M5 table pass
# takes about 45 s, so the slow set-ups (M5 about 5 s, the corpus about
# 14 s) are measured once and the fast one (lemmas) three times.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
WORKLOAD_NAMES = ("table_m5", "corpus", "lemmas")


def set_up(workload: str, seed: int):
    """(median set-up seconds, repeats, inputs, whether every repeat
    produced the same inputs)."""
    seconds, inputs, agree = [], None, True
    while len(seconds) < SETUP_REPEATS and sum(seconds) < SETUP_BUDGET_S:
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed)],
            capture_output=True, text=True, check=True,
        )
        data = json.loads(proc.stdout)
        seconds.append(data["seconds"] * data["scale"])
        if inputs is not None and data["inputs"] != inputs:
            agree = False
        inputs = data["inputs"]
    return statistics.median(seconds), len(seconds), inputs, agree


def percentile_ms(values, q: int) -> float:
    """The q-th percentile in milliseconds, interpolated inside the data."""
    if len(values) == 1:
        return values[0] * 1000
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def digest(passes) -> tuple[str, bool]:
    """Digest of the first pass and whether every pass produced it."""
    digests = [
        hashlib.sha256("\n".join(p.digest_lines).encode()).hexdigest()
        for p in passes
    ]
    return digests[0], len(set(digests)) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads
    from tracer import Tracer

    run_pass = workloads.WORKLOADS[args.workload][1]
    setup_s, setup_repeats, inputs, inputs_agree = set_up(args.workload, args.seed)

    passes, pass_s, extra = [], [], ""
    if args.trace:
        tracer = Tracer()
        tracer.install("vanishlab")
        try:
            start = perf_counter()
            passes.append(run_pass(inputs))
            pass_s.append(perf_counter() - start)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(pass_s[0])
    else:
        probes = []
        begin = perf_counter()
        while not pass_s or perf_counter() - begin < args.seconds:
            with SpeedProbe() as probe:
                start = perf_counter()
                passes.append(run_pass(inputs))
                pass_s.append(perf_counter() - start)
            probes.append(probe)
        scales = [probe.scale() for probe in probes]
        entries = [t for p in passes for t in p.entry_s]
        # An entry of the corpus lasts about 0.1 s, so the scale of the
        # whole pass misses the bursts that slow single entries; over eight
        # seeds this halved the spread of the corpus p95 (0.18 to 0.09-0.11).
        norm_entries = [
            t * probe.scale_during(a, a + t)
            for p, probe in zip(passes, probes)
            for a, t in zip(p.entry_start, p.entry_s)
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_norm_s": (
                statistics.median(t * k for t, k in zip(pass_s, scales)), "s"
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "entry_p95_norm_ms": (percentile_ms(norm_entries, 95), "ms"),
        }
        # Reported but not gated: the raw times, and the median entry.  On
        # the corpus the median entry sits where the small permutation
        # groups of degree 4 and 5 meet, and how many of each a seed draws
        # moves it by about a quarter.
        extra = (
            f" run_s={statistics.median(pass_s)}"
            f" entry_p95_ms={percentile_ms(entries, 95)}"
            f" entry_p50_ms={percentile_ms(entries, 50)}"
            f" speed_scale={statistics.median(scales)}"
        )

    attempted = sum(len(p.entry_s) for p in passes)
    failed = sum(p.failed for p in passes)
    output_digest, digests_agree = digest(passes)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} entries={attempted} failed={failed} "
        f"fail_share={failed / attempted} digest={output_digest} "
        f"setup_repeats={setup_repeats} inputs_agree={inputs_agree} "
        f"digests_agree={digests_agree}{extra}"
    )
    result = {
        "correct": failed == 0 and inputs_agree and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
