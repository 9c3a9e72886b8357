"""One benchmark record of this checkout, written as a JSON file.

    python tools/bench.py OUT.json

runs, one process at a time, in the checkout that holds this script:

* `perfbench/run.py` as it is, for every workload of BENCHMARK.json at
  seeds 1-3, once untraced (`--seconds` = its `run_seconds`) and once with
  `--trace 1`, keeping every metric of the result line;
* the end-to-end commands that perfbench lacks, three runs each, timed as
  child processes (wall time and the child's own peak RSS): `ptable` of
  A7, `classify` of the three b4.x members of order 6144, the default
  `campaign`, and `tools/oracle_peak.py` on D8^4 x C2 (r = 1250) and
  D8^3 x C2^4 (r = 2000), which also reports its rows digest;
* tier-1 (`python -m pytest -q`) once, with its wall time and counts.

OUT.json records the commit (and whether the working tree differs from
it), nproc, the Python, numpy and BLAS versions, and one entry per run:
the workload, the seed (perfbench) or run number (the other commands),
whether the run was correct, and every metric with its unit.  It exits 1
if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
RUNS = 3
B4_MEMBERS = (
    ("B4_1", "k=1", "c_part=1"),
    ("B4_2", "n=3", "k=1", "c_part=1"),
    ("B4_2", "n=4", "k=1", "c_part=0"),
)
ORACLE_PEAK_GROUPS = ((4, 1), (3, 4))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git("rev-parse", "HEAD"),
        "tree_differs": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def child(argv: list[str]) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, peak RSS in MB, output) of one child
    process run in ROOT with this checkout's `src/` on the path; the peak
    is the child's own, read with wait4."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, wall, usage.ru_maxrss / 1024, out.read()


def perfbench_runs(spec: dict) -> list[dict]:
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                code, _, _, out = child([
                    sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(trace)])
                result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
                runs.append({
                    "workload": workload, "trace": trace, "seed": seed,
                    "correct": bool(result.get("correct")),
                    "attempted": result.get("attempted"), "failed": result.get("failed"),
                    "metrics": result.get("metrics", {}),
                })
                print(f"perfbench {workload} seed={seed} trace={trace} "
                      f"correct={runs[-1]['correct']}", file=sys.stderr)
    return runs


def timed(workload: str, argv: list[str], run: int) -> tuple[dict, str]:
    code, wall, peak, out = child(argv)
    entry = {
        "workload": workload, "run": run, "correct": code == 0,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": peak, "unit": "MB"}},
    }
    if code != 0:
        sys.stderr.write(out)
    print(f"{workload} run={run} wall_s={wall:.3f} exit={code}", file=sys.stderr)
    return entry, out


def command_runs(tmp: Path) -> list[dict]:
    cli = [sys.executable, "-m", "vanishlab"]
    commands = []
    for member in [("A7",), *B4_MEMBERS]:
        path = tmp / ("_".join(member) + ".grp")
        subprocess.run([*cli, "construct", *member, "-o", str(path)], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        verb = "ptable" if member == ("A7",) else "classify"
        commands.append((f"{verb} {' '.join(member)}", [*cli, verb, str(path)]))
    commands.append(("campaign", [*cli, "campaign"]))
    runs = []
    for run in range(1, RUNS + 1):
        for workload, argv in commands:
            runs.append(timed(workload, argv, run)[0])
        for copies, c2 in ORACLE_PEAK_GROUPS:
            entry, out = timed(f"oracle_peak {copies} {c2}", [
                sys.executable, "tools/oracle_peak.py", str(copies), str(c2)], run)
            # the table's own wall time and peak, as oracle_peak reports them
            fields = dict(re.findall(r"(\w+)=(\S+)", out))
            if entry["correct"]:
                entry["r"] = int(fields["r"])
                entry["rows_sha256"] = fields["rows_sha256"]
                entry["metrics"] = {
                    "wall_s": {"value": float(fields["wall_s"]), "unit": "s"},
                    "peak_rss_mb": {"value": float(fields["peak_rss_mb"]), "unit": "MB"},
                }
            runs.append(entry)
    return runs


def tier1_run() -> dict:
    entry, out = timed("tier-1", [sys.executable, "-m", "pytest", "-q",
                                  "-p", "no:cacheprovider"], 1)
    counts = dict((k, int(n)) for n, k in re.findall(r"(\d+) (passed|failed|error)", out))
    entry["counts"] = counts
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = environment()
    with tempfile.TemporaryDirectory() as tmp:
        record["runs"] = perfbench_runs(spec) + command_runs(Path(tmp)) + [tier1_run()]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run["correct"] for run in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
