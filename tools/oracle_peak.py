"""Time and peak memory of the character-table oracle on D8^A x C2^B.

    python tools/oracle_peak.py A B

writes the `perm` group file of D8^A x C2^B (D8 on each block of four
points, then one transposition per C2, the generators of the tests'
`d8_power`), runs `python -m vanishlab ptable --emit-table` on it in one
child process with the `src/` tree of this checkout, and prints the class
count r, the child's wall time, its peak RSS (`ru_maxrss`) and the sha256
of its `chi=` rows.  One process per group, so each peak belongs to one
table; run the groups one after another, not side by side.

`ru_maxrss` depends on allocator layout: the same code read 496 or 574 MB
at `2 7` depending on where the group file lived.  So a one-run difference
smaller than r^2 doubles does not show that a temporary was added or
removed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def group_file(copies: int, c2: int) -> str:
    gens = []
    for b in range(0, 4 * copies, 4):
        gens += [f"({b + 1} {b + 2} {b + 3} {b + 4})", f"({b + 1} {b + 3})"]
    for b in range(4 * copies, 4 * copies + 2 * c2, 2):
        gens.append(f"({b + 1} {b + 2})")
    lines = ["perm", f"degree {4 * copies + 2 * c2}", *(f"gen {g}" for g in gens)]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("copies", type=int, help="A, the number of D8 factors")
    parser.add_argument("c2", type=int, help="B, the number of C2 factors")
    args = parser.parse_args()
    if args.copies < 1 or args.c2 < 0:
        parser.error("need A >= 1 and B >= 0")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.grp"
        path.write_text(group_file(args.copies, args.c2))
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-m", "vanishlab", "ptable", "--emit-table", str(path)],
            env=env, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        return child.returncode
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    lines = child.stdout.splitlines()
    r = next(int(line.split("=")[1]) for line in lines if line.startswith("classes="))
    rows = "".join(line + "\n" for line in lines if line.startswith("chi="))
    print(
        f"group=D8^{args.copies}xC2^{args.c2} r={r} wall_s={wall:.2f} "
        f"peak_rss_mb={peak_kib / 1024:.0f} "
        f"rows_sha256={hashlib.sha256(rows.encode()).hexdigest()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
