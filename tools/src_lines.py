"""Line counts of the library modules, in the working tree and at a revision.

    python tools/src_lines.py [REV]

prints, for each `src/vanishlab/*.py` in the working tree or at REV
(default `HEAD`, read with `git show`), its line count at REV and in the
working tree, then the totals and the net change.  A module missing on one
side counts 0 lines there.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/vanishlab"


def lines_at(rev: str) -> dict[str, int]:
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    out = {}
    for name in names:
        if name.endswith(".py"):
            text = subprocess.run(
                ["git", "show", f"{rev}:{PACKAGE}/{name}"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            out[name] = len(text.splitlines())
    return out


def lines_now() -> dict[str, int]:
    return {
        path.name: len(path.read_text().splitlines())
        for path in (ROOT / PACKAGE).glob("*.py")
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/src_lines.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    then, now = lines_at(rev), lines_now()
    width = max(map(len, then | now))
    print(f"{'module':<{width}} {rev:>8} {'tree':>8} {'change':>8}")
    for name in sorted(then | now):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{name:<{width}} {a:>8} {b:>8} {b - a:>+8}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{'total':<{width}} {a:>8} {b:>8} {b - a:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
