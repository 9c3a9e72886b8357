"""Locate the program under test: the `src/` tree of this checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Import vanishlab from this checkout's src/, or exit with code 2."""
    if not (SRC / "vanishlab" / "__init__.py").is_file():
        print(f"perfbench: no vanishlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
