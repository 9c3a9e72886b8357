"""Functions and lines of `src/vanishlab` that a fixed command set never runs.

    python tools/live_code.py

imports `vanishlab` and runs these commands in this one process, with
their output discarded, under `sys.settrace` limited to the files of
`src/vanishlab`:

* `campaign` with its defaults, and the seed-7 corpus at cap 2000
  (`campaign --seed 7 --count 400 --only corpus`);
* `verify-lemma sixsum`, `vs` and `duality` with their defaults;
* for every catalog member, M5, A7 and the three B4 members of order 6144:
  `construct` to a group file, then `ptable --emit-table`,
  `classify --cross-check` and `oracle --elements` on it.

It then prints `file:line name: never entered` for each function of the
package that the commands never called (lambdas, comprehensions and
generator expressions included), and `file:line name: never run` for each
line of code of a called function on which the tracer saw no `line` event.
Module and class bodies are not listed, but the functions they call at
import, such as comprehensions, count as entered.  A line counts once it
runs in any call, so a line listed holds code on a path that no command
took, and a function stops being traced once all its lines have run.  The
listing is sorted by file and line and ends with its counts.  It needs
CPython 3.11 or later (`dis` positions and the RESUME prologue).  It exits
1, after the listing, if any command exited nonzero.
"""

from __future__ import annotations

import contextlib
import dis
import inspect
import io
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanishlab"
sys.path.insert(0, str(PACKAGE.parent))

# Family members beyond the catalog, as provenances: the two named large
# groups and the (b)-case members at the top of the order cap.
LARGE_MEMBERS = [
    "family:M5",
    "family:A7",
    "family:B4_1 c_part=1",
    "family:B4_2 n=4",
    "family:B4_2 c_part=1",
]


def commands(workdir: Path) -> list[list[str]]:
    """The argument lists of the command set, group files under `workdir`."""
    from vanishlab.cli import LEMMA_CHECKS
    from vanishlab.constructions import _CATALOG

    out = [
        ["campaign"],
        ["campaign", "--seed", "7", "--count", "400", "--only", "corpus"],
        *(["verify-lemma", name] for name in LEMMA_CHECKS),
    ]
    members = [provenance for provenance, _ in _CATALOG] + LARGE_MEMBERS
    for i, provenance in enumerate(members):
        head, *params = provenance.split()
        path = str(workdir / f"{i}.grp")
        out += [
            ["construct", head.removeprefix("family:"), *params, "-o", path],
            ["ptable", path, "--emit-table"],
            ["classify", path, "--cross-check"],
            ["oracle", path, "--elements"],
        ]
    return out


def body_lines(code: CodeType) -> set[int]:
    """The lines holding instructions of `code` after its prologue, the
    instructions up to the first RESUME, which sit on the `def` line and
    raise no `line` event."""
    instructions = list(dis.get_instructions(code))
    start = next((i + 1 for i, ins in enumerate(instructions) if ins.opname == "RESUME"), 0)
    return {ins.positions.lineno for ins in instructions[start:]
            if ins.positions.lineno is not None}


def functions(path: Path) -> list[CodeType]:
    """Every function code object compiled from the module at `path`,
    nested ones included; module and class bodies are not functions."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    out = []
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            out.append(code)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return out


def trace(workdir: Path) -> tuple[dict, list[str], int]:
    """Import `vanishlab` and run the command set through `cli.main`, all
    under the tracer.  Returns the lines not run of each package function
    entered, keyed by (file, first line, qualified name), the commands that
    exited nonzero and the number of commands."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    # id(code) -> (code, lines not yet run); a package code object lives as
    # long as its module, so its id is not reused
    state = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        entry = state.get(id(code))
        if entry is None:
            entry = state[id(code)] = (code, body_lines(code))
        rest = entry[1]
        if not rest:  # every line has run: stop tracing this function
            return None

        def on_line(frame, event, arg):
            if event == "line":
                rest.discard(frame.f_lineno)
            return on_line
        return on_line

    failed = []
    sink = io.StringIO()
    sys.settrace(on_call)
    try:
        from vanishlab import cli

        if Path(cli.__file__).resolve().parent != PACKAGE:
            raise SystemExit(f"vanishlab imported from {cli.__file__}, not {PACKAGE}")
        argvs = commands(workdir)
        for argv in argvs:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            sink.seek(0)
            sink.truncate()
            if code:
                failed.append(f"exit {code}: vanishlab {' '.join(argv)}")
    finally:
        sys.settrace(None)
    entered = {(c.co_filename, c.co_firstlineno, c.co_qualname): rest
               for c, rest in state.values()}
    return entered, failed, len(argvs)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        entered, failed, count = trace(Path(workdir))
    listing = []
    for path in sorted(PACKAGE.glob("*.py")):
        where = path.relative_to(ROOT)
        for code in functions(path):
            key = (str(path), code.co_firstlineno, code.co_qualname)
            if key not in entered:
                listing.append((str(where), code.co_firstlineno, code.co_qualname,
                                "never entered"))
            else:
                listing += [(str(where), line, code.co_qualname, "never run")
                            for line in entered[key]]
    for where, line, name, what in sorted(listing):
        print(f"{where}:{line} {name}: {what}")
    never_entered = sum(what == "never entered" for *_, what in listing)
    print(f"functions never entered: {never_entered}; lines never run in entered "
          f"functions: {len(listing) - never_entered}; commands: {count}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
