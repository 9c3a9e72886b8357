"""The three benchmark workloads.

Each workload has two halves:

* `make_inputs(seed)` is the set-up.  It runs in a fresh interpreter (see
  make_inputs.py), so set-up time includes importing vanishlab, and its
  result is plain JSON: the program receives only these generated inputs.
* `run_pass(inputs)` is one pass over the workload's entries.  It returns
  the perf_counter() start and the wall time of each entry, how many
  entries failed an exact check, and the lines the output digest is taken
  over.

All three are single-threaded closed loops in one process: an entry starts
when the previous one has finished.  See README.md for why each exists.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# The program is called through its module attributes, never through names
# imported from it, so that the wrappers tracer.py installs on the modules
# see every call a pass makes.
from vanishlab import character_lab, cli, constructions, groupfile

# The 35 catalog entries are the same at every seed, and the p95 entry
# falls among the random permutation groups that pad the corpus.  With 200
# entries the seed's draw of those groups moved p95 by 0.13-0.18 (quartile
# spread over seeds); 400 entries, 20 beyond p95, bring that to about 0.07
# for a quarter more run time.  The order cap stops below 1536: each of the two
# order-1536 catalog entries (B4_2 n=3, B2 variant=negative) takes 13-63 s
# on its own, more than one run of the benchmark may spend.  No random
# permutation group of degree <= 7 has an order between 1000 and 2000, so
# the cap removes only those two entries.
CORPUS_COUNT = 400
CORPUS_MAX_ORDER = 1000

# Exact facts about M5 = (C2^4 x C3^4):C5, order 6480.
M5_P = Fraction(133, 135)
M5_CLASSES = 264
M5_DEGREES = (1,) * 5 + (5,) * 259
M5_NONVANISHING = 96
M5_EXPONENT = 30

# One module block per prime: (first coordinate, width, prime).
M5_BLOCKS = ((0, 4, 2), (4, 4, 3))


@dataclass
class PassResult:
    entry_start: list = field(default_factory=list)
    entry_s: list = field(default_factory=list)
    failed: int = 0
    digest_lines: list = field(default_factory=list)


# -- table_m5 ---------------------------------------------------------------


def _inverse_mod(P, p):
    """Inverse of a square matrix over GF(p), or None if it is singular."""
    n = len(P)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(P)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _matmul_mod(X, Y, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*Y)]
            for row in X]


def _rebase_m5(text: str, rng: random.Random) -> str:
    """Rewrite the action matrix M of an emitted M5 as P M P^-1 for a random
    invertible block-diagonal P.  The matrix rows are the images of the
    abelian generators, so this is the same action in the basis given by
    the rows of P: the group is isomorphic, the presentation differs."""
    lines = text.splitlines()
    (k,) = [i for i, line in enumerate(lines) if line.startswith("matrix ")]
    M = [[int(x) for x in row.split()]
         for row in lines[k][len("matrix "):].split("/")]
    out = [[0] * len(M) for _ in M]
    for start, width, p in M5_BLOCKS:
        block = [row[start:start + width] for row in M[start:start + width]]
        while True:
            P = [[rng.randrange(p) for _ in range(width)] for _ in range(width)]
            P_inv = _inverse_mod(P, p)
            if P_inv is not None:
                break
        new = _matmul_mod(_matmul_mod(P, block, p), P_inv, p)
        for i, row in enumerate(new):
            out[start + i][start:start + width] = row
    lines[k] = "matrix " + " / ".join(" ".join(map(str, row)) for row in out)
    return "\n".join(lines) + "\n"


def table_inputs(seed: int):
    text = groupfile.emit_group(constructions.build_case_family("M5").group)
    return {"text": _rebase_m5(text, random.Random(seed))}


def table_pass(inputs) -> PassResult:
    """One `vanishlab ptable` computation: parse, then the exact table."""
    result = PassResult()
    start = perf_counter()
    G = groupfile.parse_group(inputs["text"])
    report = character_lab.proportion(G)
    table = character_lab.dixon_table(G)
    result.entry_start.append(start)
    result.entry_s.append(perf_counter() - start)
    facts = (
        report.proportion,
        table.classes.count,
        tuple(table.degrees),
        len(report.nonvanishing),
        G.exponent,
    )
    if facts != (M5_P, M5_CLASSES, M5_DEGREES, M5_NONVANISHING, M5_EXPONENT):
        result.failed += 1
    result.digest_lines.append(
        f"P={report.proportion} classes={table.classes.count} "
        f"sizes={table.classes.sizes} degrees={table.degrees} "
        f"vanishing_classes={table.vanishing_classes()} "
        f"nonvanishing={len(report.nonvanishing)} exponent={G.exponent}"
    )
    return result


# -- corpus -----------------------------------------------------------------


def corpus_inputs(seed: int):
    entries = constructions.random_corpus(
        seed, CORPUS_COUNT, max_order=CORPUS_MAX_ORDER
    )
    return {"provenances": [entry.provenance for entry in entries]}


def corpus_pass(inputs) -> PassResult:
    """One `vanishlab campaign` corpus row per entry, built by the campaign's
    own row function: replay, classify, oracle, then the row's invariants
    (classifier agrees with the oracle, predicted P, value set, builder
    expectations, p-group law).  The row text carries the provenance, P and
    the verdict outcome."""
    result = PassResult()
    for provenance in inputs["provenances"]:
        start = perf_counter()
        row, ok = cli._corpus_row(provenance)
        result.entry_start.append(start)
        result.entry_s.append(perf_counter() - start)
        result.failed += not ok
        result.digest_lines.append(row)
    return result


# -- lemmas -----------------------------------------------------------------


def lemma_inputs(seed: int):
    return {"argv": [
        ["verify-lemma", "sixsum", "--max-n", "4"],
        ["verify-lemma", "vs", "--max-terms", "8"],
        ["verify-lemma", "duality", "--trials", "1000", "--seed", str(seed)],
    ]}


def lemma_pass(inputs) -> PassResult:
    """`vanishlab verify-lemma` at its defaults, in-process via cli.main."""
    result = PassResult()
    for argv in inputs["argv"]:
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        result.entry_start.append(start)
        result.entry_s.append(perf_counter() - start)
        lines = out.getvalue().splitlines()
        rows = [line for line in lines if line.startswith("check=")]
        passed = (
            code == cli.EXIT_OK
            and bool(rows)
            and all(" status=pass " in row for row in rows)
            and "result=pass" in lines
        )
        result.failed += not passed
        result.digest_lines.extend(lines)
    return result


WORKLOADS = {
    "table_m5": (table_inputs, table_pass),
    "corpus": (corpus_inputs, corpus_pass),
    "lemmas": (lemma_inputs, lemma_pass),
}
