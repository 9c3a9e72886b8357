"""Command-line front end.

Exit codes are a stable contract: 0 pass, 1 semantic mismatch, 2 parse or
parameter error, 3 size cap exceeded.  All rationals print reduced as p/q;
reports are line-oriented key=value rows and are byte-identical for
identical (inputs, seed, version).
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .abelian_core import AbelianGroup, AbSubgroup, perp, perp_dual
from .character_lab import proportion, dixon_table
from .classifier import THRESHOLD, classify_theorem_a
from .constructions import (
    BuilderError,
    build_case_family,
    random_corpus,
    replay,
)
from .cyclotomic import (
    Cyclo,
    enumerate_six_sums,
    root_of_unity,
    six_sum_classifier,
    vanishing_sum_possible,
)
from .group_engine import GroupDomainError, GroupSizeError
from .groupfile import GroupFileError, emit_group, parse_group_file

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CAP = 3

ENV_MAX_ORDER = "VANISHLAB_MAX_ORDER"
DEFAULT_MAX_ORDER = 8192

VALUE_SET = frozenset(
    {Fraction(0)} | {Fraction(m - 1, m) for m in range(2, 7)}
)


def _cap(args) -> int:
    if getattr(args, "caps", None) is not None:
        return args.caps
    env = os.environ.get(ENV_MAX_ORDER)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(
                f"{ENV_MAX_ORDER} must be an integer, got {env!r}"
            )
    return DEFAULT_MAX_ORDER


def _load_group(path: str, cap: int):
    """Returns (group, exit_code_or_None)."""
    try:
        G = parse_group_file(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return None, EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except GroupFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_CAP
    if G.order > cap:
        print(f"error: group order {G.order} exceeds cap {cap}", file=sys.stderr)
        return None, EXIT_CAP
    return G, None


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- construct -------------------------------------------------------------


def cmd_construct(args) -> int:
    params = {}
    for token in args.params:
        key, sep, value = token.partition("=")
        if not sep or not key:
            print(f"error: parameter {token!r} is not key=value", file=sys.stderr)
            return EXIT_PARSE
        params[key] = value
    try:
        entry = build_case_family(args.tag, **params)
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (BuilderError, GroupDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if entry.group.order > _cap(args):
        print(f"error: group order {entry.group.order} exceeds cap", file=sys.stderr)
        return EXIT_CAP
    text = "# " + entry.provenance + "\n" + emit_group(entry.group)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- ptable / oracle -------------------------------------------------------


def cmd_ptable(args) -> int:
    G, err = _load_group(args.groupfile, _cap(args))
    if err is not None:
        return err
    print(f"group={G.name or 'unnamed'}")
    print(f"order={G.order}")
    report = proportion(G)
    if G.is_abelian:
        print("classes=" + str(G.order))
        print("degrees=" + ",".join(["1"] * G.order))
        print("vanishing_classes=")
    else:
        table = dixon_table(G)
        data = table.classes
        print(f"classes={data.count}")
        for k in range(data.count):
            print(f"class={k} size={data.sizes[k]} rep={data.reps[k]!r}")
        print("degrees=" + ",".join(str(d) for d in table.degrees))
        print("vanishing_classes="
              + ",".join(str(k) for k in table.vanishing_classes()))
        if args.emit_table:
            for i, row in enumerate(table.rows):
                print(f"chi={i} " + " | ".join(v.render() for v in row))
    print(f"vanishing={len(report.vanishing)}")
    print(f"nonvanishing={len(report.nonvanishing)}")
    print(f"P={_frac(report.proportion)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    G, err = _load_group(args.groupfile, _cap(args))
    if err is not None:
        return err
    report = proportion(G)
    print(f"group={G.name or 'unnamed'}")
    print(f"order={G.order}")
    print(f"vanishing={len(report.vanishing)}")
    print(f"nonvanishing={len(report.nonvanishing)}")
    print(f"P={_frac(report.proportion)}")
    print(f"below_threshold={int(report.proportion < THRESHOLD)}")
    if args.elements:
        for g in sorted(report.nonvanishing, key=G.index.__getitem__):
            print(f"nonvanishing_element={g!r}")
    return EXIT_OK


# -- classify ---------------------------------------------------------------


def cmd_classify(args) -> int:
    G, err = _load_group(args.groupfile, _cap(args))
    if err is not None:
        return err
    verdict = classify_theorem_a(G)
    print(f"group={G.name or 'unnamed'}")
    print(f"order={G.order}")
    print(f"verdict={verdict.outcome}")
    for key, value in sorted(verdict.witnesses.items()):
        print(f"witness={key} {value}")
    if not args.cross_check:
        return EXIT_OK
    report = proportion(G)
    observed_below = report.proportion < THRESHOLD
    print(f"oracle_P={_frac(report.proportion)}")
    ok = verdict.below == observed_below and (
        not verdict.below or verdict.predicted_p == report.proportion
    )
    print(f"cross_check={'agree' if ok else 'disagree'}")
    return EXIT_OK if ok else EXIT_MISMATCH


# -- lemma checkers ---------------------------------------------------------


def _check_sixsum(max_n: int):
    """Exhaustive six-sum verdicts vs exact zero testing for n <= max_n."""
    for n in range(1, max_n + 1):
        census = {}
        big = 2 ** n
        for ae, be in enumerate_six_sums(n):
            eps = [root_of_unity(big, a) for a in ae]
            eta = [root_of_unity(big, b) for b in be]
            result = six_sum_classifier(n, eps, eta)
            exact_zero = result.total.is_zero()
            claims_zero = result.verdict.value.startswith("zero")
            if exact_zero != claims_zero:
                yield (f"sixsum-n{n}", False, f"mismatch at {ae}+{be}",
                       "verdict-matches-exact-zero")
                break
            census[result.verdict.value] = census.get(result.verdict.value, 0) + 1
        else:
            observed = ";".join(f"{k}:{v}" for k, v in sorted(census.items()))
            yield (f"sixsum-n{n}", True, observed, "verdict-matches-exact-zero")


def _brute_vanishing_sum(n_terms: int, m: int) -> bool:
    roots = [root_of_unity(m, k) for k in range(m)]
    for combo in itertools.combinations_with_replacement(range(m), n_terms):
        total = Cyclo.zero()
        for k in combo:
            total = total + roots[k]
        if total.is_zero():
            return True
    return False


def _check_vs(max_terms: int):
    """The feasibility predicate is never false when a sum exists."""
    for m in (2, 3, 4, 5, 6, 8, 9, 12):
        bad = []
        for n_terms in range(1, max_terms + 1):
            exists = _brute_vanishing_sum(n_terms, m)
            allowed = vanishing_sum_possible(n_terms, m)
            if exists and not allowed:
                bad.append(n_terms)
        yield (f"vs-m{m}", not bad,
               f"false-negatives={','.join(map(str, bad)) or 'none'}",
               "no-false-negatives")


def _check_duality(seed: int, trials: int):
    """Annihilator laws on random subgroups of abelian 2-groups."""
    rng = random.Random(seed)
    shapes = [(2,), (4,), (8,), (2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (4, 4, 2)]
    groups = [AbelianGroup.of(*shape) for shape in shapes]  # one element table each
    failures = 0
    for _ in range(trials):
        A = rng.choice(groups)
        gens = tuple(
            A.element(tuple(rng.randrange(d) for d in A.factor_orders))
            for _ in range(rng.randrange(3))
        )
        B = AbSubgroup(A, gens)
        Bp = perp(B)
        if B.order * Bp.order != A.order or perp_dual(Bp) != B:
            failures += 1
    yield ("duality-annihilator", failures == 0,
           f"trials={trials};failures={failures}", "perp-laws")


LEMMA_CHECKS = ("sixsum", "vs", "duality")


def _run_lemma(name: str, args):
    if name == "sixsum":
        yield from _check_sixsum(args.max_n)
    elif name == "vs":
        yield from _check_vs(args.max_terms)
    elif name == "duality":
        yield from _check_duality(args.seed, args.trials)
    else:
        raise SystemExit(f"unknown lemma check {name!r}")


def cmd_verify_lemma(args) -> int:
    print(f"version={__version__}")
    print(f"seed={args.seed}")
    all_ok = True
    for name, ok, observed, expected in _run_lemma(args.name, args):
        status = "pass" if ok else "fail"
        all_ok &= ok
        print(f"check={name} status={status} observed={observed} expected={expected}")
    print(f"result={'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# -- campaign ---------------------------------------------------------------


def _corpus_row(provenance: str) -> tuple[str, bool]:
    entry = replay(provenance)
    G = entry.group
    verdict = classify_theorem_a(G)
    report = proportion(G)
    p = report.proportion
    problems = []
    if verdict.below != (p < THRESHOLD):
        problems.append("classifier-oracle-disagree")
    if verdict.below and verdict.predicted_p != p:
        problems.append("predicted-p-mismatch")
    if p < THRESHOLD and p not in VALUE_SET:
        problems.append("value-set-violation")
    if entry.expected_p is not None and entry.expected_p != p:
        problems.append("builder-expectation-p")
    if entry.expected_case not in (None, "AtOrAbove"):
        if not verdict.below or verdict.case.value != entry.expected_case:
            problems.append("builder-expectation-case")
    elif entry.expected_case == "AtOrAbove" and verdict.below:
        problems.append("builder-expectation-case")
    # p-group law: N(G) = Z(G)
    if len(G.primes()) == 1:
        if report.nonvanishing != G.center.elements:
            problems.append("pgroup-law")
    ok = not problems
    observed = f"P={_frac(p)};verdict={verdict.outcome.replace(' ', ',')}"
    expected = ";".join(problems) if problems else "all-invariants"
    return (
        f"check=corpus status={'pass' if ok else 'fail'} name={provenance} "
        f"observed={observed} expected={expected}",
        ok,
    )


def cmd_campaign(args) -> int:
    cap = args.caps if args.caps is not None else 2000
    print(f"version={__version__}")
    print(f"seed={args.seed}")
    print(f"count={args.count}")
    print(f"caps={cap}")
    failures = 0
    checks = 0
    sections = [args.only] if args.only else ["sixsum", "vs", "duality", "corpus"]
    for section in sections:
        if section in LEMMA_CHECKS:
            ns = argparse.Namespace(
                max_n=3 if section == "sixsum" else None,
                max_terms=6, seed=args.seed, trials=200,
            )
            if args.only == "sixsum":
                ns.max_n = 4
            for name, ok, observed, expected in _run_lemma(section, ns):
                checks += 1
                failures += not ok
                status = "pass" if ok else "fail"
                print(f"check={name} status={status} observed={observed} "
                      f"expected={expected}")
        elif section == "corpus":
            entries = random_corpus(args.seed, args.count, max_order=cap)
            provs = [e.provenance for e in entries]
            if args.jobs > 1:
                import concurrent.futures

                with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
                    rows = list(pool.map(_corpus_row, provs))
            else:
                rows = [_corpus_row(p) for p in provs]
            for row, ok in rows:
                checks += 1
                failures += not ok
                print(row)
        else:
            print(f"error: unknown campaign section {args.only!r}", file=sys.stderr)
            return EXIT_PARSE
    print(f"result={'pass' if failures == 0 else 'fail'} "
          f"checks={checks} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanishlab",
        description="Exact vanishing-element proportions, structural "
                    "classification, and cross-validation for finite groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("tag", help="family tag, e.g. A, B1, B2, B4_1, B4_2, M5, "
                               "PGROUP, A7, INVERSION_NEGATIVE")
    p.add_argument("params", nargs="*", help="key=value builder parameters")
    p.add_argument("-o", "--output", help="output group file (default stdout)")
    p.add_argument("--caps", type=int, default=None, help="max group order")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ptable", help="classes, degrees and P(G)")
    p.add_argument("groupfile")
    p.add_argument("--emit-table", action="store_true",
                   help="also print exact character values")
    p.add_argument("--caps", type=int, default=None)
    p.set_defaults(func=cmd_ptable)

    p = sub.add_parser("classify", help="structural classification verdict")
    p.add_argument("groupfile")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the character-table computation and "
                        "exit 1 on disagreement")
    p.add_argument("--caps", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="character-table vanishing census only")
    p.add_argument("groupfile")
    p.add_argument("--elements", action="store_true",
                   help="list the nonvanishing elements")
    p.add_argument("--caps", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify-lemma", help="run one named checker")
    p.add_argument("name", choices=LEMMA_CHECKS)
    p.add_argument("--max-n", type=int, default=4,
                   help="six-sum exhaustive bound (order 2^n)")
    p.add_argument("--max-terms", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("campaign", help="full verification campaign")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--only", default=None,
                   help="run a single section: sixsum, vs, duality, corpus")
    p.add_argument("--caps", type=int, default=None,
                   help="max corpus group order (default 2000)")
    p.add_argument("--jobs", type=int, default=1,
                   help="corpus workers (entries are independent)")
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GroupSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
