"""Command-line front end.

Exit codes are a stable contract: 0 pass, 1 semantic mismatch, 2 parse or
parameter error, 3 size cap exceeded.  All rationals print reduced as p/q;
reports are line-oriented key=value rows and are byte-identical for
identical (inputs, seed, version).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__
from .abelian_core import AbelianGroup, AbSubgroup, perp, perp_dual
from .character_lab import dixon_table, proportion
from .classifier import THRESHOLD, classify_theorem_a
from .constructions import (
    CORPUS_MAX_ORDER,
    BuilderError,
    build_case_family,
    random_corpus,
    replay,
)
from .cyclotomic import (
    SIX_SUM_VERDICTS,
    reduction_matrix,
    root_of_unity,
    six_sum_inputs,
    six_sum_verdicts,
    vanishing_sum_possible,
)
from .group_engine import MAX_GROUP_ORDER, GroupDomainError, GroupSizeError
from .groupfile import GroupFileError, emit_group, parse_group_file

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CAP = 3

ENV_MAX_ORDER = "VANISHLAB_MAX_ORDER"

# inputs per `six_sum_verdicts` call of the six-sum check, so that one
# block's arrays stay in cache
_SIXSUM_BLOCK_ROWS = 1 << 11

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
            print(f"error: {ENV_MAX_ORDER} must be an integer, got {env!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_PARSE) from None
    return MAX_GROUP_ORDER


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
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_PARSE
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
            print(f"class={k} size={data.sizes[k]} rep={G.elements[data.reps[k]]!r}")
        print("degrees=" + ",".join(str(d) for d in table.degrees))
        print("vanishing_classes="
              + ",".join(str(k) for k in table.vanishing_classes()))
        if args.emit_table:
            rendered = [v.render() for v in table.values]
            for i, row in enumerate(table.ids.tolist()):
                print(f"chi={i} " + " | ".join(rendered[t] for t in row))
    _print_census(G, report)
    return EXIT_OK


def _print_census(G, report) -> None:
    vanishing = int(report.vanishing_mask.sum())
    print(f"vanishing={vanishing}")
    print(f"nonvanishing={G.order - vanishing}")
    print(f"P={_frac(report.proportion)}")


def cmd_oracle(args) -> int:
    G, err = _load_group(args.groupfile, _cap(args))
    if err is not None:
        return err
    report = proportion(G)
    print(f"group={G.name or 'unnamed'}")
    print(f"order={G.order}")
    _print_census(G, report)
    print(f"below_threshold={int(report.proportion < THRESHOLD)}")
    if args.elements:
        for i in np.flatnonzero(~report.vanishing_mask).tolist():
            print(f"nonvanishing_element={G.elements[i]!r}")
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
    print(f"oracle_P={_frac(report.proportion)}")
    ok = not _disagreements(verdict, report.proportion)
    print(f"cross_check={'agree' if ok else 'disagree'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _disagreements(verdict, p: Fraction) -> list[str]:
    """How a classifier verdict and the oracle's P(G) disagree: Below
    exactly when P < THRESHOLD, and a Below verdict predicts P."""
    problems = []
    if verdict.below != (p < THRESHOLD):
        problems.append("classifier-oracle-disagree")
    if verdict.below and verdict.predicted_p != p:
        problems.append("predicted-p-mismatch")
    return problems


# -- lemma checkers ---------------------------------------------------------


def _check_sixsum(max_n: int):
    """Checks every admissible six-sum over U_(2^n), n <= max_n: its
    `six_sum_verdicts` code against an exact zero test that does not use
    the classifier's fold.  The sum's exponent counts times the power table
    of Phi_(2^n) are its integer coefficients in the power basis, all zero
    exactly when the sum is.  The counts of a sum are those of its eps
    triple plus those of its eta triple, so the sum is zero exactly when
    the eta triple's coefficients are the negated eps triple's: each
    triple's coefficient vector and its negation get ids into their
    distinct rows, and a sum is zero when two ids agree.  One block holds
    about _SIXSUM_BLOCK_ROWS inputs, consecutive eps triples each against
    every eta triple, in enumeration order, and a mismatch reports its
    first input."""
    claims_zero = np.array([v.value.startswith("zero") for v in SIX_SUM_VERDICTS])
    for n in range(1, max_n + 1):
        big = 2 ** n
        triples = six_sum_inputs(n)
        cells = np.arange(len(triples))[:, None] * big + triples
        counts = np.bincount(cells.ravel(), minlength=len(triples) * big)
        coeffs = counts.reshape(-1, big) @ reduction_matrix(big)
        _, ids = np.unique(np.concatenate([coeffs, -coeffs]), axis=0, return_inverse=True)
        ids, negated_ids = ids[:len(triples)], ids[len(triples):]
        step = max(1, _SIXSUM_BLOCK_ROWS // len(triples))
        census = np.zeros(len(SIX_SUM_VERDICTS), dtype=np.int64)
        for start in range(0, len(triples), step):
            eps = triples[start:start + step]
            codes = six_sum_verdicts(n, np.repeat(eps, len(triples), axis=0),
                                     np.tile(triples, (len(eps), 1)))
            exact_zero = (negated_ids[start:start + step, None] == ids).ravel()
            bad = np.flatnonzero(exact_zero != claims_zero[codes])
            if len(bad):
                i, j = divmod(bad[0], len(triples))
                ae, be = tuple(eps[i].tolist()), tuple(triples[j].tolist())
                yield (f"sixsum-n{n}", False, f"mismatch at {ae}+{be}",
                       "verdict-matches-exact-zero")
                break
            census += np.bincount(codes, minlength=len(census))
        else:
            found = sorted((verdict.value, count) for verdict, count
                           in zip(SIX_SUM_VERDICTS, census.tolist()) if count)
            observed = ";".join(f"{k}:{v}" for k, v in found)
            yield (f"sixsum-n{n}", True, observed, "verdict-matches-exact-zero")


def _sum_levels(m: int, max_terms: int):
    """For n = 1, ..., max_terms, the distinct sums of n elements of U_m
    (with repetition), as sorted integer keys of their power-basis
    coefficients.

    A sum of at most max_terms roots has coefficients |c_j| <= bound, that
    many times the largest root coefficient.  On such coefficients the key
    sum_j c_j base^j, base = 2 bound + 1, is injective and linear, so the
    keys of length n + 1 are those of length n plus the key of each root,
    and a sum is zero exactly when its key is.  Every key lies within
    (base^phi - 1) / 2 in size: the keys take the smallest integer type
    that holds that, and int64 is a checked bound."""
    roots = np.array([root_of_unity(m, k).lift(m).coeffs for k in range(m)],
                     dtype=np.int64)
    phi = roots.shape[1]
    base = 2 * max_terms * int(np.abs(roots).max()) + 1
    if base ** phi > 2 ** 64:
        raise OverflowError(f"vanishing-sum keys for m={m} exceed int64")
    key_type = np.min_scalar_type(-(base ** phi // 2))
    root_keys = (roots @ base ** np.arange(phi, dtype=np.int64)).astype(key_type)
    level = np.zeros(1, dtype=key_type)  # the empty sum
    for _ in range(max_terms):
        level = (level[:, None] + root_keys).ravel()
        level.sort()
        level = level[np.concatenate(([True], level[1:] != level[:-1]))]
        yield level


def _check_vs(max_terms: int):
    """The feasibility predicate is never false when a sum exists.  Every
    multiset of at most max_terms roots is covered: the distinct sums of
    each length, exact integers in the power basis, hold the zero vector
    exactly when a vanishing sum of that length exists."""
    for m in (2, 3, 4, 5, 6, 8, 9, 12):
        bad = []
        for n_terms, level in enumerate(_sum_levels(m, max_terms), start=1):
            exists = bool((level == 0).any())
            allowed = vanishing_sum_possible(n_terms, m)
            if exists and not allowed:
                bad.append(n_terms)
        yield (f"vs-m{m}", not bad,
               f"false-negatives={','.join(map(str, bad)) or 'none'}",
               "no-false-negatives")


DUALITY_SHAPES = ((2,), (4,), (8,), (2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (4, 4, 2))


def _check_duality(seed: int, trials: int):
    """Annihilator laws |B| |B^perp| = |A| and (B^perp)^perp = B on random
    subgroups B of abelian 2-groups.  Each trial draws a shape and up to two
    generators.  Draws with the same shape and the same nonzero generators
    are closed once; equal subgroups are checked once, in the order first
    drawn, and a failing one counts once per trial that drew it."""
    rng = random.Random(seed)
    groups = [AbelianGroup.of(*shape) for shape in DUALITY_SHAPES]  # one table each
    draws = {}
    for _ in range(trials):
        A = rng.choice(groups)
        rows = [
            tuple(rng.randrange(d) for d in A.factor_orders)
            for _ in range(rng.randrange(3))
        ]
        key = (A, frozenset(row for row in rows if any(row)))
        draws[key] = draws.get(key, 0) + 1
    subgroups = {}
    for (A, rows), count in draws.items():
        B = AbSubgroup(A, A.index_of(np.reshape(sorted(rows), (-1, A.rank))))
        subgroups[B] = subgroups.get(B, 0) + count
    failures = 0
    for B, count in subgroups.items():
        Bp = perp(B)
        if B.order * Bp.order != B.parent.order or perp_dual(Bp) != B:
            failures += count
    yield ("duality-annihilator", failures == 0,
           f"trials={trials};failures={failures}", "perp-laws")


LEMMA_CHECKS = ("sixsum", "vs", "duality")


def _run_lemma(name: str, args):
    if name == "sixsum":
        yield from _check_sixsum(args.max_n)
    elif name == "vs":
        yield from _check_vs(args.max_terms)
    else:  # duality; argparse admits LEMMA_CHECKS only
        yield from _check_duality(args.seed, args.trials)


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
    problems = _disagreements(verdict, p)
    if p < THRESHOLD and p not in VALUE_SET:
        problems.append("value-set-violation")
    if entry.expected_p is not None and entry.expected_p != p:
        problems.append("builder-expectation-p")
    found = verdict.case.value if verdict.below else "AtOrAbove"
    if entry.expected_case not in (None, found):
        problems.append("builder-expectation-case")
    # p-group law: N(G) = Z(G)
    if len(G.primes()) == 1:
        if not np.array_equal(~report.vanishing_mask, G.center.mask):
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
    cap = args.caps
    print(f"version={__version__}")
    print(f"seed={args.seed}")
    print(f"count={args.count}")
    print(f"caps={cap}")
    failures = 0
    checks = 0
    sections = [args.only] if args.only else [*LEMMA_CHECKS, "corpus"]
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
        else:  # corpus; argparse admits no other section
            draws = random_corpus(args.seed, args.count, max_order=cap)
            provs = [d.provenance for d in draws]
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
    print(f"result={'pass' if failures == 0 else 'fail'} "
          f"checks={checks} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# -- argument parsing -------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


@cache  # parsing never changes the parser, so one serves every call
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
    p.add_argument("--max-n", type=_positive_int, default=4,
                   help="six-sum exhaustive bound (order 2^n)")
    p.add_argument("--max-terms", type=_positive_int, default=8)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("campaign", help="full verification campaign")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=_positive_int, default=200)
    p.add_argument("--only", default=None, choices=(*LEMMA_CHECKS, "corpus"),
                   help="run a single section")
    # a random group has order at least 2
    p.add_argument("--caps", type=_int_at_least(2), default=CORPUS_MAX_ORDER,
                   help=f"max corpus group order (default {CORPUS_MAX_ORDER})")
    p.add_argument("--jobs", type=_positive_int, default=1,
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
