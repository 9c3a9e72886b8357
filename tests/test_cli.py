"""CLI contract: exit codes, report format, determinism, and the group-file
round trip."""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab import abelian_core, character_lab, cli
from vanishlab.abelian_core import AbelianGroup, AbSubgroup
from vanishlab.classifier import classify_theorem_a
from vanishlab.cli import EXIT_CAP, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, main
from vanishlab.constructions import build_case_family, catalog_entries, random_corpus
from vanishlab.cyclotomic import SIX_SUM_VERDICTS, SixSumVerdict
from vanishlab.group_engine import (
    FiniteGroup,
    GroupSizeError,
    alternating_7,
    from_permutations,
)
from vanishlab.groupfile import (
    BUILTIN_COMPLEMENTS,
    GroupFileError,
    emit_group,
    parse_group,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- group file format -------------------------------------------------------


def roundtrip(G):
    H = parse_group(emit_group(G))
    assert H.order == G.order
    assert sorted(len(c) for c in H.conjugacy_data) == \
        sorted(len(c) for c in G.conjugacy_data)
    return H


def test_roundtrip_semidirect():
    groups = [e.group for e in catalog_entries(1000) if hasattr(e.group, "semidirect_spec")]
    # B4_1, B2 s4 and A m=6 c7^2:s3 among them
    assert {"(C8^2)^1:C6", "S4", "C7^2:S3"} <= {G.name for G in groups}
    for G in groups:
        H = roundtrip(G)
        assert np.array_equal(H.compiled.R, G.compiled.R), G.name


def test_roundtrip_semidirect_is_byte_stable():
    G = build_case_family("B2", variant="c4").group
    text = emit_group(G)
    assert emit_group(parse_group(text)) == text


def test_roundtrip_perm():
    roundtrip(alternating_7())


def test_roundtrip_regular_representation_fallback():
    # metacyclic presentations have no semidirect spec; they serialize via
    # the regular action
    G = build_case_family("PGROUP", shape="q8").group
    H = roundtrip(G)
    assert H.center.order == 2


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("loops\n", 1),
    ("semidirect\nabelian C0\ncomplement C2\nmatrix 1\n", 2),
    ("semidirect\nabelian C4\ncomplement C7\nmatrix 1\n", 3),
    ("semidirect\nabelian C4\ncomplement C2\nmatrix 1 2\n", 4),
    ("semidirect\nabelian C4\ncomplement C2\nmatrix x\n", 4),
    ("perm\ndegree nope\ngen (1 2)\n", 2),
    ("perm\ndegree 4\ngen (1 5)\n", 3),
    # a bad generator is reported at its own line
    ("perm\ndegree 3\ngen (1 2)\ngen (1 2)(2 3)\n", 4),
    ("perm\ndegree 4\ngen (1 2)\n\ngen (1 2 3)\ngen (1 5)\n", 6),
    ("semidirect\nabelian C4\ncomplement S3\nmatrix 1\nmatrix 2\n", 5),
    ("semidirect\nabelian C4\ncomplement S3\nmatrix 2\nmatrix 1\n", 4),
    # each generator is an automorphism, but the 3-cycle acts with order 2:
    # the action as a whole is reported at the first matrix line
    ("semidirect\nabelian C4\ncomplement S3\nmatrix -1\nmatrix 1\n", 4),
])
def test_parse_diagnostics_carry_positions(text, line):
    with pytest.raises(GroupFileError) as info:
        parse_group(text)
    assert info.value.line == line
    assert "line" in str(info.value) and "column" in str(info.value)


@pytest.mark.parametrize("matrix,entry,column", [
    ("matrix 0 1 / 1 a", "a", 16),  # an `a` is also in the word `matrix`
    ("matrix ix", "ix", 8),  # and so is `ix`
    ("   matrix x", "x", 11),  # columns count the indentation
])
def test_a_non_integer_matrix_entry_reports_its_own_column(matrix, entry, column):
    with pytest.raises(GroupFileError) as info:
        parse_group(f"semidirect\nabelian C2xC2\ncomplement C2\n{matrix}\n")
    assert str(info.value) == \
        f"line 4, column {column}: matrix entry {entry!r} is not an integer"


@pytest.mark.parametrize("text,line,column", [
    ("semidirect\nabelian   C0\ncomplement C2\nmatrix 1\n", 2, 11),
    ("semidirect\nabelian C4\ncomplement    Q8\nmatrix 1\n", 3, 15),
    ("perm\n  degree x\ngen (1 2)\n", 2, 10),
    ("perm\n  degree\ngen (1 2)\n", 2, 10),
    # unindented and single-spaced files keep their columns
    ("semidirect\nabelian C0\ncomplement C2\nmatrix 1\n", 2, 9),
    ("semidirect\nabelian C4\ncomplement Q8\nmatrix 1\n", 3, 12),
    ("perm\ndegree x\ngen (1 2)\n", 2, 8),
    ("perm\ndegree 65\ngen (1 2)\n", 2, 8),
    ("perm\ndegree\ngen (1 2)\n", 2, 8),
])
def test_diagnostic_columns_are_file_columns(text, line, column):
    with pytest.raises(GroupFileError) as info:
        parse_group(text)
    assert (info.value.line, info.value.column) == (line, column)


@st.composite
def semidirect_texts(draw):
    # mostly well-shaped: one square matrix per complement generator, sized
    # by the written factors other than C1
    orders = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    h_name = draw(st.sampled_from(BUILTIN_COMPLEMENTS))
    lines = ["semidirect", "abelian " + "x".join(f"C{d}" for d in orders),
             f"complement {h_name}"]
    rank = sum(d > 1 for d in orders)
    gens = 2 if h_name in ("V4", "S3") else 1
    for _ in range(draw(st.sampled_from([gens, gens, gens, gens - 1, gens + 1]))):
        size = draw(st.sampled_from([rank, rank, rank, rank + 1]))
        rows = [" ".join(str(draw(st.integers(-3, 3))) for _ in range(size))
                for _ in range(size)]
        lines.append("matrix " + " / ".join(rows))
    return "\n".join(lines) + "\n"


@st.composite
def perm_texts(draw):
    degree = draw(st.integers(1, 8))
    point = st.integers(1, degree + 1)
    lines = ["perm", f"degree {degree}"]
    for _ in range(draw(st.integers(1, 3))):
        cycles = draw(st.lists(st.lists(point, min_size=1, max_size=4), max_size=3))
        lines.append("gen " + ("".join(
            "(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(st.one_of(semidirect_texts(), perm_texts()))
def test_parse_group_builds_or_reports(text):
    # a size-capped group is reported as such (exit 3), anything else that
    # does not build is a parse error (exit 2); no other exception escapes
    try:
        parse_group(text)
    except (GroupFileError, GroupSizeError):
        pass


BOUNDARY_FILES = [
    # matrices are indexed by the written factors: C6 takes 1x1 matrices
    ("semidirect\nabelian C6\ncomplement C2\nmatrix -1\n", EXIT_OK),
    ("semidirect\nabelian C6\ncomplement C2\nmatrix 5 0 / 0 1\n", EXIT_PARSE),
    # not a homomorphism of C2 x C4
    ("semidirect\nabelian C2xC4\ncomplement C2\nmatrix 0 1 / 1 0\n", EXIT_PARSE),
    ("semidirect\nabelian C128xC128\ncomplement C1\nmatrix 1 0 / 0 1\n",
     EXIT_CAP),
    ("perm\ndegree 8\ngen (1 2 3 4 5 6 7 8)\ngen (1 2)\n", EXIT_CAP),
]


@pytest.mark.parametrize("text,expected", BOUNDARY_FILES,
                         ids=["C6:C2", "C6-2x2", "C2xC4-swap", "C128xC128", "S8"])
def test_oracle_exit_code_at_the_input_boundary(tmp_path, capsys, text, expected):
    path = tmp_path / "g.grp"
    path.write_text(text)
    code, out = run(capsys, "oracle", str(path))
    assert code == expected
    if expected == EXIT_OK:
        assert "order=12" in out and "P=1/2" in out


# -- fuzzing the oracle's input path -----------------------------------------

EMITTED = [
    emit_group(build_case_family("A", m="2", variant="c3").group),
    emit_group(build_case_family("B2", variant="s4").group),
    emit_group(build_case_family("PGROUP", shape="q8").group),
    emit_group(from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"])),
]
JUNK = ["0", "1", "-1", "65", "1_0", "\u0663", "\u00b2", "\uff11", "1e3", "nan",
        "99999999999999999999", "9" * 5000, "C0", "C1", "C-2", "Cx", "C2x", "xC2",
        "C\u00b2", "C99999999999", "C128xC128", "(", ")", "()", "(1", "1)",
        "((1 2))", "(1,2)", "(0 1)", "(1 1)", "(1 2)(2 3)", "/", "//", "#", "x",
        "perm", "semidirect", "degree", "gen", "abelian", "complement", "matrix",
        "V4", "S3", "C7", "\t", "\x00", "\ufeff", "\u2028", "\r"]


@st.composite
def mutated_texts(draw):
    """An emitted group file with a few token-level edits."""
    lines = [line.split(" ") for line in draw(st.sampled_from(EMITTED)).splitlines()]
    pool = sorted({tok for line in lines for tok in line}) + JUNK
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "drop line",
                                     "copy line", "swap lines"]))
        if edit == "replace" and j < len(line):
            line[j] = draw(st.sampled_from(pool))
        elif edit == "insert":
            line.insert(j, draw(st.sampled_from(pool)))
        elif edit == "delete" and j < len(line):
            del line[j]
        elif edit == "drop line" and len(lines) > 1:
            del lines[i]
        elif edit == "copy line":
            lines.insert(i, list(line))
        elif edit == "swap lines":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def oracle_exit_code(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.grp"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["oracle", str(path)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(mutated_texts(), st.text(max_size=200)))
def test_oracle_never_raises_on_any_text(text):
    # exit 1 means "mismatch", which the oracle never reports: a malformed
    # file is a parse error (2), an oversized group is a cap error (3)
    assert oracle_exit_code(text.encode("utf-8")) in (EXIT_OK, EXIT_PARSE, EXIT_CAP)


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=64))
def test_oracle_reports_undecodable_files_as_parse_errors(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert oracle_exit_code(data) == EXIT_PARSE
    else:
        assert oracle_exit_code(data) in (EXIT_OK, EXIT_PARSE, EXIT_CAP)


@pytest.mark.parametrize("text", [
    "semidirect\nabelian C\u00b2\ncomplement C2\nmatrix 1\n",
    "semidirect\nabelian C" + "9" * 5000 + "\ncomplement C2\nmatrix 1\n",
])
def test_abelian_literal_digits_int_cannot_read_are_parse_errors(text):
    assert oracle_exit_code(text.encode()) == EXIT_PARSE


def test_huge_abelian_factor_is_capped_before_its_action_is_checked(capsys):
    # checking that the action is an automorphism enumerates A: 10^11 and
    # 2^42 elements here
    text = "semidirect\nabelian C99999999999\ncomplement C2\nmatrix 1\n"
    assert oracle_exit_code(text.encode()) == EXIT_CAP
    code, _ = run(capsys, "construct", "B4_2", "n=20")
    assert code == EXIT_CAP


@pytest.mark.parametrize("argv,expected", [
    (("B4_1", "k=4000"), EXIT_CAP),
    (("B4_2", "k=1000"), EXIT_CAP),
    (("B1", "shape=q8", "extra=1"), EXIT_PARSE),
    (("B4_1", "c_prt=1"), EXIT_PARSE),
])
def test_construct_rejects_oversized_and_unknown_parameters(capsys, argv, expected):
    code = main(["construct", *argv])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    if expected == EXIT_PARSE:
        assert repr(argv[-1].partition("=")[0]) in captured.err


@pytest.mark.parametrize("argv", [
    ("B4_1", "k=100000000000000000000"),
    ("B4_2", "k=100000000"),
    ("B4_2", "n=1000000000000"),
])
def test_construct_caps_b4_from_the_parameters_alone(capsys, argv):
    # 10^20 or 10^8 blocks, or factors of order 2^(10^12): the cap is
    # checked before a block list or a power of 2 is formed
    start = time.perf_counter()
    code = main(["construct", *argv])
    assert time.perf_counter() - start < 1
    assert code == EXIT_CAP
    assert capsys.readouterr().out == ""


def test_construct_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "d8.grp", tmp_path):
        code = main(["construct", "PGROUP", "shape=d8", "-o", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")


# -- subcommands -------------------------------------------------------------


def test_construct_then_classify(tmp_path, capsys):
    path = tmp_path / "a4.grp"
    code, _ = run(capsys, "construct", "A", "m=3", "variant=v4", "-o", str(path))
    assert code == EXIT_OK
    code, out = run(capsys, "classify", str(path))
    assert code == EXIT_OK
    assert "verdict=Below case=a m=3 p=2/3" in out


def test_ptable_reports_reduced_fraction(tmp_path, capsys):
    path = tmp_path / "s4.grp"
    run(capsys, "construct", "B2", "variant=s4", "-o", str(path))
    code, out = run(capsys, "ptable", str(path))
    assert code == EXIT_OK
    assert "P=5/6" in out and "order=24" in out
    assert "0.8" not in out  # never decimals


def test_ptable_emit_table_prints_exact_values(tmp_path, capsys):
    path = tmp_path / "q8.grp"
    run(capsys, "construct", "PGROUP", "shape=q8", "-o", str(path))
    code, out = run(capsys, "ptable", str(path), "--emit-table")
    assert code == EXIT_OK
    assert "chi=4" in out and "degrees=1,1,1,1,2" in out


# sha256 of the whole `ptable --emit-table` report; the exact values, their
# rendering and the row order must not drift
GOLDEN_TABLES = [
    ("perm\ndegree 8\ngen (1 2 3 4)(5 8 7 6)\ngen (1 5 3 7)(2 6 4 8)\n",
     "776be37153c352c499a72d9a902be497f09c190b1e401d4bbfaedfa3276fddb7"),
    ("perm\ndegree 4\ngen (1 2 3 4)\ngen (1 2)\n",
     "2268ffd1ec626e1488c630e59e830090e945176817d389ac8ad8767a9225a0b6"),
    ("perm\ndegree 10\ngen (1 2 3 4)\ngen (1 3)\ngen (5 6 7)\ngen (5 6)\n"
     "gen (8 9 10)\ngen (8 9)\n",
     "56d5b8267331cf9ca10a1d18c54fe4c796444d3dac1e6fda877236ba9f6eecf3"),
    ("semidirect\nabelian C7\ncomplement C3\nmatrix 2\n",
     "a35416bb61e3030e78d5ceb06568bf2105908d46bb8dbdf785b6a177b3b00a53"),
]


@pytest.mark.parametrize("text,digest", GOLDEN_TABLES,
                         ids=["Q8", "S4", "D8xS3xS3", "C7:C3"])
def test_ptable_emit_table_is_golden(tmp_path, capsys, text, digest):
    path = tmp_path / "g.grp"
    path.write_text(text)
    code, out = run(capsys, "ptable", str(path), "--emit-table")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_forced_collisions_still_give_the_golden_table(tmp_path, capsys, monkeypatch):
    # at its Dixon prime 37, pinned here, the 45 characters of D8xS3xS3
    # cannot take 45 distinct eigenvalues under any one combination, so the
    # blocks that collide are split by further rounds, each a fresh
    # combination of the 44 nontrivial class matrices
    text, digest = GOLDEN_TABLES[2]
    monkeypatch.setattr(character_lab, "dixon_prime", lambda order, exponent: 37)
    built = []
    combination = character_lab._class_combination
    monkeypatch.setattr(
        character_lab, "_class_combination", lambda *a: built.append(a) or combination(*a)
    )
    path = tmp_path / "g.grp"
    path.write_text(text)
    code, out = run(capsys, "ptable", str(path), "--emit-table")
    assert code == EXIT_OK and "classes=45" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(built) >= 2


def test_forced_large_prime_still_gives_the_golden_table(tmp_path, capsys, monkeypatch):
    # 9999973 = 1 (mod 12) is the largest admissible prime below the search
    # bound 10^7: float64 products hold only 90 exact terms, and every root
    # scan covers 10^7 points
    text, digest = GOLDEN_TABLES[2]
    primes = []
    monkeypatch.setattr(
        character_lab, "dixon_prime",
        lambda order, exponent: primes.append(exponent) or 9999973,
    )
    path = tmp_path / "g.grp"
    path.write_text(text)
    start = time.perf_counter()
    code, out = run(capsys, "ptable", str(path), "--emit-table")
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK and primes == [12]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 prefixes of the `classify --cross-check` and `oracle --elements`
# reports of every catalog group up to order 1000, read back from its
# emitted group file: verdicts, witnesses and element lists must not drift
GOLDEN_REPORTS = {
    "family:A m=2 variant=c3": ("fbc48505332c444c", "1ff4d32ea388cb41"),
    "family:A m=2 variant=c3xc3": ("75344cd91da79034", "8a9becf0d8ccd21c"),
    "family:A m=2 variant=c5": ("17976caa032fe254", "20367d1e45e83243"),
    "family:A m=2 variant=c9": ("c461efabc2f2ba05", "f8516989a9d73888"),
    "family:A m=3 variant=c13": ("50060ed5ec5a26cf", "485e5f8c0a4a8030"),
    "family:A m=3 variant=c7": ("4a43f3f9f5d50221", "c4463c14ca3a332d"),
    "family:A m=3 variant=v4": ("060d34ea24c33e01", "1c7bea99d1156e4f"),
    "family:A m=4 variant=c13": ("977e3e1c014d747e", "b4fdc7c9faf86c66"),
    "family:A m=4 variant=c3xc3": ("461ddf8fb55d060c", "4402294914d56205"),
    "family:A m=4 variant=c5": ("667a4fbafed05cd6", "54b732b38a8b2172"),
    "family:A m=4 variant=s3xs3": ("92826348c92630f1", "b3338fd76b801f4a"),
    "family:A m=5 variant=c11": ("f9fa7d72fb035d1a", "b0964133c78e02d6"),
    "family:A m=5 variant=c2^4": ("934fca0c54364382", "923133867d15e254"),
    "family:A m=5 variant=c3^4": ("ddb4c4c26fa3119a", "092d2a4e92bed5cf"),
    "family:A m=6 variant=c13": ("d02b3648d92d91b2", "1be28294c151d960"),
    "family:A m=6 variant=c7": ("b5869651bf157434", "5fd497d4f086918d"),
    "family:A m=6 variant=c7^2:s3": ("1ae56bd1598d5bf4", "73fdcf65417cf7a7"),
    "family:A m=6 variant=s3xa4": ("a3aa6f69cc406a89", "62c9b9ffa2688bf2"),
    "family:B1 shape=d8": ("720c8d602db9d2ce", "b814035762c8e785"),
    "family:B1 shape=q8": ("720c8d602db9d2ce", "b814035762c8e785"),
    "family:B1 shape=m16": ("75aa4cecb4c0b00e", "06384c66a34abc82"),
    "family:B1 shape=c4:c4": ("75aa4cecb4c0b00e", "590b4fd041c6b120"),
    "family:B1 shape=d8xc3": ("bf58c8bdd0e2def4", "490d081c90ac120d"),
    "family:B2 variant=s4": ("6b255bf210b2dd60", "1f496e3acfe8f3bc"),
    "family:B2 variant=c4": ("972f328d0b29d6ed", "e069a5ee2949a158"),
    "family:B4_1 k=1 c_part=0": ("6a62279d42c07bb2", "2f53d462d4f987b8"),
    "family:PGROUP shape=c4xc2": ("8812c36f234575cb", "2430474a30e3c01d"),
    "family:PGROUP shape=d16": ("2b06cc80b310825d", "2a9d8b619feb8cbc"),
    "family:PGROUP shape=d8": ("720c8d602db9d2ce", "b814035762c8e785"),
    "family:PGROUP shape=heis3": ("1af832a1c7fc3152", "11d5350e83bd6f9d"),
    "family:PGROUP shape=m16": ("75aa4cecb4c0b00e", "06384c66a34abc82"),
    "family:PGROUP shape=q16": ("2b06cc80b310825d", "2a9d8b619feb8cbc"),
    "family:PGROUP shape=q8": ("720c8d602db9d2ce", "b814035762c8e785"),
    "family:PGROUP shape=sd16": ("2b06cc80b310825d", "2a9d8b619feb8cbc"),
    "family:INVERSION_NEGATIVE": ("de58ac6c934d881e", "1db2e3ad65c8c963"),
}


def test_catalog_reports_are_golden(tmp_path, capsys):
    entries = catalog_entries(max_order=1000)
    assert [e.provenance for e in entries] == list(GOLDEN_REPORTS)
    path = tmp_path / "g.grp"
    for entry in entries:
        path.write_text(emit_group(entry.group))
        digests = []
        for argv in (["classify", "--cross-check"], ["oracle", "--elements"]):
            code, out = run(capsys, *argv, str(path))
            assert code == EXIT_OK
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        assert tuple(digests) == GOLDEN_REPORTS[entry.provenance], entry.provenance


def test_module_witness_is_one_line_with_the_basis(tmp_path, capsys):
    path = tmp_path / "g.grp"
    run(capsys, "construct", "B2", "variant=s4", "-o", str(path))
    code, out = run(capsys, "classify", str(path))
    assert code == EXIT_OK
    assert (
        "witness=module AbelianModel(subgroup=<subgroup of order 4 in <C2xC2:S3 of order 24>>, "
        "shape=AbelianGroup(C2xC2), basis=(((0, 1), (0, 1, 2)), ((1, 0), (0, 1, 2))))"
    ) in out.splitlines()


def test_cycles_sharing_a_point_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text("perm\ndegree 3\ngen (1 2)(1 3)\n")
    code = main(["oracle", str(path)])
    assert code == EXIT_PARSE
    assert "(1 2)(1 3)" in capsys.readouterr().err


def test_cross_check_agrees(tmp_path, capsys):
    path = tmp_path / "g.grp"
    run(capsys, "construct", "PGROUP", "shape=heis3", "-o", str(path))
    code, out = run(capsys, "classify", str(path), "--cross-check")
    assert code == EXIT_OK
    assert "cross_check=agree" in out
    assert "verdict=AtOrAbove" in out


def test_oracle_subcommand(tmp_path, capsys):
    path = tmp_path / "g.grp"
    run(capsys, "construct", "PGROUP", "shape=d8", "-o", str(path))
    code, out = run(capsys, "oracle", str(path), "--elements")
    assert code == EXIT_OK
    assert "P=3/4" in out and "below_threshold=1" in out
    assert out.count("nonvanishing_element=") == 2


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("semidirect\nabelian C4\ncomplement C9\nmatrix 1\n")
    code, _ = run(capsys, "ptable", str(path))
    assert code == EXIT_PARSE
    code, _ = run(capsys, "ptable", str(tmp_path / "missing.grp"))
    assert code == EXIT_PARSE
    code, _ = run(capsys, "construct", "A", "m3")
    assert code == EXIT_PARSE
    code, _ = run(capsys, "construct", "A", "m=7")
    assert code == EXIT_PARSE


def test_cap_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.grp"
    run(capsys, "construct", "A", "m=6", "variant=c13", "-o", str(path))
    code, _ = run(capsys, "classify", str(path), "--caps", "10")
    assert code == EXIT_CAP
    monkeypatch.setenv("VANISHLAB_MAX_ORDER", "10")
    code, _ = run(capsys, "classify", str(path))
    assert code == EXIT_CAP
    monkeypatch.setenv("VANISHLAB_MAX_ORDER", "100")
    code, _ = run(capsys, "classify", str(path))
    assert code == EXIT_OK


def test_malformed_cap_variable_is_a_parse_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.grp"
    run(capsys, "construct", "A", "m=2", "variant=c3", "-o", str(path))
    monkeypatch.setenv("VANISHLAB_MAX_ORDER", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(path)])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: VANISHLAB_MAX_ORDER must be an integer")

def test_verify_lemma_sixsum(capsys):
    code, out = run(capsys, "verify-lemma", "sixsum", "--max-n", "2")
    assert code == EXIT_OK
    assert "result=pass" in out
    assert out.startswith("version=")


def test_verify_lemma_vs(capsys):
    code, out = run(capsys, "verify-lemma", "vs", "--max-terms", "5")
    assert code == EXIT_OK
    assert "check=vs-m12 status=pass" in out


def test_verify_lemma_duality_seed_recorded(capsys):
    code, out = run(capsys, "verify-lemma", "duality", "--trials", "50",
                    "--seed", "17")
    assert code == EXIT_OK
    assert "seed=17" in out


# sha256 of the whole `verify-lemma` report, recorded before the cyclotomic
# reduction went through the per-order power table
LEMMA_REPORT_DIGESTS = [
    (("sixsum", "--max-n", "4"),
     "02ed6b68516ec20b028c6ea970e575996e2cc79acd1089f5b3adb8719ced333e"),
    (("vs", "--max-terms", "8"),
     "ada345c0aeec0e63e20e9eb5787eefce650797f9a146052d134af61c136e308d"),
    (("duality", "--trials", "1000", "--seed", "1"),
     "b476f17a77d852271c9f255678128825281bee089aab4d9c53ad420b4a57660b"),
]


@pytest.mark.parametrize("argv,digest", LEMMA_REPORT_DIGESTS,
                         ids=[argv[0] for argv, _ in LEMMA_REPORT_DIGESTS])
def test_lemma_reports_are_golden(capsys, argv, digest):
    code, out = run(capsys, "verify-lemma", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `campaign --seed 42 --only <section>` for the lemma sections,
# recorded before the duality check tallied draws per subgroup
CAMPAIGN_LEMMA_DIGESTS = [
    ("duality", "5ddcc79f90df1bf9a095d221de28773fb7dbbfb2eac471719c0364077222f58c"),
    ("sixsum", "64a07a495477bedf2d98458082d011cc09b22d07bf948f2841fc33b85f9dd375"),
    ("vs", "62d72f7014f098eee47d1362ef402e1b2a9287a1ebf1ff08db11af49cd71f720"),
]


@pytest.mark.parametrize("section,digest", CAMPAIGN_LEMMA_DIGESTS,
                         ids=[section for section, _ in CAMPAIGN_LEMMA_DIGESTS])
def test_campaign_lemma_sections_are_golden(capsys, section, digest):
    code, out = run(capsys, "campaign", "--seed", "42", "--only", section)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the default campaign (seed 42, 200 corpus rows at cap 2000):
# 217 lines, ending `result=pass checks=212 failures=0`
CAMPAIGN_DIGEST = "df5ee94e5b4378836e454491785e00fefdd6ecd3038a4c90797e52fc698534ae"


def test_default_campaign_is_golden(capsys):
    code, out = run(capsys, "campaign")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CAMPAIGN_DIGEST


def _duality_draws(seed, trials):
    """Each trial's generator set and subgroup, drawn as the duality check
    draws them; the set is the shape and the nonzero generators."""
    rng = random.Random(seed)
    groups = [AbelianGroup.of(*shape) for shape in cli.DUALITY_SHAPES]
    for _ in range(trials):
        A = rng.choice(groups)
        gens = tuple(
            A.element(tuple(rng.randrange(d) for d in A.factor_orders))
            for _ in range(rng.randrange(3))
        )
        key = (A, frozenset(g.coords for g in gens if not g.is_zero()))
        yield key, AbSubgroup.from_elements(A, gens)


# sha256 of `verify-lemma duality --trials <t> --seed <s>`, recorded before
# the check closed each distinct generator set once
DUALITY_REPORT_DIGESTS = {
    (2, 50): "ef6523b802ef0f2f923036ee9b2eccf8317f75852173b206ae1078ca015d6f35",
    (2, 200): "683250586fa97e03ae321c9219cf257c5340211815c8c2a492a419336e4e0c9f",
    (3, 50): "fd99a32003a470968a0fb8096d84c4b49b3b85ebb7c743a676c2f5e4a0cd5ff8",
    (3, 200): "bec55f165ee6550e7bf2fb9bf94d203c19bb8fcb87ac7bfa1abe09665fd7c7b8",
    (4, 50): "5bd80d4ccfe6cf3cc2103d62dd0271b3af6e890a2d8be4be2ceb663427d7b80d",
    (4, 200): "a6636fc026c8099ea009f6b7f000dd1feba522d93ff40861db8eefb48e445e31",
    (5, 50): "34a05e345873ceac29221647e5bca2722205f553f1adabbc9a0d6f71d0683190",
    (5, 200): "1e4ad7f4d5a475c938dca374c96059d13363b7b064aea17d356bfe400820407b",
}


@pytest.mark.parametrize("seed,trials", DUALITY_REPORT_DIGESTS)
def test_duality_reports_are_golden(capsys, seed, trials):
    code, out = run(capsys, "verify-lemma", "duality", "--trials", str(trials),
                    "--seed", str(seed))
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DUALITY_REPORT_DIGESTS[seed, trials]


def test_duality_checks_each_distinct_subgroup_once(capsys, monkeypatch):
    distinct = len({key for key, _ in _duality_draws(1, 1000)})
    seen = {"perp": [], "perp_dual": []}
    built = []
    init = cli.AbSubgroup.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def spy(name):
        real = getattr(cli, name)

        def wrapped(sub):
            seen[name].append(sub)
            return real(sub)
        return wrapped

    monkeypatch.setattr(cli.AbSubgroup, "__init__", counting_init)
    for name in seen:
        monkeypatch.setattr(cli, name, spy(name))
    code, out = run(capsys, "verify-lemma", "duality", "--trials", "1000",
                    "--seed", "1")
    assert code == EXIT_OK
    assert "observed=trials=1000;failures=0" in out
    # one closure per distinct generator set, and one per annihilator
    assert len(built) == distinct + len(seen["perp"]) + len(seen["perp_dual"])
    for subs in seen.values():
        assert 0 < len(subs) < 1000
        assert len(set(subs)) == len(subs)
    assert len(seen["perp"]) == len(seen["perp_dual"])


def test_every_closure_runs_inside_the_subgroup_constructor(capsys, monkeypatch):
    # AbSubgroup.__init__ is the one path that closes an abelian subgroup
    callers = []
    close = abelian_core._close

    def traced(*args):
        callers.append(sys._getframe(1).f_code)
        return close(*args)

    monkeypatch.setattr(abelian_core, "_close", traced)
    counts = []
    classify_theorem_a(build_case_family("B4_2", n=3).group)
    counts.append(len(callers))
    build_case_family("M5")
    counts.append(len(callers))
    code, _ = run(capsys, "verify-lemma", "duality", "--trials", "1000", "--seed", "1")
    counts.append(len(callers))
    assert code == EXIT_OK
    assert 0 < counts[0] < counts[1] < counts[2]
    assert set(callers) == {AbSubgroup.__init__.__code__}


def test_duality_counts_a_failing_subgroup_once_per_draw(capsys, monkeypatch):
    A = AbelianGroup.of(4, 2)
    chosen = AbSubgroup.trivial(A)
    real = cli.perp

    def wrong(sub):  # the trivial annihilator of the trivial subgroup
        return AbSubgroup.trivial(sub.parent) if sub == chosen else real(sub)

    monkeypatch.setattr(cli, "perp", wrong)
    expected = draws = 0
    for _, B in _duality_draws(5, 600):  # per trial, as the check once ran
        Bp = wrong(B)
        expected += B.order * Bp.order != B.parent.order or cli.perp_dual(Bp) != B
        draws += B == chosen
    assert expected == draws > 1
    code, out = run(capsys, "verify-lemma", "duality", "--trials", "600",
                    "--seed", "5")
    assert code == EXIT_MISMATCH
    assert f"observed=trials=600;failures={expected} " in out


def test_duality_checks_equal_subgroups_of_different_generator_sets_once(
        capsys, monkeypatch):
    sets_of = {}  # subgroup -> {generator set: trials}
    for key, B in _duality_draws(5, 600):
        counts = sets_of.setdefault(B, {})
        counts[key] = counts.get(key, 0) + 1
    chosen, trials = next((B, c) for B, c in sets_of.items() if len(c) > 1)
    assert chosen.order > 1
    checked = []
    real = cli.perp

    def wrong(sub):  # the trivial annihilator of the chosen subgroup
        if sub == chosen:
            checked.append(sub)
            return AbSubgroup.trivial(sub.parent)
        return real(sub)

    monkeypatch.setattr(cli, "perp", wrong)
    code, out = run(capsys, "verify-lemma", "duality", "--trials", "600",
                    "--seed", "5")
    assert code == EXIT_MISMATCH
    assert len(checked) == 1
    assert f"observed=trials=600;failures={sum(trials.values())} " in out


def test_sixsum_mismatch_reports_the_first_input(capsys, monkeypatch):
    # a rule that calls every zero sum over U_4 nonzero
    verdicts = cli.six_sum_verdicts
    nonzero = SIX_SUM_VERDICTS.index(SixSumVerdict.NONZERO)

    def flipped(n, ae, be):
        codes = verdicts(n, ae, be)
        if n == 2:
            codes[[SIX_SUM_VERDICTS[c].value.startswith("zero") for c in codes]] = nonzero
        return codes

    monkeypatch.setattr(cli, "six_sum_verdicts", flipped)
    code, out = run(capsys, "verify-lemma", "sixsum", "--max-n", "3")
    assert code == EXIT_MISMATCH
    rows = [line for line in out.splitlines() if line.startswith("check=")]
    assert rows[1] == ("check=sixsum-n2 status=fail observed=mismatch at "
                       "(0, 1, 3)+(0, 2, 2) expected=verdict-matches-exact-zero")
    assert [row.split()[1] for row in rows] == \
        ["status=pass", "status=fail", "status=pass"]
    assert out.endswith("result=fail\n")


def test_sixsum_report_to_n5_is_golden(capsys):
    # sha256 of the report, recorded when one block held one eps triple
    code, out = run(capsys, "verify-lemma", "sixsum", "--max-n", "5")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "23f860c8bf026986cca6ca1312973263055a6ace7269de445ed252c7c97a4ca9"


def test_sixsum_mismatch_in_a_later_block_reports_the_first_input(capsys, monkeypatch):
    code, out = run(capsys, "verify-lemma", "sixsum", "--max-n", "4")
    assert code == EXIT_OK
    passing = [line for line in out.splitlines() if line.startswith("check=")]
    # blocks of two eps triples at n = 3; flip three zero sums from the third
    # block on, two of them in one block, the first in enumeration order
    # having the later eta
    monkeypatch.setattr(cli, "_SIXSUM_BLOCK_ROWS", 128)
    triples = cli.six_sum_inputs(3)
    codes = cli.six_sum_verdicts(3, np.repeat(triples, 64, axis=0), np.tile(triples, (64, 1)))
    claims_zero = np.array([v.value.startswith("zero") for v in SIX_SUM_VERDICTS])
    zero_etas = [np.flatnonzero(row).tolist() for row in claims_zero[codes].reshape(64, 64)]
    triples = [tuple(t) for t in triples.tolist()]
    first = next(i for i in range(4, 62, 2) if zero_etas[i] and zero_etas[i + 1]
                 and zero_etas[i + 1][0] < zero_etas[i][-1])
    later = next(i for i in range(first + 2, 64) if zero_etas[i])
    flips = {(first, zero_etas[first][-1]), (first + 1, zero_etas[first + 1][0]),
             (later, zero_etas[later][0])}
    flipped_inputs = {(triples[i], triples[j]) for i, j in flips}
    verdicts = cli.six_sum_verdicts
    nonzero = SIX_SUM_VERDICTS.index(SixSumVerdict.NONZERO)

    def flipped(n, ae, be):
        codes = verdicts(n, ae, be)
        if n == 3:
            for r, row in enumerate(zip(map(tuple, ae.tolist()), map(tuple, be.tolist()))):
                if row in flipped_inputs:
                    codes[r] = nonzero
        return codes

    monkeypatch.setattr(cli, "six_sum_verdicts", flipped)
    code, out = run(capsys, "verify-lemma", "sixsum", "--max-n", "4")
    assert code == EXIT_MISMATCH
    rows = [line for line in out.splitlines() if line.startswith("check=")]
    i, j = first, zero_etas[first][-1]
    assert rows[2] == (f"check=sixsum-n3 status=fail observed=mismatch at "
                       f"{triples[i]}+{triples[j]} expected=verdict-matches-exact-zero")
    assert rows[:2] + rows[3:] == passing[:2] + passing[3:]


@pytest.mark.parametrize("argv", [
    ("sixsum", "--max-n", "0"),
    ("vs", "--max-terms", "0"),
    ("duality", "--trials", "-5"),
    ("duality", "--trials", "many"),
])
def test_verify_lemma_rejects_counts_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", *argv])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}:" in captured.err


def test_module_entry_point_runs_from_a_checkout(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "vanishlab", "verify-lemma", "vs", "--max-terms", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    _, out = run(capsys, "verify-lemma", "vs", "--max-terms", "3")
    assert proc.stdout == out
    assert "result=pass" in out


def test_campaign_degenerate_small_run(capsys):
    code, out = run(capsys, "campaign", "--caps", "100", "--count", "4")
    assert code == EXIT_OK
    assert "result=pass" in out
    assert "seed=42" in out  # default seed is recorded


@pytest.mark.parametrize("caps", ["1", "-5"])
def test_campaign_rejects_caps_no_random_group_fits(caps):
    # a random group has order at least 2, so the corpus used to redraw forever
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "vanishlab", "campaign", "--only", "corpus",
         "--caps", caps, "--count", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert "argument --caps: must be at least 2" in proc.stderr


@pytest.mark.parametrize("count", ["-3", "0"])
def test_campaign_rejects_counts_below_one(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--count", count])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --count: must be at least 1" in captured.err

def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "verify-lemma", "duality", "--trials", "60",
                   "--seed", "3")
    _, second = run(capsys, "verify-lemma", "duality", "--trials", "60",
                    "--seed", "3")
    assert first == second
    _, third = run(capsys, "campaign", "--caps", "50", "--count", "2")
    _, fourth = run(capsys, "campaign", "--caps", "50", "--count", "2")
    assert third == fourth


def test_campaign_jobs_matches_serial(capsys):
    args = ("campaign", "--only", "corpus", "--caps", "60", "--count", "3",
            "--seed", "8")
    _, serial = run(capsys, *args)
    _, parallel = run(capsys, *args, "--jobs", "2")
    assert serial == parallel


def test_campaign_unknown_section(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--only", "nope"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_campaign_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus worker was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--only", "corpus", "--count", "3", "--jobs", jobs])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --jobs: must be at least 1" in captured.err


# sha256 of the M5 `ptable --emit-table` and `oracle --elements` reports
M5_REPORTS = (
    (("ptable", "--emit-table"),
     "fad24f6e892d82093f2b09aae160b8fef1526cbd241110d365cfe3389f23601e"),
    (("oracle", "--elements"),
     "19f7cf35c63ee7eb5d98754bd822f1c311db893cdd8b4dfbc3693365eab05054"),
)


def test_oracle_path_reads_no_element_sets(tmp_path, capsys, monkeypatch):
    # the census is a mask over element indices: the class blocks are not
    # read on its way to a campaign row or an oracle report
    def refuse(self):
        raise AssertionError("element sets read on the oracle path")

    monkeypatch.setattr(FiniteGroup, "conjugacy_data", property(refuse))
    for entry in random_corpus(42, 200, max_order=2000):
        row, ok = cli._corpus_row(entry.provenance)
        assert ok, row
    path = tmp_path / "m5.grp"
    run(capsys, "construct", "M5", "-o", str(path))
    for argv, digest in M5_REPORTS:
        code, out = run(capsys, *argv, str(path))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_construct_writes_provenance_comment(capsys):
    code, out = run(capsys, "construct", "PGROUP", "shape=d8")
    assert code == EXIT_OK
    assert out.startswith("# family:PGROUP shape=d8\n")
    assert parse_group(out).order == 8
