"""Structural classifier: verdicts, case labels and the all-Sylow-abelian
taxonomy."""

import functools
from fractions import Fraction

import pytest

from vanishlab import classifier
from vanishlab.abelian_core import AbelianGroup, AbHom
from vanishlab.classifier import (
    THRESHOLD,
    CaseLabel,
    SettingError,
    check_s3_case,
    classify_a_group,
    classify_theorem_a,
    verifying_b_cases,
)
from vanishlab.cli import main
from vanishlab.constructions import build_case_family, catalog_entries
from vanishlab.group_engine import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    from_permutations,
    symmetric_3,
)
from vanishlab.groupfile import parse_group


def test_threshold_value():
    assert THRESHOLD == Fraction(1067, 1260)


def test_s3_setting_rejects_a_non_automorphism_after_a_memoised_one():
    W = AbelianGroup.of(2, 2)
    x = AbHom.from_matrix(W, [(0, 1), (1, 1)])  # order 3, fixed-point-free
    y = AbHom.from_matrix(W, [(0, 1), (1, 0)])
    collapse = AbHom.from_matrix(W, [(1, 1), (1, 1)])
    assert check_s3_case(W, x, y)  # W = C x C^x, C = <(1, 1)>; x, y memoised
    for _ in range(2):
        for bad in ((collapse, y), (x, collapse)):
            with pytest.raises(SettingError, match="automorphisms"):
                check_s3_case(W, *bad)


VERDICTS = [
    (("A", {"m": 2, "variant": "c3"}), "a", Fraction(1, 2)),
    (("A", {"m": 3, "variant": "c7"}), "a", Fraction(2, 3)),
    (("A", {"m": 4, "variant": "c5"}), "a", Fraction(3, 4)),
    (("A", {"m": 5, "variant": "c11"}), "a", Fraction(4, 5)),
    (("A", {"m": 6, "variant": "c13"}), "a", Fraction(5, 6)),
    (("A", {"m": 4, "variant": "s3xs3"}), "a", Fraction(3, 4)),
    (("PGROUP", {"shape": "d8"}), "b1", Fraction(3, 4)),
    (("PGROUP", {"shape": "q8"}), "b1", Fraction(3, 4)),
    (("PGROUP", {"shape": "m16"}), "b1", Fraction(3, 4)),
    (("B1", {"shape": "d8xc3"}), "b1", Fraction(3, 4)),
    (("B2", {"variant": "s4"}), "b2", Fraction(5, 6)),
    (("B2", {"variant": "c4"}), "b2", Fraction(5, 6)),
    (("B4_1", {}), "b4.1", Fraction(5, 6)),
]


@pytest.mark.parametrize("spec,case,p", VERDICTS,
                         ids=[f"{t}-{'-'.join(map(str, kw.values()))}"
                              for (t, kw), _, _ in VERDICTS])
def test_below_verdicts(spec, case, p):
    tag, kwargs = spec
    verdict = classify_theorem_a(build_case_family(tag, **kwargs).group)
    assert verdict.below
    assert verdict.case.value == case
    assert verdict.predicted_p == p
    assert verdict.predicted_p == Fraction(verdict.m - 1, verdict.m)


def test_b42_verdict():
    verdict = classify_theorem_a(build_case_family("B4_2", n=3).group)
    assert verdict.below and verdict.case is CaseLabel.B4_2
    assert verdict.predicted_p == Fraction(5, 6)


@pytest.mark.parametrize("tag,kwargs,outcome", [
    ("INVERSION_NEGATIVE", {}, "AtOrAbove"),
    ("B4_2", {"n": 3}, "Below case=b4.2 m=6 p=5/6"),
])
def test_c6_search_builds_the_commutator_map_once(monkeypatch, tag, kwargs, outcome):
    # the four (b4) searches of one check_c6_case call share its commutator
    # map of y, and the searches with x and x^2 share the (b4.2) span test
    # of each candidate
    homs, checks, spans = [], [], []
    hom, check, span = (
        classifier.commutator_hom, classifier.check_c6_case, classifier._b42_span
    )
    monkeypatch.setattr(classifier, "commutator_hom", lambda *a: homs.append(a) or hom(*a))
    monkeypatch.setattr(classifier, "check_c6_case", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(
        classifier, "_b42_span", lambda W, b, *a: spans.append(b) or span(W, b, *a)
    )
    verdict = classify_theorem_a(build_case_family(tag, **kwargs).group)
    assert verdict.outcome == outcome
    assert len(checks) == len(homs) == 1
    assert spans and len(set(spans)) == len(spans)


# x acts as omega on F4^2, y as the unipotent [[1, 1], [0, 1]] over F4
B3_FILE = """semidirect
abelian C2xC2xC2xC2
complement C6
matrix 0 1 0 1 / 1 1 1 1 / 0 0 0 1 / 0 0 1 1
"""


def test_b3_file_classifies_as_b3_and_agrees_with_the_oracle(tmp_path, capsys):
    path = tmp_path / "b3.grp"
    path.write_text(B3_FILE)
    assert main(["classify", "--cross-check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "verdict=Below case=b3 m=6 p=5/6" in out
    assert "cross_check=agree" in out
    assert verifying_b_cases(parse_group(B3_FILE)) == [CaseLabel.B3]


def test_b_path_enumerates_no_abelian_group():
    # (outcome, b0_list coordinates, |B|, |C|) of each c6 witness
    expected = {
        "B4_1": ("Below case=b4.1 m=6 p=5/6", [(0, 1)], 64, 1),
        "B4_2 n=3": ("Below case=b4.2 m=6 p=5/6", [(0, 1, 0, 0)], 256, 1),
        "INVERSION_NEGATIVE": ("AtOrAbove", None, None, None),
        "B2 variant=s4": ("Below case=b2 m=6 p=5/6", None, None, None),
        "b3": ("Below case=b3 m=6 p=5/6", [], None, None),
    }
    groups = {
        "B4_1": build_case_family("B4_1", k=1).group,
        "B4_2 n=3": build_case_family("B4_2", n=3).group,
        "INVERSION_NEGATIVE": build_case_family("INVERSION_NEGATIVE").group,
        "B2 variant=s4": build_case_family("B2", variant="s4").group,
        "b3": parse_group(B3_FILE),
    }
    for name, G in groups.items():
        verdict = classify_theorem_a(G)
        c6 = verdict.witnesses.get("c6")
        seen = (verdict.outcome, None, None, None)
        if c6 is not None:
            seen = (
                verdict.outcome, c6.b0_list,
                c6.B and c6.B.order, c6.C and c6.C.order,
            )
        assert seen == expected[name], name


AT_OR_ABOVE = [
    ("PGROUP", {"shape": "d16"}),
    ("PGROUP", {"shape": "q16"}),
    ("PGROUP", {"shape": "sd16"}),
    ("PGROUP", {"shape": "heis3"}),
    ("B2", {"variant": "negative"}),
    ("INVERSION_NEGATIVE", {}),
]


@pytest.mark.parametrize("tag,kwargs", AT_OR_ABOVE,
                         ids=[f"{t}-{'-'.join(map(str, kw.values()))}"
                              for t, kw in AT_OR_ABOVE])
def test_at_or_above_verdicts(tag, kwargs):
    verdict = classify_theorem_a(build_case_family(tag, **kwargs).group)
    assert not verdict.below
    assert verdict.case is None and verdict.predicted_p is None


def test_abelian_groups_are_case_a_with_m_1():
    verdict = classify_theorem_a(cyclic_group(12))
    assert verdict.below and verdict.case is CaseLabel.A
    assert verdict.m == 1 and verdict.predicted_p == 0


def test_s4_both_presentations_land_in_b2():
    perm = from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")
    built = build_case_family("B2", variant="s4").group
    for G in (perm, built):
        verdict = classify_theorem_a(G)
        assert verdict.case is CaseLabel.B2
        assert verdict.m == 6 and verdict.predicted_p == Fraction(5, 6)
        # the fixed-point witness is cyclic of order 2
        C = verdict.witnesses["C"]
        assert C.order == 2 and C.isomorphism_type().factor_orders == (2,)


def test_b_cases_are_mutually_exclusive_on_their_builders():
    pairs = [
        (("B1", {"shape": "q8"}), CaseLabel.B1),
        (("B2", {"variant": "s4"}), CaseLabel.B2),
        (("B4_1", {}), CaseLabel.B4_1),
    ]
    for (tag, kwargs), label in pairs:
        G = build_case_family(tag, **kwargs).group
        assert verifying_b_cases(G) == [label]


# the parent search's outcome on each catalog entry up to order 1000
CATALOG_OUTCOMES = {
    "family:A m=2 variant=c3": "Below case=a m=2 p=1/2",
    "family:A m=2 variant=c3xc3": "Below case=a m=2 p=1/2",
    "family:A m=2 variant=c5": "Below case=a m=2 p=1/2",
    "family:A m=2 variant=c9": "Below case=a m=2 p=1/2",
    "family:A m=3 variant=c13": "Below case=a m=3 p=2/3",
    "family:A m=3 variant=c7": "Below case=a m=3 p=2/3",
    "family:A m=3 variant=v4": "Below case=a m=3 p=2/3",
    "family:A m=4 variant=c13": "Below case=a m=4 p=3/4",
    "family:A m=4 variant=c3xc3": "Below case=a m=4 p=3/4",
    "family:A m=4 variant=c5": "Below case=a m=4 p=3/4",
    "family:A m=4 variant=s3xs3": "Below case=a m=4 p=3/4",
    "family:A m=5 variant=c11": "Below case=a m=5 p=4/5",
    "family:A m=5 variant=c2^4": "Below case=a m=5 p=4/5",
    "family:A m=5 variant=c3^4": "Below case=a m=5 p=4/5",
    "family:A m=6 variant=c13": "Below case=a m=6 p=5/6",
    "family:A m=6 variant=c7": "Below case=a m=6 p=5/6",
    "family:A m=6 variant=c7^2:s3": "Below case=a m=6 p=5/6",
    "family:A m=6 variant=s3xa4": "Below case=a m=6 p=5/6",
    "family:B1 shape=d8": "Below case=b1 m=4 p=3/4",
    "family:B1 shape=q8": "Below case=b1 m=4 p=3/4",
    "family:B1 shape=m16": "Below case=b1 m=4 p=3/4",
    "family:B1 shape=c4:c4": "Below case=b1 m=4 p=3/4",
    "family:B1 shape=d8xc3": "Below case=b1 m=4 p=3/4",
    "family:B2 variant=s4": "Below case=b2 m=6 p=5/6",
    "family:B2 variant=c4": "Below case=b2 m=6 p=5/6",
    "family:B4_1 k=1 c_part=0": "Below case=b4.1 m=6 p=5/6",
    "family:PGROUP shape=c4xc2": "Below case=a m=1 p=0",
    "family:PGROUP shape=d16": "AtOrAbove",
    "family:PGROUP shape=d8": "Below case=b1 m=4 p=3/4",
    "family:PGROUP shape=heis3": "AtOrAbove",
    "family:PGROUP shape=m16": "Below case=b1 m=4 p=3/4",
    "family:PGROUP shape=q16": "AtOrAbove",
    "family:PGROUP shape=q8": "Below case=b1 m=4 p=3/4",
    "family:PGROUP shape=sd16": "AtOrAbove",
    "family:INVERSION_NEGATIVE": "AtOrAbove",
}


def test_one_b_search_per_call_and_no_quotient(monkeypatch):
    entries = catalog_entries(max_order=1000)
    assert [e.provenance for e in entries] == list(CATALOG_OUTCOMES)
    searches = []
    find = classifier.abelian_normal_candidates
    monkeypatch.setattr(classifier, "abelian_normal_candidates",
                        lambda G: searches.append(G) or find(G))

    def no_quotient(G, N):
        raise AssertionError("the classifier built a quotient group")

    monkeypatch.setattr(FiniteGroup, "quotient", no_quotient)
    for entry in entries:
        G = entry.group
        searches.clear()
        verdict = classify_theorem_a(G)
        assert len(searches) <= 1, entry.provenance
        assert verdict.outcome == CATALOG_OUTCOMES[entry.provenance]
        searches.clear()
        cases = verifying_b_cases(G)
        assert len(searches) <= 1, entry.provenance
        b_case = verdict.below and verdict.case is not CaseLabel.A
        assert cases == ([verdict.case] if b_case else []), entry.provenance


def test_outcome_string_format():
    v = classify_theorem_a(symmetric_3())
    assert v.outcome == "Below case=a m=2 p=1/2"
    w = classify_theorem_a(build_case_family("PGROUP", shape="heis3").group)
    assert w.outcome == "AtOrAbove"


# -- groups with all Sylow subgroups abelian --------------------------------


@functools.lru_cache(maxsize=1)
def a_group_examples():
    return {
        "A4": from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4"),
        "C7:C6": build_case_family("A", m=6, variant="c7").group,
        "C5:C4": build_case_family("A", m=4, variant="c5").group,
        "C9:C2": build_case_family("A", m=2, variant="c9").group,
        "C3^4:C5": build_case_family("A", m=5, variant="c3^4").group,
        "S3xS3": build_case_family("A", m=4, variant="s3xs3").group,
        "C7^2:S3": build_case_family("A", m=6, variant="c7^2:s3").group,
        "S3xA4": build_case_family("A", m=6, variant="s3xa4").group,
    }


def test_a_group_taxonomy():
    expected = {
        "A4": "1",
        "C7:C6": "1",
        "C5:C4": "1",
        "C9:C2": "1",
        "C3^4:C5": "1",
        "S3xS3": "2",
        "C7^2:S3": "3",
        "S3xA4": "4.1",
    }
    for name, G in a_group_examples().items():
        result = classify_a_group(G)
        assert result.case == expected[name], name


def test_a_group_taxonomy_m_matches_fitting_index():
    for G in a_group_examples().values():
        result = classify_a_group(G)
        assert result.m == G.order // G.fitting.order


def test_s3_type_top_case_does_not_occur():
    # With every Sylow subgroup abelian, any element mapping onto a
    # transposition of an S3 quotient of H/F(H) centralizes O_2(H); the
    # 3-part of its normal closure then centralizes all of F(H), which is
    # impossible outside F(H).  So case 4.2 never fires on such groups.
    seen = set()
    for G in a_group_examples().values():
        seen.add(classify_a_group(G).case)
    assert "4.2" not in seen


def test_classify_a_group_rejects_nonabelian_sylow():
    from vanishlab.group_engine import GroupDomainError

    G = from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")
    with pytest.raises(GroupDomainError):
        classify_a_group(G)


def test_direct_factor_with_central_part():
    G = direct_product(symmetric_3(), cyclic_group(5), name="S3xC5")
    verdict = classify_theorem_a(G)
    assert verdict.below and verdict.case is CaseLabel.A
    assert verdict.m == 2
