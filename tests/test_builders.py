"""Builders: each family member satisfies its defining predicate, and the
provenance strings replay to the same group."""

import hashlib
import tracemalloc

import pytest

from vanishlab import constructions
from vanishlab.abelian_core import AbelianGroup, AbHom
from vanishlab.constructions import (
    BuilderError,
    build_case_family,
    catalog_entries,
    random_corpus,
    replay,
)
from vanishlab.group_engine import FiniteGroup, GroupSizeError, abelian_model, is_a_group


def test_metacyclic_two_groups():
    for shape, order, center_index in [
        ("d8", 8, 4), ("q8", 8, 4), ("d16", 16, 8), ("q16", 16, 8),
        ("sd16", 16, 8), ("m16", 16, 4),
    ]:
        G = build_case_family("PGROUP", shape=shape).group
        assert G.order == order
        assert G.order // G.center.order == center_index
        assert not G.is_abelian


def test_extraspecial_27():
    G = build_case_family("PGROUP", shape="heis3").group
    assert G.order == 27
    assert G.center.order == 3
    assert G.exponent == 3
    assert G.derived_subgroup == G.center


def test_a_family_structure():
    for m in (2, 3, 4, 5, 6):
        entry = build_case_family("A", m=m)
        G = entry.group
        assert is_a_group(G)
        assert G.order == G.fitting.order * m
        assert entry.expected_case == "a" and entry.expected_m == m


def test_b41_module_shape():
    G = build_case_family("B4_1").group
    A = G.A_handle
    model = abelian_model(A)
    assert model.shape.factor_orders == (8, 8)
    assert G.semidirect_spec.H.order == 6
    assert G.order == 384


def test_b42_module_shape():
    entry = build_case_family("B4_2", n=3)
    G = entry.group
    assert G.order == 2 ** 8 * 6
    model = abelian_model(G.A_handle)
    assert sorted(model.shape.factor_orders) == [2, 2, 8, 8]
    assert entry.expected_case == "b4.2"


def test_b42_rejects_small_exponent():
    with pytest.raises(BuilderError):
        build_case_family("B4_2", n=2)


def test_bad_tag_and_params():
    with pytest.raises(BuilderError):
        build_case_family("NOPE")
    with pytest.raises(BuilderError):
        build_case_family("PGROUP", shape="c17")
    with pytest.raises(BuilderError):
        build_case_family("A", m=7)
    with pytest.raises(BuilderError):
        build_case_family("B2", variant="bogus")


@pytest.mark.parametrize("tag,params", [
    ("B1", {"shape": "q8", "extra": "1"}),
    ("B4_1", {"c_prt": "1"}),
    ("B4_2", {"n": "3", "m": "2"}),
    ("M5", {"k": "1"}),
    ("INVERSION_NEGATIVE", {"variant": "s4"}),
])
def test_unknown_parameters_are_rejected(tag, params):
    with pytest.raises(BuilderError, match="takes no parameter"):
        build_case_family(tag, **params)


@pytest.mark.parametrize("tag,k", [("B4_1", "2000"), ("B4_2", "1000")])
def test_b4_builders_check_the_order_before_the_matrix(tag, k):
    # n = 2k or 4k generators: an n x n action matrix would take far more
    tracemalloc.start()
    try:
        with pytest.raises(GroupSizeError):
            build_case_family(tag, k=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_m5_hypotheses():
    G = build_case_family("M5").group
    assert G.order == 6480
    F = G.fitting
    assert F.order == 16 * 81
    assert F.is_abelian()
    Q = G.quotient(F)
    assert Q.order == 5 and Q.is_abelian
    # the C5 action is fixed-point-free on each primary component
    A = abelian_model(F)
    h = next(g for g in range(G.order) if G.element_order(g) == 5)
    f = A.conjugation_hom(h)
    fixed = [a for a in map(A.shape.element, A.shape.table.tolist()) if f(a) == a]
    assert len(fixed) == 1


def test_m5_build_checks_each_automorphism_once(monkeypatch):
    # one pass over A (|A| = 1296) per distinct acting map: the complement
    # generator's matrix and its action.  Re-checking the map in every
    # generated_submodule call made 125,218 calls.
    calls = 0
    call = AbHom.__call__

    def counted(self, a):
        nonlocal calls
        calls += 1
        return call(self, a)

    monkeypatch.setattr(AbHom, "__call__", counted)
    build_case_family("M5")
    assert calls <= 3 * 1296


def test_b41_builder_rejects_a_y_that_breaks_the_relation(monkeypatch):
    X, _ = constructions._b41_block_matrices()
    monkeypatch.setattr(constructions, "_b41_block_matrices",
                        lambda: (X, [[-1, 0], [0, -1]]))
    with pytest.raises(BuilderError, match="b4.1 relation"):
        build_case_family("B4_1", k=1)


def test_b42_builder_rejects_a_y_that_breaks_the_relation(monkeypatch):
    block = constructions._b42_block_matrices
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    monkeypatch.setattr(constructions, "_b42_block_matrices",
                        lambda n: (block(n)[0], identity))
    with pytest.raises(BuilderError, match="b4.2 relation"):
        build_case_family("B4_2", n=3)


def test_m5_builder_rejects_a_reducible_factor(monkeypatch):
    # the 2-part acted on trivially: each nonzero a spans only <a>
    block_semidirect = constructions._block_semidirect
    identity = [[int(i == j) for j in range(4)] for i in range(4)]

    def trivial_2_part(blocks, h_name, name):
        (orders, _), *rest = blocks
        return block_semidirect([(orders, identity), *rest], h_name, name)

    monkeypatch.setattr(constructions, "_block_semidirect", trivial_2_part)
    with pytest.raises(BuilderError, match="not an irreducible module"):
        build_case_family("M5")


def test_inversion_variant_shape():
    entry = build_case_family("INVERSION_NEGATIVE")
    G = entry.group
    model = abelian_model(G.A_handle)
    assert model.shape.factor_orders == (8, 8)
    assert entry.expected_case == "AtOrAbove"


def test_catalog_is_within_order_bound():
    entries = catalog_entries(max_order=2000)
    assert len(entries) >= 30
    assert all(e.group.order <= 2000 for e in entries)
    assert len({e.provenance for e in entries}) == len(entries)


def test_catalog_rows_replay_to_their_provenance_and_order():
    # every listed order is the built order, and every family member is listed
    catalog = constructions._CATALOG
    for provenance, order in catalog:
        entry = replay(provenance)
        assert (entry.provenance, entry.group.order) == (provenance, order)
    listed = {provenance for provenance, _ in catalog}
    assert {f"family:A m={m} variant={v}"
            for m, vs in constructions._A_FAMILY.items() for v in vs} <= listed
    assert {f"family:PGROUP shape={s}" for s in constructions._PGROUP_SHAPES} <= listed
    assert {f"family:B2 variant={v}" for v in constructions._B2_VARIANTS} <= listed


@pytest.mark.parametrize("tag", constructions._FAMILIES)
def test_every_family_default_replays_from_its_provenance(tag):
    # M5 and A7 are members no catalog row lists
    entry = build_case_family(tag)
    again = replay(entry.provenance)
    assert entry.provenance.split()[0] == f"family:{tag}"
    assert (again.provenance, again.group.order) == (entry.provenance, entry.group.order)
    expected = (entry.expected_p, entry.expected_case, entry.expected_m)
    assert (again.expected_p, again.expected_case, again.expected_m) == expected


def test_catalog_builds_only_the_members_under_the_cap(monkeypatch):
    # a member over the cap is never built
    built = []
    build = constructions.build_case_family
    monkeypatch.setattr(
        constructions, "build_case_family",
        lambda tag, **params: built.append(tag) or build(tag, **params),
    )
    for cap in (1, 8, 100, 1000, 1535, 1536):
        built.clear()
        entries = catalog_entries(max_order=cap)
        assert [e.provenance for e in entries] == \
            [p for p, order in constructions._CATALOG if order <= cap]
        assert all(e.group.order <= cap for e in entries)
        assert len(built) == len(entries)


@pytest.mark.parametrize("args,digest", [
    ((42, 200, 2000), "18d65d71dc5a50251637b4f2b443bd7a72c0d8e2bfc300fb7e663bc72fb657ac"),
    ((1, 400, 1000), "d0962affb63ffe7761fa7106d220da63817c865ac7edc165a66bd8810d4e9417"),
], ids=["42-200-2000", "1-400-1000"])
def test_corpus_provenances_are_golden(args, digest, monkeypatch):
    # drawing builds no group: the draws alone give the pinned provenances
    def refuse(*_, **__):
        raise AssertionError("a corpus draw built a group")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(constructions, "build_case_family", refuse)
    text = "\n".join(e.provenance for e in random_corpus(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_replay_reproduces_catalog():
    for entry in catalog_entries(max_order=500):
        again = replay(entry.provenance)
        assert again.group.order == entry.group.order
        assert again.provenance == entry.provenance
        assert again.expected_case == entry.expected_case
        assert again.expected_p == entry.expected_p


def test_random_corpus_is_deterministic():
    a = random_corpus(5, 40, max_order=2000)
    b = random_corpus(5, 40, max_order=2000)
    assert [e.provenance for e in a] == [e.provenance for e in b]
    assert len(a) == 40
    assert all(replay(e.provenance).group.order <= 2000 for e in a)


@pytest.mark.parametrize("max_order", [1, -5])
def test_random_corpus_rejects_a_cap_no_random_group_fits(max_order):
    with pytest.raises(BuilderError, match="at least 2"):
        random_corpus(1, 3, max_order=max_order)


def test_every_corpus_provenance_replays():
    for draw in random_corpus(42, 200, max_order=2000):
        again = replay(draw.provenance)
        assert again.provenance == draw.provenance
        assert again.group.order <= 2000


def test_random_corpus_replay():
    for draw in random_corpus(11, 45, max_order=2000)[-8:]:
        entry, again = replay(draw.provenance), replay(draw.provenance)
        assert again.group.order == entry.group.order
        sizes = sorted(len(c) for c in entry.group.conjugacy_data)
        assert sizes == sorted(len(c) for c in again.group.conjugacy_data)


def test_expected_case_values_are_legal():
    legal = {None, "a", "b1", "b2", "b3", "b4.1", "b4.2", "AtOrAbove"}
    for entry in catalog_entries(max_order=2000):
        assert entry.expected_case in legal


def test_pgroup_center_matches_advertised_index():
    for shape in ("d8", "q8", "d16", "q16", "sd16", "m16", "heis3", "c4xc2"):
        entry = build_case_family("PGROUP", shape=shape)
        G = entry.group
        if entry.expected_m is not None:
            assert G.order // G.center.order == entry.expected_m


def test_abelian_pgroup_entry():
    entry = build_case_family("PGROUP", shape="c4xc2")
    assert entry.group.is_abelian
    assert entry.expected_case == "a"
