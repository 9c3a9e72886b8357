"""Permutation groups enumerated on index arrays, against the tuple BFS.

`from_permutations` numbers the elements in one vectorised breadth-first
pass and hands the generator rows it found to the compiler.  The
enumeration it replaced, one `perm_mul` per (element, generator) pair and
then a compile through `mul`, is kept here as the reference: every
compiled array must agree with it exactly, on fixed groups and on the
permutation groups of a seeded corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab.constructions import random_corpus, replay
from vanishlab.group_engine import (
    FiniteGroup,
    GroupDomainError,
    GroupSizeError,
    MAX_GROUP_ORDER,
    enumerate_permutations,
    from_permutations,
    parse_cycles,
    perm_inv,
    perm_mul,
)


def reference(degree, generators):
    """The tuple BFS, compiled through `mul`."""
    gens = [parse_cycles(g, degree) if isinstance(g, str) else tuple(g) for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    elements = [ident]
    for a in elements:  # grows as it goes: breadth-first order
        for g in gens:
            b = perm_mul(a, g)
            if b not in seen:
                seen.add(b)
                elements.append(b)
    return FiniteGroup(elements, perm_mul, perm_inv, ident, generators=gens)


def assert_same_group(G, H):
    assert G.elements == H.elements
    assert G.generators == H.generators
    a, b = G.compiled, H.compiled
    assert a.gens == b.gens
    for name in ("R", "inv", "parent", "gen"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert [x.tolist() for x in a.levels] == [x.tolist() for x in b.levels]


def agl1(p, root):
    """AGL(1, p) on the points of GF(p): x -> x + 1 and x -> root * x."""
    return [tuple((x + 1) % p for x in range(p)), tuple(root * x % p for x in range(p))]


GROUPS = {
    "A7": (7, ["(1 2 3 4 5 6 7)", "(1 2 3)"]),
    "S7": (7, ["(1 2 3 4 5 6 7)", "(1 2)"]),
    "AGL(1,31)": (31, agl1(31, 3)),
    "trivial": (1, ["()"]),
    "no generators": (3, []),
    "C2 by one generator": (2, ["(1 2)"]),
    # more generators than the order's bit length: the compiler prunes
    "S4 redundant": (4, ["(1 2 3 4)", "()", "(1 2)", "(1 2)", "(1 3)",
                         "(2 4)", "(1 2 3 4)", "(3 4)"]),
}


@pytest.mark.parametrize("name", GROUPS)
def test_index_array_enumeration_matches_the_tuple_bfs(name):
    degree, gens = GROUPS[name]
    assert_same_group(from_permutations(degree, gens), reference(degree, gens))


@pytest.fixture(scope="module")
def corpus_42():
    """The order of every group built while the members of
    random_corpus(42, 200, 2000) are replayed."""
    orders = []
    init = FiniteGroup.__init__

    def recording(self, elements, *args, **kwargs):
        init(self, elements, *args, **kwargs)
        orders.append(self.order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteGroup, "__init__", recording)
        for draw in random_corpus(42, 200, 2000):
            replay(draw.provenance)
    return orders


@pytest.fixture(scope="module")
def corpus_1():
    return [replay(draw.provenance) for draw in random_corpus(1, 400, 1000)]


def test_corpus_builds_no_group_above_its_cap(corpus_42):
    # a random draw over the cap stops enumerating there and is drawn
    # again, so no member replays to a group above the cap
    orders = corpus_42
    assert len(orders) >= 200 and max(orders) <= 2000


def is_permutation_group(G):
    ident = G.identity
    return (isinstance(ident, tuple) and ident == tuple(range(len(ident)))
            and all(sorted(g) == list(ident) for g in G.elements))


def test_corpus_permutation_groups_match_the_tuple_bfs(corpus_1):
    # the random draws and some case-A families are permutation groups
    perm = [e.group for e in corpus_1 if is_permutation_group(e.group)]
    assert len(perm) > 300
    assert any(not e.provenance.startswith("perm ") for e in corpus_1
               if e.group in perm)
    for G in perm:
        assert_same_group(G, reference(len(G.identity), G.generators))


def test_order_bound_is_inclusive():
    s4 = ["(1 2 3 4)", "(1 2)"]
    assert from_permutations(4, s4, max_order=24).order == 24
    with pytest.raises(GroupSizeError):
        from_permutations(4, s4, max_order=23)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_cap_check_matches_the_built_order(data):
    # enumeration alone decides whether a group fits a cap, as a corpus
    # draw does: it raises exactly when the built group would be too large
    degree = data.draw(st.integers(3, 7), label="degree")
    gens = [data.draw(st.permutations(range(degree)), label="generator")
            for _ in range(2)]
    cap = data.draw(st.sampled_from([1, 2, 6, 24, 120, 1000, 5040]), label="cap")
    order = from_permutations(degree, gens).order
    if order > cap:
        with pytest.raises(GroupSizeError):
            enumerate_permutations(degree, gens, cap)
    else:
        levels, rows = enumerate_permutations(degree, gens, cap)
        assert sum(map(len, levels)) == sum(map(len, rows)) == order


def test_s8_stops_at_the_default_cap():
    with pytest.raises(GroupSizeError):
        from_permutations(8, ["(1 2 3 4 5 6 7 8)", "(1 2)"])
    assert MAX_GROUP_ORDER < 40320


@pytest.mark.parametrize("degree,gens", [
    (0, []),
    (3, [(0, 1, 1)]),
    (3, [(0, 1)]),
])
def test_bad_permutations_are_domain_errors(degree, gens):
    with pytest.raises(GroupDomainError):
        from_permutations(degree, gens)


def test_handed_rows_are_verified():
    # rows that are not the right multiplications of a group law
    G = from_permutations(3, ["(1 2 3)"])
    swapped = G.compiled.R[:, [1, 0, 2]]
    with pytest.raises(GroupDomainError):
        FiniteGroup(G.elements, perm_mul, perm_inv, G.identity,
                    generators=G.generators, right=swapped)
    with pytest.raises(GroupDomainError):
        FiniteGroup(G.elements, perm_mul, perm_inv, G.identity,
                    generators=G.generators, right=G.compiled.R[:, :2])
