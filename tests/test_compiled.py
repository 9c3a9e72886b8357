"""The compiled (integer-indexed) group view against plain `mul`.

Conjugacy classes, class matrices, power maps and the exponent come from
index arrays; here each is rebuilt the slow way, element by element
through `G.mul`, and must agree exactly."""

import gc
import weakref
from functools import reduce
from math import lcm

import numpy as np
import pytest

from vanishlab.character_lab import (
    _class_matrix,
    _power_classes,
    class_data,
    dixon_table,
    proportion,
)
from vanishlab.constructions import build_case_family
from vanishlab.groupfile import parse_group
from vanishlab.group_engine import (
    alternating_7,
    cyclic_group,
    direct_product,
    from_permutations,
    symmetric_3,
)


def s4():
    return from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def s4_mod_v4():
    G = s4()
    return G.quotient(G.fitting)


GROUPS = {
    "S3": symmetric_3,
    "D8": lambda: build_case_family("PGROUP", shape="d8").group,
    "Q8": lambda: build_case_family("PGROUP", shape="q8").group,
    "3^(1+2)": lambda: build_case_family("PGROUP", shape="heis3").group,
    "S4": s4,
    "B4_1": lambda: build_case_family("B4_1").group,
    "S4/V4": s4_mod_v4,
    "C2xC6": lambda: direct_product(cyclic_group(2), cyclic_group(6)),
}


def reference_classes(G):
    """Orbit BFS under conjugation by the generators, in element order,
    then sorted by (class size, index of the first element)."""
    seen = {}
    classes = []
    for g in G.elements:
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            a = frontier.pop()
            for h in G.generators:
                b = G.conj(a, h)
                if b not in orbit:
                    orbit.add(b)
                    frontier.append(b)
        classes.append((g, frozenset(orbit)))
        for a in orbit:
            seen[a] = len(classes) - 1
    order = sorted(
        range(len(classes)),
        key=lambda i: (len(classes[i][1]), G.index[classes[i][0]]),
    )
    relabel = {old: new for new, old in enumerate(order)}
    return [classes[i] for i in order], {g: relabel[i] for g, i in seen.items()}


def reference_class_matrix(G, classes, class_of, i):
    r = len(classes)
    M = np.zeros((r, r), dtype=np.int64)
    for x in classes[i][1]:
        xi = G.inv(x)
        for k, (z, _) in enumerate(classes):
            M[class_of[G.mul(xi, z)], k] += 1
    return M


def reference_power_classes(G, classes, class_of, e):
    out = np.zeros((len(classes), e), dtype=np.int64)
    for k, (rep, _) in enumerate(classes):
        x = G.identity
        for l in range(e):
            out[k, l] = class_of[x]
            x = G.mul(x, rep)
    return out


@pytest.mark.parametrize("name", list(GROUPS))
def test_compiled_view_matches_mul(name):
    G = GROUPS[name]()
    classes, class_of = reference_classes(G)
    assert G.conjugacy_data == (classes, class_of)
    assert G.class_index.tolist() == [class_of[g] for g in G.elements]

    assert G.exponent == reduce(lcm, (G.element_order(g) for g in G.elements), 1)

    data = class_data(G)
    L = G.compiled.left_translations([G.index[rep] for rep in data.reps])
    for i in range(data.count):
        assert np.array_equal(
            _class_matrix(G, data, L, i),
            reference_class_matrix(G, classes, class_of, i),
        )
    assert np.array_equal(
        _power_classes(G, L, G.exponent),
        reference_power_classes(G, classes, class_of, G.exponent),
    )


def test_compiled_view_arrays():
    G = build_case_family("B4_1").group
    view = G.compiled
    index = G.index
    for i, g in enumerate(G.elements):
        assert view.inv[i] == index[G.inv(g)]
        if i != view.identity:
            parent = G.elements[view.parent[i]]
            assert G.mul(parent, G.generators[view.gen[i]]) == g
    assert view.R.shape == (len(G.generators), G.order)


def test_redundant_generators_are_pruned():
    G = s4()
    H = G.fitting.as_group()  # handed every member as a generator
    assert len(H.generators) >= 4
    assert len(H.compiled.R) == 2
    assert sorted(len(c) for _, c in H.conjugacy_classes) == [1, 1, 1, 1]


@pytest.mark.parametrize("make", [alternating_7, lambda: build_case_family("B4_1").group])
def test_table_mul_calls_stay_linear_in_the_order(make):
    G = make()
    inner = G.mul
    calls = 0

    def counting(x, y):
        nonlocal calls
        calls += 1
        return inner(x, y)

    G.mul = counting
    dixon_table(G)
    assert 0 < calls <= G.order * (len(G.generators) + 2)


def test_finished_group_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        # C7 : C6, as `vanishlab ptable` reads it
        G = parse_group("semidirect\nabelian C7\ncomplement C6\nmatrix 3\n")
        assert proportion(G).proportion > 0
        table = dixon_table(G)
        assert table.group is G
        assert dixon_table(G).rows is table.rows  # served from the cache
        assert G.A_handle.order * G.H_handle.order == G.order
        del table
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()
