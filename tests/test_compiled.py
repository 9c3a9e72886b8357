"""The compiled (integer-indexed) group view against plain `mul`.

Conjugacy classes, class matrices, power maps, the exponent and every
structure query come from index arrays; here each is rebuilt the slow way,
element by element through `G.mul`, and must agree exactly.  Construction
must reject any law that is not a group law, and the queries must never
call `mul` again."""

import gc
import weakref
from functools import reduce
from math import lcm

import numpy as np
import pytest

from vanishlab import character_lab
from vanishlab.character_lab import (
    _class_combination,
    _power_classes,
    class_data,
    dixon_prime,
    dixon_table,
    proportion,
)
from vanishlab.classifier import classify_theorem_a
from vanishlab.abelian_core import AbelianGroup
from vanishlab.constructions import build_case_family, catalog_entries, random_corpus
from vanishlab.cyclotomic import p_valuation
from vanishlab.groupfile import emit_group, parse_group
from vanishlab.group_engine import (
    FiniteGroup,
    GroupDomainError,
    SemidirectGroup,
    alternating_7,
    builtin_h,
    cyclic_group,
    direct_product,
    from_permutations,
    is_a_group,
    semidirect_from_matrices,
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
    assert np.array_equal(
        _power_classes(G, L, G.exponent),
        reference_power_classes(G, classes, class_of, G.exponent),
    )


def s5_x_s4():
    return from_permutations(9, ["(1 2 3 4 5)", "(1 2)", "(6 7 8 9)", "(6 7)"], name="S5xS4")


@pytest.mark.parametrize("name", list(GROUPS) + ["S5xS4"])
def test_class_combination_matches_the_reference_matrices(name):
    # S5 x S4 (order 2880, 35 classes) counts its 100,800 hits in two row
    # blocks
    G = s5_x_s4() if name == "S5xS4" else GROUPS[name]()
    classes, class_of = reference_classes(G)
    data = class_data(G)
    r = data.count
    L = G.compiled.left_translations([G.index[rep] for rep in data.reps])
    if name == "S5xS4":
        assert r * G.order > character_lab._BINCOUNT_HITS
    p = dixon_prime(G.order, G.exponent)
    c = np.random.default_rng(r).integers(0, p, size=r)
    expected = np.zeros((r, r), dtype=np.int64)
    for i, ci in enumerate(c.tolist()):
        M = reference_class_matrix(G, classes, class_of, i)
        assert np.array_equal(
            _class_combination(G, data, L, np.eye(r, dtype=np.int64)[i]), M
        )
        expected = (expected + ci * M) % p
    assert np.array_equal(_class_combination(G, data, L, c) % p, expected)


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
    # construction computed or was handed the |G| * |generators| products the table reads
    assert G.compiled.R.shape == (len(G.generators), G.order)
    assert calls == 0


def test_finished_group_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        # C7 : C6, as `vanishlab ptable` reads it
        G = parse_group("semidirect\nabelian C7\ncomplement C6\nmatrix 3\n")
        assert proportion(G).proportion > 0
        table = dixon_table(G)
        assert table.group is G
        assert dixon_table(G).ids is table.ids  # served from the cache
        assert G.A_handle.order * G.H_handle.order == G.order
        del table
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


# -- structure queries against plain `mul` --------------------------------


def reference_closure(G, gens):
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = G.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def reference_conj(G, g, h):
    return G.mul(G.mul(G.inv(h), g), h)


def reference_order(G, g):
    k, x = 1, g
    while x != G.identity:
        k, x = k + 1, G.mul(x, g)
    return k


def reference_normalizer(G, members, gens):
    return frozenset(
        g for g in G.elements if all(reference_conj(G, h, g) in members for h in gens)
    )


def reference_sylow(G, p):
    """Normalizer percolation: the p-part of the first element (by index)
    of order divisible by p, grown by the p-part of the first normalizing
    element outside the subgroup so far."""

    def p_part(g):
        o = reference_order(G, g)
        x = G.identity
        for _ in range(o // p ** p_valuation(o, p)):
            x = G.mul(x, g)
        return x

    target = p ** p_valuation(G.order, p)
    gens = [p_part(g) for g in G.elements if reference_order(G, g) % p == 0][:1]
    current = reference_closure(G, gens)
    while len(current) < target:
        norm = reference_normalizer(G, current, gens)
        gens.append(next(
            p_part(g) for g in G.elements
            if g in norm and g not in current and p_part(g) not in current
        ))
        current = reference_closure(G, gens)
    return current


def reference_core(G, S):
    """The intersection of the conjugates of S, reached through the generators."""
    core, seen, frontier = set(S), {S}, [S]
    while frontier:
        cur = frontier.pop()
        for g in G.generators:
            conj = frozenset(reference_conj(G, s, g) for s in cur)
            if conj not in seen:
                seen.add(conj)
                frontier.append(conj)
                core &= conj
    return frozenset(core)


@pytest.mark.parametrize("name", list(GROUPS))
def test_structure_queries_match_mul(name):
    G = GROUPS[name]()
    assert G.center.elements == frozenset(
        z for z in G.elements
        if all(G.mul(z, g) == G.mul(g, z) for g in G.generators)
    )
    for rep, _ in G.conjugacy_classes:
        assert G.centralizer(rep).elements == frozenset(
            h for h in G.elements if G.mul(rep, h) == G.mul(h, rep)
        )
    cores = []
    for p in G.primes():
        S = G.sylow(p)
        assert S.elements == reference_sylow(G, p)
        assert G.normalizer(S).elements == reference_normalizer(G, S.elements, S.elements)
        assert G.p_core(p).elements == reference_core(G, S.elements)
        cores.extend(G.p_core(p).elements)
    assert G.fitting.elements == reference_closure(G, cores)
    assert G.derived_subgroup.elements == reference_closure(G, {
        G.mul(G.mul(G.inv(g), G.inv(s)), G.mul(g, s))
        for g in G.elements for s in G.generators
    })

    N = G.fitting
    Q = G.quotient(N)
    cosets = []
    for g in G.elements:
        if all(g not in c for c in cosets):
            cosets.append(frozenset(G.mul(g, n) for n in N.elements))
    assert Q.elements == cosets
    pi = Q.projection
    for g in G.elements:
        for h in G.elements[:: max(1, G.order // 24)]:
            assert Q.mul(pi[g], pi[h]) == pi[G.mul(g, h)]
            assert Q.inv(pi[h]) == pi[G.inv(h)]


@pytest.mark.parametrize("make", [
    s4,
    lambda: build_case_family("B4_1").group,
    lambda: build_case_family("B2", variant="c4").group,
    lambda: build_case_family("A", m=6, variant="s3xa4").group,
    lambda: build_case_family("PGROUP", shape="q16").group,
])
def test_queries_run_on_the_compiled_law_only(make):
    G = make()
    calls = 0
    mul, inv = G.mul, G.inv

    def counted(f):
        def call(*args):
            nonlocal calls
            calls += 1
            return f(*args)
        return call

    G.mul, G.inv = counted(mul), counted(inv)
    classify_theorem_a(G)
    proportion(G)
    dixon_table(G)
    G.center
    G.sylow(2)
    G.quotient(G.fitting)
    if G.order <= 500:
        G.normal_subgroups()
    assert calls == 0


# -- shared Sylow subgroups and grown spans ---------------------------------


def test_sylow_is_memoized_as_one_read_only_handle():
    G = s4()
    S = G.sylow(2)
    assert G.sylow(2) is S and G.sylow(3) is G.sylow(3)
    for name in ("idx", "mask", "gens", "basis"):
        with pytest.raises(ValueError):
            getattr(S, name)[0] = 1
    with pytest.raises(ValueError):  # a basis found after construction
        G.p_core(2).basis[0] = 1


def test_subgroup_handle_decides_abelian_once(monkeypatch):
    G = s4()
    D8, C3 = G.sylow(2), G.sylow(3)
    calls = []
    conjugates = type(G.compiled).conjugates
    monkeypatch.setattr(type(G.compiled), "conjugates",
                        lambda view, targets: calls.append(1) or conjugates(view, targets))
    assert [D8.is_abelian(), C3.is_abelian(), D8.is_abelian(), C3.is_abelian()] == \
        [False, True, False, True]
    assert len(calls) == 2


@pytest.mark.parametrize("make", [
    s4,
    lambda: build_case_family("B4_1").group,
    lambda: build_case_family("PGROUP", shape="q16").group,
])
def test_structure_queries_percolate_once_per_prime(monkeypatch, make):
    runs = []
    percolate = FiniteGroup._percolate
    monkeypatch.setattr(
        FiniteGroup, "_percolate", lambda G, p: runs.append(p) or percolate(G, p)
    )
    G = make()
    assert G.fitting.order > 1
    is_a_group(G)
    for p in G.primes():
        assert G.sylow(p).mask[G.p_core(p).idx].all()
    assert sorted(runs) == G.primes()


def reference_span(view, gens):
    """The span with the left translations of the whole basis refilled
    at every step."""
    mask = np.arange(view.order) == view.identity
    basis = []
    for g in map(int, gens):
        if not mask[g]:
            basis.append(g)
            mask = view._reach(view.left_translations(basis), mask)
    return mask, basis


def test_grown_spans_match_the_refilled_span(monkeypatch):
    for entry in random_corpus(1, 400, 1000):
        G = entry.group
        view = G.compiled
        gens = G.indices(G.generators)
        mask, basis = reference_span(view, gens)
        got = view.span(gens)
        assert np.array_equal(got[0], mask) and got[1] == basis
        assert np.array_equal(got[2], view.left_translations(basis))
        H = view.subgroup(gens)
        assert np.array_equal(H.mask, mask) and H.basis.tolist() == basis
        # every step of the Sylow percolation against the span of all the
        # p-elements it has taken so far
        steps = []
        span = view.span
        monkeypatch.setattr(view, "span", lambda *a: steps.append(span(*a)) or steps[-1])
        for p in G.primes():
            shared = G.sylow(p)  # may be memoized by the builder
            steps.clear()
            S = G._percolate(p)
            assert len(steps) == len(S.gens) and S == shared
            for k, (got_mask, got_basis, _) in enumerate(steps, 1):
                mask, basis = reference_span(view, S.gens[:k])
                assert np.array_equal(got_mask, mask) and got_basis == basis
            assert np.array_equal(S.mask, mask) and S.basis.tolist() == basis
        monkeypatch.undo()


# -- the group law check at construction -----------------------------------


def test_construction_rejects_a_loop_of_order_5():
    # a Latin square with identity 0 and x x = 0: a loop, not a group
    T = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupDomainError):
        FiniteGroup(range(5), lambda a, b: T[a][b], lambda a: a, 0, generators=[1, 2])


def test_construction_rejects_m5_with_two_products_swapped():
    M5 = build_case_family("M5").group
    s = M5.generators[0]
    x1, x2 = M5.elements[1], M5.elements[2]
    swapped = {x1: M5.mul(x2, s), x2: M5.mul(x1, s)}

    def mul(x, y):
        return swapped[x] if y == s and x in swapped else M5.mul(x, y)

    with pytest.raises(GroupDomainError, match="associative"):
        FiniteGroup(M5.elements, mul, M5.inv, M5.identity, generators=M5.generators)


@pytest.mark.parametrize("tag,params", [
    ("B2", {"variant": "s4"}),
    ("B2", {"variant": "c4"}),
    ("A", {"m": 5, "variant": "c2^4"}),
])
def test_semidirect_law_matches_the_module_action(tag, params):
    G = build_case_family(tag, **params).group
    spec = G.semidirect_spec
    A, H = spec.A, spec.H
    for a1, h1 in G.elements:
        for a2, h2 in G.elements:
            moved = spec.action[h1](A.element(a2))
            expected = ((A.element(a1) + moved).coords, H.mul(h1, h2))
            assert G.mul((a1, h1), (a2, h2)) == expected
        inverse = spec.action[H.inv(h1)](-A.element(a1))
        assert G.inv((a1, h1)) == (inverse.coords, H.inv(h1))


def test_semidirect_rows_agree_with_mul():
    groups = [e.group for e in catalog_entries(1000) if hasattr(e.group, "semidirect_spec")]
    groups += [
        build_case_family("M5").group,
        # two complement generators
        parse_group("semidirect\nabelian C3xC3\ncomplement V4\n"
                    "matrix -1 0 / 0 1\nmatrix 1 0 / 0 -1\n"),
        # A of rank 0
        semidirect_from_matrices(AbelianGroup.of(), builtin_h("S3"), [[], []]),
    ]
    for G in groups:
        view = G.compiled
        assert len(view.gens) == len(G.generators)
        for t, j in enumerate(view.gens):
            s = G.elements[j]
            assert [G.elements[k] for k in view.R[t].tolist()] == \
                [G.mul(x, s) for x in G.elements], (G.name, t)


def test_semidirect_products_compile_without_calling_mul(monkeypatch):
    calls = 0
    init = FiniteGroup.__init__

    def counting_init(group, elements, mul, *args, **kwargs):
        def counted(x, y):
            nonlocal calls
            calls += 1
            return mul(x, y)
        init(group, elements, counted, *args, **kwargs)

    monkeypatch.setattr(SemidirectGroup, "__init__", counting_init)
    G = build_case_family("M5").group
    assert parse_group(emit_group(G)).order == G.order == 6480
    assert calls == 0


# -- no reference cycles ------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: build_case_family("B4_1").group,
    lambda: build_case_family("A", m=4, variant="c5").group,
])
def test_group_with_cached_structure_is_freed_without_the_cycle_collector(make):
    gc.collect()
    gc.disable()
    try:
        G = make()
        verdict = classify_theorem_a(G)
        assert proportion(G).proportion == verdict.predicted_p
        assert G.fitting.order * G.center.order > 1
        assert "fitting" in vars(G) and "center" in vars(G)
        del verdict
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()
