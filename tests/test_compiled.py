"""The compiled (integer-indexed) group view against a reference law.

Conjugacy classes, class matrices, power maps, the exponent and every
structure query come from index arrays; here each is rebuilt the slow way,
element by element through a reference law that never reads `compiled`,
and must agree exactly.  Construction must reject any law or rows that do
not define a group law, and no group keeps a law after construction."""

import gc
import hashlib
import re
import weakref
from functools import reduce
from math import lcm

import numpy as np
import pytest

from vanishlab import character_lab, group_engine
from vanishlab.character_lab import (
    _class_combination,
    _power_classes,
    class_data,
    dixon_prime,
    dixon_table,
    proportion,
)
from vanishlab.classifier import classify_theorem_a
from vanishlab.abelian_core import AbelianGroup, AbHom
from vanishlab.constructions import (
    _CATALOG,
    _PGROUP_SHAPES,
    _c4_semi_c4,
    build_case_family,
    catalog_entries,
    random_corpus,
    replay,
)
from vanishlab.cyclotomic import p_valuation
from vanishlab.groupfile import emit_group, parse_group
from vanishlab.group_engine import (
    FiniteGroup,
    GroupDomainError,
    SemidirectGroup,
    SemidirectSpec,
    alternating_7,
    builtin_h,
    cyclic_group,
    direct_product,
    from_permutations,
    is_a_group,
    perm_inv,
    perm_mul,
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


def metacyclic_law(n, t, s):
    """<a, b | a^n = 1, b^2 = a^s, a^b = a^t> on elements (i, d) = a^i b^d."""

    def mul(x, y):
        (i, d), (j, e) = x, y
        return ((i + pow(t, d, n) * j + s * ((d + e) // 2)) % n, (d + e) % 2)

    def inv(x):
        i, d = x
        if d == 0:
            return ((-i) % n, 0)
        return ((-t * i - s) % n, 1)

    return mul, inv


def heisenberg_law():
    """The order-27 extraspecial group of exponent 3."""

    def mul(x, y):
        return (
            (x[0] + y[0]) % 3,
            (x[1] + y[1]) % 3,
            (x[2] + y[2] + x[0] * y[1]) % 3,
        )

    def inv(x):
        return ((-x[0]) % 3, (-x[1]) % 3, (-x[2] + x[0] * x[1]) % 3)

    return mul, inv


def c4_semi_c4_law():
    """C4 x| C4 with the generator acting by inversion."""

    def mul(x, y):
        sign = 1 if x[1] % 2 == 0 else -1
        return ((x[0] + sign * y[0]) % 4, (x[1] + y[1]) % 4)

    def inv(x):
        sign = 1 if x[1] % 2 == 0 else -1
        return ((-sign * x[0]) % 4, (-x[1]) % 4)

    return mul, inv


def reference_law(G, name=None):
    """(mul, inv) on G's elements that never read `G.compiled`: LAWS[name],
    name G's own by default; the modular law of a cyclic group; for a
    semidirect product (a1, h1)(a2, h2) = (a1 + action(h1)(a2), h1 h2) on
    H's reference law; and perm_mul/perm_inv for a permutation group."""
    name = G.name if name is None else name
    if name in LAWS:
        return LAWS[name]
    if re.fullmatch(r"C\d+", name):  # cyclic_group(n)
        n = G.order
        return (lambda a, b: (a + b) % n), (lambda a: -a % n)
    spec = getattr(G, "semidirect_spec", None)
    if spec is None:
        return perm_mul, perm_inv
    A, action = spec.A, spec.action
    index = {h: k for k, h in enumerate(spec.H.elements)}
    hmul, hinv = reference_law(spec.H)

    def mul(x, y):
        (a1, h1), (a2, h2) = x, y
        return (A.element(a1) + action[index[h1]](A.element(a2))).coords, hmul(h1, h2)

    def inv(x):
        a, h = x
        h = hinv(h)
        return action[index[h]](-A.element(a)).coords, h

    return mul, inv


def coset_law(mul, inv):
    """The law of a quotient on its cosets (frozensets), from the parent's:
    a N * c = (a c) N."""
    return (lambda c1, c2: frozenset(mul(next(iter(c1)), b) for b in c2),
            lambda c: frozenset(map(inv, c)))


def product_law(first, second):
    """The componentwise law of a direct product of two reference laws."""
    (mul1, inv1), (mul2, inv2) = first, second
    return (lambda x, y: (mul1(x[0], y[0]), mul2(x[1], y[1])),
            lambda x: (inv1(x[0]), inv2(x[1])))


# the laws of the groups the builders hand in as rows, by group name, and
# of the groups of GROUPS built from other groups, by their key there
LAWS = {
    "D8": metacyclic_law(4, -1, 0),
    "Q8": metacyclic_law(4, -1, 2),
    "D16": metacyclic_law(8, -1, 0),
    "Q16": metacyclic_law(8, -1, 4),
    "SD16": metacyclic_law(8, 3, 0),
    "M16": metacyclic_law(8, 5, 0),
    "3^(1+2)": heisenberg_law(),
    "C4:C4": c4_semi_c4_law(),
    "S4/V4": coset_law(perm_mul, perm_inv),
    "C2xC6": (lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 6),
              lambda x: (-x[0] % 2, -x[1] % 6)),
}


class Reference:
    """A group seen through its reference law: `mul` and `inv` from LAWS
    or `reference_law`, its identity and generators as labels, `index` the
    position of each label, every other attribute the group's."""

    def __init__(self, G, name=None):
        self.group = G
        self.mul, self.inv = reference_law(G, name)
        self.identity = G.elements[G.identity]
        self.generators = [G.elements[j] for j in G.generators]
        self.index = {g: i for i, g in enumerate(G.elements)}

    def __getattr__(self, attr):
        return getattr(self.group, attr)


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
                b = reference_conj(G, a, h)
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
    R = Reference(G, name)
    classes, class_of = reference_classes(R)
    assert [(G.elements[c[0]], labels(G, c)) for c in G.conjugacy_data] == classes
    assert G.class_index.tolist() == [class_of[g] for g in G.elements]

    assert G.exponent == reduce(lcm, (G.element_order(i) for i in range(G.order)), 1)

    data = class_data(G)
    L = G.compiled.left_translations(data.reps)
    assert np.array_equal(
        _power_classes(G, L, G.exponent),
        reference_power_classes(R, classes, class_of, G.exponent),
    )


def s5_x_s4():
    return from_permutations(9, ["(1 2 3 4 5)", "(1 2)", "(6 7 8 9)", "(6 7)"], name="S5xS4")


@pytest.mark.parametrize("name", list(GROUPS) + ["S5xS4"])
def test_class_combination_matches_the_reference_matrices(name):
    # S5 x S4 (order 2880, 35 classes) counts its 100,800 hits in two row
    # blocks
    G = s5_x_s4() if name == "S5xS4" else GROUPS[name]()
    R = Reference(G, name)
    classes, class_of = reference_classes(R)
    data = class_data(G)
    r = data.count
    L = G.compiled.left_translations(data.reps)
    if name == "S5xS4":
        assert r * G.order > character_lab._BINCOUNT_HITS
    p = dixon_prime(G.order, G.exponent)
    c = np.random.default_rng(r).integers(0, p, size=r)
    expected = np.zeros((r, r), dtype=np.int64)
    for i, ci in enumerate(c.tolist()):
        M = reference_class_matrix(R, classes, class_of, i)
        assert np.array_equal(
            _class_combination(G, data, L, np.eye(r, dtype=np.int64)[i]), M
        )
        expected = (expected + ci * M) % p
    assert np.array_equal(_class_combination(G, data, L, c) % p, expected)


def permutation_products(P, k):
    """For the elements P of a permutation group, as rows of points, and
    the rows k of some of them: perm_mul(k, y) and the conjugate y^-1 k y,
    for every k and every y in P, as rows of points."""
    # perm_mul(p, q) maps x to q[p[x]]; y^-1 k y maps x to y[k[y^-1[x]]]
    left = P[:, k].swapaxes(0, 1)
    conj = np.take_along_axis(P[None], k[:, np.argsort(P, axis=1)], axis=2)
    return left, conj


def test_fills_across_work_blocks_match_the_reference_law():
    G = s5_x_s4()
    view = G.compiled
    assert group_engine.FILL_ENTRIES // G.order < G.order  # 91 targets a block
    targets = np.arange(G.order)
    L, K = view.left_translations(targets), view.conjugates(targets)
    assert L.dtype == K.dtype == view.dtype
    P = np.array(G.elements, dtype=np.int8)  # distinct rows: points decide equality
    for lo in range(0, G.order, 48):
        left, conj = permutation_products(P, P[lo:lo + 48])
        assert np.array_equal(P[L[lo:lo + 48]], left)
        assert np.array_equal(P[K[lo:lo + 48]], conj)
    # the array reference is the law of perm_mul and perm_inv
    mul, inv = reference_law(G)
    for k, y in np.random.default_rng(0).integers(0, G.order, size=(200, 2)).tolist():
        x, h = G.elements[k], G.elements[y]
        assert G.elements[L[k, y]] == mul(x, h)
        assert G.elements[K[k, y]] == mul(mul(inv(h), x), h)
    assert view.conjugates([]).shape == (0, G.order)


def test_compiled_view_arrays():
    G = build_case_family("B4_1").group
    mul, inv = reference_law(G)
    view = G.compiled
    index = {g: i for i, g in enumerate(G.elements)}
    for i, g in enumerate(G.elements):
        assert view.inv[i] == index[inv(g)]
        if i != view.identity:
            parent = G.elements[view.parent[i]]
            assert mul(parent, G.elements[view.gens[view.gen[i]]]) == g
    assert view.R.shape == (len(G.generators), G.order)


def test_redundant_generators_are_pruned():
    # the Klein four-group as a law group on (a, b), number 2a + b, handed
    # every member as a generator
    H = FiniteGroup([(a, b) for a in (0, 1) for b in (0, 1)], lambda x, y: x ^ y, 0,
                    [0, 1, 2, 3])
    assert H.generators == [0, 1, 2, 3]
    assert len(H.compiled.R) == 2
    assert sorted(len(c) for c in H.conjugacy_data) == [1, 1, 1, 1]


@pytest.mark.parametrize("make", [alternating_7, lambda: build_case_family("B4_1").group])
def test_table_mul_calls_stay_linear_in_the_order(make):
    G = make()
    assert not hasattr(G, "mul") and not hasattr(G, "inv")
    dixon_table(G)
    # construction computed or was handed the |G| * |generators| products the table reads
    assert G.compiled.R.shape == (len(G.generators), G.order)


def test_finished_group_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        # C7 : C6, as `vanishlab ptable` reads it
        G = parse_group("semidirect\nabelian C7\ncomplement C6\nmatrix 3\n")
        assert proportion(G).proportion > 0
        table = dixon_table(G)
        assert dixon_table(G) is table  # served from the cache
        assert G.A_handle.order * G.semidirect_spec.H.order == G.order
        del table
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


# -- structure queries against plain `mul` --------------------------------


def labels(G, indices):
    """The elements of G at the given indices, as a set."""
    return frozenset(G.elements[i] for i in np.asarray(indices).tolist())


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
    R = Reference(G, name)
    assert labels(G, G.center.idx) == frozenset(
        z for z in G.elements
        if all(R.mul(z, g) == R.mul(g, z) for g in R.generators)
    )
    for c in G.conjugacy_data:
        rep = G.elements[c[0]]
        assert labels(G, G.centralizer(c[0]).idx) == frozenset(
            h for h in G.elements if R.mul(rep, h) == R.mul(h, rep)
        )
    cores = []
    for p in G.primes():
        S = labels(G, G.sylow(p).idx)
        assert S == reference_sylow(R, p)
        assert labels(G, G.normalizer(G.sylow(p)).idx) == reference_normalizer(R, S, S)
        assert labels(G, G.p_core(p).idx) == reference_core(R, S)
        cores.extend(labels(G, G.p_core(p).idx))
    assert labels(G, G.fitting.idx) == reference_closure(R, cores)
    assert labels(G, G.derived_subgroup.idx) == reference_closure(R, {
        R.mul(R.mul(R.inv(g), R.inv(s)), R.mul(g, s))
        for g in G.elements for s in R.generators
    })

    N = G.fitting
    Q = G.quotient(N)
    cosets = []
    for g in G.elements:
        if all(g not in c for c in cosets):
            cosets.append(frozenset(R.mul(g, n) for n in labels(G, N.idx)))
    assert Q.elements == cosets
    pi = Q.projection
    view = Q.compiled
    for i, g in enumerate(G.elements):
        for j, h in list(enumerate(G.elements))[:: max(1, G.order // 24)]:
            assert view.product(pi[i], pi[j]) == pi[R.index[R.mul(g, h)]]
            assert view.inv[pi[j]] == pi[R.index[R.inv(h)]]


@pytest.mark.parametrize("make", [
    s4,
    lambda: build_case_family("B4_1").group,
    lambda: build_case_family("B2", variant="c4").group,
    lambda: build_case_family("A", m=6, variant="s3xa4").group,
    lambda: build_case_family("PGROUP", shape="q16").group,
])
def test_queries_run_on_the_compiled_law_only(make):
    G = make()
    assert not hasattr(G, "mul") and not hasattr(G, "inv")
    classify_theorem_a(G)
    proportion(G)
    dixon_table(G)
    G.center
    G.sylow(2)
    G.quotient(G.fitting)
    if G.order <= 500:
        G.normal_subgroups()


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
    assert len(calls) == 1  # C3 has a one-element basis: cyclic, no table


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


@pytest.mark.parametrize("name", list(GROUPS) + ["S5xS4"])
def test_class_sizes_show_a_nonabelian_sylow_only_where_one_is(name):
    G = s5_x_s4() if name == "S5xS4" else GROUPS[name]()
    R = Reference(G, name)
    classes, _ = reference_classes(R)
    for p in G.primes():
        shown = any(
            len(members) % p == 0 and p ** p_valuation(G.order, p) % reference_order(R, x) == 0
            for _, members in classes for x in members
        )
        assert G.sylow_shown_nonabelian(p) == shown
        if shown:
            assert not G.sylow(p).is_abelian()


@pytest.mark.parametrize("make,percolated,outcome", [
    # every Sylow 2-subgroup is shown non-abelian, and no candidate has
    # index 4 or 6: no Sylow subgroup is built
    (lambda: from_permutations(5, ["(1 2 3 4 5)", "(1 2)"]), [], "AtOrAbove"),
    (s5_x_s4, [], "AtOrAbove"),
    # the candidate V4 has index 6; the m = 6 check reads P, then Q
    (s4, [3, 2], "Below case=b2 m=6 p=5/6"),
    # the candidate of index 4 needs Z(Q)
    (GROUPS["D8"], [2], "Below case=b1 m=4 p=3/4"),
    # A4 is an A-group: its class sizes show nothing, so both are built
    (lambda: from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"]), [2, 3],
     "Below case=a m=3 p=2/3"),
    # p = 3 is shown; the (b) path must still decide the 2-part
    (GROUPS["3^(1+2)"], [2], "AtOrAbove"),
])
def test_classification_percolates_only_the_sylow_subgroups_it_reads(
        monkeypatch, make, percolated, outcome):
    runs = []
    percolate = FiniteGroup._percolate
    monkeypatch.setattr(
        FiniteGroup, "_percolate", lambda G, p: runs.append(p) or percolate(G, p)
    )
    G = make()
    assert classify_theorem_a(G).outcome == outcome
    assert runs == percolated
    assert is_a_group(G) == all(G.sylow(p).is_abelian() for p in G.primes())


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
    for draw in random_corpus(1, 400, 1000):
        G = replay(draw.provenance).group
        view = G.compiled
        gens = G.generators
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


# -- groups built from their parent's rows -----------------------------------


def derived_groups(G, law):
    """(group, reference law) for quotients, subgroups made groups and two
    direct products built from G, whose reference law is `law`."""
    S3 = symmetric_3()
    normal = [G.trivial_subgroup(), G.center, G.derived_subgroup, G.fitting, G.full_subgroup()]
    subgroups = [G.sylow(p) for p in (2, 3, 5)] + [G.trivial_subgroup(), G.fitting]
    return ([(G.quotient(N), coset_law(*law)) for N in normal]
            + [(H.as_group(), law) for H in subgroups]
            + [(direct_product(G, S3), product_law(law, (perm_mul, perm_inv))),
               (direct_product(cyclic_group(3), G),
                product_law((lambda a, b: (a + b) % 3, lambda a: -a % 3), law))])


def assert_rows_match(D, law):
    mul, inv = law
    assert not hasattr(D, "mul") and not hasattr(D, "inv")
    view = D.compiled
    for t, j in enumerate(view.gens):
        s = D.elements[j]
        assert [D.elements[k] for k in view.R[t].tolist()] == [mul(x, s) for x in D.elements]
    assert [D.elements[k] for k in view.inv.tolist()] == [inv(x) for x in D.elements]


@pytest.mark.parametrize("name", list(GROUPS))
def test_row_built_groups_match_the_reference_law(name):
    G = GROUPS[name]()
    R = Reference(G, name)
    for D, law in derived_groups(G, (R.mul, R.inv)):
        assert_rows_match(D, law)


@pytest.mark.parametrize("make", [
    lambda: s4().trivial_subgroup().as_group(),
    lambda: (G := s4()).quotient(G.full_subgroup()),
    lambda: direct_product(cyclic_group(1), cyclic_group(1)),
    lambda: semidirect_from_matrices(AbelianGroup.of(), s4().trivial_subgroup().as_group(), []),
    # an empty basis: the Sylow 2-subgroup of a group of odd order
    lambda: build_case_family("PGROUP", shape="heis3").group.sylow(2).as_group(),
])
def test_row_built_groups_of_order_1(make):
    G = make()
    assert G.order == 1 and not hasattr(G, "mul")
    assert G.compiled.R.shape[1] == 1
    assert G.is_abelian and G.center.order == G.fitting.order == 1
    assert len(G.conjugacy_data[0]) == 1 and G.exponent == 1
    assert G.quotient(G.full_subgroup()).order == 1


@pytest.mark.parametrize("make", [make for make, _ in _PGROUP_SHAPES.values()] + [_c4_semi_c4])
def test_builder_rows_match_the_reference_law(make):
    G = make()
    assert_rows_match(G, reference_law(G))


# sha256 of (elements, compiled.gens, compiled.R) of every p-group shape,
# C4:C4, every catalog member, M5 and A7, as built when the p-groups and
# C4:C4 were still tabulated from a law
COMPILED_ROWS_SHA256 = "37c8481fba43a8a2e60f1a6d69129aa9b713cf4f3fea00e10ce18033c0fb9fea"


def test_builders_keep_their_elements_and_compiled_rows():
    groups = [make() for make, _ in _PGROUP_SHAPES.values()] + [_c4_semi_c4()]
    groups += [replay(provenance).group for provenance, _ in _CATALOG]
    groups += [build_case_family("M5").group, alternating_7()]
    digest = hashlib.sha256()
    for G in groups:
        digest.update(repr((G.elements, G.compiled.gens, G.compiled.R.tolist())).encode())
    assert digest.hexdigest() == COMPILED_ROWS_SHA256


# -- the group law check at construction -----------------------------------


def test_construction_rejects_a_loop_of_order_5():
    # a Latin square with identity 0 and x x = 0: a loop, not a group
    T = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupDomainError):
        FiniteGroup(range(5), lambda a, b: T[a][b], 0, [1, 2])


def s3_rows():
    """S3's elements, identity, compiled generators (a 3-cycle, then a
    transposition) and their rows."""
    G = symmetric_3()
    view = G.compiled
    assert [G.element_order(j) for j in view.gens] == [3, 2]
    return G.elements, G.identity, list(view.gens), view.R.astype(np.intp)


def corrupt_shape(elements, e, gens, R):
    return elements, e, gens, R[:, 1:]


def corrupt_range(elements, e, gens, R):
    R[0, 1] = len(elements)
    return elements, e, gens, R


def corrupt_latin(elements, e, gens, R):
    R[0, 1] = R[0, 2]
    return elements, e, gens, R


def corrupt_span(elements, e, gens, R):
    # the 3-cycle alone
    return elements, e, gens[:1], R[:1]


def corrupt_identity(elements, e, gens, R):
    return elements, e, gens[::-1], R


def corrupt_law(elements, e, gens, R):
    # the order-5 loop of the test above, as rows
    T = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    return range(5), 0, [1, 2], np.array(T)[:, [1, 2]].T


@pytest.mark.parametrize("corrupt,message", [
    (corrupt_shape, "one row of n indices"),
    (corrupt_range, "left the element set"),
    (corrupt_latin, "not a Latin square"),
    (corrupt_span, "do not generate"),
    (corrupt_identity, "identity inconsistent"),
    (corrupt_law, "associative"),
])
def test_construction_checks_handed_in_rows(corrupt, message):
    elements, e, gens, R = s3_rows()
    FiniteGroup(elements, None, e, gens, right=R)
    elements, e, gens, R = corrupt(elements, e, gens, R)
    with pytest.raises(GroupDomainError, match=message):
        FiniteGroup(elements, None, e, gens, right=R)


@pytest.mark.parametrize("identity,generators", [
    (-1, [1]), (4, [1]), (0, [1, -1]), (0, [1, 4]), (0.0, [1]), (0, [1.0]), ((0,), [1]),
])
def test_construction_rejects_positions_outside_the_elements(identity, generators):
    FiniteGroup(range(4), lambda a, b: (a + b) % 4, 0, [1])
    with pytest.raises(GroupDomainError, match="positions in range"):
        FiniteGroup(range(4), lambda a, b: (a + b) % 4, identity, generators)


@pytest.mark.parametrize("mul", [
    lambda a, b: a + b, lambda a, b: (a + b) % 4 - 1, lambda a, b: (a + b) % 4 + 0.5,
    lambda a, b: None,
])
def test_construction_rejects_a_law_that_leaves_the_elements(mul):
    with pytest.raises(GroupDomainError, match="multiplication left the element set"):
        FiniteGroup(range(4), mul, 0, [1])


def test_construction_rejects_m5_with_two_products_swapped():
    M5 = build_case_family("M5").group
    elements, m5_mul = M5.elements, reference_law(M5)[0]
    index = {g: i for i, g in enumerate(elements)}
    s = M5.generators[0]

    def mul(x, y):
        if y == s and x in (1, 2):
            x = 3 - x
        return index[m5_mul(elements[x], elements[y])]

    with pytest.raises(GroupDomainError, match="associative"):
        FiniteGroup(elements, mul, M5.identity, M5.generators)


@pytest.mark.parametrize("tag,params", [
    ("B2", {"variant": "s4"}),
    ("B2", {"variant": "c4"}),
    ("A", {"m": 5, "variant": "c2^4"}),
])
def test_semidirect_law_matches_the_module_action(tag, params):
    G = build_case_family(tag, **params).group
    spec, view = G.semidirect_spec, G.compiled
    A, H = spec.A, spec.H
    hmul, hinv = reference_law(H)
    index = {h: k for k, h in enumerate(H.elements)}
    for i, (a1, h1) in enumerate(G.elements):
        for j, (a2, h2) in enumerate(G.elements):
            moved = spec.action[index[h1]](A.element(a2))
            expected = ((A.element(a1) + moved).coords, hmul(h1, h2))
            assert G.elements[view.product(i, j)] == expected
        inverse = spec.action[index[hinv(h1)]](-A.element(a1))
        assert G.elements[view.inv[i]] == (inverse.coords, hinv(h1))


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
        mul = reference_law(G)[0]
        assert len(view.gens) == len(G.generators)
        for t, j in enumerate(view.gens):
            s = G.elements[j]
            assert [G.elements[k] for k in view.R[t].tolist()] == \
                [mul(x, s) for x in G.elements], (G.name, t)


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


def c5_by_c4_spec(wrong_at=None):
    """C5 x| C4, the generator 1 of C4 acting by a -> 2a, and the action of
    C4's element `wrong_at` replaced by the identity map (C4's element k
    has index k)."""
    A, H = AbelianGroup.of(5), cyclic_group(4)
    action = [AbHom.from_matrix(A, [[pow(2, k, 5)]]) for k in range(H.order)]
    if wrong_at is not None:
        action[wrong_at] = AbHom.identity(A)
    return SemidirectSpec(A, H, tuple(action))


def test_semidirect_spec_rejects_an_action_of_the_wrong_length():
    spec = c5_by_c4_spec()
    for action in (spec.action[:-1], spec.action + spec.action[:1]):
        with pytest.raises(GroupDomainError, match="one map per H-element"):
            SemidirectSpec(spec.A, spec.H, action).validate()


def test_a_handle_is_the_subgroup_of_the_a_generators():
    for entry in catalog_entries(2000):
        G = entry.group
        spec = getattr(G, "semidirect_spec", None)
        if spec is not None:
            index = {g: i for i, g in enumerate(G.elements)}
            e = spec.H.elements[spec.H.identity]
            gens = [index[a.coords, e] for a in spec.A.generators()]
            assert G.A_handle == G.subgroup(gens), entry.provenance


@pytest.mark.parametrize("wrong_at", [2, 3])
def test_semidirect_spec_rejects_an_action_wrong_only_off_the_generators(wrong_at):
    c5_by_c4_spec().validate()
    assert cyclic_group(4).generators == [1]
    with pytest.raises(GroupDomainError, match="action is not a homomorphism"):
        c5_by_c4_spec(wrong_at).validate()


def test_semidirect_spec_composes_once_per_element_and_generator(monkeypatch):
    spec = build_case_family("M5").group.semidirect_spec
    calls = 0
    compose = AbHom.compose

    def counted(self, inner):
        nonlocal calls
        calls += 1
        return compose(self, inner)

    monkeypatch.setattr(AbHom, "compose", counted)
    spec.validate()
    assert calls == spec.H.order * len(spec.H.generators)


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
