"""Finite abelian groups: duality, annihilators and commutator structure."""

import itertools
import random
from functools import reduce
from math import gcd, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab import abelian_core
from vanishlab.abelian_core import (
    AbelianDomainError,
    AbelianGroup,
    AbHom,
    AbSubgroup,
    abelian_type,
    acted_by,
    all_characters,
    commutator_hom,
    commutator_map,
    embeds_in_C4_x_C2k,
    fixed_subgroup,
    generated_submodule,
    omega,
    pairing,
    parse_abelian_literal,
    perp,
    perp_dual,
)
from vanishlab.groupfile import GroupFileError, parse_group

SMALL_GROUPS = [
    AbelianGroup.of(2),
    AbelianGroup.of(8),
    AbelianGroup.of(2, 2),
    AbelianGroup.of(4, 2),
    AbelianGroup.of(4, 4),
    AbelianGroup.of(6),
    AbelianGroup.of(12, 2),
    AbelianGroup.of(3, 3),
    AbelianGroup.of(8, 8),
]


def random_involution(A: AbelianGroup, rng: random.Random) -> AbHom:
    autos = [AbHom.identity(A), AbHom.from_matrix(A, -np.eye(A.rank, dtype=np.int64))]
    # throw in coordinate swaps / sign twists when shapes permit
    n = len(A.factor_orders)
    for _ in range(8):
        rows = [[0] * n for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        ok = True
        for i, j in enumerate(perm):
            if A.factor_orders[i] != A.factor_orders[j]:
                ok = False
                break
            rows[i][j] = rng.choice([1, -1])
        if not ok:
            continue
        f = AbHom.from_matrix(A, rows)
        if f.compose(f).is_identity():
            autos.append(f)
    return rng.choice(autos)


# -- basics ---------------------------------------------------------------


def test_literal_round_trip():
    assert parse_abelian_literal("C8xC8").factor_orders == (8, 8)
    assert parse_abelian_literal("c4xC2xc2").factor_orders == (4, 2, 2)
    assert parse_abelian_literal("C1").factor_orders == ()
    with pytest.raises(AbelianDomainError):
        parse_abelian_literal("D8")


def test_orders_and_exponent():
    A = AbelianGroup.of(4, 6)
    assert A.order == 24
    assert A.exponent == 12
    assert A.element_orders[A.index_of((2, 3))] == 2
    assert A.element_orders[A.index_of((1, 1))] == 12


def test_canonical_decomposition_merges_and_splits():
    # the abelian type is the primary decomposition, by prime and then descending
    assert abelian_type(AbelianGroup.of(6).element_orders) == (2, 3)
    assert abelian_type(AbelianGroup.of(12, 2).element_orders) == (4, 2, 3)
    assert abelian_type(AbelianGroup.of(2, 4).element_orders) == (4, 2)


def test_hom_rejects_non_homomorphism():
    A = AbelianGroup.of(4)
    B = AbelianGroup.of(8)
    with pytest.raises(AbelianDomainError, match="images do not define a homomorphism"):
        AbHom(A, B, [[1]])  # image of order 8 from a C4 generator
    assert AbHom(A, B, [[2]])(np.array([[1], [3]])).tolist() == [[2], [6]]  # order 4: a map
    with pytest.raises(AbelianDomainError, match="need one image per source generator"):
        AbHom(A, B, [[2], [2]])  # two rows for one generator
    with pytest.raises(AbelianDomainError, match="need one image per source generator"):
        AbHom(A, B, [])
    C = AbelianGroup.of(4, 2)
    with pytest.raises(AbelianDomainError, match="coordinate length mismatch"):
        AbHom.from_matrix(C, [(1, 0, 3), (0, 1)])  # a row too long
    with pytest.raises(AbelianDomainError, match="coordinate length mismatch"):
        AbHom.from_matrix(C, [(1, 0), (1,)])  # a row too short
    with pytest.raises(AbelianDomainError, match="images do not define a homomorphism"):
        AbHom.from_matrix(C, [(1, 0), (1, 0)])  # the C2 generator onto an order-4 element
    # the group-file diagnostic is unchanged, at the first matrix line
    with pytest.raises(GroupFileError) as info:
        parse_group("semidirect\nabelian C2xC4\ncomplement C2\nmatrix 0 1 / 1 0\n")
    assert str(info.value) == "line 4, column 1: images do not define a homomorphism"
    # a factor order beyond int64 is refused before any int64 conversion
    with pytest.raises(AbelianDomainError, match="factor orders beyond int64"):
        AbHom.identity(AbelianGroup.of(2**70))


def test_hom_powers_and_inverse():
    A = AbelianGroup.of(5, 5)
    x = AbHom.from_matrix(A, [(0, 1), (4, 4)])  # companion of x^2+x+1 ... order 3
    assert x.multiplicative_order() == 3
    assert (x**3).is_identity()
    assert x.inverse().compose(x).is_identity()
    assert x**-1 == x.inverse()
    # a map is its reduced matrix: equal maps compare and hash equal
    assert x.matrix.dtype == np.int64 and not x.matrix.flags.writeable
    same = AbHom.from_matrix(A, [(5, 10**30 + 1), (-1, 2**70 + 5)])  # beyond int64
    assert same.matrix.tolist() == [[0, 1], [4, 4]]
    assert same == x and hash(same) == hash(x)
    ident = AbHom.identity(A)
    for f in (x**3, x.compose(x.compose(x)), AbHom.from_matrix(A, [(6, 5), (10, -4)])):
        assert f == ident and hash(f) == hash(ident)
    assert x.compose(x) == x**-1 and hash(x.compose(x)) == hash(x**-1)
    assert x != ident and x != AbHom(A, AbelianGroup.of(5, 5, 5), [(0, 1, 0), (4, 4, 0)])
    # it maps coordinate rows on the last axis
    assert x((1, 0)).tolist() == [0, 1]
    assert np.array_equal(x(A.table), A.table[x.on_table])


def test_subgroup_closure_and_type():
    A = AbelianGroup.of(8, 8)
    B = AbSubgroup.from_elements(A, [(2, 0), (0, 4)])
    assert B.order == 8
    assert B.isomorphism_type().factor_orders == (4, 2)
    assert B.exponent() == 4
    with pytest.raises(AbelianDomainError, match="coordinate length mismatch"):
        AbSubgroup.from_elements(AbelianGroup.of(4, 2), [(1, 0, 0)])


def test_omega_layers():
    A = AbelianGroup.of(8, 2)
    assert omega(A, 0).order == 1
    assert omega(A, 1).order == 4
    assert omega(A, 2).order == 8
    assert omega(A, 3).order == 16
    with pytest.raises(AbelianDomainError):
        omega(AbelianGroup.of(6), 1)


def test_embedding_criterion():
    A = AbelianGroup.of(8, 8)
    assert embeds_in_C4_x_C2k(AbSubgroup.from_elements(A, [(2, 0)]))  # C4
    assert embeds_in_C4_x_C2k(AbSubgroup.from_elements(A, [(4, 0), (0, 4)]))  # C2 x C2
    # C4 x C4 has four squares
    assert not embeds_in_C4_x_C2k(AbSubgroup.from_elements(A, [(2, 0), (0, 2)]))
    assert not embeds_in_C4_x_C2k(AbSubgroup.from_elements(A, [(1, 0)]))  # C8


# -- duality suite --------------------------------------------------------


@pytest.mark.parametrize("trial", range(4))
def test_annihilator_laws_random(trial):
    rng = random.Random(1000 + trial)
    for _ in range(250):
        A = rng.choice([g for g in SMALL_GROUPS if g.order <= 256])
        gens = [
            tuple(rng.randrange(d) for d in A.factor_orders)
            for _ in range(rng.randrange(3))
        ]
        B = AbSubgroup.from_elements(A, gens)
        Bp = perp(B)
        assert B.order * Bp.order == A.order
        assert perp_dual(Bp) == B


def test_annihilator_reverses_inclusion():
    A = AbelianGroup.of(4, 4)
    B = AbSubgroup.from_elements(A, [(2, 0)])
    C = AbSubgroup.from_elements(A, [(2, 0), (0, 2)])
    assert B <= C
    assert perp(C) <= perp(B)


def test_perp_closes_its_subgroup_once(monkeypatch):
    A = AbelianGroup.of(4, 4, 2)
    B = AbSubgroup.from_elements(A, [(1, 2, 0), (0, 2, 1)])
    calls = []
    close = abelian_core._close
    monkeypatch.setattr(abelian_core, "_close",
                        lambda *args: calls.append(args) or close(*args))
    Bp = perp(B)
    assert len(calls) == 1
    # the generators kept from the closure generate the same mask
    monkeypatch.undo()
    assert Bp.generators.size and Bp.generators.all()  # table index 0 is zero
    assert AbSubgroup(A, Bp.generators) == Bp
    assert B.order * Bp.order == A.order


@pytest.mark.parametrize("members", [[-1], [1.5], [8], [0, 9], [True]],
                         ids=["negative", "float", "past-end", "one-past-end", "bool"])
def test_subgroup_rejects_bad_table_indices(members):
    with pytest.raises(AbelianDomainError):
        AbSubgroup(AbelianGroup.of(4, 2), members)


def test_subgroup_of_no_members_is_trivial():
    A = AbelianGroup.of(4, 2)
    for members in ((), [], np.zeros(0, dtype=np.int16)):
        B = AbSubgroup(A, members)
        assert B == AbSubgroup.trivial(A) and B.order == 1
        assert B.generators.dtype == np.int64 and not B.generators.size


def test_characters_separate_points():
    A = AbelianGroup.of(4, 2)
    for a in A.table[1:].tolist():  # table row 0 is zero
        assert any(pairing(A, [alpha], [a])[0, 0] != 0 for alpha in all_characters(A))


def test_dual_action_is_contravariant():
    A = AbelianGroup.of(8, 8)
    x = AbHom.from_matrix(A, [(0, 1), (1, 0)])
    alpha = (1, 2)
    beta = acted_by(A, alpha, x)
    xinv = x.inverse()
    for a in A.table:
        assert pairing(A, [beta], [a])[0, 0] == pairing(A, [alpha], [xinv(a)])[0, 0]


@pytest.mark.parametrize("trial", range(4))
def test_commutator_duality_random(trial):
    # [A,y]^perp = C_{A^}(y) and [A^,y] has the type of [A,y]
    rng = random.Random(2000 + trial)
    for _ in range(50):
        A = rng.choice([g for g in SMALL_GROUPS if g.order <= 256])
        y = random_involution(A, rng)
        image, kernel = commutator_map(A, y)
        assert image.order * kernel.order == A.order

        fixed_chars = AbSubgroup.from_elements(
            A, [alpha for alpha in all_characters(A) if acted_by(A, alpha, y) == alpha]
        )
        assert perp(image) == fixed_chars

        moved = AbSubgroup.from_elements(
            A,
            [
                tuple(b - a for a, b in zip(alpha, acted_by(A, alpha, y)))
                for alpha in all_characters(A)
            ],
        )
        assert (
            moved.isomorphism_type().factor_orders
            == image.isomorphism_type().factor_orders
        )


# -- module machinery -----------------------------------------------------


def test_commutator_hom_is_additive():
    A = AbelianGroup.of(8, 8)
    y = AbHom.from_matrix(A, [(0, 1), (1, 0)])
    gamma = commutator_hom(A, y)
    for _ in range(100):
        rng = random.Random(_)
        a = np.array((rng.randrange(8), rng.randrange(8)))
        b = np.array((rng.randrange(8), rng.randrange(8)))
        assert np.array_equal(gamma(a + b), (gamma(a) + gamma(b)) % 8)


def test_fixed_subgroup():
    A = AbelianGroup.of(4, 4)
    y = AbHom.from_matrix(A, [(0, 1), (1, 0)])
    F = fixed_subgroup(A, [y])
    assert F.order == 4
    assert np.array_equal(y(A.table[F.mask]), A.table[F.mask])


def test_generated_submodule_under_rotation():
    A = AbelianGroup.of(3, 3)
    x = AbHom.from_matrix(A, [(0, 1), (2, 2)])  # fixed-point-free of order 3
    M = generated_submodule(A, A.index_of((1, 0)), [x])
    assert M.order == 9
    assert M.is_invariant_under(x)


def test_generated_submodule_rejects_a_non_automorphism_after_a_memoised_one():
    A = AbelianGroup.of(2, 2)
    swap = AbHom.from_matrix(A, [(0, 1), (1, 0)])
    collapse = AbHom.from_matrix(A, [(1, 1), (1, 1)])
    a = A.index_of((1, 0))
    assert generated_submodule(A, a, [swap]).order == 4
    for _ in range(2):  # the verdict on collapse is memoised after the first
        with pytest.raises(AbelianDomainError):
            generated_submodule(A, a, [collapse])
        with pytest.raises(AbelianDomainError):
            generated_submodule(A, a, [swap, collapse])
    assert swap.is_automorphism() and not collapse.is_automorphism()
    # the memo takes no part in equality or hashing
    fresh = AbHom.from_matrix(A, [(1, 1), (1, 1)])
    assert fresh == collapse and hash(fresh) == hash(collapse)
    with pytest.raises(AbelianDomainError):
        generated_submodule(A, a, [fresh])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_GROUPS),
    st.data(),
)
def test_subgroup_join_and_meet_are_lattice_ops(A, data):
    coords = st.tuples(*(st.integers(0, d - 1) for d in A.factor_orders))
    gens1 = data.draw(st.lists(coords, max_size=2))
    gens2 = data.draw(st.lists(coords, max_size=2))
    B = AbSubgroup.from_elements(A, gens1)
    C = AbSubgroup.from_elements(A, gens2)
    meet = B.intersection(C)
    join = B.join(C)
    assert meet <= B and meet <= C
    assert B <= join and C <= join
    # product formula |BC||B n C| = |B||C| (everything is normal here)
    assert join.order * meet.order == B.order * C.order


# -- masks against a frozenset reference ----------------------------------


def reference_close(A: AbelianGroup, gens) -> frozenset:
    """The subgroup generated by coordinate tuples, as a frozenset of
    tuples, by coset extension on tuples."""
    orders = A.factor_orders
    members = [(0,) * A.rank]
    seen = set(members)
    for g in gens:
        if g in seen:
            continue
        coset = members
        while True:
            coset = [tuple((a + b) % d for a, b, d in zip(c, g, orders)) for c in coset]
            if coset[0] in seen:
                break
            seen.update(coset)
            members.extend(coset)
    return frozenset(seen)


def reference_elements(A: AbelianGroup) -> list:
    return list(itertools.product(*(range(d) for d in A.factor_orders)))


def reference_apply(f: AbHom, c) -> tuple:
    out = [0] * f.target.rank
    for k, img in zip(c, f.matrix.tolist()):
        out = [o + k * v for o, v in zip(out, img)]
    return tuple(o % d for o, d in zip(out, f.target.factor_orders))


def reference_pairs_to_zero(A: AbelianGroup, alpha, a) -> bool:
    L = A.exponent
    return sum((L // d) * x * y for x, y, d in zip(alpha, a, A.factor_orders)) % L == 0


def coords_of(H: AbSubgroup) -> frozenset:
    return frozenset(map(tuple, H.parent.table[np.flatnonzero(H.mask)].tolist()))


def order_census(A: AbelianGroup, members) -> list:
    def order(c):
        return reduce(lcm, (d // gcd(d, x) for x, d in zip(c, A.factor_orders)), 1)

    return sorted(order(c) for c in members)


@st.composite
def small_abelian(draw):
    orders = []
    for _ in range(draw(st.integers(0, 4))):
        room = 256 // prod(orders)
        if room < 2:
            break
        orders.append(draw(st.integers(2, min(room, 16))))
    return AbelianGroup(tuple(orders))


def draw_element(draw, A: AbelianGroup) -> tuple:
    return tuple(draw(st.integers(0, d - 1)) for d in A.factor_orders)


def draw_endomorphism(draw, A: AbelianGroup) -> AbHom:
    # the image of generator i has order dividing d_i
    rows = [
        [draw(st.integers(0, e - 1)) * (e // gcd(d, e)) for e in A.factor_orders]
        for d in A.factor_orders
    ]
    return AbHom.from_matrix(A, rows)


def draw_involution(draw, A: AbelianGroup) -> AbHom:
    n = A.rank
    choices = [AbHom.identity(A), AbHom.from_matrix(A, -np.eye(n, dtype=np.int64))]
    for i in range(n - 1):
        if A.factor_orders[i] == A.factor_orders[i + 1]:
            rows = [[int(j == k) for j in range(n)] for k in range(n)]
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            choices.append(AbHom.from_matrix(A, rows))
    return draw(st.sampled_from(choices))


@settings(max_examples=80, deadline=None)
@given(small_abelian(), st.data())
def test_mask_subgroups_match_the_frozenset_reference(A, data):
    draw = data.draw
    gens1 = [draw_element(draw, A) for _ in range(draw(st.integers(0, 3)))]
    gens2 = [draw_element(draw, A) for _ in range(draw(st.integers(0, 3)))]
    B = AbSubgroup.from_elements(A, gens1)
    C = AbSubgroup.from_elements(A, gens2)
    ref_b, ref_c = reference_close(A, gens1), reference_close(A, gens2)
    everything = reference_elements(A)

    assert coords_of(B) == ref_b and B.order == len(ref_b)
    assert list(map(tuple, A.table[np.flatnonzero(B.mask)].tolist())) == sorted(ref_b)
    assert all(B.mask[A.index_of(c)] == (c in ref_b) for c in everything)
    assert coords_of(B.join(C)) == reference_close(A, gens1 + gens2)
    assert coords_of(B.intersection(C)) == ref_b & ref_c
    assert (B <= C) == (ref_b <= ref_c) and (B == C) == (ref_b == ref_c)

    annihilator = frozenset(
        alpha for alpha in everything
        if all(reference_pairs_to_zero(A, alpha, b) for b in ref_b)
    )
    assert coords_of(perp(B)) == annihilator
    assert coords_of(perp_dual(B)) == annihilator
    alpha = draw_element(draw, A)
    # the kernel of a character is the annihilator of its cyclic span
    assert coords_of(perp(AbSubgroup(A, [A.index_of(alpha)]))) == frozenset(
        a for a in everything if reference_pairs_to_zero(A, alpha, a)
    )

    type_b = B.isomorphism_type()
    assert order_census(type_b, reference_elements(type_b)) == order_census(A, ref_b)

    f = draw_endomorphism(draw, A)
    assert f.is_automorphism() == (
        len({reference_apply(f, a) for a in everything}) == A.order
    )
    y = draw_involution(draw, A)
    assert coords_of(fixed_subgroup(A, [f, y])) == frozenset(
        a for a in everything if reference_apply(f, a) == a == reference_apply(y, a)
    )
    gamma = commutator_hom(A, y)
    image, kernel = commutator_map(A, y)
    assert coords_of(image) == reference_close(
        A, [reference_apply(gamma, g) for g in np.eye(A.rank, dtype=int).tolist()]
    )
    assert coords_of(kernel) == frozenset(
        a for a in everything if not any(reference_apply(gamma, a))
    )

    acting = [y, f] if f.is_automorphism() else [y]
    start = draw_element(draw, A)
    orbit, frontier = {start}, {start}
    while frontier:
        frontier = {reference_apply(g, b) for b in frontier for g in acting} - orbit
        orbit |= frontier
    assert coords_of(generated_submodule(A, A.index_of(start), acting)) == reference_close(
        A, sorted(orbit)
    )


def test_groups_beyond_the_cap_refuse_at_once():
    A = AbelianGroup.of(10**12)
    f = AbHom.from_matrix(A, [[5]])
    with pytest.raises(AbelianDomainError):
        f.is_automorphism()
    with pytest.raises(AbelianDomainError):
        fixed_subgroup(A, [f])
    with pytest.raises(AbelianDomainError):
        # no subgroup of A can be built, so a stand-in carries B's two fields
        perp(SimpleNamespace(parent=A, generators=()))
    with pytest.raises(AbelianDomainError):
        AbSubgroup(A, ())
    with pytest.raises(AbelianDomainError):
        pairing(A, [(10**12 - 1,)], [(10**12 - 1,)])
