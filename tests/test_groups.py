"""Group engine: conjugacy, subgroup machinery, quotients, Frobenius tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab.group_engine import (
    FiniteGroup,
    GroupDomainError,
    abelian_model,
    alternating_7,
    build_semidirect,
    builtin_h,
    cycles_of,
    cyclic_group,
    direct_product,
    from_permutations,
    is_a_group,
    is_frobenius_with_kernel,
    is_quasi_frobenius,
    parse_cycles,
    perm_inv,
    perm_mul,
    symmetric_3,
)
from vanishlab.classifier import classify_theorem_a
from vanishlab.constructions import build_case_family


def s4():
    return from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def a4():
    return from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4")


def position(G, cycles):
    """The position in G, a group on 4 points, of the permutation written
    in cycle notation."""
    return G.elements.index(parse_cycles(cycles, 4))


def test_s4_class_sizes():
    G = s4()
    assert G.order == 24
    sizes = sorted(len(c) for c in G.conjugacy_data)
    assert sizes == [1, 3, 6, 6, 8]


def test_a7_class_sizes():
    G = alternating_7()
    assert G.order == 2520
    sizes = sorted(len(c) for c in G.conjugacy_data)
    assert sizes == [1, 70, 105, 210, 280, 360, 360, 504, 630]
    assert sum(sizes) == 2520


def test_class_sizes_divide_order():
    for G in (s4(), a4(), symmetric_3(), builtin_h("V4")):
        for cls in G.conjugacy_data:
            assert G.order % len(cls) == 0
            assert G.centralizer(cls[0]).order * len(cls) == G.order


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_cycle_notation_round_trips(p, q):
    p, q = tuple(p), tuple(q)
    assert parse_cycles(cycles_of(p), 6) == p
    assert perm_inv(perm_mul(p, q)) == perm_mul(perm_inv(q), perm_inv(p))


def test_semidirect_invariants():
    for tag, params in [
        ("A", {"m": 3, "variant": "c7"}),
        ("A", {"m": 6, "variant": "c13"}),
        ("B2", {"variant": "s4"}),
        ("B4_1", {}),
    ]:
        G = build_case_family(tag, **params).group
        spec = G.semidirect_spec
        A = G.A_handle
        H = G.subgroup([G.elements.index(((0,) * spec.A.rank, spec.H.elements[h]))
                        for h in spec.H.generators])
        assert A.order * H.order == G.order
        assert A.is_normal()
        assert A.intersection(H).order == 1
        assert A.join(H).order == G.order


def test_quotient_is_a_homomorphic_image():
    G = s4()
    V = G.normal_closure([position(G, "(1 2)(3 4)")])
    assert V.order == 4
    Q = G.quotient(V)
    assert Q.order == 6 and not Q.is_abelian
    rng = random.Random(3)
    pi = Q.projection
    index = {g: i for i, g in enumerate(G.elements)}
    assert all(g in Q.elements[pi[i]] for i, g in enumerate(G.elements))
    for _ in range(50):
        g, h = rng.choice(G.elements), rng.choice(G.elements)
        assert pi[index[perm_mul(g, h)]] == Q.compiled.product(pi[index[g]], pi[index[h]])


def test_quotient_rejects_non_normal():
    G = s4()
    H = G.subgroup([position(G, "(1 2)")])
    with pytest.raises(GroupDomainError):
        G.quotient(H)


def test_center_and_fitting():
    G = s4()
    assert G.center.order == 1
    assert G.fitting.order == 4
    assert G.fitting.is_normal() and G.fitting.is_abelian
    q8 = build_case_family("PGROUP", shape="q8").group
    assert q8.center.order == 2
    assert q8.fitting.order == 8  # nilpotent: F(G) = G
    assert q8.is_nilpotent and q8.nilpotency_class() == 2


def test_sylow_orders():
    G = s4()
    assert G.sylow(2).order == 8
    assert G.sylow(3).order == 3
    assert G.sylow(5).order == 1
    M = build_case_family("M5").group
    assert M.sylow(2).order == 16
    assert M.sylow(3).order == 81
    assert M.sylow(5).order == 5


def test_derived_subgroup():
    G = s4()
    assert G.derived_subgroup.order == 12
    assert G.derived_subgroup.as_group().derived_subgroup.order == 4
    assert symmetric_3().derived_subgroup.order == 3
    assert cyclic_group(12).derived_subgroup.order == 1


def test_normal_subgroups_of_s4():
    orders = sorted(N.order for N in s4().normal_subgroups())
    assert orders == [1, 4, 12, 24]


def test_abelian_invariants():
    G = s4()
    V = G.normal_closure([position(G, "(1 2)(3 4)")])
    assert V.abelian_invariants() == (2, 2)
    assert cyclic_group(6).full_subgroup().abelian_invariants() == (2, 3)
    assert cyclic_group(8).full_subgroup().abelian_invariants() == (8,)


def test_abelian_model_conjugation():
    G = a4()
    V = G.fitting
    model = abelian_model(V)
    assert model.shape.factor_orders in ((2, 2),)
    x = position(G, "(1 2 3)")
    f = model.conjugation_hom(x)
    assert f.compose(f).compose(f).is_identity()
    assert not f.is_identity()


@pytest.mark.parametrize("build", [
    s4, a4, lambda: build_case_family("M5").group,
], ids=["s4", "a4", "m5"])
def test_abelian_model_reads_back_its_members_and_conjugates(build):
    # every abelian normal subgroup of S4 and A4, and F(M5) (order 1296),
    # conjugated by the generators and by elements whose words are longer
    G = build()
    if G.order > 500:
        subgroups = [G.fitting]
    else:
        subgroups = [H for H in G.normal_subgroups() if H.is_abelian]
    for H in subgroups:
        model = abelian_model(H)
        members = H.idx.tolist()
        rows = model.rows[members]
        assert (rows >= 0).all() and model.members[rows].tolist() == members
        for x in [*G.compiled.gens, *range(0, G.order, max(1, G.order // 8))]:
            f = model.conjugation_hom(x)
            conjugates = [G.compiled.conj(b, x) for b in members]
            assert f.on_table[rows].tolist() == model.rows[conjugates].tolist()


def test_abelian_model_fills_no_map_of_the_parent(monkeypatch):
    # W of B4_1 k=1 (order 384, |W| = 64): the model reads W's products from
    # W.as_group(), not from |W| x |G| translations of the parent
    G = build_case_family("B4_1", k="1").group
    verdict = classify_theorem_a(G)
    W, model = verdict.witnesses["W"], verdict.witnesses["module"]

    def refuse(*args):
        raise AssertionError("abelian_model filled a map of the parent")

    monkeypatch.setattr(G.compiled, "_fill", refuse)  # every map of G fills here
    again = abelian_model(W)
    assert again.shape == model.shape
    assert np.array_equal(again.members, model.members)
    assert np.array_equal(again.rows, model.rows)


def test_conjugation_hom_rejects_an_element_that_does_not_normalize():
    G = s4()
    H = G.subgroup([position(G, "(1 2)"), position(G, "(3 4)")])
    model = abelian_model(H)
    model.conjugation_hom(position(G, "(1 2)"))
    with pytest.raises(GroupDomainError):
        model.conjugation_hom(position(G, "(1 2 3)"))


def test_frobenius_examples():
    S3 = symmetric_3()
    K = S3.subgroup([i for i in range(S3.order) if S3.element_order(i) == 3])
    assert is_frobenius_with_kernel(S3, K)
    F = build_case_family("A", m=3, variant="c7").group  # C7 : C3
    assert is_frobenius_with_kernel(F, F.A_handle)
    # direct factors break the centralizer criterion
    D = direct_product(S3, cyclic_group(2))
    K2 = D.subgroup([D.elements.index((S3.elements[k], 0)) for k in K.idx.tolist()])
    assert not is_frobenius_with_kernel(D, K2)


def test_quasi_frobenius_examples():
    assert is_quasi_frobenius(symmetric_3()).holds
    assert is_quasi_frobenius(symmetric_3()).kernel_index == 2
    assert is_quasi_frobenius(a4()).kernel_index == 3
    assert not is_quasi_frobenius(cyclic_group(6)).holds
    assert not is_quasi_frobenius(s4()).holds
    q8 = build_case_family("PGROUP", shape="q8").group
    assert not is_quasi_frobenius(q8).holds


def test_a_group_predicate():
    assert is_a_group(symmetric_3())
    assert is_a_group(a4())
    assert not is_a_group(s4())  # Sylow 2-subgroup is dihedral
    assert is_a_group(build_case_family("M5").group)


def test_element_order_and_exponent():
    G = s4()
    orders = sorted({G.element_order(i) for i in range(G.order)})
    assert orders == [1, 2, 3, 4]
    assert G.exponent == 12
    assert cyclic_group(20).exponent == 20


BAD_INDEX = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=24),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=60, deadline=None)
@given(bad=BAD_INDEX, good=st.lists(st.integers(0, 23), max_size=3), at=st.integers(0, 3))
def test_index_queries_reject_indices_outside_the_group(bad, good, at):
    G = s4()
    elems = [*good[:at], bad, *good[at:]]
    for query in (G.subgroup, G.closure, G.normal_closure, G.centralizer_of_set):
        with pytest.raises(GroupDomainError):
            query(elems)
    for query in (G.element_order, G.centralizer):
        with pytest.raises(GroupDomainError):
            query(bad)


def test_index_queries_take_any_integer_index_type():
    G = s4()
    last = G.order - 1
    assert G.centralizer(np.int16(last)).order == G.centralizer(last).order == 8
    assert G.element_order(np.uint8(last)) == G.element_order(last)
    assert G.subgroup(np.array([last], dtype=np.uint8)) == G.subgroup([last])
    assert G.subgroup(()).order == G.normal_closure([]).order == 1


def test_build_semidirect_rejects_non_automorphism():
    from vanishlab.abelian_core import AbelianGroup
    from vanishlab.group_engine import action_from_generator_matrices

    A = AbelianGroup.of(4)
    H = builtin_h("C2")
    with pytest.raises(GroupDomainError):
        action_from_generator_matrices(A, H, [[[2]]])


def test_group_axiom_checks_reject_bad_tables():
    with pytest.raises(GroupDomainError):
        FiniteGroup([0, 1, 2], lambda a, b: 0, 0, [0, 1, 2])
