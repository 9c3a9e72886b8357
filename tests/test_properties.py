"""Set-level properties of vanishing elements: translation invariance,
Sylow-center facts, transfer along quotients, and the endpoint laws at
P = 0 and P = 1/2."""

import functools
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab.character_lab import proportion
from vanishlab.classifier import THRESHOLD
from vanishlab.constructions import build_case_family
from vanishlab.group_engine import (
    cyclic_group,
    direct_product,
    from_permutations,
    is_quasi_frobenius,
    symmetric_3,
)


@functools.lru_cache(maxsize=1)
def zoo():
    """Small mixed bag: below and above threshold, several primes."""
    groups = [
        symmetric_3(),
        from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4"),
        from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4"),
        cyclic_group(12),
        direct_product(symmetric_3(), cyclic_group(4), name="S3xC4"),
        build_case_family("PGROUP", shape="d8").group,
        build_case_family("PGROUP", shape="q16").group,
        build_case_family("PGROUP", shape="heis3").group,
        build_case_family("A", m=6, variant="c7").group,
        build_case_family("A", m=4, variant="c5").group,
        build_case_family("A", m=4, variant="s3xs3").group,
        build_case_family("B1", shape="d8xc3").group,
        build_case_family("B2", variant="c4").group,
        build_case_family("INVERSION_NEGATIVE").group,
    ]
    return [(G, proportion(G)) for G in groups]


def test_central_translation_invariance():
    # gz vanishes iff g does, for central z; so Z(G) never vanishes
    for G, report in zoo():
        mask = report.vanishing_mask
        for L in G.compiled.left_translations(G.center.idx):
            assert np.array_equal(mask[L], mask)
        assert not mask[G.center.idx].any()


def test_sylow_center_meets_core_in_nonvanishing():
    for G, report in zoo():
        for p in G.primes():
            P = G.sylow(p)
            Zp = P.idx[P.as_group().center.idx]  # the element k of P is P.idx[k]
            core = G.p_core(p)
            meet = Zp[core.mask[Zp]]
            assert not report.vanishing_mask[meet].any()


def test_direct_product_vanishing_transfer():
    pairs = [
        (symmetric_3(), cyclic_group(4)),
        (symmetric_3(), symmetric_3()),
        (build_case_family("PGROUP", shape="d8").group, cyclic_group(3)),
        (from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4"),
         cyclic_group(2)),
    ]
    for G, H in pairs:
        D = direct_product(G, H)
        VD = proportion(D).vanishing
        VG = proportion(G).vanishing
        # a in the first factor vanishes in the product iff its image in
        # the quotient by the second factor vanishes there
        e = H.elements[H.identity]
        for a in G.elements:
            assert ((a, e) in VD) == (a in VG)


def test_quotient_monotonicity():
    for G, report in zoo():
        if G.order > 200:
            continue
        for N in G.normal_subgroups():
            Q = G.quotient(N)
            assert proportion(Q).proportion <= report.proportion


def test_below_threshold_forces_abelian_normal_complement():
    hits = 0
    for G, report in zoo():
        if report.proportion >= THRESHOLD:
            continue
        hits += 1
        N = np.flatnonzero(~report.vanishing_mask)
        assert np.array_equal(G.closure(N), N)  # N(G) is a subgroup
        A = G.subgroup(N)
        assert A.is_abelian()
        assert A.is_normal()
        m = G.order // A.order
        assert m <= 6
        assert report.proportion == Fraction(m - 1, m)
    assert hits >= 8


def test_below_threshold_forces_odd_sylows_abelian():
    for G, report in zoo():
        if report.proportion >= THRESHOLD:
            continue
        for p in G.primes():
            if p > 2:
                assert G.sylow(p).is_abelian()


def test_proportion_below_half_implies_abelian():
    for G, report in zoo():
        if report.proportion < Fraction(1, 2):
            assert G.is_abelian
            assert report.proportion == 0


def test_proportion_half_iff_order2_frobenius_complement():
    for G, report in zoo():
        qf = is_quasi_frobenius(G)
        lhs = report.proportion == Fraction(1, 2)
        rhs = qf.holds and qf.kernel_index == 2
        assert lhs == rhs, G.name


def test_nonvanishing_complement_vanishes_entirely():
    # below threshold, everything outside N(G) vanishes (N = G \ V)
    for G, report in zoo():
        if report.proportion < THRESHOLD:
            assert report.vanishing == frozenset(G.elements) - report.nonvanishing
            assert len(report.nonvanishing) * 6 >= G.order


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_semidirect_conjugation_matches_module_action(data):
    G = build_case_family("B4_1").group
    spec = G.semidirect_spec
    A, H = spec.A, spec.H
    coords = tuple(
        data.draw(st.integers(0, d - 1)) for d in A.factor_orders
    )
    a = A.element(coords)
    h = data.draw(st.sampled_from(H.elements))
    index = {g: i for i, g in enumerate(G.elements)}
    e = H.elements[H.identity]
    conj = G.elements[G.compiled.conj(index[a.coords, e], index[A.zero().coords, h])]
    h_inv = -h % H.order  # H = C6 on the residues mod 6, each at its own position
    assert conj == (spec.action[h_inv](a).coords, e)


def test_vanishing_is_conjugation_invariant():
    rng = random.Random(9)
    for G, report in zoo():
        V = report.vanishing
        index = {g: i for i, g in enumerate(G.elements)}
        for _ in range(200):
            g = rng.choice(G.elements)
            h = rng.choice(G.elements)
            assert (g in V) == (G.elements[G.compiled.conj(index[g], index[h])] in V)
