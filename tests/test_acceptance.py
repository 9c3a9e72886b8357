"""Top-level acceptance checks.  One test per shipped guarantee; the
conftest hook prints a PASS/FAIL line per criterion at the end of the run."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from vanishlab.abelian_core import (
    AbelianGroup,
    AbSubgroup,
    all_characters,
    commutator_map,
    perp,
    perp_dual,
)
from vanishlab.character_lab import proportion, vanish_on_abelian_normal
from vanishlab.classifier import THRESHOLD, CaseLabel, classify_theorem_a
from vanishlab.constructions import build_case_family
from vanishlab.cyclotomic import (
    Cyclo,
    root_of_unity,
    six_sum_classifier,
    six_sum_inputs,
    vanishing_sum_possible,
)
from vanishlab.group_engine import (
    alternating_7,
    from_permutations,
    is_quasi_frobenius,
)

VALUE_SET = {Fraction(m - 1, m) for m in range(1, 7)}


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_criterion_01_alternating7_proportion():
    start = time.monotonic()
    report = proportion(alternating_7())
    assert report.proportion == Fraction(1067, 1260) == THRESHOLD
    assert time.monotonic() - start < 60


def test_criterion_02_order_6480_group(corpus_reports):
    start = time.monotonic()
    G = build_case_family("M5").group
    U, V = G.p_core(2), G.p_core(3)
    # hypotheses: noncentral minimal normal 2- and 3-subgroups, |G/UV| = 5
    assert U.order == 16 and V.order == 81
    assert not G.center.mask[U.idx].all()
    assert not G.center.mask[V.idx].all()
    for W in (U, V):
        for w in W.idx.tolist():
            if w != G.compiled.identity:
                assert G.normal_closure([w]) == W
    assert G.order // (U.order * V.order) == 5
    report = proportion(G)
    assert report.proportion == Fraction(133, 135)
    assert np.array_equal(~report.vanishing_mask, U.mask | V.mask)
    assert time.monotonic() - start < 300


def test_criterion_03_value_set_over_corpus(corpus_reports):
    assert len(corpus_reports) >= 200
    assert all(e.group.order <= 2000 for e, _ in corpus_reports)
    for entry, report in corpus_reports:
        if report.proportion < THRESHOLD:
            assert report.proportion in VALUE_SET, entry.provenance


def test_criterion_04_classifier_matches_oracle(corpus_reports):
    for entry, report in corpus_reports:
        verdict = classify_theorem_a(entry.group)
        below = report.proportion < THRESHOLD
        assert verdict.below == below, entry.provenance
        if below:
            assert verdict.predicted_p == report.proportion, entry.provenance


def test_criterion_05_p_group_law(corpus_reports):
    seen = 0
    for entry, report in corpus_reports:
        G = entry.group
        if G.order == 1 or not any(_is_p_power(G.order, p) for p in G.primes()):
            continue
        seen += 1
        Z = G.center
        assert np.array_equal(~report.vanishing_mask, Z.mask), entry.provenance
        m = G.order // Z.order
        assert report.proportion == Fraction(m - 1, m), entry.provenance
    assert seen >= 5
    spots = [("q8", Fraction(3, 4)), ("d8", Fraction(3, 4)),
             ("heis3", Fraction(8, 9))]
    for shape, expected in spots:
        G = build_case_family("PGROUP", shape=shape).group
        assert proportion(G).proportion == expected


def test_criterion_06_homocyclic_c6_pair():
    pos = build_case_family("B4_1").group
    verdict = classify_theorem_a(pos)
    assert verdict.case is CaseLabel.B4_1
    assert proportion(pos).proportion == Fraction(5, 6) == verdict.predicted_p

    neg = build_case_family("INVERSION_NEGATIVE").group
    verdict = classify_theorem_a(neg)
    assert not verdict.below
    p = proportion(neg).proportion
    assert p > Fraction(5, 6) and p >= THRESHOLD


def test_criterion_07_s4_end_to_end():
    G = from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")
    V4 = G.fitting
    assert V4.order == 4
    assert not vanish_on_abelian_normal(G, V4).any()
    report = proportion(G)
    assert report.proportion == Fraction(5, 6)
    assert np.array_equal(~report.vanishing_mask, V4.mask)
    verdict = classify_theorem_a(G)
    assert verdict.case is CaseLabel.B2
    C = verdict.witnesses["C"]
    assert C.isomorphism_type().factor_orders == (2,)


def test_criterion_08_six_sum_exhaustive():
    start = time.monotonic()
    for n in range(1, 5):
        big = 2 ** n
        triples = [tuple(t) for t in six_sum_inputs(n).tolist()]
        for ae, be in itertools.product(triples, repeat=2):
            eps = [root_of_unity(big, a) for a in ae]
            eta = [root_of_unity(big, b) for b in be]
            result = six_sum_classifier(n, eps, eta)
            assert result.verdict.value.startswith("zero") == \
                result.total.is_zero(), (n, ae, be)
    assert time.monotonic() - start < 60


def test_criterion_09_vanishing_sum_feasibility_sound():
    start = time.monotonic()
    for m in (2, 3, 4, 5, 6, 8, 9, 12):
        roots = [root_of_unity(m, k) for k in range(m)]
        for n_terms in range(1, 9):
            exists = False
            for combo in itertools.combinations_with_replacement(range(m), n_terms):
                total = Cyclo.zero()
                for k in combo:
                    total = total + roots[k]
                if total.is_zero():
                    exists = True
                    break
            if exists:
                assert vanishing_sum_possible(n_terms, m), (n_terms, m)
    assert time.monotonic() - start < 60


def test_criterion_10_duality_suite():
    rng = random.Random(0xD0A1)
    two_group_shapes = [(2,), (4,), (8,), (16,), (2, 2), (4, 2), (4, 4),
                        (8, 4), (8, 8), (16, 16), (4, 4, 2), (8, 8, 2),
                        (16, 8), (2, 2, 2, 2)]
    for _ in range(1000):
        A = AbelianGroup.of(*rng.choice(two_group_shapes))
        gens = tuple(
            A.element(tuple(rng.randrange(d) for d in A.factor_orders))
            for _ in range(rng.randrange(4))
        )
        B = AbSubgroup.from_elements(A, gens)
        Bp = perp(B)
        assert B.order * Bp.order == A.order
        assert perp_dual(Bp) == B

    pairs = 0
    while pairs < 200:
        A = AbelianGroup.of(*rng.choice(two_group_shapes))
        y = _random_involution(A, rng)
        if y is None:
            continue
        pairs += 1
        image, kernel = commutator_map(A, y)
        fixed = AbSubgroup.from_elements(
            A,
            [A.element(alpha.coords) for alpha in all_characters(A)
             if alpha.acted_by(y).coords == alpha.coords],
        )
        assert perp(image) == fixed
        moved = AbSubgroup.from_elements(
            A,
            [A.element(tuple((b - a) % d for a, b, d
                             in zip(alpha.coords, alpha.acted_by(y).coords,
                                    A.factor_orders)))
             for alpha in all_characters(A)],
        )
        assert moved.isomorphism_type() == image.isomorphism_type()


def _random_involution(A, rng):
    from vanishlab.abelian_core import AbHom

    n = len(A.factor_orders)
    choices = [AbHom.identity(A), AbHom.scalar(A, -1)]
    rows = [[0] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i, j in enumerate(perm):
        if A.factor_orders[i] != A.factor_orders[j]:
            return rng.choice(choices)
        rows[i][j] = rng.choice([1, -1])
    f = AbHom.from_matrix(A, rows)
    if f.compose(f).is_identity():
        choices.append(f)
    return rng.choice(choices)


def test_criterion_11_lemma_pack(corpus_reports):
    for entry, report in corpus_reports:
        G = entry.group
        # central translations preserve vanishing
        mask = report.vanishing_mask
        for L in G.compiled.left_translations(G.center.idx):
            assert np.array_equal(mask[L], mask), entry.provenance
        # Sylow center meets the p-core inside the nonvanishing set
        for p in G.primes():
            S = G.sylow(p)
            meet = S.idx[S.as_group().center.idx]  # the element k of S is S.idx[k]
            meet = meet[G.p_core(p).mask[meet]]
            assert not mask[meet].any(), entry.provenance
        below = report.proportion < THRESHOLD
        if below:
            # nonvanishing set is an abelian normal subgroup of index <= 6
            N = np.flatnonzero(~mask)
            assert np.array_equal(G.closure(N), N), entry.provenance
            A = G.subgroup(N)
            assert A.is_abelian() and A.is_normal(), entry.provenance
            assert G.order // A.order <= 6, entry.provenance
            # odd Sylow subgroups are abelian
            for p in G.primes():
                if p > 2:
                    assert G.sylow(p).is_abelian(), entry.provenance
        if G.order <= 360:
            normals = G.normal_subgroups()
            for N in normals:
                # quotient monotonicity
                Q = G.quotient(N)
                qp = proportion(Q).proportion
                assert qp <= report.proportion, entry.provenance
            # vanishing transfers through disjoint normal complements
            for A_, B_ in itertools.combinations(normals, 2):
                if A_.order == 1 or B_.order == 1:
                    continue
                if A_.intersection(B_).order != 1:
                    continue
                Q = G.quotient(B_)
                VQ = proportion(Q).vanishing_mask
                for a in A_.idx.tolist():
                    assert mask[a] == VQ[Q.projection[a]], entry.provenance
                break


def test_criterion_12_endpoints(corpus_reports):
    halves = 0
    for entry, report in corpus_reports:
        G = entry.group
        if report.proportion < Fraction(1, 2):
            assert G.is_abelian, entry.provenance
        if report.proportion == Fraction(1, 2):
            halves += 1
            qf = is_quasi_frobenius(G)
            assert qf.holds and qf.kernel_index == 2, entry.provenance
    assert halves >= 1
