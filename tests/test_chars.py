"""Character tables: the exact class-algebra oracle and the induced-character
fast path for abelian normal subgroups."""

import hashlib
import itertools
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from vanishlab import _linalg_modp as lin
from vanishlab import character_lab
from vanishlab.abelian_core import DualCharacter, all_characters
from vanishlab.character_lab import (
    OracleConfigurationError,
    TableConsistencyError,
    class_data,
    coset_transversal,
    dixon_prime,
    dixon_table,
    induced_linear_value,
    proportion,
    vanish_on_abelian_normal,
)
from vanishlab.constructions import build_case_family, catalog_entries
from vanishlab.cyclotomic import Cyclo
from vanishlab.group_engine import (
    abelian_model,
    cyclic_group,
    direct_product,
    from_permutations,
    symmetric_3,
)


def s4():
    return from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def test_s3_table():
    table = dixon_table(symmetric_3())
    assert sorted(table.degrees) == [1, 1, 2]
    # only the degree-2 character vanishes, exactly on the transpositions
    assert len(table.vanishing_classes()) == 1
    k = table.vanishing_classes()[0]
    assert table.classes.sizes[k] == 3


def test_degrees_square_sum_to_order():
    for entry in [
        build_case_family("PGROUP", shape="d8"),
        build_case_family("PGROUP", shape="q8"),
        build_case_family("PGROUP", shape="heis3"),
        build_case_family("A", m=4, variant="c5"),
        build_case_family("B2", variant="s4"),
    ]:
        G = entry.group
        table = dixon_table(G)
        assert sum(d * d for d in table.degrees) == G.order
        assert len(table.degrees) == table.classes.count


def test_value_at_identity_is_degree():
    G = s4()
    table = dixon_table(G)
    for i, d in enumerate(table.degrees):
        v = table.value(i, G.identity)
        assert v == Cyclo.one() * d


def test_row_orthogonality_exact():
    G = s4()
    table = dixon_table(G)
    data = table.classes
    for i, j in itertools.combinations_with_replacement(range(data.count), 2):
        total = Cyclo.zero()
        for k in range(data.count):
            term = table.value(i, data.reps[k]) * table.value(j, data.reps[k]).conj()
            total = total + term * data.sizes[k]
        if i == j:
            assert total == Cyclo.one() * G.order
        else:
            assert total.is_zero()


def test_known_proportions():
    cases = [
        (symmetric_3(), Fraction(1, 2)),
        (from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4"), Fraction(2, 3)),
        (s4(), Fraction(5, 6)),
        (build_case_family("PGROUP", shape="d8").group, Fraction(3, 4)),
        (build_case_family("PGROUP", shape="q8").group, Fraction(3, 4)),
        (build_case_family("PGROUP", shape="heis3").group, Fraction(8, 9)),
    ]
    for G, expected in cases:
        assert proportion(G).proportion == expected


def test_abelian_groups_have_no_vanishing_elements():
    for G in (cyclic_group(1), cyclic_group(12),
              direct_product(cyclic_group(2), cyclic_group(4))):
        report = proportion(G)
        assert report.proportion == 0
        assert report.nonvanishing == frozenset(G.elements)


def test_center_never_vanishes():
    for shape in ("d8", "q16", "heis3"):
        G = build_case_family("PGROUP", shape=shape).group
        report = proportion(G)
        assert G.center.elements <= report.nonvanishing


def test_coset_transversal_partitions_group():
    G = s4()
    A = G.fitting
    reps = coset_transversal(G, A)
    assert len(reps) == G.order // A.order
    seen = set()
    for t in reps:
        coset = {G.mul(t, a) for a in A.elements}
        assert not (coset & seen)
        seen |= coset
    assert len(seen) == G.order


def test_induced_value_concrete_zero():
    # D8 over its cyclic core: a faithful linear character of C4 induces to
    # the 2-dimensional irreducible, which vanishes on the rotation of order 4
    G = build_case_family("PGROUP", shape="d8").group
    A = next(
        H for H in (G.subgroup([g]) for g in G.elements)
        if H.order == 4 and H.is_normal()
    )
    model = abelian_model(A)
    alpha = DualCharacter(model.shape, (1,))
    a = model.shape.element((1,))
    assert induced_linear_value(alpha, a, model).is_zero()
    trivial = DualCharacter(model.shape, (0,))
    assert induced_linear_value(trivial, a, model) == Cyclo.one() * 2


def test_induced_value_matches_full_average():
    G = s4()
    A = G.fitting
    model = abelian_model(A)
    for alpha in all_characters(model.shape):
        for a in model.shape.elements():
            fast = induced_linear_value(alpha, a, model)
            g = model.group_element(a)
            total = Cyclo.zero()
            for t in G.elements:
                total = total + alpha(model.element(G.conj(g, t)))
            assert total == fast * A.order


def test_integer_zero_test_and_census_match_the_cyclo_scan():
    # the table marks class k vanishing when column k of its integer value
    # ids holds the zero vector's id; the reference tests the Cyclo value of
    # every id in column k, and V(G) is the union of those classes as
    # element sets
    entries = catalog_entries(max_order=2000)
    entries += [build_case_family("M5"), build_case_family("A7")]
    for entry in entries:
        G = entry.group
        table = dixon_table(G)
        scan = [
            k for k in range(table.classes.count)
            if any(table.values[t].is_zero() for t in table.ids[:, k].tolist())
        ]
        assert table.vanishing_classes() == scan, entry.provenance
        report = proportion(G)
        V = frozenset().union(*(G.conjugacy_classes[k][1] for k in scan))
        assert report.vanishing == V, entry.provenance
        assert report.vanishing | report.nonvanishing == frozenset(G.elements)
        assert not report.vanishing & report.nonvanishing
        assert report.vanishing_mask.sum() == len(report.vanishing)
        assert not report.vanishing_mask.flags.writeable


def test_fast_path_agrees_with_oracle():
    for entry in [
        build_case_family("B2", variant="s4"),
        build_case_family("B2", variant="c4"),
        build_case_family("PGROUP", shape="d8"),
        build_case_family("A", m=6, variant="c7"),
    ]:
        G = entry.group
        V = proportion(G).vanishing
        for A in _abelian_normal(G):
            assert vanish_on_abelian_normal(G, A) == V & A.elements


def _abelian_normal(G):
    for N in G.normal_subgroups():
        if N.order > 1 and N.is_abelian():
            yield N


def test_s4_fast_path_klein_four_never_vanishes():
    G = s4()
    V4 = G.fitting
    assert vanish_on_abelian_normal(G, V4) == frozenset()
    report = proportion(G)
    assert report.nonvanishing == V4.elements
    assert report.proportion == Fraction(5, 6)


def test_fast_path_rejects_bad_inputs():
    from vanishlab.group_engine import GroupDomainError

    G = s4()
    H = G.subgroup([next(g for g in G.elements if G.element_order(g) == 2)])
    if not H.is_normal():
        with pytest.raises(GroupDomainError):
            vanish_on_abelian_normal(G, H)
    with pytest.raises(GroupDomainError):
        vanish_on_abelian_normal(G, G.full_subgroup())


def test_splitting_rejects_a_jordan_block(monkeypatch):
    # every class combination is then one Jordan block: its Krylov
    # polynomial (x - 1)^2 has one root, not two
    jordan = np.array([[1, 0], [1, 1]], dtype=np.int64)
    monkeypatch.setattr(character_lab, "_class_combination", lambda *args: jordan)
    with pytest.raises(TableConsistencyError, match="not diagonalizable"):
        dixon_table(cyclic_group(2))


def d8_s3_s3():
    return from_permutations(
        10,
        ["(1 2 3 4)", "(1 3)", "(5 6 7)", "(5 6)", "(8 9 10)", "(8 9)"],
        name="D8xS3xS3",
    )


def verification_args(monkeypatch, G):
    """The arguments dixon_table(G) hands to _verify_orthogonality."""
    calls = []
    monkeypatch.setattr(
        character_lab, "_verify_orthogonality", lambda *args: calls.append(args)
    )
    dixon_table(G)
    monkeypatch.undo()
    return calls[0]


def test_exact_orthogonality_catches_one_corrupted_value(monkeypatch):
    # theta (the table mod p) stays intact, so only the exact relations can
    # see the change; every row and every column of the 45-class table
    # carries the corrupted entry once.  A negated value keeps every
    # diagonal sum |chi_i|^2 and |chi(g_k)|^2, so only off-diagonal pairs
    # catch it.
    data, n, e, values, ids, theta, p = verification_args(monkeypatch, d8_s3_s3())
    assert (n, data.count) == (288, 45)
    character_lab._verify_orthogonality(data, n, e, values, ids, theta, p)
    r, phi = ids.shape[0], values.shape[1]
    bump = np.eye(phi, dtype=np.int64)
    tried = 0
    for i in range(r):
        k = (7 * i + 3) % r
        value = values[ids[i, k]]
        for bad in (value + bump[i % phi], -value):
            if np.array_equal(bad, value):
                continue
            bad_ids = ids.copy()
            bad_ids[i, k] = len(values)
            with pytest.raises(TableConsistencyError, match="fails exactly"):
                character_lab._verify_orthogonality(
                    data, n, e, np.vstack([values, bad]), bad_ids, theta, p
                )
            tried += 1
    assert tried > r


def test_exact_orthogonality_with_phi_above_r_catches_every_corrupted_value(
    monkeypatch,
):
    # C7:C3 has 5 classes and phi(21) = 12 > 5, so each product takes one
    # row against all later rows; corrupt each entry in turn
    G = from_permutations(7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], name="C7:C3")
    data, n, e, values, ids, theta, p = verification_args(monkeypatch, G)
    r, phi = ids.shape[0], values.shape[1]
    assert (n, r, phi) == (21, 5, 12)
    bump = np.eye(phi, dtype=np.int64)
    for i, k in itertools.product(range(r), repeat=2):
        value = values[ids[i, k]]
        for bad in (value + bump[(i + k) % phi], -value):
            if np.array_equal(bad, value):
                continue
            bad_ids = ids.copy()
            bad_ids[i, k] = len(values)
            with pytest.raises(TableConsistencyError, match="fails exactly"):
                character_lab._verify_orthogonality(
                    data, n, e, np.vstack([values, bad]), bad_ids, theta, p
                )


def test_small_table_checks_in_one_product_and_catches_every_corrupted_value(
    monkeypatch,
):
    # S4 has 5 classes and phi(12) = 4 <= 5: one block of all rows per
    # relation, so the pairs x = y and x != y share one product
    data, n, e, values, ids, theta, p = verification_args(monkeypatch, s4())
    r, phi = ids.shape[0], values.shape[1]
    assert (n, r, phi) == (24, 5, 4)
    products = []
    tensordot = np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda *a: products.append(a) or tensordot(*a))
    character_lab._verify_orthogonality(data, n, e, values, ids, theta, p)
    assert len(products) == 2
    monkeypatch.undo()
    bump = np.eye(phi, dtype=np.int64)
    for i, k in itertools.product(range(r), repeat=2):
        value = values[ids[i, k]]
        for j in range(phi):
            for bad in (value + bump[j], -value):
                if np.array_equal(bad, value):
                    continue
                bad_ids = ids.copy()
                bad_ids[i, k] = len(values)
                with pytest.raises(TableConsistencyError, match="fails exactly"):
                    character_lab._verify_orthogonality(
                        data, n, e, np.vstack([values, bad]), bad_ids, theta, p
                    )


def test_exact_orthogonality_refuses_sums_beyond_float_precision(monkeypatch):
    data, n, e, values, ids, theta, p = verification_args(monkeypatch, s4())
    with pytest.raises(TableConsistencyError, match="2\\^53"):
        character_lab._verify_orthogonality(
            data, n, e, values * 2**26, ids, theta, p
        )


# -- the Dixon prime and the splitting rounds ------------------------------


def old_dixon_prime(group_order, exponent):
    """Reference: Dixon's rule by trial division, the smallest prime
    p = 1 (mod exponent) above 2*sqrt(group_order), searched below 10^7, or
    None."""
    p = exponent + 1
    while p <= 10**7:
        if p > 2 * isqrt(group_order) + 1 and all(p % q for q in range(2, isqrt(p) + 1)):
            return p
        p += exponent
    return None


def test_dixon_prime_is_the_smallest_admissible_prime():
    assert dixon_prime(6480, 30) == old_dixon_prime(6480, 30) == 181  # M5
    assert dixon_prime(288, 12) == old_dixon_prime(288, 12) == 37  # D8xS3xS3
    assert dixon_prime(4096, 4) == 137 and dixon_prime(8192, 4) == 193  # D8^4, D8^4xC2
    assert old_dixon_prime(10**7, 10**7) is None
    with pytest.raises(OracleConfigurationError):
        dixon_prime(10**7, 10**7)


@pytest.mark.parametrize("order", [2, 1581, 8192])
def test_dixon_prime_raises_only_where_the_old_rule_did(order):
    # the bound 2*sqrt|G| is 3, 79 and 181 at these orders, below and above
    # many exponents
    for exponent in range(1, 8193):
        old = old_dixon_prime(order, exponent)
        if old is None:
            with pytest.raises(OracleConfigurationError):
                dixon_prime(order, exponent)
            continue
        assert dixon_prime(order, exponent) == old


def test_m5_table_splits_in_one_round_without_a_nullspace(monkeypatch):
    # at the prime 278881 = 1 (mod 30), far above M5's Dixon prime 181, one
    # combination of the 263 nontrivial class matrices separates all 264
    # characters, every eigenvector is read off its Krylov basis, and the
    # table is the one the Dixon prime gives
    golden = dixon_table(build_case_family("M5").group)
    calls, built = [], []
    nullspace, combination = lin.nullspace, character_lab._class_combination
    monkeypatch.setattr(character_lab, "dixon_prime", lambda order, exponent: 278881)
    monkeypatch.setattr(lin, "nullspace", lambda *a: calls.append(a) or nullspace(*a))
    monkeypatch.setattr(
        character_lab, "_class_combination", lambda *a: built.append(a) or combination(*a)
    )
    table = dixon_table(build_case_family("M5").group)  # a fresh group
    assert table.classes.count == 264
    assert calls == [] and len(built) == 1
    assert table.values == golden.values
    assert table.ids.tolist() == golden.ids.tolist()


def spy_krylov(monkeypatch):
    """One [columns, results] per `lin.krylov` call: results is what the call
    returns, and columns counts the Krylov columns its steps build, the
    widths of its products of a square matrix by a block of columns."""
    calls, krylov, products = [], lin.krylov, lin._products

    def counted_products(A, B, p):
        inside = calls and calls[-1][1] is None
        if inside and A.ndim == B.ndim == 2 and A.shape[0] == A.shape[1] == B.shape[0]:
            calls[-1][0] += B.shape[1]
        return products(A, B, p)

    def counted_krylov(*args):
        calls.append([0, None])
        calls[-1][1] = krylov(*args)
        return calls[-1][1]

    monkeypatch.setattr(lin, "_products", counted_products)
    monkeypatch.setattr(lin, "krylov", counted_krylov)
    return calls


def test_later_rounds_build_krylov_bases_only_for_pieces_that_split(monkeypatch):
    # at its Dixon prime 37, pinned here, the 45 characters of D8xS3xS3 need
    # several rounds; each piece steps only until its degree, so a piece that
    # is already an eigenvector of the new combination costs one column, and
    # only a piece that splits grows a longer Krylov basis
    golden = dixon_table(d8_s3_s3())
    G = d8_s3_s3()  # a fresh group: tables are cached on the group
    monkeypatch.setattr(character_lab, "dixon_prime", lambda order, exponent: 37)
    rounds = spy_krylov(monkeypatch)
    table = dixon_table(G)
    assert table.values == golden.values
    assert table.ids.tolist() == golden.ids.tolist()
    assert table.degrees == golden.degrees
    assert len(rounds) > 1
    for columns, bases in rounds:
        assert columns == sum(len(f) - 1 for _, f in bases)
        assert all(K.shape[1] == len(f) for K, f in bases)
    assert {len(f) for _, bases in rounds[1:] for _, f in bases} > {2}


def d8_power(copies, c2=0):
    """D8^copies x C2^c2 as a permutation group: D8 on each block of four
    points, then a transposition per C2."""
    gens = []
    for b in range(0, 4 * copies, 4):
        gens += [f"({b + 1} {b + 2} {b + 3} {b + 4})", f"({b + 1} {b + 3})"]
    for b in range(4 * copies, 4 * copies + 2 * c2, 2):
        gens.append(f"({b + 1} {b + 2})")
    return from_permutations(4 * copies + 2 * c2, gens, name=f"D8^{copies}xC2^{c2}")


def test_d8_to_the_fourth_is_golden_with_columns_linear_in_r(monkeypatch):
    # D8^4: order 4096, r = 625 classes and Dixon prime 137 < r, so several
    # rounds.  A piece steps only until its degree, and the degrees of a
    # round's pieces sum to at most r, so each round builds at most r Krylov
    # columns, not about r per piece
    G = d8_power(4)
    rounds = spy_krylov(monkeypatch)
    table = dixon_table(G)
    r = table.classes.count
    assert (G.order, r, dixon_prime(G.order, G.exponent)) == (4096, 625, 137)
    rows = tuple(tuple(table.values[t] for t in row) for row in table.ids.tolist())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "83ddd9746a116f523850e6933a3047c51af47533eb5d4936f308c5f714629c7f"
    )
    assert len(rounds) > 1
    assert all(columns <= r for columns, _ in rounds)


def test_poly_roots_scan_crosses_chunk_boundaries():
    for p in (7, 65537, 278881):
        roots = sorted({0, 1, 2**15 - 1, 2**15, 2**16 + 3, p - 1} & set(range(p)))
        poly = [1]
        for lam in roots:  # poly *= (x - lam)
            poly = [
                (a - lam * b) % p for a, b in zip([0] + poly, poly + [0])
            ]
        assert lin.poly_roots(poly, p) == roots


def agl_1_31():
    """AGL(1,31) on the points 1..31 (residue i is point i+1): x -> x+1 and
    x -> 3x, 3 a primitive root mod 31.  Order 930, 31 classes, exponent 930."""
    shift = "(" + " ".join(str(i) for i in range(1, 32)) + ")"
    orbit = [pow(3, k, 31) + 1 for k in range(30)]
    scale = "(" + " ".join(str(i) for i in orbit) + ")"
    return from_permutations(31, [shift, scale], name="AGL(1,31)")


def test_agl_1_31_table_is_golden():
    # sha256 of the `--emit-table` rows: the values must not drift.  With 31
    # classes, exponent 930 and phi(930) = 240 > 31, value recovery runs one
    # transform per element order and verification one row against the rest
    G = agl_1_31()
    table = dixon_table(G)
    assert (G.order, table.classes.count, G.exponent) == (930, 31, 930)
    text = "".join(
        f"chi={i} " + " | ".join(table.values[t].render() for t in row) + "\n"
        for i, row in enumerate(table.ids.tolist())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9c5b9c7e4138d660779faec4972741eb48a2229346ba0ca352872343199c358c"
    )


def test_distinct_matches_a_sorted_set_with_zero_first():
    rng = np.random.default_rng(7)
    cases = [rng.integers(-2, 3, size=(n, phi)) for n, phi in ((1, 1), (40, 2), (200, 3))]
    cases.append(rng.integers(1, 3, size=(30, 2)))  # no zero row
    cases.append(np.tile([[0, -1, 2]], (12, 1)))  # one repeated row
    for vectors in cases:
        rows = [tuple(v) for v in vectors.tolist()]
        reference = sorted(set(rows), key=lambda v: (any(v), v))
        distinct, index = character_lab._distinct(vectors)
        assert [tuple(v) for v in distinct.tolist()] == reference
        assert [reference[t] for t in index.tolist()] == rows


def test_one_row_blocks_merge_into_the_same_table(monkeypatch):
    # every block of rows keeps only its own distinct values; merging the
    # blocks gives the ids and values of the default blocking
    golden = [dixon_table(G()) for G in (d8_s3_s3, agl_1_31)]
    monkeypatch.setattr(character_lab, "_BLOCK_TERMS", 1)
    for G, want in zip((d8_s3_s3, agl_1_31), golden):
        table = dixon_table(G())  # a fresh group: tables are cached on the group
        assert table.values == want.values
        assert table.ids.tolist() == want.ids.tolist()


def test_table_ids_are_read_only_and_each_value_is_one_cyclo(monkeypatch):
    G = build_case_family("M5").group
    built = []
    init = Cyclo.__init__
    monkeypatch.setattr(
        Cyclo, "__init__", lambda self, *a: built.append(a) or init(self, *a)
    )
    table = dixon_table(G)
    assert not table.ids.flags.writeable
    with pytest.raises(ValueError):
        table.ids[0, 0] = 1
    assert len(built) == len(table.values) == 43
    assert table.values[0].is_zero() and table.vanishing_classes()
    assert len(set(table.values)) == len(table.values)
