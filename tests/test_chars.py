"""Character tables: the exact class-algebra oracle and the induced-character
fast path for abelian normal subgroups."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from vanishlab import _linalg_modp as lin
from vanishlab import character_lab
from vanishlab.abelian_core import all_characters, pairing
from vanishlab.character_lab import (
    OracleConfigurationError,
    TableConsistencyError,
    class_data,
    dixon_prime,
    dixon_table,
    induced_linear_value,
    proportion,
    vanish_on_abelian_normal,
)
from vanishlab.constructions import build_case_family, catalog_entries
from vanishlab.cyclotomic import Cyclo, reduction_matrix, root_of_unity
from vanishlab.group_engine import (
    abelian_model,
    cyclic_group,
    direct_product,
    from_permutations,
    perm_mul,
    symmetric_3,
)


def s4():
    return from_permutations(4, ["(1 2 3 4)", "(1 2)"], name="S4")


def test_order_1_table_comes_from_the_general_path():
    table = dixon_table(cyclic_group(1))
    assert table.values == (Cyclo.one(),)
    assert table.ids.tolist() == [[0]] and table.ids.dtype == np.int8
    assert not table.ids.flags.writeable
    assert table.degrees == (1,)
    assert table.zero_classes == ()


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
        v = table.values[table.ids[i, G.class_index[G.identity]]]
        assert v == Cyclo.one() * d


def test_row_orthogonality_exact():
    G = s4()
    table = dixon_table(G)
    data = table.classes
    for i, j in itertools.combinations_with_replacement(range(data.count), 2):
        total = Cyclo.zero()
        for k in range(data.count):
            term = table.values[table.ids[i, k]] * table.values[table.ids[j, k]].conj()
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
        assert not report.vanishing_mask[G.center.idx].any()


def test_coset_transversal_partitions_group():
    G = s4()
    A = G.fitting
    # the first element of each left coset gA, read off the coset labels
    reps = [G.elements[i] for i in np.unique(G.compiled.coset_labels(A.basis)).tolist()]
    assert len(reps) == G.order // A.order
    seen = set()
    for t in reps:
        coset = {perm_mul(t, G.elements[a]) for a in A.idx.tolist()}
        assert not (coset & seen)
        seen |= coset
    assert len(seen) == G.order


def test_induced_value_concrete_zero():
    # D8 over its cyclic core: a faithful linear character of C4 induces to
    # the 2-dimensional irreducible, which vanishes on the rotation of order 4
    G = build_case_family("PGROUP", shape="d8").group
    A = next(
        H for H in (G.subgroup([g]) for g in range(G.order))
        if H.order == 4 and H.is_normal()
    )
    model = abelian_model(A)
    a = model.shape.element((1,))
    assert induced_linear_value((1,), a, model).is_zero()
    assert induced_linear_value((0,), a, model) == Cyclo.one() * 2


def test_induced_value_matches_full_average():
    G = s4()
    A = G.fitting
    model = abelian_model(A)
    shape = model.shape
    for alpha in all_characters(shape):
        # the model element at table row k is the group element members[k]
        for row, g in zip(shape.table.tolist(), model.members.tolist()):
            fast = induced_linear_value(alpha, shape.element(row), model)
            total = Cyclo.zero()
            for t in range(G.order):
                conj_row = shape.table[model.rows[G.compiled.conj(g, t)]]
                total = total + root_of_unity(shape.exponent,
                                              int(pairing(shape, [alpha], [conj_row])[0, 0]))
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
        V = frozenset(G.elements[i] for k in scan for i in G.conjugacy_data[k].tolist())
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
        V = proportion(G).vanishing_mask
        for A in _abelian_normal(G):
            assert np.array_equal(vanish_on_abelian_normal(G, A), V & A.mask)


def _abelian_normal(G):
    for N in G.normal_subgroups():
        if N.order > 1 and N.is_abelian():
            yield N


def test_s4_fast_path_klein_four_never_vanishes():
    G = s4()
    V4 = G.fitting
    mask = vanish_on_abelian_normal(G, V4)
    assert not mask.any() and not mask.flags.writeable
    assert not vanish_on_abelian_normal(G, G.trivial_subgroup()).any()
    report = proportion(G)
    assert np.array_equal(~report.vanishing_mask, V4.mask)
    assert report.proportion == Fraction(5, 6)


@pytest.mark.parametrize("make,nonvanishing", [
    (s4, 4),
    (lambda: from_permutations(4, ["(1 2 3)", "(1 2)(3 4)"], name="A4"), 4),
    (lambda: build_case_family("M5").group, 96),
])
def test_vanishing_and_nonvanishing_partition_the_group(make, nonvanishing):
    G = make()
    report = proportion(G)
    assert len(report.nonvanishing) == nonvanishing
    assert report.vanishing | report.nonvanishing == frozenset(G.elements)
    assert not report.vanishing & report.nonvanishing
    index = {g: i for i, g in enumerate(G.elements)}
    assert all(report.vanishing_mask[index[g]] for g in report.vanishing)


def test_fast_path_rejects_bad_inputs():
    from vanishlab.group_engine import GroupDomainError

    G = s4()
    H = G.subgroup([next(g for g in range(G.order) if G.element_order(g) == 2)])
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


def corrupt_split(monkeypatch, change):
    """Make dixon_table read the split's eigenvector rows as change(rows)
    leaves them."""
    split = character_lab._split_eigenspaces

    def corrupted(*args):
        rows = split(*args)
        change(rows)
        return rows
    monkeypatch.setattr(character_lab, "_split_eigenspaces", corrupted)


def test_degree_stage_rejects_an_eigenvector_zero_at_the_identity(monkeypatch):
    corrupt_split(monkeypatch, lambda rows: rows[-1].__setitem__(0, 0))
    with pytest.raises(TableConsistencyError, match="vanishes at the identity class"):
        dixon_table(s4())


def test_degree_stage_rejects_a_row_with_no_admissible_degree(monkeypatch):
    # a row replaced by e_1, the identity class alone, has s = 1 / |C_1| = 1,
    # and no d <= 4 has d^2 = 24 mod 13
    G = s4()
    p = dixon_prime(G.order, G.exponent)
    assert p == 13 and all(d * d % p != G.order % p for d in range(1, isqrt(G.order) + 1))
    corrupt_split(monkeypatch, lambda rows: rows.__setitem__(2, np.eye(1, len(rows))[0]))
    with pytest.raises(TableConsistencyError, match="no admissible character degree"):
        dixon_table(G)


def test_degree_stage_rejects_degrees_that_miss_the_order(monkeypatch):
    # five copies of one row: 5 d^2 is 5, 20 or 45, never 24
    corrupt_split(monkeypatch, lambda rows: rows.__setitem__(slice(None), rows[0]))
    with pytest.raises(TableConsistencyError, match="sum of squares"):
        dixon_table(s4())


def test_value_recovery_rejects_multiplicities_out_of_range(monkeypatch):
    # negated transforms give p - m for every multiplicity m > 0
    table = character_lab._zeta_power_table
    monkeypatch.setattr(character_lab, "_zeta_power_table",
                        lambda o, p, z: (p - table(o, p, z)) % p)
    with pytest.raises(TableConsistencyError, match="multiplicity lift out of range"):
        dixon_table(s4())


def test_value_recovery_refuses_lift_sums_beyond_float_precision(monkeypatch):
    # S4: o = 4 multiplicities below p // 2 = 6, times 2^50, reach 2^53
    monkeypatch.setattr(character_lab, "reduction_matrix",
                        lambda e: reduction_matrix(e) * 2**50)
    with pytest.raises(TableConsistencyError, match="lift sums reach 2\\^53"):
        dixon_table(s4())


def test_degree_stage_in_row_blocks_matches_the_per_row_rule(monkeypatch):
    # blocks of 8 rows of the 45-class table; each row's degree is the
    # least d <= isqrt(n) with d^2 s = n (mod p), as the per-row loop took it
    reference = dixon_table(d8_s3_s3())
    G = d8_s3_s3()
    n, p = G.order, dixon_prime(G.order, G.exponent)
    data = class_data(G)
    expected = []

    def per_row(rows):
        size_inv = [pow(size, -1, p) for size in data.sizes]
        for u in rows.astype(np.int64).tolist():
            u = [x * pow(u[0], -1, p) % p for x in u]
            s = sum(x * u[j] * w for x, j, w in zip(u, data.inverse_class, size_inv)) % p
            expected.append(next(d for d in range(1, isqrt(n) + 1) if d * d * s % p == n % p))
    corrupt_split(monkeypatch, per_row)
    monkeypatch.setattr(character_lab, "_BLOCK_BYTES", 8 * data.count * 8)
    table = dixon_table(G)
    assert table.degrees == tuple(sorted(expected))
    assert (table.values, table.ids.tolist()) == (reference.values, reference.ids.tolist())


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
    # every row and every column of the 45-class table carries the
    # corrupted entry once.  A negated value keeps every diagonal sum
    # |chi_i|^2, so only off-diagonal pairs catch it.
    data, n, e, values, ids = verification_args(monkeypatch, d8_s3_s3())
    assert (n, data.count) == (288, 45)
    character_lab._verify_orthogonality(data, n, e, values, ids)
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
                    data, n, e, np.vstack([values, bad]), bad_ids
                )
            tried += 1
    assert tried > r


def test_exact_orthogonality_with_phi_above_r_catches_every_corrupted_value(
    monkeypatch,
):
    # C7:C3 has 5 classes and phi(21) = 12 > 5, so each product takes one
    # row against all later rows; corrupt each entry in turn
    G = from_permutations(7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], name="C7:C3")
    data, n, e, values, ids = verification_args(monkeypatch, G)
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
                    data, n, e, np.vstack([values, bad]), bad_ids
                )


def test_small_table_checks_in_one_product_and_catches_every_corrupted_value(
    monkeypatch,
):
    # S4 has 5 classes and phi(12) = 4 units mod 12 in the pairs {1, 11} and
    # {5, 7}: its exact sums are checked mod one prime, both embeddings
    # stacked in one product, so all pairs share one product
    data, n, e, values, ids = verification_args(monkeypatch, s4())
    r, phi = ids.shape[0], values.shape[1]
    assert (n, r, phi) == (24, 5, 4)
    stacked = []
    products = lin.matmul
    monkeypatch.setattr(
        lin, "matmul",
        lambda A, B, q: (A.ndim == 3 and stacked.append((A.shape, B.shape))) or products(A, B, q),
    )
    character_lab._verify_orthogonality(data, n, e, values, ids)
    assert stacked == [((2, r, r), (2, r, r))]
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
                        data, n, e, np.vstack([values, bad]), bad_ids
                    )


def test_exact_orthogonality_needs_every_prime_its_bound_asks_for(monkeypatch):
    # a character value off by exactly the first verification prime q1 is
    # invisible mod q1; its size near q1 lifts the bound to about 2^45, so
    # the check would take three primes, and the second sees it
    data, n, e, values, ids = verification_args(monkeypatch, s4())
    primes = [q for q, _ in character_lab._embeddings(e, values.shape[1])]
    bad_ids = ids.copy()
    bad_ids[4, 1] = len(values)
    bad = values[ids[4, 1]] + primes[0] * np.eye(1, 4, dtype=np.int64)
    args = (data, n, e, np.vstack([values, bad]), bad_ids)
    used = []
    products = lin.matmul
    monkeypatch.setattr(lin, "matmul", lambda A, B, q: used.append(q) or products(A, B, q))
    with pytest.raises(TableConsistencyError, match="fails exactly"):
        character_lab._verify_orthogonality(*args)
    assert n * int(np.abs(bad).sum()) ** 2 > primes[0] * primes[1]  # three primes
    assert sorted(set(used)) == primes[:2]  # q2 sees it
    embeddings = character_lab._embeddings
    monkeypatch.setattr(character_lab, "_embeddings", lambda *a: embeddings(*a)[:1])
    character_lab._verify_orthogonality(*args)  # mod q1 alone it goes unseen


def test_exact_orthogonality_refuses_sums_beyond_float_precision(monkeypatch):
    data, n, e, values, ids = verification_args(monkeypatch, s4())
    with pytest.raises(TableConsistencyError, match="2\\^53"):
        character_lab._verify_orthogonality(
            data, n, e, values * 2**26, ids
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
    calls, krylov, products = [], lin.krylov, lin.matmul

    def counted_products(A, B, p):
        inside = calls and calls[-1][1] is None
        if inside and A.ndim == B.ndim == 2 and A.shape[0] == A.shape[1] == B.shape[0]:
            calls[-1][0] += B.shape[1]
        return products(A, B, p)

    def counted_krylov(*args):
        calls.append([0, None])
        calls[-1][1] = krylov(*args)
        return calls[-1][1]

    monkeypatch.setattr(lin, "matmul", counted_products)
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


def c7_c3():
    return from_permutations(7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"], name="C7:C3")


def test_one_row_product_blocks_give_the_same_table(monkeypatch):
    # with a byte bound below one row, the split's K @ Q products and the
    # verification take one row per block, and the tables do not change
    groups = (d8_s3_s3, agl_1_31, lambda: build_case_family("M5").group)
    golden = [dixon_table(G()) for G in groups]
    stacked = []  # the (tables, rows) of each exact verification product
    products = lin.matmul
    monkeypatch.setattr(
        lin, "matmul",
        lambda A, B, q: (B.ndim == 3 and stacked.append(A.shape[:2])) or products(A, B, q),
    )
    monkeypatch.setattr(character_lab, "_BLOCK_BYTES", 1)
    for G, want in zip(groups, golden):
        stacked.clear()
        table = dixon_table(G())  # a fresh group: tables are cached on the group
        assert table.values == want.values and table.degrees == want.degrees
        assert table.ids.dtype == want.ids.dtype
        assert table.ids.tolist() == want.ids.tolist()
        assert {rows for _, rows in stacked} == {1}
        assert len(stacked) >= table.classes.count


@pytest.mark.parametrize("group", [s4, c7_c3, d8_s3_s3])
def test_one_row_verification_blocks_catch_every_corrupted_value(monkeypatch, group):
    # the corruptions of the tests above, under blocks of one row: every
    # corrupted entry of the exact table is caught
    data, n, e, values, ids = verification_args(monkeypatch, group())
    monkeypatch.setattr(character_lab, "_BLOCK_BYTES", 1)
    character_lab._verify_orthogonality(data, n, e, values, ids)
    r, phi = ids.shape[0], values.shape[1]
    bump = np.eye(phi, dtype=np.int64)
    entries = itertools.product(range(r), repeat=2) if r <= 5 else (
        (i, (7 * i + 3) % r) for i in range(r)
    )
    for i, k in entries:
        value = values[ids[i, k]]
        for bad in (value + bump[(i + k) % phi], -value):
            if np.array_equal(bad, value):
                continue
            bad_ids = ids.copy()
            bad_ids[i, k] = len(values)
            with pytest.raises(TableConsistencyError, match="fails exactly"):
                character_lab._verify_orthogonality(
                    data, n, e, np.vstack([values, bad]), bad_ids
                )


def s5():
    return from_permutations(5, ["(1 2 3 4 5)", "(1 2)"], name="S5")


@pytest.mark.parametrize("group", [s4, c7_c3, s5])
def test_every_corrupted_eigenvector_entry_fails_a_table_check(monkeypatch, group):
    # one entry of the joint eigenvectors mod p off by one, each in turn: a
    # degree, lift or exact check refuses the table, and no bare ValueError
    # escapes (a row with s = 0 mod p has no inverse of s)
    split = character_lab._split_eigenspaces

    def corrupted(*args):
        theta = split(*args)
        theta[entry] = (theta[entry] + 1) % args[-1]
        return theta

    monkeypatch.setattr(character_lab, "_split_eigenspaces", corrupted)
    r = class_data(group()).count
    for entry in itertools.product(range(r), repeat=2):
        with pytest.raises(TableConsistencyError):
            dixon_table(group())  # a fresh group: tables are cached on the group


@pytest.mark.parametrize("group", [s4, c7_c3, d8_s3_s3])
def test_tables_satisfy_the_column_relation_exactly(group):
    # the row relation that dixon_table checks implies the column relation
    # sum_i conj(chi_i(g_k)) chi_i(g_l) = (n / |C_k|) [k = l]; computed here
    # on its own, in integer power-basis arithmetic: the product of
    # conj(zeta^a) = zeta^(-a) and zeta^b is zeta^(b - a), folded through
    # the reduction matrix
    G = group()
    table = dixon_table(G)
    e = G.exponent
    reduction = reduction_matrix(e)
    phi = reduction.shape[1]
    coeffs = np.array([v.coeffs if any(v.coeffs) else (0,) * phi for v in table.values])
    chi = coeffs[table.ids]  # (i, k, power-basis coefficient)
    terms = np.einsum("ika,ilb->klab", chi, chi)
    exponents = (np.arange(phi)[None, :] - np.arange(phi)[:, None]) % e  # b - a at [a, b]
    got = terms.reshape(*terms.shape[:2], -1) @ reduction[exponents.ravel()]
    r = table.classes.count
    want = np.zeros((r, r, phi), dtype=np.int64)
    want[np.arange(r), np.arange(r), 0] = G.order // np.array(table.classes.sizes)
    assert np.array_equal(got, want)


def test_d8_to_the_fourth_table_peaks_within_its_memory_bound():
    # tracemalloc peak of the table of D8^4 (r = 625), in r x r float64
    # arrays: 14.1 when every stage kept its own int64 copies and the class
    # translations lived to the end, 7.2 with each r x r operand built
    # once and freed after its last reader; the bound is 7.2 plus 15%
    G = d8_power(4)
    tracemalloc.start()
    try:
        table = dixon_table(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r = table.classes.count
    assert r == 625
    assert peak < 8.23 * 8 * r * r


def test_table_ids_take_the_smallest_signed_type_that_holds_their_count():
    # the corrupted-entry tests write len(values) into a copy of ids
    for G in (s4(), agl_1_31(), build_case_family("M5").group):
        table = dixon_table(G)
        assert table.ids.dtype == np.int8 and len(table.values) <= 127


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
