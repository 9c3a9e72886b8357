"""The GF(p) kernels against exact references: Python-int products, a plain
Horner scan, a full-width elimination, the Krylov relation itself and the
minimal polynomial read off a full-width elimination of the Krylov
matrix."""

import itertools
import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from vanishlab import _linalg_modp as lin
from vanishlab.character_lab import _class_combination, class_data
from vanishlab.constructions import build_case_family
from vanishlab.cyclotomic import prime_factors


def exact_terms(p):
    return (2**53 - 1) // (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3, 278881, 9999991])
def test_matmul_matches_python_ints_at_the_block_bound(p):
    k = exact_terms(p)
    # all-(p - 1) operands put every float64 block at its largest sum; the
    # odd square of p - 2 makes an odd sum of 2k + 3 terms, which one float64
    # product could not hold.  At p = 2 and 3 one block holds more terms than
    # any array here.
    inner_sizes = [1, 7, 64] if k > 10**6 else [k - 1, k, k + 1, 2 * k + 3]
    for inner in inner_sizes:
        for value in {p - 1, max(p - 2, 1)}:
            A = np.full((2, inner), value, dtype=np.int64)
            B = np.full((inner, 3), value, dtype=np.int64)
            expected = inner * value**2 % p
            assert (lin.matmul(A, B, p) == expected).all()
            assert (lin.matmul(A, B[:, 0], p) == expected).all()


@pytest.mark.parametrize("p", [2, 3, 278881, 9999991])
def test_matmul_matches_python_ints_on_random_operands(p):
    rng = random.Random(p)
    inner = min(exact_terms(p) + 5, 300)
    A = [[rng.randrange(-3 * p, 3 * p) for _ in range(inner)] for _ in range(4)]
    B = [[rng.randrange(p) for _ in range(5)] for _ in range(inner)]
    expected = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
    assert lin.matmul(np.array(A), np.array(B), p).tolist() == expected


def test_stacked_products_match_python_ints_in_blocks_of_three_terms():
    # k (p - 1)^2 < 2^53 holds for k = 3 at p = 50,000,017, so 7 and 10
    # inner terms take three and four float64 blocks; A stacks (2, 3) and B
    # (3,) operands, broadcast as np.matmul broadcasts them
    p = 50_000_017
    assert exact_terms(p) == 3
    rng = random.Random(p)
    for inner in (7, 10):
        A = [[[[rng.choice([p - 1, rng.randrange(p)]) for _ in range(inner)]
               for _ in range(4)] for _ in range(3)] for _ in range(2)]
        B = [[[rng.choice([p - 1, rng.randrange(p)]) for _ in range(5)]
              for _ in range(inner)] for _ in range(3)]
        expected = [[[[sum(a * b for a, b in zip(row, col)) % p for col in zip(*Bj)]
                      for row in Aij] for Aij, Bj in zip(Ai, B)] for Ai in A]
        got = lin.matmul(np.array(A, dtype=np.float64), np.array(B, dtype=np.float64), p)
        assert got.dtype == np.int64 and got.tolist() == expected


def test_one_block_product_makes_no_array_beside_its_result():
    # the float64 BLAS product becomes the int64 result in its own buffer,
    # and a Krylov step's int64 product becomes float64 residues in its own
    p = 10007
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(400, 300)).astype(np.float64)
    B = rng.integers(0, p, size=(300, 500)).astype(np.float64)
    tracemalloc.start()
    try:
        got = lin.matmul(A, B, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int64 and peak < 1.1 * got.nbytes
    assert (got == A.astype(np.int64) @ B.astype(np.int64) % p).all()
    residues = lin._recast(got.copy(), np.float64)
    assert residues.dtype == np.float64 and (residues == got).all()
    step = lin._recast(got, np.float64)
    assert np.shares_memory(step, got) and (step == residues).all()


def test_matmul_rejects_a_modulus_whose_single_term_is_inexact():
    # for p - 1 = isqrt(2^53 - 1) one term is exact; one more and (p - 1)^2
    # reaches 2^53, so not even one product of residues is exact in float64
    p = isqrt(2**53 - 1) + 1
    A = np.full((1, 1), p - 1, dtype=np.int64)
    assert lin.matmul(A, A, p).tolist() == [[(p - 1) ** 2 % p]]
    with pytest.raises(ValueError, match="2\\^53"):
        lin.matmul(A, A, p + 1)


def horner_scan(poly, p):
    """Reference: Horner at every point of GF(p) in Python ints."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def times_linear(poly, lam, p):
    """poly * (x - lam) mod p, ascending coefficients."""
    return [(a - lam * b) % p for a, b in zip([0] + poly, poly + [0])]


def test_poly_roots_matches_the_horner_scan():
    rng = random.Random(13)
    cases = [([5], 7), ([0], 5), ([3, 1], 11), ([0, 1], 11), ([10, 1], 11), ([2, 4], 11)]
    for p in (2, 3, 5, 13, 97, 101):
        for _ in range(6):
            poly = [rng.randrange(p) for _ in range(rng.randint(1, 30))]
            cases.append((poly, p))
        # repeated roots, 0 and p - 1, times x^2 - c for a non-square c
        poly = [1]
        for lam in (0, 0, p - 1, p - 1, rng.randrange(p), 1 % p):
            poly = times_linear(poly, lam, p)
        squares = {x * x % p for x in range(p)}
        nonsquare = next((c for c in range(p) if c not in squares), None)
        if nonsquare is not None:
            irreducible = [-nonsquare % p, 0, 1]
            poly = [
                sum(poly[i] * irreducible[k - i] for i in range(len(poly)) if 0 <= k - i < 3) % p
                for k in range(len(poly) + 2)
            ]
        cases.append((poly, p))
        cases.append(([rng.randrange(p) for _ in range(40)] + [0, 0], p))  # zero leads
    for poly, p in cases:
        assert lin.poly_roots(poly, p) == horner_scan(poly, p), (poly, p)


def test_poly_roots_crosses_a_chunk_boundary():
    chunk = lin._CHUNK
    p = next(q for q in range(3 * chunk, 4 * chunk) if prime_factors(q) == [q])
    roots = [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, p - 1]
    poly = [1]
    for lam in roots + [chunk - 1, 5]:
        poly = times_linear(poly, lam, p)
    assert lin.poly_roots(poly, p) == sorted(set(roots + [5]))
    dense = [random.Random(1).randrange(p) for _ in range(50)]
    assert lin.poly_roots(dense, p) == horner_scan(dense, p)


def full_width_rref(M, p):
    """Reference: every pivot updates every column."""
    A = np.array(M, dtype=np.int64) % p
    pivots, r = [], 0
    for c in range(A.shape[1]):
        rows = [i for i in range(r, A.shape[0]) if A[i, c]]
        if r == A.shape[0] or not rows:
            continue
        A[[r, rows[0]]] = A[[rows[0], r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        for i in range(A.shape[0]):
            if i != r:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
    return A, pivots


def test_rref_on_trailing_columns_matches_the_full_width_elimination():
    rng = np.random.default_rng(3)
    for p in (2, 7, 278881):
        for rows, cols, rank in ((6, 9, 6), (9, 6, 4), (8, 8, 3), (5, 5, 0)):
            M = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols))
            A, pivots = lin.rref(M, p)
            B, expected = full_width_rref(M, p)
            assert pivots == expected and np.array_equal(A, B)


# a prime = 1 (mod 30) far above M5's Dixon prime 181: at it one combination
# of M5's class matrices has 264 distinct eigenvalues
M5_LARGE_PRIME = 278881


def m5_first_combination():
    """M5's class data, the prime M5_LARGE_PRIME and the first-round random
    combination of its nontrivial class matrices, as `_split_eigenspaces`
    draws it."""
    G = build_case_family("M5").group
    data = class_data(G)
    r = data.count
    p = M5_LARGE_PRIME
    assert prime_factors(p) == [p] and p % G.exponent == 1
    L = G.compiled.left_translations(data.reps)
    c = np.zeros(r, dtype=np.int64)
    c[1:] = np.random.default_rng(0x5EED).integers(0, p, size=r - 1)
    return _class_combination(G, data, L, c) % p, r, p


def test_krylov_relation_holds_on_the_m5_combination():
    M, r, p = m5_first_combination()
    v = np.eye(r, dtype=np.int64)[0]
    [(K, f)] = lin.krylov(M, v[:, None], r, p)
    assert K.shape == (r, r + 1) and f[-1] == 1 and len(f) == r + 1
    assert np.array_equal(K[:, 0], v) and np.array_equal(K[:, 1:], M @ K[:, :-1] % p)
    # sum_k f_k M^k v = 0, in Python ints
    columns = K.T.tolist()
    total = [sum(c * col[i] for c, col in zip(f, columns)) % p for i in range(r)]
    assert total == [0] * r


def test_krylov_shorter_than_the_minimal_polynomial_is_a_value_error():
    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    v = np.array([1, 0, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="below the degree"):
        lin.krylov(cycle, v[:, None], 1, 7)
    [(K, f)] = lin.krylov(cycle, v[:, None], 3, 7)
    assert f == [6, 0, 0, 1]  # x^3 - 1


def rref_minimal_polynomial(M, v, p):
    """Reference: the minimal polynomial of v under M (ascending, monic),
    from the first dependent column of the full-width elimination of
    [v, Mv, ..., M^n v]."""
    columns = [np.asarray(v, dtype=np.int64) % p]
    for _ in range(len(v)):
        columns.append(np.asarray(M, dtype=np.int64) @ columns[-1] % p)
    A, pivots = full_width_rref(np.stack(columns, axis=1), p)
    d = next(c for c in range(len(columns)) if c not in pivots)
    return [int(-A[pivots.index(c), d] % p) for c in range(d)] + [1]


def test_krylov_gives_the_minimal_polynomial_on_the_m5_combination():
    M, r, p = m5_first_combination()
    v = np.eye(r, dtype=np.int64)[0]
    assert lin.krylov(M, v[:, None], r, p)[0][1] == rref_minimal_polynomial(M, v, p)


def test_krylov_degree_may_lie_below_the_dimension():
    M = np.diag([2, 2, 3])
    v = np.ones(3, dtype=np.int64)
    for p in (5, 37, 278881):
        [(K, f)] = lin.krylov(M, v[:, None], 3, p)
        assert f == rref_minimal_polynomial(M, v, p) == [6 % p, p - 5, 1]  # (x-2)(x-3)
        assert K.shape == (3, 3)  # v, Mv, M^2 v: the basis stops at the degree


def test_krylov_on_a_jordan_block():
    # (x - 4)^3 on e_1 of one Jordan block, (x - 4)^2 on e_2
    J = 4 * np.eye(3, dtype=np.int64) + np.eye(3, k=-1, dtype=np.int64)
    for p in (7, 37, 278881):
        for v, degree in (([1, 0, 0], 3), ([0, 1, 0], 2), ([1, 2, 3], 3)):
            f = lin.krylov(J, np.array(v)[:, None], 3, p)[0][1]
            assert len(f) == degree + 1 and f == rref_minimal_polynomial(J, v, p)


def test_krylov_recovers_from_an_unlucky_first_row(monkeypatch):
    # a_k = e_1 M^k v = 1 for all k: the first row sees only the factor x - 1
    # of the minimal polynomial, so the check on K fails and the column
    # restarts its recurrence on the next seeded row
    M = np.diag([1, 2, 3, 4, 5])
    v = np.ones(5, dtype=np.int64)
    seeded, drawn = lin._left_vectors, []

    def unlucky_first(n, p):
        for u in itertools.chain([np.eye(n)[0]], seeded(n, p)):
            drawn.append(u)
            yield u

    monkeypatch.setattr(lin, "_left_vectors", unlucky_first)
    for p in (11, 37):
        drawn.clear()
        assert lin.krylov(M, v[:, None], 5, p)[0][1] == rref_minimal_polynomial(M, v, p)
        assert len(drawn) >= 2


def test_krylov_steps_columns_together_and_stops_each_at_its_degree():
    # M = diag(A, D) for a random A and D = diag(1, 2, 2): columns inside D's
    # block stop after at most two steps while the others run on, and each
    # column gets what it gets alone
    p = 37
    rng = np.random.default_rng(11)
    M = np.zeros((9, 9), dtype=np.int64)
    M[:6, :6] = rng.integers(0, p, size=(6, 6))
    M[6:, 6:] = np.diag([1, 2, 2])
    W = np.zeros((9, 5), dtype=np.int64)
    W[:, 0] = rng.integers(0, p, size=9)
    W[6:, 1] = 1  # degree 2
    W[7:, 2] = [3, 5]  # an eigenvector
    W[:6, 3] = rng.integers(0, p, size=6)
    results = lin.krylov(M, W, 9, p)  # column 4 is zero: degree 0
    assert [len(f) - 1 for _, f in results][1:] == [2, 1, 6, 0]
    for w, (K, f) in zip(W.T, results):
        assert f == rref_minimal_polynomial(M, w, p)
        assert K.shape == (9, len(f)) and np.array_equal(K[:, 0], w)
        assert np.array_equal(K[:, 1:], M @ K[:, :-1] % p)
        [(K_alone, f_alone)] = lin.krylov(M, w[:, None], 9, p)
        assert f_alone == f and np.array_equal(K_alone, K)
