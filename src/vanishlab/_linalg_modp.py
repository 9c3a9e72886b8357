"""Dense linear algebra over GF(p) on numpy arrays.

Products are exact float64 BLAS products: operands are residues below p, so
each term is at most (p - 1)^2, and a float64 sum of k terms is exact while
k (p - 1)^2 < 2^53.  `matmul` checks that bound before it multiplies, sums
at most that many inner terms per float64 product and folds each product
back in int64 with `% p`; a p with (p - 1)^2 >= 2^53, where no single term
is exact, is a ValueError.  Every prime this package selects (`dixon_prime`
searches below 10**7) passes with blocks of at least 90 terms.
`krylov` finds a Krylov polynomial without elimination: Berlekamp-Massey
on the 2 length + 1 terms u M^k v for a seeded row u, in int64 with every
sum of at most 2 length + 1 terms below p^2 checked below 2^63, and the
result is proved on the Krylov basis, K f = 0 mod p.
`rref` (for `nullspace` and `solve`) eliminates in int64, every step below
p^2 in absolute value, and updates only the columns from the pivot on.
`poly_roots` evaluates at every point of GF(p) by baby steps and giant
steps (Paterson-Stockmeyer, `_poly_values`): about 2 p sqrt(deg) int64
steps and one float64 product of p deg terms, where a Horner scan takes
p deg steps.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# points of GF(p) per chunk of `poly_roots`, so its arrays stay in cache
_CHUNK = 1 << 12


def _exact_terms(p: int) -> int:
    """The most products of two residues mod p that one float64 sum holds
    exactly: the largest k with k (p - 1)^2 < 2^53."""
    k = (2**53 - 1) // (p - 1) ** 2
    if k < 1:
        raise ValueError(f"p = {p}: (p - 1)^2 reaches 2^53, no float64 term is exact")
    return k


def _residues(A, p: int) -> np.ndarray:
    """A reduced mod p, as float64."""
    return (np.asarray(A, dtype=np.int64) % p).astype(np.float64)


def _products(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, as int64, for float64 A and B holding residues mod p:
    one float64 product per block of `_exact_terms(p)` inner terms."""
    k = _exact_terms(p)
    out = (A[..., :k] @ B[:k]).astype(np.int64)
    for start in range(k, A.shape[-1], k):
        out %= p
        out += (A[..., start:start + k] @ B[start:start + k]).astype(np.int64)
    out %= p
    return out


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list, mod p."""
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        # the pivot row is zero left of c, so only columns c.. change
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, p) % p
        col = A[:, c].copy()
        col[r] = 0
        tail = A[:, c:]
        tail -= np.outer(col, A[r, c:])
        tail %= p
        pivots.append(c)
        r += 1
    return A, pivots


def nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as columns, mod p."""
    A, pivots = rref(M, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[fc, idx] = 1
        for r, pc in enumerate(pivots):
            basis[pc, idx] = (-A[r, fc]) % p
    return basis


def solve(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """X with A X = B mod p, for A of full column rank."""
    A = np.array(A, dtype=np.int64) % p
    B = np.array(B, dtype=np.int64) % p
    single = B.ndim == 1
    if single:
        B = B[:, None]
    aug, pivots = rref(np.concatenate([A, B], axis=1), p)
    n = A.shape[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    X = np.zeros((n, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        X[c] = aug[r, n:]
    return X[:, 0] if single else X


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, as int64, by exact float64 blocks (see the module
    docstring)."""
    return _products(_residues(A, p), _residues(B, p), p)


def minimal_polynomial(M: np.ndarray, p: int, max_starts: int = 8) -> list[int]:
    """Minimal polynomial coefficients (ascending, monic) of M over GF(p),
    as the lcm of Krylov minimal polynomials from deterministic starts."""
    n = M.shape[0]
    if n == 0:
        return [1]
    rng = np.random.default_rng(0x5EED)
    poly = [1]  # the constant polynomial 1
    for trial in range(max_starts):
        if trial == 0:
            v = np.zeros(n, dtype=np.int64)
            v[0] = 1
        else:
            v = rng.integers(0, p, size=n, dtype=np.int64)
        poly = _poly_lcm(poly, krylov(M, v, n, p)[1], p)
        if len(poly) == n + 1:
            break
    return poly


def krylov(M: np.ndarray, v: np.ndarray, length: int, p: int):
    """(K, f): the Krylov matrix K = [v, Mv, ..., M^length v] (as columns)
    and the minimal polynomial f of v under M (ascending, monic), for
    `length` at least the degree of f; a higher degree is a ValueError.

    M is reduced and converted once, and every product is an exact float64
    one.  For a seeded row u the 2 length + 1 terms a_(i + j) = (u M^i) M^j v
    are u K and the left sequence u M, u M^2, ... against the last column
    of K; no elimination runs.  Berlekamp-Massey gives their minimal
    polynomial, a divisor of v's.  The lcm of these divisors over the draws
    is returned once K[:, :deg + 1] f = 0 mod p, which makes it v's minimal
    polynomial exactly; an unlucky u (probability at most deg/p) fails that
    check, and the next one is folded in.  Every int64 step stays below
    2^63: the terms are residues, and each Berlekamp-Massey sum holds at
    most 2 length + 1 terms below p^2, checked."""
    M = _residues(M, p)
    K = np.empty((len(v), length + 1))
    K[:, 0] = _residues(v, p)
    for j in range(length):
        K[:, j + 1] = _products(M, K[:, j], p)
    f = [1]
    draws = _left_vectors(len(v), p)
    while _products(K[:, : len(f)], np.array(f, dtype=np.float64), p).any():
        u = next(draws)
        a = np.empty(2 * length + 1, dtype=np.int64)
        a[: length + 1] = _products(u, K, p)
        for k in range(length + 1, 2 * length + 1):
            u = _products(u, M, p).astype(np.float64)
            a[k] = _products(u, K[:, length], p)
        f = _poly_lcm(f, _berlekamp_massey(a, p), p)
        if len(f) > length + 1:
            raise ValueError(
                f"Krylov length {length} is below the degree of the minimal polynomial of v"
            )
    return K.astype(np.int64), f


def _left_vectors(n: int, p: int):
    """The seeded rows u of `krylov`, as float64 residues, one per draw."""
    rng = np.random.default_rng(0x5EED)
    while True:
        yield rng.integers(0, p, size=n).astype(np.float64)


def _berlekamp_massey(a: np.ndarray, p: int) -> list[int]:
    """The minimal polynomial (ascending, monic) of the sequence a mod p:
    the shortest recurrence sum_i C_i a_(k - i) = 0 that holds all along
    a, read backwards (Berlekamp-Massey).  For a linearly recurrent
    sequence of which a holds at least twice the degree terms, it is the
    sequence's minimal polynomial.  Each discrepancy is an int64 sum of at
    most len(a) terms below p^2, checked below 2^63; every other step stays
    below p^2."""
    if len(a) * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"p = {p}: {len(a)} terms below p^2 reach 2^63")
    C = np.zeros(len(a) + 1, dtype=np.int64)
    C[0] = 1
    B, L, shift, b = C.copy(), 0, 1, 1
    for k in range(len(a)):
        d = int(C[: L + 1] @ a[k - L : k + 1][::-1]) % p
        if d == 0:
            shift += 1
            continue
        previous = C.copy()
        C[shift:] -= d * pow(b, -1, p) % p * B[: len(C) - shift]
        C %= p
        if 2 * L <= k:
            L, B, b, shift = k + 1 - L, previous, d, 1
        else:
            shift += 1
    return C[L::-1].tolist()


def _poly_mul_modp(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_divmod_modp(a: list[int], b: list[int], p: int):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    lead_inv = pow(b[-1], -1, p)
    q = [0] * max(da - db + 1, 1)
    while da >= db and any(a):
        while da >= 0 and a[da] % p == 0:
            da -= 1
        if da < db:
            break
        f = a[da] * lead_inv % p
        q[da - db] = f
        for i, c in enumerate(b):
            a[da - db + i] = (a[da - db + i] - f * c) % p
        da -= 1
    while len(a) > 1 and a[-1] % p == 0:
        a.pop()
    return q, a


def _poly_gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while any(b):
        _, r = _poly_divmod_modp(a, b, p)
        a, b = b, r
        if b == [0] or not any(b):
            break
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _poly_lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if a == [1]:
        return list(b)
    if b == [1]:
        return list(a)
    g = _poly_gcd_modp(a, b, p)
    q, r = _poly_divmod_modp(_poly_mul_modp(a, b, p), g, p)
    assert not any(r)
    return q


def poly_roots(poly: list[int], p: int) -> list[int]:
    """All roots in GF(p), sorted, by evaluation at every point, one chunk
    of points at a time (`_poly_values`)."""
    values = _poly_values([c % p for c in poly], p, min(p, _CHUNK))
    roots = []
    for start in range(0, p, _CHUNK):
        at = values(np.arange(start, min(start + _CHUNK, p)))
        roots.extend((start + np.flatnonzero(at == 0)).tolist())
    return roots


def _poly_values(coeffs: list[int], p: int, width: int):
    """The function x -> poly(x) mod p on int64 arrays of at most `width`
    residues, for the ascending residues coeffs of poly.  With s about
    sqrt(len(coeffs)), capped at `_exact_terms(p)`, and
    poly = sum_j P_j(x) (x^s)^j for P_j of degree below s: baby steps
    x^0 .. x^s, one exact float64 product of x^0 .. x^(s-1) with the
    coefficient blocks (every P_j(x), each at most s (p - 1)^2 < 2^53), then
    Horner in x^s over the P_j.  Every call reuses one buffer."""
    s = min(isqrt(max(len(coeffs) - 1, 0)) + 1, _exact_terms(p))
    t = max(1, -(-len(coeffs) // s))
    blocks = np.zeros(t * s)
    blocks[: len(coeffs)] = coeffs
    blocks = blocks.reshape(t, s)  # row j: P_j, ascending
    buffer = np.empty((s + 1, width), dtype=np.int64)

    def values(x: np.ndarray) -> np.ndarray:
        powers = buffer[:, : len(x)]  # row i: x^i
        powers[0] = 1
        powers[1] = x
        for i in range(2, s + 1):
            np.multiply(powers[i - 1], powers[1], out=powers[i])
            powers[i] %= p
        P = (blocks @ powers[:s].astype(np.float64)).astype(np.int64)  # row j: P_j(x)
        acc = P[-1] % p
        for j in range(t - 2, -1, -1):
            acc *= powers[s]
            acc += P[j]
            acc %= p
        return acc

    return values
