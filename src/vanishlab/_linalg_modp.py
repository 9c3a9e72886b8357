"""Dense linear algebra over GF(p) on numpy arrays.

Products are exact float64 BLAS products: operands are residues below p, so
each term is at most (p - 1)^2, and a float64 sum of k terms is exact while
k (p - 1)^2 < 2^53.  `matmul` checks that bound before it multiplies, sums
at most that many inner terms per float64 product and folds each product
back in int64 with `% p`; a p with (p - 1)^2 >= 2^53, where no single term
is exact, is a ValueError.  Every prime this package selects (`dixon_prime`
searches below 10**7) passes with blocks of at least 90 terms.
`krylov` finds Krylov polynomials without elimination: the columns of W
step together, one product M @ W per step, and Berlekamp-Massey, in Python
ints, runs term by term on each column's sequence u M^k w for a seeded
row u, until its recurrence f passes the proof on the Krylov basis,
K f = 0 mod p; a column's work follows its own degree.
`rref` (for `nullspace` and `solve`) eliminates in int64, every step below
p^2 in absolute value, and updates only the columns from the pivot on.
`poly_roots` evaluates at every point of GF(p) by a Horner scan in int64,
every step below p^2: p deg steps, one chunk of points at a time.
"""

from __future__ import annotations

import operator

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
        poly = _poly_lcm(poly, krylov(M, v[:, None], n, p)[0][1], p)
        if len(poly) == n + 1:
            break
    return poly


def krylov(M: np.ndarray, W: np.ndarray, length: int, p: int) -> list:
    """[(K, f)] for the columns w of W: the Krylov basis K = [w, Mw, ...,
    M^deg w] (int64 columns) and the minimal polynomial f of w under M
    (ascending, monic), for `length` at least every degree; a higher degree
    is a ValueError.

    M is reduced and converted once, and the columns step together, one
    exact float64 product M @ X per step over the columns still open.  For a
    seeded row u, each step gives a column two more terms
    a_(i + j) = (u M^i) M^j w of its sequence, from the left sequence
    u, u M, u M^2, ... that all columns share, and Berlekamp-Massey takes
    them one at a time (`_Recurrence`).  Once its recurrence f, of degree L,
    has held for 2 L + 1 terms, the column checks K[:, :L + 1] f = 0 mod p.
    That proves f the minimal polynomial of w (which divides f, and whose
    degree is at least L), so a column leaves after deg f steps.  A failed
    check means too few terms or an unlucky u, one that misses an
    eigenvalue of w (probability at most deg/p): the column restarts its
    recurrence on the next seeded row, over the basis it has, and goes
    on.  After `length` steps a recurrence longer than `length` proves the
    degree above it."""
    M = _residues(M, p)
    X = _residues(W, p)
    draws = _left_vectors(len(X), p)
    left = []  # left[t]: the seeded row u_t, then u_t M, u_t M^2, ...
    bases = [[x] for x in X.T]
    row = [0] * len(bases)
    recurrences = [_Recurrence(p) for _ in bases]
    found = [None] * len(bases)
    open_ = list(range(len(bases)))

    def left_rows(t: int, j: int) -> list:
        """u_t M^i for i = 0 .. j."""
        while len(left) <= t:
            left.append([next(draws)])
        rows = left[t]
        while len(rows) <= j:
            rows.append(_products(rows[-1], M, p).astype(np.float64))
        return rows

    for j in range(length + 1):
        if j:
            X = _products(M, X, p).astype(np.float64)
            for i, x in zip(open_, X.T):
                bases[i].append(x)
        for t in sorted(set(row[i] for i in open_)):
            at = [k for k, i in enumerate(open_) if row[i] == t]
            U = np.array(left_rows(t, j)[max(j - 1, 0):])
            for i, terms in zip([open_[k] for k in at], _products(U, X[:, at], p).T):
                recurrences[i].extend(terms.tolist())  # a_0, or a_(2j - 1) and a_(2j)
        for i in open_:
            while recurrences[i].degree <= j:
                f = recurrences[i].poly()
                K = np.array(bases[i][: len(f)]).T
                if not _products(K, np.array(f, dtype=np.float64), p).any():
                    found[i] = (K.astype(np.int64), f)
                    break
                row[i] += 1
                U = np.array(left_rows(row[i], j)[: j + 1])
                recurrences[i] = _Recurrence(p)
                # a_0 .. a_(j - 1) from u K, then a_j .. a_(2j) from U against M^j w
                K = np.array(bases[i]).T
                recurrences[i].extend(_products(U[0], K[:, :j], p).tolist())
                recurrences[i].extend(_products(U, K[:, j], p).tolist())
        keep = [k for k, i in enumerate(open_) if found[i] is None]
        open_, X = [open_[k] for k in keep], X[:, keep]
        if not open_:
            return found
    raise ValueError(
        f"Krylov length {length} is below the degree of the minimal polynomial of w"
    )


def _left_vectors(n: int, p: int):
    """The seeded rows u of `krylov`, as float64 residues, one per draw."""
    rng = np.random.default_rng(0x5EED)
    while True:
        yield rng.integers(0, p, size=n).astype(np.float64)


class _Recurrence:
    """Berlekamp-Massey fed one term at a time, in Python ints: after each
    term, `poly()` is the minimal polynomial (ascending, monic, of
    `degree` L) of the shortest linear recurrence that generates every term
    so far.  For a linearly recurrent sequence of which it has seen at
    least twice the degree terms, that is the sequence's minimal
    polynomial."""

    def __init__(self, p: int):
        self.p, self.terms = p, []
        self.C, self.B = [1], [1]  # connection polynomials, ascending
        self.degree, self.shift, self.b = 0, 1, 1

    def extend(self, terms) -> None:
        p = self.p
        for a in terms:
            C, k = self.C, len(self.terms)
            self.terms.append(a)
            d = sum(map(operator.mul, C, reversed(self.terms))) % p
            if d == 0:
                self.shift += 1
                continue
            scale = d * pow(self.b, -1, p) % p
            T = C + [0] * (self.shift + len(self.B) - len(C))
            for i, c in enumerate(self.B, self.shift):
                T[i] = (T[i] - scale * c) % p
            if 2 * self.degree <= k:
                self.degree, self.B, self.b, self.shift = k + 1 - self.degree, C, d, 1
            else:
                self.shift += 1
            self.C = T[: self.degree + 1]

    def poly(self) -> list[int]:
        return (self.C + [0] * (self.degree + 1 - len(self.C)))[::-1]


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
    """All roots in GF(p), sorted, by a Horner scan of every point of GF(p),
    one chunk of points at a time."""
    coeffs = [c % p for c in poly]
    roots = []
    for start in range(0, p, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, p), dtype=np.int64)
        acc = np.full(len(x), coeffs[-1], dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc *= x
            acc += c
            acc %= p
        roots.extend((start + np.flatnonzero(acc == 0)).tolist())
    return roots
