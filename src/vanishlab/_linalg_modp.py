"""Dense linear algebra over GF(p) on numpy int64 arrays.

Entries are kept reduced below p, so a product of two entries is below p**2
and `matmul` sums at most 2**62 // p**2 of them before reducing again; every
step therefore stays inside int64 for p**2 <= 2**62 (p <= 2**31), which holds
for every prime this package selects (`dixon_prime` searches below 10**7).
`poly_roots` scans all of GF(p): it costs p * deg Horner steps.
"""

from __future__ import annotations

import numpy as np


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
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
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
    """A @ B mod p, chunked so intermediate sums stay inside int64."""
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    inner = A.shape[-1]
    # each product < p^2; cap the number summed before reducing
    chunk = max(1, (2**62) // (p * p))
    if inner <= chunk:
        return (A @ B) % p
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for start in range(0, inner, chunk):
        out = (out + A[..., start:start + chunk] @ B[start:start + chunk]) % p
    return out


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
    `length` at least the degree of f."""
    vecs = [v % p]
    for _ in range(length):
        vecs.append(matmul(M, vecs[-1], p))
    K = np.stack(vecs, axis=1)
    A, pivots = rref(K, p)
    # the first dependent Krylov vector gives the minimal-degree relation
    fc = next(c for c in range(K.shape[1]) if c not in pivots)
    coeffs = [0] * (fc + 1)
    coeffs[fc] = 1
    for r, pc in enumerate(pivots):
        if pc < fc:
            coeffs[pc] = int((-A[r, fc]) % p)
    return K, coeffs


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
    """All roots in GF(p) by direct scan: in-place Horner over chunks of
    2**15 points (256 KiB per int64 array), so the scan stays in cache and
    its memory does not grow with p."""
    # a value below p stays below p**(j + 1) for j more Horner steps, so it
    # is reduced once every `every` steps with p**(every + 1) <= 2**62
    every = 1
    while p ** (every + 2) <= 2**62:
        every += 1
    roots = []
    vals = np.empty(min(p, 2**15), dtype=np.int64)
    for start in range(0, p, len(vals)):
        xs = np.arange(start, min(start + len(vals), p), dtype=np.int64)
        acc = vals[: len(xs)]
        acc[:] = 0
        for step, c in enumerate(reversed(poly), 1):
            acc *= xs
            acc += c
            if step % every == 0:
                acc %= p
        acc %= p
        roots.extend((start + np.flatnonzero(acc == 0)).tolist())
    return roots
