"""Vanishing sets and proportions, two ways.

The oracle path builds the full character table by the class-algebra
eigenvector method (Dixon, with Schneider's splitting): simultaneous
eigenvectors of the class-sum matrices over GF(p), for Dixon's prime, the
smallest p = 1 (mod exp G) above 2*sqrt|G|.  Each splitting round draws one
random combination of all of them, one weighted count over the left
translations of the class representatives (no single class matrix is
formed), and splits every piece on its Krylov basis; rounds repeat until
the r classes give r eigenvectors.  Then comes exact recovery of
cyclotomic character values through multiplicity extraction, one transform
per element order.
Each value is a power-basis coefficient vector in Z[zeta_e], e = exp G.
The table keeps the distinct ones (the zero first) and a read-only r x r
array of ids into them, on which both orthogonality relations are
verified exactly for every pair.  The fast path evaluates induced
linear characters on an abelian normal subgroup.  Zero tests are exact
everywhere; float64 serves only as an exact integer accumulator, under a
checked bound of 2^53: in the weighted class counts (at most |G| (p - 1)),
in the exact orthogonality sums, and in every GF(p) product of
`_linalg_modp`, blocks of k terms with k (p - 1)^2 < 2^53.

All outputs are immutable and calls are reentrant: per-group work shares
no mutable state, so corpus sweeps may run one group per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from . import _linalg_modp as lin
from .abelian_core import AbElement, DualCharacter, pairing
from .cyclotomic import Cyclo, power_table, prime_factors
from .group_engine import (
    FiniteGroup,
    GroupDomainError,
    SubgroupHandle,
    AbelianModel,
    abelian_model,
)

# Terms in one exact orthogonality product of a table with fewer than 128
# classes (larger tables use r^2), and values per multiplicity product.
_BLOCK_TERMS = 1 << 14
# Hits per weighted bincount of a class combination: 512 KiB arrays.
_BINCOUNT_HITS = 1 << 16


class TableConsistencyError(AssertionError):
    """A produced table failed an internal exactness check."""


class OracleConfigurationError(RuntimeError):
    """No admissible prime below the internal search bound."""


@dataclass(frozen=True)
class ClassData:
    reps: tuple
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    classes: ClassData
    values: tuple  # the distinct Cyclo values of the table, the zero (if any) first
    ids: np.ndarray  # read-only (r, r) int64: chi_i(rep_k) is values[ids[i, k]]
    degrees: tuple[int, ...]
    zero_classes: tuple[int, ...]  # the classes on which some row is zero

    def value(self, i: int, g) -> Cyclo:
        return self.values[self.ids[i, self.group.class_index[self.group.index[g]]]]

    def vanishing_classes(self) -> list[int]:
        return list(self.zero_classes)


@dataclass(frozen=True, eq=False)
class VanishReport:
    """V(G) as a read-only bool array over the element indices of G, with
    the element sets `vanishing` and `nonvanishing` read off it."""

    group: FiniteGroup
    vanishing_mask: np.ndarray
    proportion: Fraction

    @property
    def vanishing(self) -> frozenset:
        members = np.flatnonzero(self.vanishing_mask).tolist()
        return frozenset(self.group.elements[i] for i in members)

    @property
    def nonvanishing(self) -> frozenset:
        return frozenset(self.group.elements) - self.vanishing


def class_data(G: FiniteGroup) -> ClassData:
    """Class representatives (the first member of each class), sizes and
    the class of each representative's inverse, read off `G.class_index`."""
    cls = G.class_index
    firsts = np.unique(cls, return_index=True)[1]
    return ClassData(
        tuple(G.elements[i] for i in firsts.tolist()),
        tuple(np.bincount(cls).tolist()),
        tuple(cls[G.compiled.inv[firsts]].tolist()),
    )


# -- prime selection -----------------------------------------------------


def dixon_prime(group_order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) above 2*sqrt(group_order), searched
    below 10^7: above 2*sqrt|G| distinct characters differ mod p (Dixon),
    and p = 1 (mod exp G) puts every character value in GF(p)."""
    bound = 2 * isqrt(group_order) + 1
    p = bound - (bound - 1) % exponent  # the largest 1 (mod exponent) <= bound
    while True:
        p += exponent
        if p > 10**7:
            raise OracleConfigurationError("no admissible prime below 10^7")
        if prime_factors(p) == [p]:
            return p


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise OracleConfigurationError(f"no primitive root mod {p}")


# -- class-sum matrices --------------------------------------------------


def _class_combination(G: FiniteGroup, data: ClassData, L: np.ndarray, c) -> np.ndarray:
    """sum_i c_i M_i over the class-sum matrices M_i, with
    (M_i)[j, k] = #{(x, y) in C_i x C_j : x y = rep_k}; every joint
    eigenvector u satisfies M_i u = omega_i u.

    L[k] is the left translation y -> rep_k y (as element indices).
    x y = rep_k puts y = x^-1 rep_k, conjugate to rep_k x^-1, so column k
    is the class count of rep_k w over all w, where w weighs c_i for the
    class C_i whose inverse class holds w: one weighted bincount per block
    of rows of L, about _BINCOUNT_HITS hits each.  Every sum is at most
    |G| max |c_i|, checked below 2^53, so the float64 weights are exact."""
    r = data.count
    cls = G.class_index
    c = np.asarray(c, dtype=np.int64)
    if G.order * int(np.abs(c).max(initial=0)) >= 2**53:
        raise TableConsistencyError("class combination sums reach 2^53")
    step = min(r, max(1, _BINCOUNT_HITS // G.order))
    weights = np.tile(c[np.asarray(data.inverse_class)[cls]].astype(np.float64), step)
    M = np.empty((r, r), dtype=np.int64)
    for start in range(0, r, step):
        rows = L[start:start + step]
        hits = cls[rows]
        hits += r * np.arange(len(rows))[:, None]
        counts = np.bincount(hits.ravel(), weights[: hits.size], minlength=r * len(rows))
        M[:, start:start + len(rows)] = counts.reshape(len(rows), r).T
    return M


def _power_classes(G: FiniteGroup, L: np.ndarray, e: int) -> np.ndarray:
    """(r, e) array: the class of rep_k^l at [k, l], for the left
    translations L of the class representatives."""
    cls = G.class_index
    rows = np.arange(len(L))
    x = np.full(len(L), G.compiled.identity, dtype=np.intp)
    out = np.empty((len(L), e), dtype=np.int64)
    for l in range(e):
        out[:, l] = cls[x]
        x = L[rows, x]
    return out


def _split_eigenspaces(
    G: FiniteGroup, data: ClassData, L: np.ndarray, p: int
) -> list[np.ndarray]:
    """The r joint eigenvectors of the class-sum matrices mod p, by
    Schneider's one-combination variant of Dixon's method.

    The joint eigenvectors are the central characters omega_chi, and the
    identity class vector e_1 is their sum with the coefficients
    chi(1)^2 / |G|, none of them 0 mod p.  So each piece below is the sum of
    the eigenvectors of one block of characters; the first piece is e_1.
    Each round draws one seeded random combination M of all class
    matrices, counted at once by `_class_combination`, and replaces every
    piece w by its parts K (f / (x - lam)) in the eigenspaces of M, for the
    Krylov basis K of w under M, the Krylov polynomial f of w (by
    Berlekamp-Massey, proved on K: see `lin.krylov`) and each root lam of
    f in GF(p).  `lin.krylov` steps all pieces together, one product M @ W
    per step, and a piece leaves once its f is proved: a piece that is
    already an eigenvector of M costs one product, and the columns of a
    round sum to at most r plus the number of pieces.  A block splits
    unless M takes one value on all its characters, so r pieces are r
    eigenvectors.  Two characters share the value of M with probability
    1/p, so with r near or above p a block takes a few rounds; r rounds
    bound the loop."""
    r = data.count
    rng = np.random.default_rng(0x5EED)
    pieces = [np.eye(r, dtype=np.int64)[0]]
    for _ in range(r):
        if len(pieces) >= r:
            break
        c = np.zeros(r, dtype=np.int64)  # M_0 = I shifts every eigenvalue alike
        c[1:] = rng.integers(0, p, size=r - 1)
        M = _class_combination(G, data, L, c) % p
        split = []
        for K, f in lin.krylov(M, np.stack(pieces, axis=1), r - len(pieces) + 1, p):
            if len(f) == 2:  # already an eigenvector of M
                split.append(K[:, 0])
                continue
            roots = lin.poly_roots(f, p)
            if len(roots) != len(f) - 1:
                raise TableConsistencyError("class matrix not diagonalizable mod p")
            split.extend(lin.matmul(K[:, : len(roots)], _quotients(f, roots, p), p).T)
        pieces = split
    if len(pieces) != r:
        raise TableConsistencyError("joint eigenspaces did not separate")
    return pieces


def _quotients(f: list[int], roots: list[int], p: int) -> np.ndarray:
    """Column j: the ascending coefficients of f / (x - roots[j]) mod p, for
    monic f, by synthetic division."""
    lam = np.array(roots, dtype=np.int64)
    d = len(f) - 1
    Q = np.empty((d, len(roots)), dtype=np.int64)
    Q[d - 1] = 1
    for k in range(d - 1, 0, -1):
        Q[k - 1] = (f[k] + lam * Q[k]) % p
    return Q


@lru_cache(maxsize=32)
def _zeta_power_table(o: int, p: int, z: int) -> np.ndarray:
    """W[l, j] = z^(-j l) / o mod p for z of order o: a length-o vector of
    values theta(g^l) times W holds the multiplicities of z^j in chi(g)."""
    zinv = pow(z, -1, p)
    out = np.zeros((o, o), dtype=np.int64)
    powers = np.array([pow(zinv, j, p) for j in range(o)], dtype=np.int64)
    cur = np.full(o, pow(o, -1, p), dtype=np.int64)
    for l in range(o):
        out[l] = cur
        cur = (cur * powers) % p
    return out


@lru_cache(maxsize=64)
def _reduction_matrix(L: int) -> np.ndarray:
    """Dense int64 view of `power_table(L)`: row j = coefficients of x^j mod
    Phi_L, so an exponent-count vector times this matrix is its power-basis
    coefficient vector in Z[zeta_L]."""
    phi, rows = power_table(L)
    j, k, c = np.array(
        [(j, k, c) for j, row in enumerate(rows) for k, c in row], dtype=np.int64
    ).T
    out = np.zeros((L, phi), dtype=np.int64)
    out[j, k] = c
    return out


def _distinct(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows of an integer array, the index of each row among
    them): the zero row first, if any, then the rest in lexicographic order,
    the order of their `Cyclo` keys (order, coeffs)."""
    order = np.lexsort((*vectors.T[::-1], vectors.any(axis=1)))
    ordered = vectors[order]
    new = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    index = np.empty(len(order), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def dixon_table(G: FiniteGroup) -> CharacterTable:
    # G keeps the table's fields, not the table: a table points back
    # at its group, and that cycle would outlive the last outside reference.
    cached = getattr(G, "_dixon_table", None)
    if cached is not None:
        return CharacterTable(G, *cached)
    data = class_data(G)
    r = data.count
    n = G.order
    if n == 1:
        G._dixon_table = (data, (Cyclo.one(),), np.broadcast_to(np.int64(0), (1, 1)), (1,), ())
        return CharacterTable(G, *G._dixon_table)
    e = G.exponent
    p = dixon_prime(n, e)
    reps = [G.index[rep] for rep in data.reps]
    L = G.compiled.left_translations(reps)
    vectors = _split_eigenspaces(G, data, L, p)

    sizes = np.array(data.sizes, dtype=np.int64)
    size_inv = np.array([pow(int(s), -1, p) for s in sizes], dtype=np.int64)
    n_mod = n % p

    thetas = np.empty((r, r), dtype=np.int64)
    degrees = []
    for u, theta in zip(vectors, thetas):
        u = u % p
        if u[0] % p == 0:
            raise TableConsistencyError("eigenvector vanishes at the identity class")
        u = (u * pow(int(u[0]), -1, p)) % p
        s = int(np.sum(u * u[list(data.inverse_class)] % p * size_inv % p) % p)
        target = n_mod * pow(s, -1, p) % p
        degree = next(
            (d for d in range(1, isqrt(n) + 1) if d * d % p == target), None
        )
        if degree is None:
            raise TableConsistencyError("no admissible character degree")
        theta[:] = degree * u % p * size_inv % p
        degrees.append(degree)

    if sum(d * d for d in degrees) != n:
        raise TableConsistencyError("degrees do not satisfy sum of squares = |G|")

    power_class = _power_classes(G, L, e)
    orders = G.compiled.orders[reps]

    # theta(rep_k^l) has period o = o(rep_k) in l, so the classes of one
    # element order o share one o x o transform, and its multiplicities of
    # zeta_o^j = zeta_e^(j e/o) lift to Z[zeta_e] through every (e/o)-th row
    # of the reduction matrix.
    z = pow(_primitive_root(p), (p - 1) // e, p)
    reduction = _reduction_matrix(e)
    by_order = []
    for o in sorted(set(orders.tolist())):
        K = np.flatnonzero(orders == o)
        W = _zeta_power_table(o, p, pow(z, e // o, p))
        by_order.append((K, power_class[K, :o], W, reduction[:: e // o]))

    # A block of rows takes one product per element order, of about
    # _BLOCK_TERMS values, and keeps its distinct vectors; ids point into the
    # blocks' vectors laid end to end until one more `_distinct` merges them.
    step = max(1, _BLOCK_TERMS // max(powers.size for _, powers, _, _ in by_order))
    phi = reduction.shape[1]
    ids, blocks, found = np.empty((r, r), dtype=np.int64), [], 0
    for start in range(0, r, step):
        coeffs = np.empty((min(step, r - start), r, phi), dtype=np.int64)
        for K, powers, W, lift in by_order:
            mult = lin.matmul(thetas[start:start + step, powers], W, p)  # (rows, |K|, o)
            if np.any(mult >= p // 2):
                raise TableConsistencyError("multiplicity lift out of range")
            coeffs[:, K] = mult @ lift
        block, index = _distinct(coeffs.reshape(-1, phi))
        ids[start:start + step] = index.reshape(-1, r) + found
        blocks.append(block)
        found += len(block)
    distinct, merged = _distinct(np.concatenate(blocks))
    ids = merged[ids]
    order = np.lexsort((*ids.T[::-1], degrees))  # by degree, then ids left to right
    ids, degrees = ids[order], np.array(degrees)[order]
    if np.any(distinct[ids[:, 0]] != np.outer(degrees, np.eye(1, phi, dtype=np.int64))):
        raise TableConsistencyError("identity column disagrees with degree")

    _verify_orthogonality(data, n, e, distinct, ids, thetas[order], p)
    ids.flags.writeable = False
    values = tuple(Cyclo(e, tuple(c)) if any(c) else Cyclo.zero() for c in distinct.tolist())
    # class k vanishes when column k holds id 0, if that is the zero vector
    zero_classes = tuple(np.flatnonzero((ids == 0).any(0) & ~distinct[0].any()).tolist())
    G._dixon_table = (data, values, ids, tuple(degrees.tolist()), zero_classes)
    return CharacterTable(G, *G._dixon_table)


def _verify_orthogonality(data, n, e, values, ids, theta, p):
    """Both orthogonality relations for every pair: mod p on the table
    theta, and exactly in Z[zeta_e] on the power-basis coefficient vectors
    values[ids[i, k]] of chi_i(rep_k).

    The exact sums are float64 products of row blocks against later row
    blocks (pairs x > y are the conjugates of pairs x < y), exact below the
    checked bound 2^53.  One product holds about max(r^2, 2^14) terms: when
    phi(e) <= r, square blocks of that many rows, so a table with
    r phi <= 128 checks in one product per relation (S4: r = 5, phi = 4)
    and a large one in blocks of r // phi rows (M5: r = 264, phi = 8);
    when phi(e) > r, blocks of that many rows against all later rows, at
    least one row (AGL(1,31): r = 31, phi = 240).  Their
    terms zeta^a conj(zeta^b) are summed along the 2 phi - 1 diagonals
    a - b of each phi x phi block, one slice per row a, then reduced to the
    power basis in int64 through the rows (a - b) mod e of the reduction
    matrix."""
    r, phi = data.count, values.shape[1]
    sizes = np.array(data.sizes, dtype=np.int64)
    conj = theta[:, list(data.inverse_class)]
    gram = lin.matmul(theta * sizes % p, conj.T, p)
    if np.any(gram != n % p * np.eye(r, dtype=np.int64)):
        raise TableConsistencyError("first orthogonality fails mod p")
    if np.any(lin.matmul(theta.T, conj, p) != np.diag(n // sizes % p)):
        raise TableConsistencyError("column orthogonality fails mod p")

    reduction = _reduction_matrix(e)
    peak = int(np.abs(values).max())
    if n * peak * peak * phi * phi * int(np.abs(reduction).max()) >= 2**53:
        raise TableConsistencyError("exact orthogonality sums reach 2^53")
    diagonal = reduction[(np.arange(2 * phi - 1) - (phi - 1)) % e]  # row a - b + phi - 1
    floats = values.astype(np.float64)
    budget = max(r * r, _BLOCK_TERMS)  # terms (step, phi, width, phi) per product
    if phi <= r:
        step = width = min(r, max(1, isqrt(budget) // phi))
    else:  # rows per left block against all later rows
        step, width = min(r, max(1, budget // (r * phi * phi))), r
    relations = (  # sum_m w_m v[x, m] conj(v[y, m]) = d_x [x = y]
        ("first", ids, sizes, np.full(r, n)),
        ("column", ids.T, np.ones(r, dtype=np.int64), n // sizes),
    )
    for name, v, w, d in relations:
        for x in range(0, r, step):
            left = floats[v[x : x + step]] * w[:, None]  # (x, m, a)
            for y in range(x, r, width):
                # (x, a, y, phi - 1 - b): b reversed, so a - b + phi - 1 = a + column
                sums = np.tensordot(left, floats[v[y : y + width]][..., ::-1], (1, 1))
                bx, by = sums.shape[0], sums.shape[2]
                diagonals = np.zeros((bx, by, 2 * phi - 1))
                for a in range(phi):  # a - b + phi - 1 = a + column
                    diagonals[..., a : a + phi] += sums[:, a]
                got = np.rint(diagonals).astype(np.int64) @ diagonal
                if x == y:
                    k = np.arange(bx)
                    got[k, k, 0] -= d[x : x + bx]
                if np.any(got):
                    raise TableConsistencyError(f"{name} orthogonality fails exactly")


# -- vanishing reports ---------------------------------------------------


def proportion(G: FiniteGroup) -> VanishReport:
    if G.is_abelian:
        vanishing = np.zeros(G.order, dtype=bool)
    else:
        vanishing = np.isin(G.class_index, dixon_table(G).vanishing_classes())
    vanishing.flags.writeable = False
    return VanishReport(G, vanishing, Fraction(int(vanishing.sum()), G.order))


# -- the abelian-normal fast path ----------------------------------------


def coset_transversal(G: FiniteGroup, A: SubgroupHandle) -> list:
    """The first element of each left coset gA."""
    return [G.elements[i] for i in _coset_firsts(A).tolist()]


def _coset_firsts(A: SubgroupHandle) -> np.ndarray:
    labels = A.view.coset_labels(A.basis)
    return np.flatnonzero(labels == np.arange(len(labels)))


def induced_linear_value(
    alpha: DualCharacter,
    a: AbElement,
    model: AbelianModel,
    transversal=None,
) -> Cyclo:
    """alpha^G(a) = sum over coset representatives t of alpha(a^t).

    The value does not depend on the transversal choice because a lies in
    the abelian normal subgroup the characters live on.
    """
    view = model.subgroup.view
    if alpha.group != model.shape or a.group != model.shape:
        raise GroupDomainError("character and element must live on the model")
    if transversal is None:
        transversal = [view.elements[i] for i in _coset_firsts(model.subgroup).tolist()]
    g = view.index[model.group_element(a)]
    total = Cyclo.zero()
    for t in transversal:
        total = total + alpha(model.element(view.elements[view.conj(g, view.index[t])]))
    return total


def vanish_on_abelian_normal(G: FiniteGroup, A: SubgroupHandle) -> frozenset:
    """{a in A : some linear character of A induces to zero at a}, which
    is V(G) intersected with A."""
    if A.view is not G.compiled:
        raise GroupDomainError("subgroup of a different group")
    if not A.is_abelian():
        raise GroupDomainError("fast path requires an abelian subgroup")
    if not A.is_normal():
        raise GroupDomainError("fast path requires a normal subgroup")
    model = abelian_model(A)
    shape = model.shape
    L = max(shape.exponent, 1)
    if L == 1:
        return frozenset()
    coords_of = np.zeros((G.order, shape.rank), dtype=np.int64)
    for g, c in model.to_coords.items():
        coords_of[G.index[g]] = c
    characters = np.arange(shape.order)  # table rows of the dual
    reduction = _reduction_matrix(L)

    out = set()
    conjugates = G.compiled.conjugates(A.idx)[:, _coset_firsts(A)]  # a^t
    for g, row in zip(A.idx.tolist(), conjugates):
        exps = pairing(shape, coords_of[row], shape.table)  # (transversal, #characters)
        counts = np.zeros((len(characters), L), dtype=np.int64)
        np.add.at(counts, (characters, exps), 1)
        if np.any(np.all(counts @ reduction == 0, axis=1)):  # exact: tiny entries
            out.add(G.elements[g])
    return frozenset(out)
