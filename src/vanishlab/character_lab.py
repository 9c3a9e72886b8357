"""Vanishing sets and proportions, two ways.

The oracle path builds the full character table by the class-algebra
eigenvector method (Dixon, with Schneider's splitting): simultaneous
eigenvectors of the class-sum matrices over GF(p), read off the Krylov
basis of one random combination of all of them, for the smallest prime
p = 1 (mod exp G) above max(2*sqrt|G|, 4r^2), r the number of classes (the
4r^2 term capped by the prime search bound 10^7), then exact recovery of
cyclotomic character values through multiplicity extraction, one transform
per element order.
The values are held as one integer array of power-basis coefficient
vectors in Z[zeta_e], e = exp G, on which both orthogonality relations
are verified exactly for every pair.  The fast path evaluates induced
linear characters on an abelian normal subgroup.  Zero tests are exact
everywhere; float64 serves only as an exact integer accumulator in the
orthogonality sums, under a checked bound of 2^53.

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

class TableConsistencyError(AssertionError):
    """A produced table failed an internal exactness check."""


class OracleConfigurationError(RuntimeError):
    """No admissible prime below the internal search bound."""


@dataclass(frozen=True)
class ClassData:
    reps: tuple
    sizes: tuple[int, ...]
    class_of: dict
    inverse_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    classes: ClassData
    rows: tuple  # one tuple of Cyclo values per irreducible, class-indexed
    degrees: tuple[int, ...]

    def value(self, i: int, g) -> Cyclo:
        return self.rows[i][self.classes.class_of[g]]

    def vanishing_classes(self) -> list[int]:
        return [
            k
            for k in range(self.classes.count)
            if any(row[k].is_zero() for row in self.rows)
        ]


@dataclass(frozen=True)
class VanishReport:
    group: FiniteGroup
    vanishing: frozenset
    nonvanishing: frozenset
    proportion: Fraction


def class_data(G: FiniteGroup) -> ClassData:
    cached = getattr(G, "_class_data", None)
    if cached is not None:
        return cached
    classes, class_of = G.conjugacy_data
    reps = tuple(rep for rep, _ in classes)
    sizes = tuple(len(c) for _, c in classes)
    inverse_class = tuple(G.class_index[G.compiled.inv[G.indices(reps)]].tolist())
    data = ClassData(reps, sizes, class_of, inverse_class)
    G._class_data = data
    return data


# -- prime selection -----------------------------------------------------


def dixon_prime(group_order: int, exponent: int, classes: int) -> int:
    """Smallest prime p = 1 (mod exponent) above max(2*sqrt(group_order),
    4*classes^2).  Above 2*sqrt|G| distinct characters differ mod p; above
    4r^2 a random combination of the r class matrices separates all r of
    them with probability above 7/8.  The 4r^2 term is capped by the search
    bound 10^7: when no such prime lies below it, p is the smallest one
    above 2*sqrt|G| alone, and the splitting rounds absorb the collisions."""
    floor = 2 * isqrt(group_order) + 1
    p = _first_prime(max(floor, 4 * classes * classes), exponent)
    if p is None:
        p = _first_prime(floor, exponent)
    if p is None:
        raise OracleConfigurationError("no admissible prime below 10^7")
    return p


def _first_prime(bound: int, exponent: int) -> int | None:
    """Smallest prime p = 1 (mod exponent) with bound < p <= 10^7, or None."""
    p = bound - (bound - 1) % exponent  # the largest 1 (mod exponent) <= bound
    while True:
        p += exponent
        if p > 10**7:
            return None
        if prime_factors(p) == [p]:
            return p


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise OracleConfigurationError(f"no primitive root mod {p}")


# -- class-sum matrices --------------------------------------------------


def _class_matrix(G: FiniteGroup, data: ClassData, L: np.ndarray, i: int) -> np.ndarray:
    """M_i with (M_i)[j, k] = #{(x, y) in C_i x C_j : x y = rep_k}; every
    joint eigenvector u satisfies M_i u = omega_i u.

    L[k] is the left translation y -> rep_k y (as element indices).
    x y = rep_k puts y = x^-1 rep_k, conjugate to rep_k x^-1, so column k
    counts the classes of rep_k w over w in the inverse class of C_i."""
    r = data.count
    cls = G.class_index
    members = np.flatnonzero(cls == data.inverse_class[i])
    hits = cls[L[:, members]] + r * np.arange(r)[:, None]
    return np.bincount(hits.ravel(), minlength=r * r).reshape(r, r).T


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
    matrices and replaces every piece w by its parts K (f / (x - lam)) in
    the eigenspaces of M, for the Krylov basis K of w under M, the Krylov
    polynomial f of w and each root lam of f in GF(p).  A block splits
    unless M takes one value on all its characters, so r pieces are r
    eigenvectors; above p = 4r^2 one round splits all r characters with
    probability above 7/8, and r rounds bound the loop."""
    r = data.count
    rng = np.random.default_rng(0x5EED)
    pieces = [np.eye(r, dtype=np.int64)[0]]
    for _ in range(r):
        if len(pieces) >= r:
            break
        # sum_i (M_i)[j, k] = |C_j|, so the sum stays below p n before "% p"
        M = np.zeros((r, r), dtype=np.int64)
        for i, c in enumerate(rng.integers(0, p, size=r - 1).tolist(), start=1):
            M += c * _class_matrix(G, data, L, i)
        M %= p
        split = []
        for w in pieces:
            K, f = lin.krylov(M, w, r - len(pieces) + 1, p)
            if len(f) == 2:  # w is an eigenvector of M
                split.append(w)
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


def dixon_table(G: FiniteGroup) -> CharacterTable:
    # G keeps (classes, rows, degrees), not the table: a table points back
    # at its group, and that cycle would outlive the last outside reference.
    cached = getattr(G, "_dixon_table", None)
    if cached is not None:
        return CharacterTable(G, *cached)
    data = class_data(G)
    r = data.count
    n = G.order
    if n == 1:
        G._dixon_table = (data, ((Cyclo.one(),),), (1,))
        return CharacterTable(G, *G._dixon_table)
    e = G.exponent
    p = dixon_prime(n, e, r)
    L = G.compiled.left_translations([G.index[rep] for rep in data.reps])
    vectors = _split_eigenspaces(G, data, L, p)
    if len(vectors) != r:
        raise TableConsistencyError("eigenvector count differs from class count")

    sizes = np.array(data.sizes, dtype=np.int64)
    size_inv = np.array([pow(int(s), -1, p) for s in sizes], dtype=np.int64)
    n_mod = n % p

    theta_rows = []
    degrees = []
    for u in vectors:
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
        theta = degree * u % p * size_inv % p
        theta_rows.append(theta)
        degrees.append(degree)

    if sum(d * d for d in degrees) != n:
        raise TableConsistencyError("degrees do not satisfy sum of squares = |G|")

    power_class = _power_classes(G, L, e)
    at_identity = power_class[:, 1:] == power_class[:, :1]
    orders = np.where(at_identity.any(axis=1), at_identity.argmax(axis=1) + 1, e)

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

    # Each value is a power-basis coefficient vector in Z[zeta_e]; a table
    # has few distinct ones, so rows hold ids into value_id.
    ids = np.empty((r, r), dtype=np.int64)
    value_id = {}
    for theta, id_row in zip(theta_rows, ids):
        for K, powers, W, lift in by_order:
            mult = lin.matmul(theta[powers], W, p)  # (|K|, o) multiplicities
            if np.any(mult >= p // 2):
                raise TableConsistencyError("multiplicity lift out of range")
            coeffs = map(tuple, (mult @ lift).tolist())
            id_row[K] = [value_id.setdefault(c, len(value_id)) for c in coeffs]
    id_rows = ids.tolist()
    cyclos = [Cyclo(e, c) if any(c) else Cyclo.zero() for c in value_id]

    keys = [(v.order, v.coeffs) for v in cyclos]
    order_key = sorted(
        range(r), key=lambda i: (degrees[i], [keys[t] for t in id_rows[i]])
    )
    degrees = tuple(degrees[i] for i in order_key)
    rows = tuple(tuple(cyclos[t] for t in id_rows[i]) for i in order_key)

    for i, row in enumerate(rows):
        if row[0] != Cyclo.from_int(degrees[i]):
            raise TableConsistencyError("identity column disagrees with degree")

    values = np.array(list(value_id), dtype=np.int64)
    ids = ids[order_key]
    _verify_orthogonality(data, n, e, values, ids, np.stack(theta_rows)[order_key], p)
    G._dixon_table = (data, rows, degrees)
    return CharacterTable(G, data, rows, degrees)


def _verify_orthogonality(data, n, e, values, ids, theta, p):
    """Both orthogonality relations for every pair: mod p on the table
    theta, and exactly in Z[zeta_e] on the power-basis coefficient vectors
    values[ids[i, k]] of chi_i(rep_k).

    The exact sums are float64 products of blocks of r // phi(e) rows, or,
    when phi(e) > r, of one row against all later rows (pairs x > y are the
    conjugates of pairs x < y), exact below the checked bound 2^53.  Their
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
    step = max(1, r // phi)  # rows per left block
    width = step if phi <= r else r  # rows per right block
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
        return VanishReport(
            G, frozenset(), frozenset(G.elements), Fraction(0)
        )
    table = dixon_table(G)
    data = table.classes
    vanishing = set()
    for k in table.vanishing_classes():
        vanishing |= G.conjugacy_classes[k][1]
    nonvanishing = frozenset(set(G.elements) - vanishing)
    return VanishReport(
        G,
        frozenset(vanishing),
        nonvanishing,
        Fraction(len(vanishing), G.order),
    )


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
