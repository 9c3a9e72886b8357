"""Vanishing sets and proportions, two ways.

The oracle path builds the full character table by the class-algebra
eigenvector method (Dixon, with Schneider's splitting): simultaneous
eigenvectors of the class-sum matrices over GF(p), for Dixon's prime, the
smallest p = 1 (mod exp G) above 2*sqrt|G|.  Each splitting round draws one
random combination of all of them, one weighted count over the left
translations of the class representatives (no single class matrix is
formed), and splits every piece on its Krylov basis; rounds repeat until
the r classes give r eigenvectors.  Each eigenvector row u, scaled to 1
at the identity, gives its character's degree, the least d <= sqrt|G|
with d^2 s = |G| (mod p) for s = sum_k u_k u_k* / |C_k| (k* the class of
the inverses), one block of rows at a time.  Then comes exact
recovery of cyclotomic character values through multiplicity extraction,
one transform per element order.
Each value is a power-basis coefficient vector in Z[zeta_e], e = exp G.
The table keeps the distinct ones (the zero first) and a read-only r x r
array of ids into them, on which the row orthogonality relation is
verified exactly for every pair, which implies the column relation and
the table mod p: mod a few primes q = 1 (mod e), at every primitive e-th
root mod q, until the primes' product exceeds a bound on the relation's
coefficients.  The fast path evaluates induced linear
characters on an abelian normal subgroup.  Zero tests are exact
everywhere; float64 serves only as an exact integer accumulator, under a
checked bound of 2^53: in the weighted class counts (at most |G| (p - 1)),
in every GF(p) product of `_linalg_modp`, blocks of k terms with
k (p - 1)^2 < 2^53, in the multiplicity lift, o multiplicities below p / 2
times a row of the reduction matrix (at most o (p // 2) max|reduction|),
and in the orthogonality sums.

All outputs are immutable and calls are reentrant: per-group work shares
no mutable state, so corpus sweeps may run one group per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

import numpy as np

from . import _linalg_modp as lin
from .abelian_core import AbElement, DualCharacter, pairing
from .cyclotomic import Cyclo, prime_factors, reduction_matrix, root_of_unity
from .group_engine import (
    FiniteGroup,
    GroupDomainError,
    SubgroupHandle,
    AbelianModel,
    abelian_model,
)

# Entries of the small r x r tables stacked in one exact orthogonality
# product (at least one table), and values per multiplicity product.
_BLOCK_TERMS = 1 << 14
# Bytes of one operand block of the r x r products (the split's K @ Q and
# the verification), at least one row: every table up to r = 724 (M5, the
# corpus) takes one block, and a larger one is never copied whole.
_BLOCK_BYTES = 1 << 22
# Hits per weighted bincount of a class combination: 512 KiB arrays.
_BINCOUNT_HITS = 1 << 16


class TableConsistencyError(AssertionError):
    """A produced table failed an internal exactness check."""


class OracleConfigurationError(RuntimeError):
    """No admissible prime below the internal search bound."""


@dataclass(frozen=True)
class ClassData:
    reps: tuple[int, ...]  # the element index of each class representative
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class CharacterTable:
    classes: ClassData
    values: tuple  # the distinct Cyclo values of the table, the zero (if any) first
    # read-only (r, r), of the smallest signed integer type that holds
    # len(values): chi_i(rep_k) is values[ids[i, k]]
    ids: np.ndarray
    degrees: tuple[int, ...]
    zero_classes: tuple[int, ...]  # the classes on which some row is zero

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
        return frozenset(compress(self.group.elements, self.vanishing_mask.tolist()))

    @property
    def nonvanishing(self) -> frozenset:
        return frozenset(compress(self.group.elements, (~self.vanishing_mask).tolist()))


def class_data(G: FiniteGroup) -> ClassData:
    """Class representatives (the first member of each class), sizes and
    the class of each representative's inverse, read off `G.class_index`."""
    cls = G.class_index
    firsts = np.unique(cls, return_index=True)[1]
    return ClassData(
        tuple(firsts.tolist()),
        tuple(np.bincount(cls).tolist()),
        tuple(cls[G.compiled.inv[firsts]].tolist()),
    )


# -- prime selection -----------------------------------------------------


def dixon_prime(group_order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) above 2*sqrt(group_order), searched
    below 10^7: above 2*sqrt|G| distinct characters differ mod p (Dixon),
    and p = 1 (mod exp G) puts every character value in GF(p)."""
    p = next(_primes_one_mod(exponent, 2 * isqrt(group_order) + 1, 10**7), None)
    if p is None:
        raise OracleConfigurationError("no admissible prime below 10^7")
    return p


def _primes_one_mod(e: int, low: int, high: int):
    """The primes p = 1 (mod e) with low < p <= high, ascending."""
    p = low - (low - 1) % e  # the largest 1 (mod e) <= low
    while (p := p + e) <= high:
        if prime_factors(p) == [p]:
            yield p


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise OracleConfigurationError(f"no primitive root mod {p}")


# -- class-sum matrices --------------------------------------------------


def _class_combination(G: FiniteGroup, data: ClassData, L: np.ndarray, c) -> np.ndarray:
    """sum_i c_i M_i, as exact float64, over the class-sum matrices M_i, with
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
    M = np.empty((r, r))
    for start in range(0, r, step):
        rows = L[start:start + step]
        hits = cls[rows]
        hits += r * np.arange(len(rows))[:, None]
        counts = np.bincount(hits.ravel(), weights[: hits.size], minlength=r * len(rows))
        M[:, start:start + len(rows)] = counts.reshape(len(rows), r).T
    return M


def _power_classes(G: FiniteGroup, L: np.ndarray, m: int) -> np.ndarray:
    """(r, m) array: the class of rep_k^l at [k, l], l < m, for the left
    translations L of the class representatives."""
    cls = G.class_index
    rows = np.arange(len(L))
    x = np.full(len(L), G.compiled.identity, dtype=np.intp)
    out = np.empty((len(L), m), dtype=np.int64)
    for l in range(m):
        out[:, l] = cls[x]
        x = L[rows, x]
    return out


def _split_eigenspaces(G: FiniteGroup, data: ClassData, L: np.ndarray, p: int) -> np.ndarray:
    """The r joint eigenvectors of the class-sum matrices mod p, as the rows
    of an (r, r) float64 array of residues, by Schneider's one-combination
    variant of Dixon's method.

    The joint eigenvectors are the central characters omega_chi, and the
    identity class vector e_1 is their sum with the coefficients
    chi(1)^2 / |G|, none of them 0 mod p.  So each piece below is the sum of
    the eigenvectors of one block of characters; the first piece is e_1.
    Each round draws one seeded random combination M of all class
    matrices, counted at once by `_class_combination`, and replaces every
    piece w by its parts K (f / (x - lam)) in the eigenspaces of M, for the
    Krylov basis K of w under M, the Krylov polynomial f of w (by
    Berlekamp-Massey, proved on K: see `lin.krylov`) and each root lam of
    f in GF(p), one block of rows of K at a time.  M is built once, as
    float64 residues.  `lin.krylov` steps all pieces together, one product
    M @ W per step, and a piece leaves once its f is proved: a piece that is
    already an eigenvector of M costs one product, and the columns of a
    round sum to at most r plus the number of pieces.  A block splits
    unless M takes one value on all its characters, so r pieces are r
    eigenvectors.  Two characters share the value of M with probability
    1/p, so with r near or above p a block takes a few rounds; r rounds
    bound the loop."""
    r = data.count
    rng = np.random.default_rng(0x5EED)
    pieces = np.eye(1, r)  # one piece per row
    for _ in range(r):
        if len(pieces) >= r:
            break
        c = np.zeros(r, dtype=np.int64)  # M_0 = I shifts every eigenvalue alike
        c[1:] = rng.integers(0, p, size=r - 1)
        M = _class_combination(G, data, L, c)
        M %= p
        # free each r x r operand once the next step no longer reads it
        bases = lin.krylov(M, pieces.T, r - len(pieces) + 1, p)
        del M, pieces
        pieces = _split_pieces(bases, r, p)
        del bases
    if len(pieces) != r:
        raise TableConsistencyError("joint eigenspaces did not separate")
    return pieces


def _split_pieces(bases: list, r: int, p: int) -> np.ndarray:
    """The parts K (f / (x - lam)) of the pieces, for the [(K, f)] of
    `lin.krylov` and each root lam of f, as rows of float64 residues; the
    product takes one block of rows of K at a time."""
    pieces = np.empty((sum(len(f) - 1 for _, f in bases), r))
    at = 0
    for K, f in bases:
        d = len(f) - 1
        if d == 1:  # already an eigenvector of M
            pieces[at] = K[:, 0]
        else:
            roots = lin.poly_roots(f, p)
            if len(roots) != d:
                raise TableConsistencyError("class matrix not diagonalizable mod p")
            Q = _quotients(f, roots, p).astype(np.float64)
            for rows in _row_blocks(r, 8 * d):
                pieces[at:at + d, rows] = lin.matmul(K[rows, :d], Q, p).T
        at += d
    return pieces


def _row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """range(rows) in consecutive slices of at most _BLOCK_BYTES of rows of
    row_bytes bytes each, and at least one row."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(start, start + step) for start in range(0, rows, step)]


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
    """W[l, j] = z^(-j l) / o mod p, as float64, for z of order o: a length-o
    vector of values theta(g^l) times W holds the multiplicities of z^j in
    chi(g)."""
    zinv = pow(z, -1, p)
    out = np.zeros((o, o), dtype=np.int64)
    powers = np.array([pow(zinv, j, p) for j in range(o)], dtype=np.int64)
    cur = np.full(o, pow(o, -1, p), dtype=np.int64)
    for l in range(o):
        out[l] = cur
        cur = (cur * powers) % p
    return out.astype(np.float64)


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
    cached = getattr(G, "_dixon_table", None)
    if cached is not None:
        return cached
    data = class_data(G)
    r = data.count
    n = G.order
    L = G.compiled.class_translations()  # before G.exponent, which reads orders
    e = G.exponent
    p = dixon_prime(n, e)
    # each eigenvector row becomes its character's row of theta in place
    thetas = _split_eigenspaces(G, data, L, p)
    orders = G.compiled.orders[list(data.reps)]
    # rows K of element order o read power_class[K, :o] only
    power_class = _power_classes(G, L, int(orders.max()))
    del L  # _power_classes is its last reader

    size_inv = np.array([pow(s, -1, p) for s in data.sizes], dtype=np.int64)
    inverse = list(data.inverse_class)
    squares = np.arange(1, isqrt(n) + 1, dtype=np.int64) ** 2 % p  # d^2, d = 1, 2, ...
    # each row u, scaled to u[0] = 1, has s = sum_k u_k u_k* / |C_k| and
    # degree the least d with d^2 s = n (mod p), then theta = d u / |C_k|
    degrees = np.empty(r, dtype=np.int64)
    for rows in _row_blocks(r, 8 * r):
        u = thetas[rows].astype(np.int64)
        if not u[:, 0].all():
            raise TableConsistencyError("eigenvector vanishes at the identity class")
        u = u * np.array([pow(x, -1, p) for x in u[:, 0].tolist()])[:, None] % p
        s = (u * u[:, inverse] % p * size_inv % p).sum(axis=1) % p
        # n is a unit mod p (p = 1 mod exp G), so s = 0 admits no degree
        admissible = squares * s[:, None] % p == n % p
        if not admissible.any(axis=1).all():
            raise TableConsistencyError("no admissible character degree")
        degrees[rows] = admissible.argmax(axis=1) + 1
        thetas[rows] = degrees[rows, None] * u % p * size_inv % p

    if int((degrees * degrees).sum()) != n:
        raise TableConsistencyError("degrees do not satisfy sum of squares = |G|")

    # theta(rep_k^l) has period o = o(rep_k) in l, so the classes of one
    # element order o share one o x o transform, and its multiplicities of
    # zeta_o^j = zeta_e^(j e/o) lift to Z[zeta_e] through every (e/o)-th row
    # of the reduction matrix.
    z = pow(_primitive_root(p), (p - 1) // e, p)
    reduction = reduction_matrix(e)
    by_order = []
    for o in sorted(set(orders.tolist())):
        K = np.flatnonzero(orders == o)
        W = _zeta_power_table(o, p, pow(z, e // o, p))
        lift = reduction[:: e // o]
        # o multiplicities below p // 2 each: a float64 lift sums exactly
        if o * (p // 2) * int(np.abs(lift).max()) >= 2**53:
            raise TableConsistencyError("multiplicity lift sums reach 2^53")
        by_order.append((K, power_class[K, :o], W, lift.astype(np.float64)))

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
            lifted = mult.reshape(-1, len(lift)).astype(np.float64) @ lift
            coeffs[:, K] = lifted.astype(np.int64).reshape(len(mult), len(K), phi)
        block, index = _distinct(coeffs.reshape(-1, phi))
        ids[start:start + step] = index.reshape(-1, r) + found
        blocks.append(block)
        found += len(block)
    del thetas  # value recovery is its last reader
    distinct, merged = _distinct(np.concatenate(blocks))
    # the smallest signed type that holds len(distinct)
    ids = merged.astype(np.min_scalar_type(-len(distinct) - 1))[ids]
    order = np.lexsort((*ids.T[::-1], degrees))  # by degree, then ids left to right
    ids, degrees = ids[order], np.array(degrees)[order]
    if np.any(distinct[ids[:, 0]] != np.outer(degrees, np.eye(1, phi, dtype=np.int64))):
        raise TableConsistencyError("identity column disagrees with degree")

    _verify_orthogonality(data, n, e, distinct, ids)
    ids.flags.writeable = False
    values = tuple(Cyclo(e, tuple(c)) if any(c) else Cyclo.zero() for c in distinct.tolist())
    # class k vanishes when column k holds id 0, if that is the zero vector
    zero_classes = tuple(np.flatnonzero((ids == 0).any(0) & ~distinct[0].any()).tolist())
    G._dixon_table = CharacterTable(data, values, ids, tuple(degrees.tolist()), zero_classes)
    return G._dixon_table


def _verify_orthogonality(data, n, e, values, ids):
    """The row orthogonality relation for every pair, exactly in Z[zeta_e]:
    sum_m |C_m| chi_x(g_m) conj(chi_y(g_m)) = n [x = y], on the power-basis
    coefficient vectors values[ids[i, k]] of chi_i(rep_k).

    For a square table it implies the column relation and the relations
    mod p, so neither is checked.  For the table X and D = diag(sizes),
    X D X* = n I makes X invertible with X^-1 = D X* / n, so X* X = n D^-1
    under every complex embedding and hence in Z[zeta_e]: that is the
    column relation.  And zeta_e -> z mod p maps the values onto the table
    mod p they were recovered from, since value recovery inverts each
    o x o transform exactly.

    For one pair, the sum S = sum_m w_m a_m conj(b_m) has weights w_m, the
    class sizes, summing to n, and the product a conj(b) =
    sum_(i, j < phi) a_i b_j zeta^(i - j) of two values has power-basis
    coefficients at most l^2 max|reduction| in absolute value, for l the
    largest sum of |coefficients| of one value: reducing zeta^(i - j)
    scales each term by at most max|reduction|.  So every coefficient of
    S - target, the target being at most n, is below
    B = n (l^2 max|reduction| + 1), and B < 2^53 is checked.

    The coefficients of S - target are checked mod the primes q = 1 (mod e)
    above 2^20 (`_embeddings`), ascending, until their product exceeds B
    (three at most): a coefficient divisible by each of them is smaller
    than their product in absolute value, so it is 0.  Mod q, Phi_e has
    the phi distinct roots z^k, z a primitive e-th root mod q and k a unit
    mod e, and zeta -> z^k is a ring map Z[zeta_e] -> GF(q); a polynomial of
    degree below phi that vanishes at all phi roots is 0 mod q.  The map
    takes conj(b) to b at z^-k, so for the r x r tables T_k = E_k[ids] of
    every distinct value evaluated at z^k, the relation at k reads
    (T_k diag(sizes)) T_-k^T = n I mod q.  The one at -k is its transpose,
    so one k of each pair {k, -k} does.

    Every product is one `lin.matmul`.  A product stacks
    max(1, _BLOCK_TERMS // r^2) of the tables T_k: a small table takes all
    of them at once, one product per prime (S4: r = 5, two tables), and
    one with r >= 128 one at a time.  Each product takes one block of rows
    of at most _BLOCK_BYTES of float64 operand (`_row_blocks`; all rows up
    to r = 724) against the whole of the other side, which is gathered
    from E_-k[ids] into one float64 buffer, again a block of rows at a
    time."""
    r, phi = data.count, values.shape[1]
    sizes = np.array(data.sizes, dtype=np.int64)
    l1 = int(np.abs(values).sum(axis=1).max())
    bound = n * (l1 * l1 * int(np.abs(reduction_matrix(e)).max()) + 1)
    if bound >= 2**53:
        raise TableConsistencyError("exact orthogonality sums reach 2^53")
    product = 1
    for q, powers in _embeddings(e, phi):
        if product > bound:
            break
        product *= q
        E = lin.matmul(values, powers, q).T.astype(np.float64)  # at z^k, then z^-k
        half = len(E) // 2
        stack = min(half, max(1, _BLOCK_TERMS // (r * r)))  # tables T_k per product
        right = np.empty((stack, r, r))
        blocks = _row_blocks(r, 8 * r * stack)
        for t in range(0, half, stack):
            T = min(stack, half - t)
            for rows in blocks:
                right[:T, rows] = E[half + t : half + t + T, ids[rows]]
            for rows in blocks:
                left = E[t : t + T, ids[rows]] * sizes % q
                got = lin.matmul(left, right[:T].transpose(0, 2, 1), q)
                local = np.arange(got.shape[1])
                got[:, local, local + rows.start] -= n % q
                if got.any():
                    raise TableConsistencyError("orthogonality fails exactly")


@lru_cache(maxsize=64)
def _embeddings(e: int, phi: int) -> tuple:
    """((q, powers), ...) for the three smallest primes q = 1 (mod e) above
    2^20, whose product exceeds 2^60: powers[j] holds z^(k j) mod q for one
    k of each pair {k, -k} of units mod e, then z^(-k j) for the same k, z
    a primitive e-th root mod q.  Below 2^21 a float64 product of residues
    mod q sums 2048 terms exactly; every e <= 8192 has four such primes."""
    units = [k for k in range(e) if gcd(k, e) == 1 and k <= e - k]
    exponents = np.outer(np.arange(phi), units + [-k for k in units]) % e
    out = []
    for q in _primes_one_mod(e, 2**20, 2**21 - 1):
        z = pow(_primitive_root(q), (q - 1) // e, q)
        powers = np.array([pow(z, k, q) for k in range(e)], dtype=np.int64)[exponents]
        powers.flags.writeable = False
        out.append((q, powers))
        if len(out) == 3:
            return tuple(out)
    raise OracleConfigurationError(f"fewer than three primes = 1 (mod {e}) below 2^21")


# -- vanishing reports ---------------------------------------------------


def proportion(G: FiniteGroup) -> VanishReport:
    if G.is_abelian:
        vanishing = np.zeros(G.order, dtype=bool)
    else:
        vanishing = np.isin(G.class_index, dixon_table(G).vanishing_classes())
    vanishing.flags.writeable = False
    return VanishReport(G, vanishing, Fraction(int(vanishing.sum()), G.order))


# -- the abelian-normal fast path ----------------------------------------


def _coset_firsts(A: SubgroupHandle) -> np.ndarray:
    labels = A.view.coset_labels(A.basis)
    return np.flatnonzero(labels == np.arange(len(labels)))


def induced_linear_value(
    alpha: DualCharacter,
    a: AbElement,
    model: AbelianModel,
    transversal=None,
) -> Cyclo:
    """alpha^G(a) = sum over coset representatives t of alpha(a^t), for a
    transversal of element indices.

    The value does not depend on the transversal choice because a lies in
    the abelian normal subgroup the characters live on.
    """
    view = model.subgroup.view
    if alpha.group != model.shape or a.group != model.shape:
        raise GroupDomainError("character and element must live on the model")
    if transversal is None:
        transversal = _coset_firsts(model.subgroup).tolist()
    shape = model.shape
    g = int(model.members[shape.index_of(a.coords)])
    rows = model.rows[[view.conj(g, t) for t in transversal]]
    total = Cyclo.zero()
    for k in pairing(shape, [alpha.coords], shape.table[rows])[0].tolist():
        total = total + root_of_unity(shape.exponent, k)
    return total


def vanish_on_abelian_normal(G: FiniteGroup, A: SubgroupHandle) -> np.ndarray:
    """The read-only mask over G's element indices of {a in A : some linear
    character of A induces to zero at a}, which is V(G) intersected with
    A."""
    if A.view is not G.compiled:
        raise GroupDomainError("subgroup of a different group")
    if not A.is_abelian():
        raise GroupDomainError("fast path requires an abelian subgroup")
    if not A.is_normal():
        raise GroupDomainError("fast path requires a normal subgroup")
    model = abelian_model(A)
    shape = model.shape
    L = shape.exponent
    coords_of = shape.table[model.rows]  # rows outside A are never read
    characters = np.arange(shape.order)  # table rows of the dual
    reduction = reduction_matrix(L)

    out = np.zeros(G.order, dtype=bool)
    conjugates = G.compiled.conjugates(A.idx)[:, _coset_firsts(A)]  # a^t
    for g, row in zip(A.idx.tolist(), conjugates):
        exps = pairing(shape, coords_of[row], shape.table)  # (transversal, #characters)
        counts = np.zeros((len(characters), L), dtype=np.int64)
        np.add.at(counts, (characters, exps), 1)
        out[g] = np.any(np.all(counts @ reduction == 0, axis=1))  # exact: tiny entries
    out.flags.writeable = False
    return out
