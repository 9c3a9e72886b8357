"""Generic finite groups with exact structural queries.

Groups live at desk scale (order <= 8192).  A group is an element list
plus multiplication/inverse callables on its (hashable, opaque)
elements; permutation-presented and semidirect-product groups compose
elements on the fly.  All structural queries (center, derived subgroup,
Fitting subgroup, Sylow subgroups, conjugacy classes, quotients) are
exact, memoized, and deterministic.

The character-table path runs on a compiled view instead
(`FiniteGroup.compiled`): element i is `elements[i]`, and the view holds
the inverse map, the right-regular permutation of each generator and a
breadth-first tree of the Cayley graph, all as integer index arrays.  It
is built once with |G| * |generators| calls to `mul`; conjugacy classes,
the exponent and the left translations that class matrices and power
maps read are computed from it by vectorized gathers, never by `mul`.

Groups are immutable after construction; memoized maps are precomputed
on first use and safe to read concurrently.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm

import numpy as np

from .abelian_core import AbelianGroup, AbElement, AbHom, abelian_type
from .cyclotomic import p_valuation, prime_factors

MAX_GROUP_ORDER = 8192
FULL_CHECK_LIMIT = 512
# Left translations are computed this many entries at a time when only
# element orders are wanted, so a group with many classes never holds all
# r x |G| of them at once.
TRANSLATION_CHUNK = 1 << 22


class GroupDomainError(ValueError):
    pass


class GroupSizeError(GroupDomainError):
    """The requested group exceeds the desk-scale cap."""


class FiniteGroup:
    """A finite group on an explicit element list.

    `mul` and `inv` are callables on the (hashable, opaque) elements;
    `generators` must generate the group (all elements when omitted).
    Construction verifies the Latin-square property fully for orders up
    to 512 and probabilistically above.  `compiled` is the integer-indexed
    view (see CompiledGroup) that conjugacy classes, the exponent and the
    character table run on; it is built on first use and holds no
    reference back to the group.
    """

    def __init__(self, elements, mul, inv, identity, generators=None, name="", check=True):
        self.elements = list(elements)
        if len(self.elements) > MAX_GROUP_ORDER:
            raise GroupSizeError(
                f"order {len(self.elements)} exceeds cap {MAX_GROUP_ORDER}"
            )
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise GroupDomainError("duplicate elements")
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.generators = list(generators) if generators is not None else list(self.elements)
        self.name = name
        if identity not in self.index:
            raise GroupDomainError("identity not among the elements")
        if check:
            self._check_axioms()

    # -- construction checks ---------------------------------------------

    def _check_axioms(self):
        n = self.order
        if n <= FULL_CHECK_LIMIT:
            for g in self.elements:
                row = {self.mul(g, h) for h in self.elements}
                if len(row) != n or any(x not in self.index for x in row):
                    raise GroupDomainError("multiplication is not a Latin square")
                if self.mul(g, self.inv(g)) != self.identity:
                    raise GroupDomainError("inverse map inconsistent")
            for g in self.elements:
                if self.mul(self.identity, g) != g or self.mul(g, self.identity) != g:
                    raise GroupDomainError("identity inconsistent")
        else:
            rng = random.Random(0xC0FFEE)
            for _ in range(256):
                g, h, k = (rng.choice(self.elements) for _ in range(3))
                gh = self.mul(g, h)
                if gh not in self.index:
                    raise GroupDomainError("multiplication left the element set")
                if self.mul(gh, k) != self.mul(g, self.mul(h, k)):
                    raise GroupDomainError("multiplication is not associative")
                if self.mul(g, self.inv(g)) != self.identity:
                    raise GroupDomainError("inverse map inconsistent")

    # -- elementwise helpers ---------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def conj(self, g, h):
        """g^h = h^-1 g h (conjugation as a right action)."""
        return self.mul(self.mul(self.inv(h), g), h)

    def commutator(self, g, h):
        """[g, h] = g^-1 h^-1 g h."""
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    def power(self, g, k: int):
        if k < 0:
            return self.power(self.inv(g), -k)
        out = self.identity
        base = g
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def element_order(self, g) -> int:
        k = 1
        x = g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    @cached_property
    def exponent(self) -> int:
        """lcm of the element orders.  Element order is a class function,
        so one representative per class suffices; for an abelian group the
        generators do."""
        view = self.compiled
        if self.is_abelian:
            reps = [self.index[g] for g in self.generators]
        else:
            reps = [self.index[rep] for rep, _ in self.conjugacy_classes]
        step = max(1, TRANSLATION_CHUNK // self.order)
        orders = []
        for lo in range(0, len(reps), step):
            orders.extend(view.orders(view.left_translations(reps[lo:lo + step])))
        return reduce(lcm, orders, 1)

    def primes(self) -> list[int]:
        return prime_factors(self.order)

    # -- subgroup machinery ----------------------------------------------

    def closure(self, gens) -> frozenset:
        seen = {self.identity}
        frontier = [self.identity]
        gens = [g for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mul(a, g)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(seen)

    def subgroup(self, gens) -> "SubgroupHandle":
        return SubgroupHandle(self, self.closure(gens), tuple(gens))

    def trivial_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, frozenset([self.identity]), ())

    def full_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, frozenset(self.elements), tuple(self.generators))

    def normal_closure(self, seeds) -> "SubgroupHandle":
        gens = list(seeds)
        pending = list(gens)
        gen_set = set(gens)
        while pending:
            s = pending.pop()
            for g in self.generators:
                c = self.conj(s, g)
                if c not in gen_set:
                    gen_set.add(c)
                    pending.append(c)
        return self.subgroup(sorted(gen_set, key=self.index.__getitem__))

    # -- structural queries ----------------------------------------------

    @cached_property
    def compiled(self) -> "CompiledGroup":
        return CompiledGroup(self)

    @cached_property
    def class_index(self) -> np.ndarray:
        """Class number of each element (by position in `elements`), in
        the order of `conjugacy_data`: class size first, then the index of
        the class's first element."""
        view = self.compiled
        # x -> s^-1 x s for each generator s, as index arrays
        conj = [Rs[view.inv[Rs[view.inv]]] for Rs in view.R]
        label = np.arange(self.order)
        while True:
            before = label
            for c in conj:
                label = np.minimum(label, label[c])
                label[c] = np.minimum(label[c], label)
            label = label[label]
            if np.array_equal(label, before):
                break
        # label is now the least element index of each orbit
        firsts, which, sizes = np.unique(label, return_inverse=True, return_counts=True)
        rank = np.empty(len(firsts), dtype=np.intp)
        rank[np.lexsort((firsts, sizes))] = np.arange(len(firsts))
        return rank[which]

    @cached_property
    def conjugacy_data(self):
        """(classes, class_of): classes as (representative, frozenset) in a
        deterministic order; class_of maps element -> class index.  The
        representative is the class's first element."""
        cls = self.class_index
        members = np.argsort(cls, kind="stable")
        ends = np.cumsum(np.bincount(cls))[:-1]
        classes = []
        for block in np.split(members, ends):
            elems = [self.elements[i] for i in block]
            classes.append((elems[0], frozenset(elems)))
        class_of = dict(zip(self.elements, cls.tolist()))
        return classes, class_of

    @property
    def conjugacy_classes(self):
        return self.conjugacy_data[0]

    @cached_property
    def center(self) -> "SubgroupHandle":
        members = frozenset(
            g for g in self.elements
            if all(self.mul(g, h) == self.mul(h, g) for h in self.generators)
        )
        return SubgroupHandle(self, members, tuple(sorted(members, key=self.index.__getitem__)))

    def centralizer(self, g) -> "SubgroupHandle":
        members = frozenset(
            h for h in self.elements if self.mul(g, h) == self.mul(h, g)
        )
        return SubgroupHandle(self, members, tuple(sorted(members, key=self.index.__getitem__)))

    def centralizer_of_set(self, elems) -> "SubgroupHandle":
        elems = list(elems)
        members = frozenset(
            h for h in self.elements
            if all(self.mul(g, h) == self.mul(h, g) for g in elems)
        )
        return SubgroupHandle(self, members, tuple(sorted(members, key=self.index.__getitem__)))

    def normalizer(self, H: "SubgroupHandle") -> "SubgroupHandle":
        hgens = H.generators or tuple(H.elements)
        members = frozenset(
            g for g in self.elements
            if all(self.conj(h, g) in H.elements for h in hgens)
            and all(self.conj(h, self.inv(g)) in H.elements for h in hgens)
        )
        return SubgroupHandle(self, members, tuple(sorted(members, key=self.index.__getitem__)))

    @cached_property
    def derived_subgroup(self) -> "SubgroupHandle":
        seeds = {
            self.commutator(g, h)
            for g, h in itertools.product(self.generators, repeat=2)
        }
        seeds.discard(self.identity)
        if not seeds:
            return self.trivial_subgroup()
        return self.normal_closure(sorted(seeds, key=self.index.__getitem__))

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.mul(g, h) == self.mul(h, g)
            for g, h in itertools.combinations(gens, 2)
        )

    def sylow(self, p: int) -> "SubgroupHandle":
        """A Sylow p-subgroup by normalizer percolation (deterministic)."""
        target = p ** p_valuation(self.order, p)
        if target == 1:
            return self.trivial_subgroup()
        seed = next(
            g for g in self.elements if self.element_order(g) % p == 0
        )
        o = self.element_order(seed)
        seed = self.power(seed, o // p ** p_valuation(o, p))
        current = self.subgroup([seed])
        while current.order < target:
            norm = self.normalizer(current)
            grown = None
            for g in sorted(norm.elements, key=self.index.__getitem__):
                if g in current.elements:
                    continue
                o = self.element_order(g)
                pe = self.power(g, o // p ** p_valuation(o, p))
                if pe in current.elements or pe == self.identity:
                    continue
                cand = self.subgroup(list(current.generators) + [pe])
                if target % cand.order == 0:
                    grown = cand
                    break
            if grown is None:
                raise AssertionError("Sylow percolation stalled")
            current = grown
        return current

    def p_core(self, p: int) -> "SubgroupHandle":
        """O_p(G): the intersection of all conjugates of a Sylow p-subgroup."""
        S = self.sylow(p)
        if S.order == 1:
            return self.trivial_subgroup()
        core = set(S.elements)
        seen = {S.elements}
        frontier = [S.elements]
        while frontier and len(core) > 1:
            cur = frontier.pop()
            for g in self.generators:
                conj = frozenset(self.conj(s, g) for s in cur)
                if conj not in seen:
                    seen.add(conj)
                    frontier.append(conj)
                    core &= conj
        members = frozenset(core)
        return SubgroupHandle(self, members, tuple(sorted(members, key=self.index.__getitem__)))

    @cached_property
    def fitting(self) -> "SubgroupHandle":
        gens = []
        for p in self.primes():
            gens.extend(self.p_core(p).generators)
        if not gens:
            return self.trivial_subgroup()
        return self.subgroup(gens)

    @cached_property
    def is_nilpotent(self) -> bool:
        return self.fitting.order == self.order

    def nilpotency_class(self) -> int:
        if not self.is_nilpotent:
            raise GroupDomainError("group is not nilpotent")
        c = 0
        current = self.full_subgroup()
        while current.order > 1:
            seeds = {
                self.commutator(g, h)
                for g in self.generators
                for h in current.generators
            }
            seeds.discard(self.identity)
            nxt = (
                self.normal_closure(sorted(seeds, key=self.index.__getitem__))
                if seeds
                else self.trivial_subgroup()
            )
            if nxt.order >= current.order:
                raise AssertionError("lower central series stalled")
            current = nxt
            c += 1
        return c

    def quotient(self, N: "SubgroupHandle") -> "FiniteGroup":
        """G/N with cosets as frozensets; also attaches .projection."""
        if N.parent is not self:
            raise GroupDomainError("subgroup of a different group")
        if not N.is_normal():
            raise GroupDomainError("quotient by a non-normal subgroup")
        coset_of = {}
        cosets = []
        for g in self.elements:
            if g in coset_of:
                continue
            cs = frozenset(self.mul(g, n) for n in N.elements)
            cosets.append(cs)
            for x in cs:
                coset_of[x] = cs

        def qmul(c1, c2):
            return coset_of[self.mul(next(iter(c1)), next(iter(c2)))]

        def qinv(c):
            return coset_of[self.inv(next(iter(c)))]

        q = FiniteGroup(
            cosets,
            qmul,
            qinv,
            coset_of[self.identity],
            generators=[coset_of[g] for g in self.generators],
            name=f"{self.name}/N" if self.name else "quotient",
            check=False,
        )
        q.projection = coset_of
        return q

    def normal_subgroups(self) -> list["SubgroupHandle"]:
        """All normal subgroups, by closing unions of conjugacy classes
        (order <= 500 only)."""
        if self.order > 500:
            raise GroupSizeError("normal-subgroup enumeration capped at order 500")
        classes = [c for _, c in self.conjugacy_classes]
        found = {frozenset([self.identity])}
        frontier = [frozenset([self.identity])]
        while frontier:
            base = frontier.pop()
            for cls in classes:
                if cls <= base:
                    continue
                grown = self.closure(base | cls)
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
        out = [
            SubgroupHandle(self, m, tuple(sorted(m, key=self.index.__getitem__)))
            for m in found
        ]
        out.sort(key=lambda h: (h.order, sorted(self.index[g] for g in h.elements)))
        return out

    def __repr__(self):
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


class CompiledGroup:
    """Integer-indexed view of a FiniteGroup; element i is `G.elements[i]`.

    - `inv[i]`: the index of the inverse of element i.
    - `R[s]`: the right-regular permutation of generator s,
      `R[s][i]` = index of `elements[i] * gens[s]`, built with `G.mul`.
    - `parent`, `gen`: a breadth-first tree of the Cayley graph rooted at
      the identity, `elements[i] = elements[parent[i]] * gens[gen[i]]`;
      `levels` lists the non-root nodes level by level.

    `gens` are G's generators, or an irredundant subset of them when the
    list is longer than any irredundant one (a subgroup handed all of its
    members as generators), so R stays far smaller than a Cayley table.
    """

    def __init__(self, G: FiniteGroup):
        n = G.order
        index = G.index
        gens = list(G.generators)
        if len(gens) > n.bit_length():
            chosen, span = [], {G.identity}
            for g in gens:
                if g not in span:
                    chosen.append(g)
                    span = G.closure(chosen)
            gens = chosen
        self.order = n
        self.dtype = np.int16 if n < 2**15 else np.int32
        self.identity = index[G.identity]
        self.R = np.array(
            [[index[G.mul(g, s)] for g in G.elements] for s in gens], dtype=np.intp
        ).reshape(len(gens), n)
        self.parent = np.full(n, -1, dtype=np.intp)
        self.gen = np.full(n, -1, dtype=np.intp)
        self.parent[self.identity] = self.identity
        self.levels = []
        frontier = np.array([self.identity], dtype=np.intp)
        while frontier.size:
            grown = []
            for s, Rs in enumerate(self.R):
                image = Rs[frontier]
                fresh = self.parent[image] < 0
                self.parent[image[fresh]] = frontier[fresh]
                self.gen[image[fresh]] = s
                grown.append(image[fresh])
            frontier = np.concatenate([frontier[:0], *grown])
            if frontier.size:
                self.levels.append(frontier)
        if np.any(self.parent < 0):
            raise GroupDomainError("the generators do not generate the group")
        # (x s)^-1 = s^-1 x^-1: left translations by the inverse generators
        # carry the inverse down the tree from the root
        gen_inv = self.left_translations([index[G.inv(s)] for s in gens])
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[self.identity] = self.identity
        for nodes in self.levels:
            self.inv[nodes] = gen_inv[self.gen[nodes], self.inv[self.parent[nodes]]]

    def left_translations(self, targets) -> np.ndarray:
        """L with L[k, y] = index of elements[targets[k]] * elements[y].

        Filled along the tree, level by level: if y = x * s then
        t * y = (t * x) * s, one gather per level for all targets."""
        L = np.empty((len(targets), self.order), dtype=self.dtype)
        L[:, self.identity] = targets
        for nodes in self.levels:
            L[:, nodes] = self.R[self.gen[nodes], L[:, self.parent[nodes]]]
        return L

    def orders(self, L: np.ndarray) -> list[int]:
        """Element orders of the targets of the left translations L."""
        rows = np.arange(len(L))
        x = L[:, self.identity].astype(np.intp)
        out = np.ones(len(L), dtype=np.intp)
        k = 1
        while True:
            pending = x != self.identity
            if not pending.any():
                return out.tolist()
            k += 1
            x = np.where(pending, L[rows, x], self.identity)
            out[pending] = k


class SubgroupHandle:
    """A subgroup given by its element set inside a parent group."""

    def __init__(self, parent: FiniteGroup, elements: frozenset, generators=()):
        self.parent = parent
        self.elements = frozenset(elements)
        self.generators = tuple(generators)
        if parent.identity not in self.elements:
            raise GroupDomainError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return g in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def __le__(self, other: "SubgroupHandle") -> bool:
        return self.parent is other.parent and self.elements <= other.elements

    def is_normal(self) -> bool:
        G = self.parent
        gens = self.generators or tuple(self.elements)
        return all(
            G.conj(h, g) in self.elements
            for h in gens
            for g in G.generators
        )

    def is_abelian(self) -> bool:
        G = self.parent
        gens = self.generators or tuple(self.elements)
        return all(
            G.mul(a, b) == G.mul(b, a)
            for a, b in itertools.combinations(gens, 2)
        )

    def as_group(self) -> FiniteGroup:
        G = self.parent
        elems = sorted(self.elements, key=G.index.__getitem__)
        gens = list(self.generators) or elems
        return FiniteGroup(
            elems, G.mul, G.inv, G.identity, generators=gens, check=False
        )

    def join(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return self.parent.subgroup(
            tuple(self.generators or self.elements)
            + tuple(other.generators or other.elements)
        )

    def intersection(self, other: "SubgroupHandle") -> "SubgroupHandle":
        members = self.elements & other.elements
        return SubgroupHandle(
            self.parent,
            members,
            tuple(sorted(members, key=self.parent.index.__getitem__)),
        )

    def abelian_invariants(self) -> tuple[int, ...]:
        """Cyclic factor orders (primary decomposition, deterministic order)
        of an abelian subgroup, from the element-order census."""
        if not self.is_abelian():
            raise GroupDomainError("abelian invariants of a nonabelian subgroup")
        G = self.parent
        return abelian_type([G.element_order(g) for g in self.elements])

    def __repr__(self):
        return f"<subgroup of order {self.order} in {self.parent!r}>"


# -- abelian model extraction --------------------------------------------


@dataclass
class AbelianModel:
    """An abelian subgroup rewritten on an explicit basis: coordinates
    give an isomorphism with the AbelianGroup `shape`."""

    subgroup: SubgroupHandle
    shape: AbelianGroup
    basis: tuple
    to_coords: dict
    from_coords: dict

    def element(self, g) -> AbElement:
        return self.shape.element(self.to_coords[g])

    def group_element(self, a: AbElement):
        return self.from_coords[a.coords]

    def conjugation_hom(self, x) -> AbHom:
        """The automorphism a -> a^x of the model, for x normalizing it."""
        G = self.subgroup.parent
        images = []
        for b in self.basis:
            c = G.conj(b, x)
            if c not in self.to_coords:
                raise GroupDomainError("element does not normalize the subgroup")
            images.append(self.shape.element(self.to_coords[c]))
        return AbHom(self.shape, self.shape, tuple(images))


def abelian_model(H: SubgroupHandle) -> AbelianModel:
    """Basis for an abelian subgroup: greedily take elements of maximal
    order in the quotient by the span so far."""
    G = H.parent
    if not H.is_abelian():
        raise GroupDomainError("abelian model of a nonabelian subgroup")
    basis = []
    orders = []
    span = {G.identity}
    elems = sorted(H.elements, key=G.index.__getitem__)
    while len(span) < H.order:
        best, best_o = None, 0
        for g in elems:
            if g in span:
                continue
            # order of the image of g in H/span
            k, x = 1, g
            while x not in span:
                x = G.mul(x, g)
                k += 1
            if k > best_o:
                best, best_o = g, k
        basis.append(best)
        orders.append(best_o)
        new_span = set()
        for s in span:
            x = s
            for _ in range(best_o):
                new_span.add(x)
                x = G.mul(x, best)
        span = new_span
    shape = AbelianGroup(tuple(orders)) if orders else AbelianGroup(())
    to_coords = {}
    from_coords = {}
    for coords in itertools.product(*(range(d) for d in shape.factor_orders)):
        g = G.identity
        for c, b in zip(coords, basis):
            g = G.mul(g, G.power(b, c))
        if g in to_coords:
            raise AssertionError("basis extraction produced a non-basis")
        to_coords[g] = coords
        from_coords[coords] = g
    if len(to_coords) != H.order:
        raise AssertionError("basis does not span the subgroup")
    return AbelianModel(H, shape, tuple(basis), to_coords, from_coords)


# -- Frobenius structure -------------------------------------------------


def is_frobenius_with_kernel(G: FiniteGroup, N: SubgroupHandle) -> bool:
    """Kernel criterion: C_G(n) <= N for every nontrivial n in N."""
    if N.parent is not G:
        raise GroupDomainError("subgroup of a different group")
    if not N.is_normal():
        raise GroupDomainError("Frobenius kernel must be normal")
    if N.order == 1 or N.order == G.order:
        return False
    for n in N.elements:
        if n == G.identity:
            continue
        for h in G.elements:
            if h not in N.elements and G.mul(n, h) == G.mul(h, n):
                return False
    return True


@dataclass(frozen=True)
class QuasiFrobeniusReport:
    holds: bool
    reason: str
    kernel_index: int | None = None  # [Gbar : Fbar] when the structure holds


def is_quasi_frobenius(G: FiniteGroup) -> QuasiFrobeniusReport:
    """Whether G/Z(G) is a Frobenius group with kernel F(G)Z(G)/Z(G)."""
    Z = G.center
    if Z.order == G.order:
        return QuasiFrobeniusReport(False, "central quotient is trivial")
    Q = G.quotient(Z)
    fbar_seed = {Q.projection[g] for g in G.fitting.join(Z).elements}
    Fbar = SubgroupHandle(
        Q, frozenset(fbar_seed), tuple(sorted(fbar_seed, key=Q.index.__getitem__))
    )
    if Fbar.order == Q.order:
        return QuasiFrobeniusReport(False, "Fitting quotient is everything")
    if Fbar.order == 1:
        return QuasiFrobeniusReport(False, "Fitting quotient is trivial")
    if not is_frobenius_with_kernel(Q, Fbar):
        return QuasiFrobeniusReport(False, "kernel criterion fails")
    return QuasiFrobeniusReport(True, "ok", Q.order // Fbar.order)


def is_a_group(G: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is abelian."""
    return all(G.sylow(p).is_abelian() for p in G.primes())


# -- permutation groups --------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Permutation of {0..degree-1} from 1-based cycle notation like
    `(1 2 3)(4 5)`; `()` or blank means the identity."""
    perm = list(range(degree))
    body = text.strip()
    if body in ("", "()"):
        return tuple(perm)
    leftover = _CYCLE_RE.sub("", body).strip()
    if leftover:
        raise GroupDomainError(f"bad cycle notation {text!r}")
    for m in _CYCLE_RE.finditer(body):
        pts = [tok for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
        try:
            cyc = [int(tok) - 1 for tok in pts]
        except ValueError as exc:
            raise GroupDomainError(f"bad cycle notation {text!r}") from exc
        if any(not 0 <= c < degree for c in cyc):
            raise GroupDomainError(f"cycle entry out of range in {text!r}")
        if len(set(cyc)) != len(cyc):
            raise GroupDomainError(f"repeated point in cycle {text!r}")
        for i, c in enumerate(cyc):
            perm[c] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def perm_mul(p: tuple, q: tuple) -> tuple:
    """Composition acting on points as x -> q[p[x]] (apply p, then q)."""
    return tuple(q[i] for i in p)


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles_of(p: tuple) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = p[j]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def from_permutations(degree: int, generators, name="") -> FiniteGroup:
    """Group generated by permutations (tuples or cycle-notation strings)."""
    gens = [
        parse_cycles(g, degree) if isinstance(g, str) else tuple(g)
        for g in generators
    ]
    ident = tuple(range(degree))
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise GroupDomainError(f"{g!r} is not a permutation of degree {degree}")
    seen = {ident}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = perm_mul(a, g)
                if b not in seen:
                    if len(seen) >= MAX_GROUP_ORDER:
                        raise GroupSizeError("generated group exceeds the size cap")
                    seen.add(b)
                    order_list.append(b)
                    nxt.append(b)
        frontier = nxt
    return FiniteGroup(
        order_list, perm_mul, perm_inv, ident,
        generators=gens, name=name, check=False,
    )


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupDomainError("cyclic group needs n >= 1")
    elems = list(range(n))
    return FiniteGroup(
        elems,
        lambda a, b: (a + b) % n,
        lambda a: (-a) % n,
        0,
        generators=[1 % n] if n > 1 else [0],
        name=f"C{n}",
    )


def symmetric_3() -> FiniteGroup:
    return from_permutations(3, ["(1 2 3)", "(1 2)"], name="S3")


def klein_4() -> FiniteGroup:
    return from_permutations(4, ["(1 2)(3 4)", "(1 3)(2 4)"], name="V4")


def builtin_h(name: str) -> FiniteGroup:
    table = {
        "C1": lambda: cyclic_group(1),
        "C2": lambda: cyclic_group(2),
        "C3": lambda: cyclic_group(3),
        "C4": lambda: cyclic_group(4),
        "C5": lambda: cyclic_group(5),
        "C6": lambda: cyclic_group(6),
        "V4": klein_4,
        "S3": symmetric_3,
    }
    key = name.strip().upper()
    if key not in table:
        raise GroupDomainError(f"unknown builtin complement {name!r}")
    return table[key]()


def alternating_7() -> FiniteGroup:
    return from_permutations(7, ["(1 2 3 4 5 6 7)", "(1 2 3)"], name="A7")


# -- semidirect products -------------------------------------------------


@dataclass
class SemidirectSpec:
    """Data for A x| H: `action` maps each H-element to an automorphism of
    A, with action(h1 h2) = action(h1) o action(h2) and action(1) = id."""

    A: AbelianGroup
    H: FiniteGroup
    action: dict

    def validate(self):
        H = self.H
        for h in H.elements:
            if h not in self.action:
                raise GroupDomainError("action missing an H-element")
            f = self.action[h]
            if f.source != self.A or f.target != self.A:
                raise GroupDomainError("action value is not an endomorphism of A")
        if not self.action[H.identity].is_identity():
            raise GroupDomainError("action of the identity is not the identity")
        for h1, h2 in itertools.product(H.elements, repeat=2):
            if self.action[H.mul(h1, h2)] != self.action[h1].compose(self.action[h2]):
                raise GroupDomainError("action is not a homomorphism")


def action_from_generator_matrices(A: AbelianGroup, H: FiniteGroup, images: dict) -> dict:
    """Extend automorphisms given on H-generators (as integer matrices or
    AbHoms) to all of H by following the generation BFS."""
    gen_maps = {}
    for h, m in images.items():
        gen_maps[h] = m if isinstance(m, AbHom) else AbHom.from_matrix(A, m)
        if not gen_maps[h].is_automorphism():
            raise GroupDomainError("generator image is not an automorphism")
    action = {H.identity: AbHom.identity(A)}
    frontier = [H.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g, fg in gen_maps.items():
                hg = H.mul(h, g)
                if hg not in action:
                    action[hg] = action[h].compose(fg)
                    nxt.append(hg)
        frontier = nxt
    if len(action) != H.order:
        raise GroupDomainError("generator images do not cover H")
    return action


class SemidirectGroup(FiniteGroup):
    """A x| H as built by build_semidirect, with its `semidirect_spec`.

    The factor subgroups `A_handle` and `H_handle` are made on each access
    rather than stored: a stored handle points back at its group, and
    that cycle would keep a finished group alive until the cycle
    collector runs.
    """

    semidirect_spec: SemidirectSpec

    @property
    def A_handle(self) -> SubgroupHandle:
        A, h1 = self.semidirect_spec.A, self.semidirect_spec.H.identity
        return SubgroupHandle(
            self,
            frozenset((a.coords, h1) for a in A.elements()),
            tuple((g.coords, h1) for g in A.generators()),
        )

    @property
    def H_handle(self) -> SubgroupHandle:
        A, H = self.semidirect_spec.A, self.semidirect_spec.H
        zero = A.zero().coords
        return SubgroupHandle(
            self,
            frozenset((zero, h) for h in H.elements),
            tuple((zero, h) for h in H.generators),
        )


def build_semidirect(spec: SemidirectSpec, name="") -> SemidirectGroup:
    """A x| H with (a1, h1)(a2, h2) = (a1 + action(h1)(a2), h1 h2).

    Conjugation of a in A by h comes out as a^h = action(h^-1)(a).
    The result carries `semidirect_spec` (see SemidirectGroup).
    """
    spec.validate()
    A, H, action = spec.A, spec.H, spec.action
    if A.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("semidirect product exceeds the size cap")
    elements = [
        (a.coords, h) for h in H.elements for a in A.elements()
    ]

    def mul(x, y):
        (a1, h1), (a2, h2) = x, y
        moved = action[h1](A.element(a2))
        return (tuple((p + q) % d for p, q, d in zip(a1, moved.coords, A.factor_orders)),
                H.mul(h1, h2))

    def inv(x):
        a, h = x
        hinv = H.inv(h)
        b = action[hinv](A.element(a))
        return (tuple((-c) % d for c, d in zip(b.coords, A.factor_orders)), hinv)

    ident = (A.zero().coords, H.identity)
    gens = [(g.coords, H.identity) for g in A.generators()]
    gens += [(A.zero().coords, h) for h in H.generators]
    G = SemidirectGroup(elements, mul, inv, ident, generators=gens, name=name)
    G.semidirect_spec = spec
    return G


def direct_product(G: FiniteGroup, H: FiniteGroup, name="") -> FiniteGroup:
    if G.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("direct product exceeds the size cap")
    elems = [(g, h) for g in G.elements for h in H.elements]

    def mul(x, y):
        return (G.mul(x[0], y[0]), H.mul(x[1], y[1]))

    def inv(x):
        return (G.inv(x[0]), H.inv(x[1]))

    gens = [(g, H.identity) for g in G.generators]
    gens += [(G.identity, h) for h in H.generators]
    return FiniteGroup(
        elems, mul, inv, (G.identity, H.identity), generators=gens,
        name=name or f"{G.name}x{H.name}", check=False,
    )
