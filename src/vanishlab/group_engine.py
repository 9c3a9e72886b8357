"""Generic finite groups with exact structural queries.

Groups live at desk scale (order <= 8192).  A group is an element list
plus multiplication/inverse callables on its (hashable, opaque)
elements.  Construction compiles the group into integer index arrays
(`FiniteGroup.compiled`) around the right-multiplication rows of its
generators, verifies on them that the law is a group law, completely and
at every order, and never evaluates `mul` or `inv` again.  Permutation
groups hand in the rows their breadth-first enumeration found
(`from_permutations`); every other group gets them from |G| *
|generators| calls to `mul`.  Every structural query
(conjugacy classes, element orders, center, centralizers, normalizers,
derived, Sylow and Fitting subgroups, quotients) runs on the arrays and
is exact, memoized and deterministic.  Subgroups are SubgroupHandles,
sorted index arrays that refer to the compiled view, never to the group.

Groups are immutable after construction; memoized maps are precomputed
on first use and safe to read concurrently.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import lcm

import numpy as np

from .abelian_core import AbelianGroup, AbElement, AbHom, abelian_type
from .cyclotomic import p_valuation, prime_factors

MAX_GROUP_ORDER = 8192
# Maps of many targets are filled this many entries at a time, so a query
# over many elements never holds all of them at once.
TRANSLATION_CHUNK = 1 << 22


class GroupDomainError(ValueError):
    pass


class GroupSizeError(GroupDomainError):
    """The requested group exceeds the desk-scale cap."""


def _split(labels: np.ndarray) -> list[np.ndarray]:
    """Indices grouped by label, labels ascending, each group ascending."""
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


class FiniteGroup:
    """A finite group on an explicit element list.

    `mul` and `inv` are callables on the (hashable, opaque) elements;
    `generators` must generate the group (all elements when omitted).
    `right`, when given, holds one row per generator: `right[t][i]` is the
    index of `elements[i] * generators[t]`.  Construction builds
    `compiled` (see CompiledGroup) from those rows, or from |G| calls to
    `mul` per generator when there are none, and verifies the group axioms
    on it, completely and at every order.  `mul` and `inv` are evaluated
    only to compile; every query below runs on `compiled`.
    """

    def __init__(self, elements, mul, inv, identity, generators=None, name="",
                 right=None):
        self.elements = list(elements)
        if len(self.elements) > MAX_GROUP_ORDER:
            raise GroupSizeError(
                f"order {len(self.elements)} exceeds cap {MAX_GROUP_ORDER}"
            )
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise GroupDomainError("duplicate elements")
        if identity not in self.index:
            raise GroupDomainError("identity not among the elements")
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.generators = list(generators) if generators is not None else list(self.elements)
        self.compiled = CompiledGroup(
            self.elements, self.index, identity, self.generators, mul, inv, name, right
        )

    @property
    def name(self) -> str:
        return self.compiled.name

    # -- elementwise helpers ---------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def indices(self, elems) -> list[int]:
        return [self.index[g] for g in elems]

    def conj(self, g, h):
        """g^h = h^-1 g h (conjugation as a right action)."""
        return self.elements[self.compiled.conj(self.index[g], self.index[h])]

    def element_order(self, g) -> int:
        return int(self.compiled.orders[self.index[g]])

    @cached_property
    def exponent(self) -> int:
        """lcm of the element orders."""
        return reduce(lcm, set(self.compiled.orders.tolist()), 1)

    def primes(self) -> list[int]:
        return prime_factors(self.order)

    # -- subgroup machinery ----------------------------------------------

    def closure(self, gens) -> frozenset:
        return self.subgroup(gens).elements

    def subgroup(self, gens) -> "SubgroupHandle":
        return self.compiled.subgroup(self.indices(gens))

    def trivial_subgroup(self) -> "SubgroupHandle":
        return self.compiled.subgroup([])

    def full_subgroup(self) -> "SubgroupHandle":
        view = self.compiled
        gens = self.indices(self.generators)
        return SubgroupHandle(view, np.arange(self.order), gens, view.gens)

    def normal_closure(self, seeds) -> "SubgroupHandle":
        return self.compiled.normal_closure(self.indices(seeds))

    # -- structural queries ----------------------------------------------

    @property
    def class_index(self) -> np.ndarray:
        """Class number of each element (by position in `elements`), in
        the order of `conjugacy_data`: class size first, then the index of
        the class's first element."""
        return self.compiled.class_index

    @cached_property
    def conjugacy_data(self):
        """(classes, class_of): classes as (representative, frozenset) in a
        deterministic order; class_of maps element -> class index.  The
        representative is the class's first element."""
        classes = []
        for block in _split(self.class_index):
            elems = [self.elements[i] for i in block.tolist()]
            classes.append((elems[0], frozenset(elems)))
        return classes, dict(zip(self.elements, self.class_index.tolist()))

    @property
    def conjugacy_classes(self):
        return self.conjugacy_data[0]

    @cached_property
    def center(self) -> "SubgroupHandle":
        view = self.compiled
        return view.handle(np.flatnonzero((view.C == np.arange(self.order)).all(axis=0)))

    def centralizer(self, g) -> "SubgroupHandle":
        return self.centralizer_of_set([g])

    def centralizer_of_set(self, elems) -> "SubgroupHandle":
        view = self.compiled
        return view.handle(np.flatnonzero(view.centralizer_mask(self.indices(elems))))

    def normalizer(self, H: "SubgroupHandle") -> "SubgroupHandle":
        """The elements conjugating every generator of H into H."""
        view = self.compiled
        inside = np.ones(self.order, dtype=bool)
        for block in view.blocks(H.basis):
            inside &= H.mask[view.conjugates(block)].all(axis=0)
        return view.handle(np.flatnonzero(inside))

    def _commutators_with(self, ys) -> "SubgroupHandle":
        """The normal closure of the [s, y], s a generator and y in ys."""
        view = self.compiled
        seeds = {c for y in ys for c in view.commutators(y)[view.gens].tolist()}
        seeds.discard(view.identity)
        return view.normal_closure(sorted(seeds))

    @cached_property
    def derived_subgroup(self) -> "SubgroupHandle":
        return self._commutators_with(self.compiled.gens)

    @cached_property
    def is_abelian(self) -> bool:
        view = self.compiled
        return bool((view.C[:, view.gens] == view.gens).all())

    def sylow(self, p: int) -> "SubgroupHandle":
        """A Sylow p-subgroup by normalizer percolation (deterministic):
        start from the p-part of the first element of order divisible by p,
        and grow by the p-part of the first normalizing element outside."""
        target = p ** p_valuation(self.order, p)
        if target == 1:
            return self.trivial_subgroup()
        view = self.compiled
        p_orders = view.orders % p == 0
        current = view.subgroup([view.p_part(int(np.argmax(p_orders)), p)])
        while current.order < target:
            norm = self.normalizer(current).idx
            for g in norm[p_orders[norm] & ~current.mask[norm]].tolist():
                pe = view.p_part(g, p)
                if not current.mask[pe]:
                    current = view.subgroup([*current.gens.tolist(), pe])
                    break
            else:
                raise AssertionError("Sylow percolation stalled")
        return current

    def p_core(self, p: int) -> "SubgroupHandle":
        """O_p(G): the intersection of all conjugates of a Sylow p-subgroup,
        that is the classes that lie inside it."""
        S = self.sylow(p)
        cls = self.class_index
        inside = np.bincount(cls[S.idx], minlength=cls.max() + 1) == np.bincount(cls)
        return self.compiled.handle(S.idx[inside[cls[S.idx]]])

    @cached_property
    def fitting(self) -> "SubgroupHandle":
        gens = [g for p in self.primes() for g in self.p_core(p).gens.tolist()]
        return self.compiled.subgroup(gens)

    @cached_property
    def is_nilpotent(self) -> bool:
        return self.fitting.order == self.order

    def nilpotency_class(self) -> int:
        if not self.is_nilpotent:
            raise GroupDomainError("group is not nilpotent")
        c = 0
        current = self.full_subgroup()
        while current.order > 1:
            nxt = self._commutators_with(current.basis)
            if nxt.order >= current.order:
                raise AssertionError("lower central series stalled")
            current = nxt
            c += 1
        return c

    def quotient(self, N: "SubgroupHandle") -> "FiniteGroup":
        """G/N with cosets as frozensets, ordered by their first element;
        also attaches .projection."""
        view = self.compiled
        if N.view is not view:
            raise GroupDomainError("subgroup of a different group")
        if not N.is_normal():
            raise GroupDomainError("quotient by a non-normal subgroup")
        firsts, coset = np.unique(view.coset_labels(N.basis), return_inverse=True)
        cosets = [frozenset(self.elements[i] for i in b.tolist()) for b in _split(coset)]
        number = {c: k for k, c in enumerate(cosets)}
        firsts = firsts.tolist()

        def qmul(c1, c2):
            return cosets[coset[view.product(firsts[number[c1]], firsts[number[c2]])]]

        def qinv(c):
            return cosets[coset[view.inv[firsts[number[c]]]]]

        projection = dict(zip(self.elements, (cosets[k] for k in coset.tolist())))
        q = FiniteGroup(
            cosets, qmul, qinv, projection[self.identity],
            generators=[projection[g] for g in self.generators],
            name=f"{self.name}/N" if self.name else "quotient",
        )
        q.projection = projection
        return q

    def normal_subgroups(self) -> list["SubgroupHandle"]:
        """All normal subgroups, by closing unions of conjugacy classes
        (order <= 500 only)."""
        if self.order > 500:
            raise GroupSizeError("normal-subgroup enumeration capped at order 500")
        view = self.compiled
        trivial = view.subgroup([])
        found = {trivial.idx.tobytes(): trivial}
        frontier = [trivial]
        while frontier:
            base = frontier.pop()
            for members in _split(self.class_index):
                if not base.mask[members].all():
                    grown = view.subgroup([*base.basis.tolist(), *members.tolist()])
                    if found.setdefault(grown.idx.tobytes(), grown) is grown:
                        frontier.append(grown)
        return sorted(
            (view.handle(H.idx) for H in found.values()),
            key=lambda h: (h.order, h.idx.tolist()),
        )

    def __repr__(self):
        return repr(self.compiled)


class CompiledGroup:
    """The law of a FiniteGroup as integer index arrays; element i is
    `elements[i]`.

    - `R[s]`: the right-regular permutation of generator s,
      `R[s][i]` = index of `elements[i] * elements[gens[s]]`, from the
      rows handed in (`right`) or else from `mul`.
    - `parent`, `gen`: a breadth-first tree of the Cayley graph rooted at
      the identity, `elements[i] = elements[parent[i]] * elements[gens[gen[i]]]`;
      `levels` lists the non-root nodes level by level.
    - `inv[i]`: the index of the inverse of element i.

    `gens` index the generators; a list longer than any irredundant one
    (a subgroup handed all its members) keeps only those outside the span
    of the ones before them, so R stays far smaller than a Cayley table.

    Construction verifies: (1) each R[s] is a permutation; (2) the tree
    reaches every element; (3) e s = s and inv(s) s = e for each generator
    s; (4) the left translations by the generators commute with every
    R[s]; (5) they act transitively.  By (4) and (5) the group generated by
    the R[s] acts semiregularly, by (2) transitively, so it is regular of
    order |G|: the law computed here is a group law, and when R comes from
    `mul` it agrees with `mul` on every (element, generator) pair.

    Other maps are filled along the tree: if y = x s, the image of y is
    maps[s] applied to the image of x, one gather per level.  Left
    translations fill with R, conjugations with C[s]: x -> s^-1 x s.
    """

    def __init__(self, elements, index, identity, generators, mul, inv, name="",
                 right=None):
        n = len(elements)
        self.elements, self.index, self.name, self.order = elements, index, name, n
        self.dtype = np.int16 if n < 2**15 else np.int32
        self.identity = e = index[identity]
        if any(g not in index for g in generators):
            raise GroupDomainError("generator not among the elements")
        if right is not None and np.shape(right) != (len(generators), n):
            raise GroupDomainError("one row of n indices is needed per generator")
        prune = len(generators) > n.bit_length()
        self.gens, rows = [], []
        spanned = np.arange(n) == e
        for t, j in enumerate(index[g] for g in generators):
            if prune and spanned[j]:
                continue
            if right is None:
                Rs = np.array([index.get(mul(x, elements[j]), -1) for x in elements],
                              dtype=np.intp)
            else:
                Rs = np.asarray(right[t], dtype=np.intp)
            if Rs.min() < 0 or Rs.max() >= n:
                raise GroupDomainError("multiplication left the element set")
            if np.bincount(Rs, minlength=n).max() > 1:
                raise GroupDomainError("multiplication is not a Latin square")
            self.gens.append(j)
            rows.append(Rs)
            if prune:
                spanned = self._grow_tree(rows)
        self.R = np.array(rows, dtype=self.dtype).reshape(len(rows), n)
        if not self._grow_tree(self.R).all():
            raise GroupDomainError("the generators do not generate the group")
        steps = np.arange(len(self.gens))
        if not np.array_equal(self.R[steps, e], self.gens):
            raise GroupDomainError("identity inconsistent")
        inv_gens = [index.get(inv(elements[j]), -1) for j in self.gens]
        if min(inv_gens, default=0) < 0 or np.any(self.R[steps, inv_gens] != e):
            raise GroupDomainError("inverse map inconsistent")
        lam = self.left_translations(self.gens)
        if any(not np.array_equal(L[Rs], Rs[L]) for L in lam for Rs in self.R) or \
                not self._reach(lam, [e]).all():
            raise GroupDomainError("multiplication is not associative")
        # (x s)^-1 = s^-1 x^-1: left translations by the inverse generators
        # carry the inverse down the tree from the root
        gen_inv = self.left_translations(inv_gens)
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[e] = e
        for nodes in self.levels:
            self.inv[nodes] = gen_inv[self.gen[nodes], self.inv[self.parent[nodes]]]

    def _grow_tree(self, R) -> np.ndarray:
        """Breadth-first tree of the Cayley graph of the rows R; returns
        the mask of the elements it reaches."""
        self.parent = np.full(self.order, -1, dtype=np.intp)
        self.gen = np.full(self.order, -1, dtype=np.intp)
        self.parent[self.identity] = self.identity
        self.levels = []
        frontier = np.array([self.identity], dtype=np.intp)
        while frontier.size:
            grown = []
            for s, Rs in enumerate(R):
                image = Rs[frontier]
                fresh = self.parent[image] < 0
                self.parent[image[fresh]] = frontier[fresh]
                self.gen[image[fresh]] = s
                grown.append(image[fresh])
            frontier = np.concatenate([frontier[:0], *grown])
            if frontier.size:
                self.levels.append(frontier)
        return self.parent >= 0

    def __repr__(self):
        return f"<{self.name or 'FiniteGroup'} of order {self.order}>"

    # -- maps of many elements ---------------------------------------------

    def _fill(self, targets, maps) -> np.ndarray:
        out = np.empty((len(targets), self.order), dtype=self.dtype)
        out[:, self.identity] = targets
        for nodes in self.levels:
            out[:, nodes] = maps[self.gen[nodes], out[:, self.parent[nodes]]]
        return out

    def left_translations(self, targets) -> np.ndarray:
        """L with L[k, y] = index of elements[targets[k]] * elements[y]."""
        return self._fill(targets, self.R)

    @cached_property
    def C(self) -> np.ndarray:
        """C[s]: x -> s^-1 x s for generator s, as R[s] o inv o R[s] o inv."""
        C = [Rs[self.inv[Rs[self.inv]]] for Rs in self.R]
        return np.array(C, dtype=self.dtype).reshape(self.R.shape)

    def conjugates(self, targets) -> np.ndarray:
        """K with K[k, y] = index of elements[targets[k]]^elements[y]."""
        return self._fill(targets, self.C)

    def right_translation(self, j: int) -> np.ndarray:
        """x -> index of elements[x] * elements[j], for every x."""
        out = np.arange(self.order)
        for s in self.word(j):
            out = self.R[s][out]
        return out

    def commutators(self, j: int) -> np.ndarray:
        """[x, j] = x^-1 j^-1 x j = (j^-1)^x j, for every x."""
        return self.right_translation(j)[self.conjugates([self.inv[j]])[0]]

    def blocks(self, targets):
        """`targets` in slices small enough to fill at once."""
        targets = np.asarray(targets, dtype=np.intp)
        step = max(1, TRANSLATION_CHUNK // self.order)
        for lo in range(0, len(targets), step):
            yield targets[lo:lo + step]

    def _reach(self, maps, start) -> np.ndarray:
        """Mask of the points reachable from `start` under the rows of maps."""
        seen = np.zeros(self.order, dtype=bool)
        seen[start] = True
        frontier = np.flatnonzero(seen)
        while frontier.size:
            image = np.zeros(self.order, dtype=bool)
            image[maps[:, frontier]] = True
            frontier = np.flatnonzero(image & ~seen)
            seen |= image
        return seen

    def _orbit_minima(self, maps) -> np.ndarray:
        """The least index in the orbit of each element under the
        permutations `maps`."""
        label = np.arange(self.order)
        while True:
            before = label
            for c in maps:
                label = np.minimum(label, label[c])
                label[c] = np.minimum(label[c], label)
            label = label[label]
            if np.array_equal(label, before):
                return label

    # -- single elements, along their tree paths ---------------------------

    @cached_property
    def _tree_lists(self):
        return self.parent.tolist(), self.gen.tolist(), self.R.tolist()

    def word(self, j: int) -> list[int]:
        """Generator steps from the identity to element j along the tree."""
        parent, gen, _ = self._tree_lists
        out = []
        while j != self.identity:
            out.append(gen[j])
            j = parent[j]
        return out[::-1]

    def product(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        R = self._tree_lists[2]
        i = int(i)
        for s in self.word(j):
            i = R[s][i]
        return i

    def conj(self, i: int, j: int) -> int:
        """Index of elements[i]^elements[j] = j^-1 i j."""
        return self.product(self.product(self.inv[j], i), j)

    def power(self, i: int, k: int) -> int:
        out = self.identity
        while k:
            if k & 1:
                out = self.product(out, i)
            i = self.product(i, i)
            k >>= 1
        return out

    def p_part(self, i: int, p: int) -> int:
        """i^(o / p^v), o the order of i and p^v the p-part of o."""
        o = int(self.orders[i])
        return self.power(i, o // p ** p_valuation(o, p))

    def law_mul(self, a, b):
        """The compiled law on elements, for groups built from this one."""
        return self.elements[self.product(self.index[a], self.index[b])]

    def law_inv(self, a):
        return self.elements[self.inv[self.index[a]]]

    # -- classes, orders, cosets -------------------------------------------

    @cached_property
    def class_index(self) -> np.ndarray:
        """Class number of each element: the orbits of the conjugations by
        the generators, ranked by size, then by the least member."""
        label = self._orbit_minima(self.C)
        firsts, which, sizes = np.unique(label, return_inverse=True, return_counts=True)
        rank = np.empty(len(firsts), dtype=np.intp)
        rank[np.lexsort((firsts, sizes))] = np.arange(len(firsts))
        return rank[which]

    @cached_property
    def orders(self) -> np.ndarray:
        """Order of every element; a class function, so it is read off the
        left translations by one element per class."""
        cls = self.class_index
        out = []
        for block in self.blocks(np.unique(cls, return_index=True)[1]):
            L = self.left_translations(block)
            x = L[:, self.identity].astype(np.intp)
            order = np.ones(len(L), dtype=np.intp)
            while (pending := x != self.identity).any():
                x = np.where(pending, L[np.arange(len(L)), x], self.identity)
                order += pending
            out.append(order)
        return np.concatenate(out)[cls]

    def coset_labels(self, gens) -> np.ndarray:
        """The least index of each left coset x<gens>."""
        return self._orbit_minima([self.right_translation(g) for g in gens])

    # -- subgroups ---------------------------------------------------------

    def handle(self, members) -> "SubgroupHandle":
        """The subgroup given by its sorted members, generated by all of them."""
        return SubgroupHandle(self, members, members)

    def span(self, gens):
        """(mask of <gens>, the gens outside the span of those before them,
        which generate it too)."""
        mask = np.arange(self.order) == self.identity
        basis = []
        for g in map(int, gens):
            if not mask[g]:
                basis.append(g)
                mask = self._reach(self.left_translations(basis), mask)
        return mask, basis

    def subgroup(self, gens) -> "SubgroupHandle":
        mask, basis = self.span(gens)
        return SubgroupHandle(self, np.flatnonzero(mask), gens, basis)

    def normal_closure(self, seeds) -> "SubgroupHandle":
        """<seeds^G>, generated by the conjugates of the seeds (by index)."""
        return self.subgroup(np.flatnonzero(self._reach(self.C, list(seeds))))

    def centralizer_mask(self, targets) -> np.ndarray:
        """Mask of the elements that commute with every target."""
        out = np.ones(self.order, dtype=bool)
        for block in self.blocks(targets):
            out &= (self.conjugates(block) == block[:, None]).all(axis=0)
        return out


class SubgroupHandle:
    """A subgroup of a compiled group: `idx`, the sorted indices of its
    members, and `mask`, their indicator.

    `gens` index the elements it was generated from (all members when it
    was given by its members, none for the trivial subgroup); `basis` is
    an irredundant part of them.  A handle refers to the compiled view,
    never to the group object.
    """

    def __init__(self, view: CompiledGroup, members, generators=(), basis=None):
        self.view = view
        self.idx = np.asarray(members, dtype=np.intp)
        self.gens = np.asarray(generators, dtype=np.intp)
        self.mask = np.zeros(view.order, dtype=bool)
        self.mask[self.idx] = True
        if basis is not None:
            self.basis = np.asarray(basis, dtype=np.intp)
        if not self.mask[view.identity]:
            raise GroupDomainError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.idx)

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self.view.elements[i] for i in self.idx.tolist())

    @property
    def generators(self) -> tuple:
        return tuple(self.view.elements[i] for i in self.gens.tolist())

    @property
    def spanning(self) -> np.ndarray:
        """The generators, or the members when there are none."""
        return self.gens if len(self.gens) else self.idx

    @cached_property
    def basis(self) -> np.ndarray:
        return np.asarray(self.view.span(self.spanning)[1], dtype=np.intp)

    def __contains__(self, g) -> bool:
        i = self.view.index.get(g)
        return i is not None and bool(self.mask[i])

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupHandle)
            and self.view is other.view
            and np.array_equal(self.idx, other.idx)
        )

    def __hash__(self):
        return hash(self.idx.tobytes())

    def is_normal(self) -> bool:
        """Closed under conjugation by the group's generators."""
        return bool(self.mask[self.view.C[:, self.spanning]].all())

    def is_abelian(self) -> bool:
        basis = self.basis
        return bool((self.view.conjugates(basis)[:, basis] == basis[:, None]).all())

    def as_group(self, name: str = "") -> FiniteGroup:
        view = self.view
        elems = [view.elements[i] for i in self.idx.tolist()]
        return FiniteGroup(
            elems, view.law_mul, view.law_inv, view.elements[view.identity],
            generators=list(self.generators) or elems, name=name,
        )

    def join(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return self.view.subgroup([*self.spanning.tolist(), *other.spanning.tolist()])

    def intersection(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return self.view.handle(self.idx[other.mask[self.idx]])

    def abelian_invariants(self) -> tuple[int, ...]:
        """Cyclic factor orders (primary decomposition, deterministic order)
        of an abelian subgroup, from the element-order census."""
        if not self.is_abelian():
            raise GroupDomainError("abelian invariants of a nonabelian subgroup")
        return abelian_type(self.view.orders[self.idx].tolist())

    def __repr__(self):
        return f"<subgroup of order {self.order} in {self.view!r}>"


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
        view = self.subgroup.view
        images = []
        for b in self.basis:
            c = view.elements[view.conj(view.index[b], view.index[x])]
            if c not in self.to_coords:
                raise GroupDomainError("element does not normalize the subgroup")
            images.append(self.shape.element(self.to_coords[c]))
        return AbHom(self.shape, self.shape, tuple(images))


def abelian_model(H: SubgroupHandle) -> AbelianModel:
    """Basis for an abelian subgroup: greedily take elements of maximal
    order in the quotient by the span so far, the first by index."""
    if not H.is_abelian():
        raise GroupDomainError("abelian model of a nonabelian subgroup")
    view = H.view
    local = np.full(view.order, -1, dtype=view.dtype)
    local[H.idx] = np.arange(H.order)
    # T[a, b]: local index of h_a h_b; powers[a, k]: local index of h_a^k
    T = np.concatenate([local[view.left_translations(b)[:, H.idx]] for b in view.blocks(H.idx)])
    one = local[view.identity]
    powers = np.empty((H.order, int(view.orders[H.idx].max()) + 1), dtype=np.intp)
    powers[:, 0] = one
    for k in range(1, powers.shape[1]):
        powers[:, k] = T[np.arange(H.order), powers[:, k - 1]]
    basis, orders = [], []
    span = np.arange(H.order) == one
    while not span.all():
        # order of each element's image in H/span (0 inside the span)
        k = np.where(span, 0, span[powers[:, 1:]].argmax(axis=1) + 1)
        basis.append(int(np.argmax(k)))
        orders.append(int(k[basis[-1]]))
        span[T[np.ix_(np.flatnonzero(span), powers[basis[-1], :orders[-1]])].ravel()] = True
    cells = np.array([one], dtype=np.intp)
    for b, d in zip(basis, orders):
        cells = T[np.ix_(cells, powers[b, :d])].ravel()
    if len(set(cells.tolist())) != H.order:
        raise AssertionError("basis extraction produced a non-basis")
    coords = list(itertools.product(*(range(d) for d in orders)))
    elems = [view.elements[i] for i in H.idx[cells].tolist()]
    return AbelianModel(
        H, AbelianGroup(tuple(orders)),
        tuple(view.elements[i] for i in H.idx[basis].tolist()),
        dict(zip(elems, coords)), dict(zip(coords, elems)),
    )


# -- Frobenius structure -------------------------------------------------


def is_frobenius_with_kernel(G: FiniteGroup, N: SubgroupHandle) -> bool:
    """Kernel criterion: C_G(n) <= N for every nontrivial n in N."""
    view = G.compiled
    if N.view is not view:
        raise GroupDomainError("subgroup of a different group")
    if not N.is_normal():
        raise GroupDomainError("Frobenius kernel must be normal")
    if N.order == 1 or N.order == G.order:
        return False
    return not any(
        ((view.conjugates(block) == block[:, None]) & ~N.mask).any()
        for block in view.blocks(N.idx[N.idx != view.identity])
    )


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
    Fbar = Q.compiled.handle(sorted(
        {Q.index[Q.projection[G.elements[i]]] for i in G.fitting.join(Z).idx.tolist()}
    ))
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
    used = set()
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
        if used.intersection(cyc):
            point = min(used.intersection(cyc)) + 1
            raise GroupDomainError(f"point {point} lies in two cycles of {text!r}")
        used.update(cyc)
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


def from_permutations(degree: int, generators, name="",
                      max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Group generated by permutations (tuples or cycle-notation strings);
    GroupSizeError as soon as it has more than `max_order` elements.

    The elements are enumerated breadth-first, one level at a time, on
    integer arrays: the images of a level under every generator come from
    one gather, g[a] = perm_mul(a, g), and new images are numbered in
    (parent, generator) order.  The number of every image is kept, so the
    same pass yields the rows R[s] that FiniteGroup compiles and verifies,
    and `perm_mul` is never called."""
    if degree < 1:
        raise GroupDomainError("degree must be positive")
    gens = [
        parse_cycles(g, degree) if isinstance(g, str) else tuple(g)
        for g in generators
    ]
    ident = tuple(range(degree))
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise GroupDomainError(f"{g!r} is not a permutation of degree {degree}")
    P = np.array(gens, dtype=np.min_scalar_type(degree - 1)).reshape(len(gens), degree)
    key = np.dtype((np.void, degree * P.itemsize))
    frontier = np.array([ident], dtype=P.dtype)
    number = {frontier.view(key).item(): 0}  # row bytes -> element index
    levels, rows = [], []
    while len(frontier):
        levels.append(frontier)
        images = np.ascontiguousarray(P[:, frontier].swapaxes(0, 1)).reshape(-1, degree)
        before = len(number)
        found = np.array([number.setdefault(k, len(number))
                          for k in images.view(key).ravel().tolist()], dtype=np.intp)
        rows.append(found.reshape(len(frontier), len(gens)))
        if len(number) > max_order:
            raise GroupSizeError("generated group exceeds the size cap")
        fresh = np.flatnonzero(found >= before)
        # the first image numbered with each new number, in number order
        frontier = images[fresh[np.unique(found[fresh], return_index=True)[1]]]
    elements = list(map(tuple, np.concatenate(levels).tolist()))
    return FiniteGroup(
        elements, perm_mul, perm_inv, ident,
        generators=gens, name=name, right=np.concatenate(rows).T,
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
            if self.action[H.compiled.law_mul(h1, h2)] != self.action[h1].compose(self.action[h2]):
                raise GroupDomainError("action is not a homomorphism")


def action_from_generator_matrices(A: AbelianGroup, H: FiniteGroup, images: dict) -> dict:
    """Extend automorphisms given on H-generators (as integer matrices or
    AbHoms) to all of H by following the generation BFS.

    GroupSizeError when A x| H would exceed the size cap, before the
    automorphism check enumerates A."""
    if A.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("semidirect product exceeds the size cap")
    gen_maps = {}
    for h, m in images.items():
        gen_maps[h] = m if isinstance(m, AbHom) else AbHom.from_matrix(A, m)
        if not gen_maps[h].is_automorphism():
            raise GroupDomainError("generator image is not an automorphism")
    action = {H.identity: AbHom.identity(A)}
    reached = [H.identity]
    for h in reached:  # grows as it goes: breadth-first order
        for g, fg in gen_maps.items():
            hg = H.compiled.law_mul(h, g)
            if hg not in action:
                action[hg] = action[h].compose(fg)
                reached.append(hg)
    if len(action) != H.order:
        raise GroupDomainError("generator images do not cover H")
    return action


class SemidirectGroup(FiniteGroup):
    """A x| H as built by build_semidirect, with its `semidirect_spec` and
    the factor subgroups `A_handle` and `H_handle`."""

    semidirect_spec: SemidirectSpec

    @cached_property
    def A_handle(self) -> SubgroupHandle:
        A, h1 = self.semidirect_spec.A, self.semidirect_spec.H.identity
        return self.subgroup([(g.coords, h1) for g in A.generators()])

    @cached_property
    def H_handle(self) -> SubgroupHandle:
        zero, H = self.semidirect_spec.A.zero().coords, self.semidirect_spec.H
        return self.subgroup([(zero, h) for h in H.generators])


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
    orders = A.factor_orders
    # columns[h][j]: coordinate j of the images of A's generators under action(h)
    columns = {h: f.matrix.T.tolist() for h, f in action.items()}
    hmul = {(h1, h2): H.compiled.law_mul(h1, h2) for h1 in H.elements for h2 in H.elements}
    hinv = {h: H.compiled.law_inv(h) for h in H.elements}

    @lru_cache(maxsize=None)  # at most |A| * |H| entries
    def act(h, a):
        """Coordinates of action(h)(a), before reduction."""
        return tuple(sum(map(operator.mul, a, col)) for col in columns[h])

    def mul(x, y):
        (a1, h1), (a2, h2) = x, y
        return tuple(map(operator.mod, map(operator.add, a1, act(h1, a2)), orders)), hmul[h1, h2]

    def inv(x):
        a, h = x
        h = hinv[h]
        return tuple(map(operator.mod, map(operator.neg, act(h, a)), orders)), h

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
        return (G.compiled.law_mul(x[0], y[0]), H.compiled.law_mul(x[1], y[1]))

    def inv(x):
        return (G.compiled.law_inv(x[0]), H.compiled.law_inv(x[1]))

    gens = [(g, H.identity) for g in G.generators]
    gens += [(G.identity, h) for h in H.generators]
    return FiniteGroup(
        elems, mul, inv, (G.identity, H.identity), generators=gens,
        name=name or f"{G.name}x{H.name}",
    )
