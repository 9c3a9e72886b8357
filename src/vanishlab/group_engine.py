"""Generic finite groups with exact structural queries.

Groups live at desk scale (order <= 8192).  A group is a list of
(hashable, opaque) elements, its identity and generators as positions in
that list, and the right-multiplication rows of its generators as integer
index arrays (`FiniteGroup.compiled`); construction verifies on them that
the rows define a group law, completely and at every order.  Permutation
groups, semidirect, direct and quotient groups and subgroups made groups
and the small builders of `constructions` hand in rows computed on index
arrays; only `cyclic_group` is given by a law on positions, tabulated with
|G| * |generators| calls to `mul` that no group keeps.  Every structural
query (conjugacy classes, element orders, center, centralizers,
normalizers, derived, Sylow and Fitting subgroups, quotients) runs on the
arrays and is exact, memoized and deterministic.  Subgroups are
SubgroupHandles, sorted index arrays that refer to the compiled view, never
to the group.  Construction and every query take and return element
indices, positions in `elements`: the labels are made where a group is
built and read only by I/O and by reprs.

Groups are immutable after construction; memoized maps are precomputed
on first use and safe to read concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from math import lcm

import numpy as np

from .abelian_core import AbelianGroup, AbHom, abelian_type
from .cyclotomic import p_valuation, prime_factors

MAX_GROUP_ORDER = 8192
# Maps of many targets are filled this many entries at a time, so a query
# over many elements never holds all of them at once.
TRANSLATION_CHUNK = 1 << 22
# Entries of the (elements x targets) work buffer of one fill block: at
# twice this the peak RSS of three M5 table passes rose by 1.2 MB, at this
# size it matches the row-at-a-time fill.
FILL_ENTRIES = 1 << 18


class GroupDomainError(ValueError):
    pass


class GroupSizeError(GroupDomainError):
    """The requested group exceeds the desk-scale cap."""


def _split(labels: np.ndarray) -> list[np.ndarray]:
    """Indices grouped by label, labels ascending, each group ascending."""
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


class FiniteGroup:
    """A finite group on an explicit element list.

    `identity` and `generators` are positions in `elements`, as every query
    below takes and returns; the labels themselves are read only by I/O and
    reprs.  `generators` must generate the group.  `right` holds one row per
    generator: `right[t][i]` is the position of `elements[i] *
    elements[generators[t]]`.  Every group but `cyclic_group` hands in these
    rows; `cyclic_group` passes `right=None` and a law `mul` on positions,
    which construction tabulates with |G| calls per generator that
    `compiled` keeps.  No group keeps `mul`.  Construction builds `compiled`
    (see CompiledGroup), which derives every inverse and verifies the group
    axioms on it, completely and at every order; every query below runs on
    `compiled`.
    A position that is not an integer in range(|G|), handed to construction
    or to a query, raises GroupDomainError.
    """

    # `mul` stays second: perfbench's tracer wraps that argument, None too, as a counted call
    def __init__(self, elements, mul, identity, generators, name="", right=None):
        self.elements = elements = list(elements)
        n = len(elements)
        if n > MAX_GROUP_ORDER:
            raise GroupSizeError(f"order {n} exceeds cap {MAX_GROUP_ORDER}")
        self.identity, self.generators = identity, list(generators)
        if not all(isinstance(j, (int, np.integer)) and 0 <= j < n
                   for j in (identity, *self.generators)):
            raise GroupDomainError("identity and generators must be positions in range(order)")
        if right is None:
            def row(t):
                s = self.generators[t]
                return [mul(x, s) for x in range(n)]
        elif len(right) != len(self.generators) or any(np.shape(Rs) != (n,) for Rs in right):
            raise GroupDomainError("one row of n indices is needed per generator")
        else:
            row = right.__getitem__
        self.compiled = CompiledGroup(elements, identity, self.generators, row, name)

    @property
    def name(self) -> str:
        return self.compiled.name

    # -- elementwise helpers ---------------------------------------------

    @property
    def order(self) -> int:
        return self.compiled.order

    def element_order(self, g: int) -> int:
        return int(self.compiled.orders[self._indices([g])[0]])

    @cached_property
    def exponent(self) -> int:
        """lcm of the element orders."""
        return reduce(lcm, set(self.compiled.orders.tolist()), 1)

    def primes(self) -> list[int]:
        return prime_factors(self.order)

    # -- subgroup machinery ----------------------------------------------

    def _indices(self, elems) -> np.ndarray:
        """The element indices `elems` as an array, checked."""
        idx = np.array(list(elems))
        if not idx.size:
            return idx.astype(np.intp)
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 \
                or idx.max() >= self.order:
            raise GroupDomainError("element indices must be integers in range(order)")
        return idx

    def closure(self, gens) -> np.ndarray:
        return self.subgroup(gens).idx

    def subgroup(self, gens) -> "SubgroupHandle":
        return self.compiled.subgroup(self._indices(gens))

    def trivial_subgroup(self) -> "SubgroupHandle":
        return self.compiled.subgroup([])

    def full_subgroup(self) -> "SubgroupHandle":
        view = self.compiled
        return SubgroupHandle(view, np.arange(self.order), view.gens, view.gens)

    def normal_closure(self, seeds) -> "SubgroupHandle":
        return self.compiled.normal_closure(self._indices(seeds))

    # -- structural queries ----------------------------------------------

    @property
    def class_index(self) -> np.ndarray:
        """Class number of each element (by position in `elements`), in
        the order of `conjugacy_data`: class size first, then the index of
        the class's first element."""
        return self.compiled.class_index

    @cached_property
    def conjugacy_data(self) -> tuple[np.ndarray, ...]:
        """The classes in the order of `class_index`, each as the ascending
        read-only array of its members; the first is the representative."""
        return tuple(_read_only(block) for block in _split(self.class_index))

    @cached_property
    def center(self) -> "SubgroupHandle":
        view = self.compiled
        return view.handle(np.flatnonzero((view.C == np.arange(self.order)).all(axis=0)))

    def centralizer(self, g: int) -> "SubgroupHandle":
        return self.centralizer_of_set([g])

    def centralizer_of_set(self, elems) -> "SubgroupHandle":
        view = self.compiled
        return view.handle(np.flatnonzero(view.centralizer_mask(self._indices(elems))))

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

    @cached_property
    def _sylow(self) -> dict:
        return {}

    def sylow(self, p: int) -> "SubgroupHandle":
        """A Sylow p-subgroup by normalizer percolation (deterministic):
        start from the p-part of the first element of order divisible by p,
        and grow by the p-part of the first normalizing element outside.

        Memoized per prime: every caller shares one read-only handle, and
        the handle refers to the compiled view only, so the memo makes no
        reference cycle."""
        if p not in self._sylow:
            self._sylow[p] = self._percolate(p)
        return self._sylow[p]

    def sylow_shown_nonabelian(self, p: int) -> bool:
        """Whether some p-element x has p | |x^G|, which proves the Sylow
        p-subgroups non-abelian without building one: an abelian Sylow P
        has a conjugate holding x, which centralises x, so |x^G| =
        [G : C_G(x)] divides [G : P].  False proves nothing."""
        cls = self.class_index
        p_elements = p ** p_valuation(self.order, p) % self.compiled.orders == 0
        return bool((p_elements & (np.bincount(cls)[cls] % p == 0)).any())

    def _percolate(self, p: int) -> "SubgroupHandle":
        target = p ** p_valuation(self.order, p)
        if target == 1:
            return self.trivial_subgroup()
        view = self.compiled
        p_orders = view.orders % p == 0
        pe = view.p_part(int(np.argmax(p_orders)), p)
        gens, spanned = [], None
        while True:
            gens.append(pe)
            spanned = view.span([pe], spanned)  # fills the row of pe only
            current = SubgroupHandle(view, np.flatnonzero(spanned[0]), gens, spanned[1])
            if current.order >= target:
                return current
            norm = self.normalizer(current).idx
            outside = norm[p_orders[norm] & ~current.mask[norm]].tolist()
            pe = next((x for x in (view.p_part(g, p) for g in outside)
                       if not current.mask[x]), None)
            if pe is None:
                raise AssertionError("Sylow percolation stalled")

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
        also attaches `projection`, the read-only array of the coset index
        of each element of G.  The cosets of G's compiled generators
        generate it, and coset c times generator s is the coset of
        firsts[c] s."""
        view = self.compiled
        if N.view is not view:
            raise GroupDomainError("subgroup of a different group")
        if not N.is_normal():
            raise GroupDomainError("quotient by a non-normal subgroup")
        firsts, coset = np.unique(view.coset_labels(N.basis), return_inverse=True)
        cosets = [frozenset(self.elements[i] for i in b.tolist()) for b in _split(coset)]
        q = FiniteGroup(
            cosets, None, int(coset[view.identity]), coset[view.gens].tolist(),
            name=f"{self.name}/N" if self.name else "quotient",
            right=coset[view.R[:, firsts]],
        )
        q.projection = _read_only(coset)
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
    `elements[i]`, which only `SubgroupHandle.as_group` and reprs read.

    - `R[s]`: the right-regular permutation of generator s,
      `R[s][i]` = index of `elements[i] * elements[gens[s]]`: `row(t)` is
      that row for the generator index `generators[t]`, and is called only
      for the generators kept.
    - `parent`, `gen`: a breadth-first tree of the Cayley graph rooted at
      the identity, `elements[i] = elements[parent[i]] * elements[gens[gen[i]]]`;
      `levels` lists the non-root nodes level by level.
    - `inv[i]`: the index of the inverse of element i.

    `gens` index the generators; a list longer than any irredundant one
    (a subgroup handed all its members) keeps only those outside the span
    of the ones before them, so R stays far smaller than a Cayley table.

    Construction verifies: (1) each R[s] is a permutation; (2) the tree
    reaches every element; (3) e s = s for each generator s; (4) the left
    translations by the generators commute with every R[s]; (5) they act
    transitively.  By (4) and (5) the group generated by the R[s] acts
    semiregularly, by (2) transitively, so it is regular of order |G|: the
    law computed here is a group law, and it agrees with the rows on every
    (element, generator) pair.  The left translation by the inverse of
    generator s is the inverse permutation of the one by s.

    Other maps are filled along the tree: if y = x s, the image of y is
    maps[s] applied to the image of x, one gather per level.  Left
    translations fill with R, conjugations with C[s]: x -> s^-1 x s.
    """

    def __init__(self, elements, identity: int, generators, row, name=""):
        n = len(elements)
        self.elements, self.name, self.order = elements, name, n
        self.dtype = np.int16 if n < 2**15 else np.int32
        self.identity = e = identity
        prune = len(generators) > n.bit_length()
        self.gens, rows = [], []
        spanned = np.arange(n) == e
        for t, j in enumerate(generators):
            if prune and spanned[j]:
                continue
            Rs = np.asarray(row(t))
            if Rs.dtype.kind not in "iu" or Rs.min() < 0 or Rs.max() >= n:
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
        lam = self.left_translations(self.gens)
        if any(not np.array_equal(L[Rs], Rs[L]) for L in lam for Rs in self.R) or \
                not self._reach(lam, [e]).all():
            raise GroupDomainError("multiplication is not associative")
        # (x s)^-1 = s^-1 x^-1: left translations by the inverse generators,
        # the inverse permutations of lam, carry the inverse down the tree
        gen_inv = np.argsort(lam, axis=1)
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

    @cached_property
    def _fill_levels(self) -> list:
        """(nodes, gen[nodes] * |G|, parent[nodes]) for each level: a node's
        image is maps.reshape(-1)[offset + image of its parent]."""
        return [(nodes, self.gen[nodes] * self.order, self.parent[nodes])
                for nodes in self.levels]

    def _fill(self, targets, maps) -> np.ndarray:
        """K[k, y] = the image of targets[k] under the maps along the tree
        path of y.  A row-major (|G|, block) buffer holds one block of
        targets, one row per element, so a level gathers whole rows of its
        parents and takes every image at once; each block is copied
        transposed into the result."""
        out = np.empty((len(targets), self.order), dtype=self.dtype)
        flat = maps.reshape(-1)
        step = max(1, FILL_ENTRIES // self.order)
        for lo in range(0, len(targets), step):
            block = targets[lo:lo + step]
            work = np.empty((self.order, len(block)), dtype=self.dtype)
            work[self.identity] = block
            for nodes, offsets, parents in self._fill_levels:
                work[nodes] = flat.take(work[parents] + offsets[:, None])
            out[lo:lo + step] = work.T
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
        firsts = np.unique(self.class_index, return_index=True)[1]
        out = [self._orders_of(self.left_translations(b)) for b in self.blocks(firsts)]
        return np.concatenate(out)[self.class_index]

    def class_translations(self) -> np.ndarray:
        """The left translations by the first element of each class, all at
        once; `orders` is read off them when it is not yet known, so a
        character table builds them once.  The array is not kept."""
        L = self.left_translations(np.unique(self.class_index, return_index=True)[1])
        if "orders" not in self.__dict__:
            self.orders = self._orders_of(L)[self.class_index]
        return L

    def _orders_of(self, L: np.ndarray) -> np.ndarray:
        """The order of the element whose left translation is each row of L."""
        x = L[:, self.identity].astype(np.intp)
        order = np.ones(len(L), dtype=np.intp)
        while (pending := x != self.identity).any():
            x = np.where(pending, L[np.arange(len(L)), x], self.identity)
            order += pending
        return order

    def coset_labels(self, gens) -> np.ndarray:
        """The least index of each left coset x<gens>."""
        return self._orbit_minima([self.right_translation(g) for g in gens])

    # -- subgroups ---------------------------------------------------------

    def handle(self, members) -> "SubgroupHandle":
        """The subgroup given by its sorted members, generated by all of them."""
        return SubgroupHandle(self, members, members)

    def span(self, gens, start=None):
        """(mask of <gens>, basis, rows): the basis holds the gens outside
        the span of those before them, which generate it too, and rows[k]
        is the left translation by basis[k].  Given an earlier result as
        `start`, the span grows from it, and each new basis element fills
        its own row only."""
        if start is None:
            start = (np.arange(self.order) == self.identity, [],
                     np.empty((0, self.order), dtype=self.dtype))
        mask, basis, rows = start
        for g in map(int, gens):
            if not mask[g]:
                basis = [*basis, g]
                rows = np.concatenate([rows, self.left_translations([g])])
                mask = self._reach(rows, mask)
        return mask, basis, rows

    def subgroup(self, gens) -> "SubgroupHandle":
        mask, basis, _ = self.span(gens)
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


def _read_only(indices) -> np.ndarray:
    """A read-only copy of `indices`."""
    out = np.array(indices, dtype=np.intp)
    out.flags.writeable = False
    return out


class SubgroupHandle:
    """A subgroup of a compiled group: `idx`, the sorted indices of its
    members, and `mask`, their indicator.

    `gens` index the elements it was generated from (all members when it
    was given by its members, none for the trivial subgroup); `basis` is
    an irredundant part of them.  A handle refers to the compiled view,
    never to the group object.

    A handle is never changed after construction: `idx`, `mask`, `gens`
    and `basis` are read-only arrays.  Memoized handles (`sylow`, `center`,
    `fitting`) are shared between callers and rely on this.
    """

    def __init__(self, view: CompiledGroup, members, generators=(), basis=None):
        self.view = view
        self.idx = _read_only(members)
        self.gens = _read_only(generators)
        self.mask = np.zeros(view.order, dtype=bool)
        self.mask[self.idx] = True
        self.mask.flags.writeable = False
        if basis is not None:
            self.basis = _read_only(basis)
        if not self.mask[view.identity]:
            raise GroupDomainError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.idx)

    @property
    def spanning(self) -> np.ndarray:
        """The generators, or the members when there are none."""
        return self.gens if len(self.gens) else self.idx

    @cached_property
    def basis(self) -> np.ndarray:
        return _read_only(self.view.span(self.spanning)[1])

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
        return self._abelian

    @cached_property
    def _abelian(self) -> bool:
        basis = self.basis
        if len(basis) <= 1:  # cyclic
            return True
        return bool((self.view.conjugates(basis)[:, basis] == basis[:, None]).all())

    def as_group(self, name: str = "") -> FiniteGroup:
        """The subgroup on its members in index order, generated by its
        basis: the rows are the view's right translations by the basis,
        restricted to the members and relabelled."""
        view = self.view
        local = np.empty(view.order, dtype=np.intp)
        local[self.idx] = np.arange(self.order)
        right = [local[view.right_translation(b)[self.idx]] for b in self.basis.tolist()]
        return FiniteGroup(
            [view.elements[i] for i in self.idx.tolist()], None,
            int(local[view.identity]), local[self.basis].tolist(), name=name, right=right,
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


@dataclass(eq=False, repr=False)
class AbelianModel:
    """An abelian subgroup on an explicit basis, as two index arrays: row k
    of `shape.table` is the view element `members[k]`, and `rows` holds the
    table row of each view index (-1 outside the subgroup)."""

    subgroup: SubgroupHandle
    shape: AbelianGroup
    members: np.ndarray
    rows: np.ndarray

    @property
    def basis(self) -> np.ndarray:
        """View indices of the basis: the members at the unit rows."""
        return self.members[self.shape.index_of(np.eye(self.shape.rank, dtype=np.int64))]

    def conjugation_hom(self, x: int) -> AbHom:
        """The automorphism a -> a^x of the model, for x (a view index)
        normalizing it."""
        view = self.subgroup.view
        images = self.basis
        for s in view.word(x):  # b^(u s) = (b^u)^s
            images = view.C[s][images]
        rows = self.rows[images]
        if (rows < 0).any():
            raise GroupDomainError("element does not normalize the subgroup")
        return AbHom.from_matrix(self.shape, self.shape.table[rows].tolist())

    def __repr__(self):
        basis = tuple(self.subgroup.view.elements[i] for i in self.basis.tolist())
        return f"AbelianModel(subgroup={self.subgroup!r}, shape={self.shape!r}, basis={basis!r})"


def abelian_model(H: SubgroupHandle) -> AbelianModel:
    """Basis for an abelian subgroup: greedily take elements of maximal
    order in the quotient by the span so far, the first by index.  The span
    grows in table order, the first basis coordinate most significant."""
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
    orders = []
    cells = np.array([one], dtype=np.intp)  # the span so far, in table order
    span = np.arange(H.order) == one
    while not span.all():
        # order of each element's image in H/span (0 inside the span)
        k = np.where(span, 0, span[powers[:, 1:]].argmax(axis=1) + 1)
        b = int(np.argmax(k))
        orders.append(int(k[b]))
        cells = T[np.ix_(cells, powers[b, :orders[-1]])].ravel()
        span[cells] = True
    if len(cells) != H.order:
        raise AssertionError("basis extraction produced a non-basis")
    rows = np.full(view.order, -1, dtype=np.intp)
    rows[H.idx[cells]] = np.arange(H.order)
    return AbelianModel(H, AbelianGroup(tuple(orders)), _read_only(H.idx[cells]), _read_only(rows))


def primary_part(A: SubgroupHandle, p: int) -> SubgroupHandle:
    """O_p of an abelian (or nilpotent) subgroup: its p-elements."""
    rest = A.view.orders[A.idx]
    while (divisible := rest % p == 0).any():
        rest = np.where(divisible, rest // p, rest)
    return A.view.handle(A.idx[rest == 1])


def commutator_subgroup(G: FiniteGroup, X: SubgroupHandle, Y: SubgroupHandle) -> SubgroupHandle:
    view = G.compiled
    gens = {c for y in Y.spanning.tolist() for c in view.commutators(y)[X.idx].tolist()}
    gens.discard(view.identity)
    return view.subgroup(sorted(gens))


def subgroup_center(Q: SubgroupHandle) -> SubgroupHandle:
    return Q.view.handle(Q.idx[Q.view.centralizer_mask(Q.spanning)[Q.idx]])


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
    Fbar = Q.compiled.handle(np.unique(Q.projection[G.fitting.join(Z).idx]))
    if Fbar.order == Q.order:
        return QuasiFrobeniusReport(False, "Fitting quotient is everything")
    if Fbar.order == 1:
        return QuasiFrobeniusReport(False, "Fitting quotient is trivial")
    if not is_frobenius_with_kernel(Q, Fbar):
        return QuasiFrobeniusReport(False, "kernel criterion fails")
    return QuasiFrobeniusReport(True, "ok", Q.order // Fbar.order)


def is_a_group(G: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is abelian; a Sylow subgroup is built
    only for the primes its class sizes leave open."""
    primes = G.primes()
    if any(G.sylow_shown_nonabelian(p) for p in primes):
        return False
    return all(G.sylow(p).is_abelian() for p in primes)


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


def enumerate_permutations(degree: int, gens, max_order: int = MAX_GROUP_ORDER
                           ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Number the group generated by the permutation tuples `gens`:
    (levels, rows), GroupSizeError as soon as it has more than `max_order`
    elements.

    The elements are enumerated breadth-first, one level at a time, on
    integer arrays: the images of a level under every generator come from
    one gather, g[a] = perm_mul(a, g), and new images are numbered in
    (parent, generator) order.  levels[i] holds the elements of level i as
    rows of points, in number order; rows[i][j, s] is the number of the
    j-th element of level i times generator s.  `perm_mul` is never
    called."""
    if degree < 1:
        raise GroupDomainError("degree must be positive")
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
    return levels, rows


def from_permutations(degree: int, generators, name="",
                      max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Group generated by permutations (tuples or cycle-notation strings);
    GroupSizeError as soon as it has more than `max_order` elements.

    `enumerate_permutations` numbers the elements, the identity first, and
    finds the rows R[s] that FiniteGroup compiles and verifies: the identity
    times generator s is element rows[0][0, s]."""
    gens = [
        parse_cycles(g, degree) if isinstance(g, str) else tuple(g)
        for g in generators
    ]
    levels, rows = enumerate_permutations(degree, gens, max_order)
    return FiniteGroup(
        list(map(tuple, np.concatenate(levels).tolist())), None, 0, rows[0][0].tolist(),
        name=name, right=np.concatenate(rows).T,
    )


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupDomainError("cyclic group needs n >= 1")
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, 0, [1 % n], name=f"C{n}")


def symmetric_3() -> FiniteGroup:
    return from_permutations(3, ["(1 2 3)", "(1 2)"], name="S3")


def klein_4() -> FiniteGroup:
    return from_permutations(4, ["(1 2)(3 4)", "(1 3)(2 4)"], name="V4")


# the complements that builders and group files may name
BUILTIN_H = {**{f"C{n}": partial(cyclic_group, n) for n in range(1, 7)},
             "V4": klein_4, "S3": symmetric_3}


def builtin_h(name: str) -> FiniteGroup:
    key = name.strip().upper()
    if key not in BUILTIN_H:
        raise GroupDomainError(f"unknown builtin complement {name!r}")
    return BUILTIN_H[key]()


def alternating_7() -> FiniteGroup:
    return from_permutations(7, ["(1 2 3 4 5 6 7)", "(1 2 3)"], name="A7")


# -- semidirect products -------------------------------------------------


@dataclass
class SemidirectSpec:
    """Data for A x| H: `action[h]` is the automorphism of A by which the
    H-element of index h acts, with action(h1 h2) = action(h1) o action(h2)
    and action(1) = id."""

    A: AbelianGroup
    H: FiniteGroup
    action: tuple

    def validate(self):
        law, action = self.H.compiled, self.action
        if len(action) != law.order:
            raise GroupDomainError("action needs one map per H-element")
        for f in action:
            if f.source != self.A or f.target != self.A:
                raise GroupDomainError("action value is not an endomorphism of A")
        if not action[law.identity].is_identity():
            raise GroupDomainError("action of the identity is not the identity")
        # with action(1) = id, pairs (h, generator) give all by word length
        for s in law.gens:
            for h, k in enumerate(law.right_translation(s).tolist()):
                if action[k] != action[h].compose(action[s]):
                    raise GroupDomainError("action is not a homomorphism")


class GeneratorImageError(GroupDomainError):
    """A generator's matrix is not an automorphism; `generator` is its
    position among the matrices."""

    def __init__(self, generator: int):
        super().__init__("generator image is not an automorphism")
        self.generator = generator


def action_from_generator_matrices(A: AbelianGroup, H: FiniteGroup, matrices) -> tuple:
    """The action of H on A, one automorphism per H-element index, from the
    integer matrices of H's compiled generators `H.compiled.gens`, extended
    by following the generation BFS.

    GroupSizeError when A x| H would exceed the size cap, before the
    automorphism check enumerates A."""
    if A.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("semidirect product exceeds the size cap")
    law = H.compiled
    rows = []
    for k, (s, m) in enumerate(zip(law.gens, matrices, strict=True)):
        fs = AbHom.from_matrix(A, m)
        if not fs.is_automorphism():
            raise GeneratorImageError(k)
        rows.append((law.right_translation(s).tolist(), fs))
    action = [None] * law.order
    action[law.identity] = AbHom.identity(A)
    reached = [law.identity]
    for h in reached:  # grows as it goes: breadth-first order
        for row, fs in rows:
            if action[row[h]] is None:
                action[row[h]] = action[h].compose(fs)
                reached.append(row[h])
    if len(reached) != law.order:
        raise GroupDomainError("generator images do not cover H")
    return tuple(action)


class SemidirectGroup(FiniteGroup):
    """A x| H as built by build_semidirect, with its `semidirect_spec` and
    the factor subgroup `A_handle`."""

    semidirect_spec: SemidirectSpec

    @cached_property
    def A_handle(self) -> SubgroupHandle:
        return self.compiled.subgroup(self.generators[:self.semidirect_spec.A.rank])


def build_semidirect(spec: SemidirectSpec, name="") -> SemidirectGroup:
    """A x| H with (a1, h1)(a2, h2) = (a1 + action(h1)(a2), h1 h2).

    Element (a, h) is number |A| * index(h) + index(a), index(h) its place
    in H.elements and index(a) its row in A.table.  The rows of the
    generators, A's then H's compiled ones, come from the action matrices
    and H's law:
    (a, h)(e_i, 1) = (a + row i of action(h), h), (a, h)(0, s) = (a, hs).

    Conjugation of a in A by h comes out as a^h = action(h^-1)(a).
    The result carries `semidirect_spec` (see SemidirectGroup).
    """
    spec.validate()
    A, H, law = spec.A, spec.H, spec.H.compiled
    if A.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("semidirect product exceeds the size cap")
    n = A.order
    coords = list(map(tuple, A.table.tolist()))
    elements = [(a, h) for h in H.elements for a in coords]
    offsets = n * np.arange(H.order)[:, None]
    matrices = np.array([f.matrix for f in spec.action])
    right = [(A.index_of(A.table + matrices[:, i, None]) + offsets).ravel()
             for i in range(A.rank)]
    right += [(n * law.right_translation(s)[:, None] + np.arange(n)).ravel()
              for s in law.gens]
    # A's zero is table row 0, so (0, s) is element n * s
    gens = (A.index_of(np.eye(A.rank, dtype=np.int64)) + n * law.identity).tolist()
    gens += [n * s for s in law.gens]
    G = SemidirectGroup(elements, None, n * law.identity, gens, name=name, right=right)
    G.semidirect_spec = spec
    return G


def semidirect_from_matrices(A: AbelianGroup, H: FiniteGroup, matrices, name=""):
    """A x| H, compiled generator k of H acting on A through the integer
    matrix matrices[k], whose row i is the image of A's generator i."""
    action = action_from_generator_matrices(A, H, matrices)
    return build_semidirect(SemidirectSpec(A, H, action), name=name)


def direct_product(G: FiniteGroup, H: FiniteGroup, name="") -> FiniteGroup:
    """G x H on the pairs (g, h), number |H| * index(g) + index(h),
    generated by the compiled generators of G and then of H."""
    if G.order * H.order > MAX_GROUP_ORDER:
        raise GroupSizeError("direct product exceeds the size cap")
    elems = [(g, h) for g in G.elements for h in H.elements]
    m, n = G.order, H.order
    # (g, h)(s, 1) = (g s, h) and (g, h)(1, t) = (g, h t)
    right = [(n * Rs[:, None] + np.arange(n)).ravel() for Rs in G.compiled.R]
    right += [(n * np.arange(m)[:, None] + Rt).ravel() for Rt in H.compiled.R]
    e, f = G.compiled.identity, H.compiled.identity
    gens = [n * j + f for j in G.compiled.gens] + [n * e + j for j in H.compiled.gens]
    return FiniteGroup(
        elems, None, n * e + f, gens, name=name or f"{G.name}x{H.name}", right=right,
    )
