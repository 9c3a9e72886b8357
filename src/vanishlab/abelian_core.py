"""Finite abelian groups, their duals, annihilator calculus and module
structure under a finite group of automorphisms.

Elements are exponent vectors against a declared factor list, written
additively; the trivial subgroup is the zero element.  A group is
enumerated once, as a table of coordinate rows (desk scale |A| <= 2^16):
subgroups are boolean masks over it, and maps and characters act on the
whole table at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod

import numpy as np

from .cyclotomic import Cyclo, p_valuation, prime_factors, root_of_unity

MAX_ENUMERATION = 2**16


class AbelianDomainError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianGroup:
    """C_{d_1} x ... x C_{d_r}; the trivial group is the empty product."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        if any(d < 2 for d in self.factor_orders):
            raise AbelianDomainError("every factor order must be >= 2")

    @staticmethod
    def of(*orders: int) -> "AbelianGroup":
        return AbelianGroup(tuple(orders))

    @property
    def rank(self) -> int:
        """Number of written factors, the size of a coordinate vector."""
        return len(self.factor_orders)

    @property
    def order(self) -> int:
        return prod(self.factor_orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.factor_orders)

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * len(self.factor_orders))

    def element(self, coords) -> "AbElement":
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise AbelianDomainError("coordinate length mismatch")
        return AbElement(self, tuple(c % d for c, d in zip(coords, self.factor_orders)))

    def generators(self) -> list["AbElement"]:
        return [AbElement(self, tuple(row)) for row in np.eye(self.rank, dtype=np.int64).tolist()]

    @cached_property
    def table(self) -> np.ndarray:
        """One coordinate row per element, in mixed radix with the first
        coordinate most significant; the only enumeration of the group."""
        if self.order > MAX_ENUMERATION:
            raise AbelianDomainError("group beyond enumeration cap")
        return np.indices(self.factor_orders).reshape(self.rank, self.order).T

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        d = np.array(self.factor_orders, dtype=np.int64)
        return d, self.order // np.cumprod(d)

    def index_of(self, rows) -> np.ndarray:
        """Table index of each coordinate row (last axis), read mod the
        factor orders."""
        d, places = self._radix
        return np.asarray(rows, dtype=np.int64) % d @ places

    @cached_property
    def element_orders(self) -> np.ndarray:
        d, _ = self._radix
        return np.lcm.reduce(d // np.gcd(self.table, d), axis=1, initial=1)

    def primes(self) -> list[int]:
        return prime_factors(self.order) if self.factor_orders else []

    def literal(self) -> str:
        if not self.factor_orders:
            return "C1"
        return "x".join(f"C{d}" for d in self.factor_orders)

    def __repr__(self):
        return f"AbelianGroup({self.literal()})"


def parse_abelian_literal(text: str) -> AbelianGroup:
    """Parse `C8xC8`, `C4xC2xC2` (case-insensitive)."""
    parts = text.strip().lower().split("x")
    orders = []
    for part in parts:
        part = part.strip()
        if not part.startswith("c") or not part[1:].isdecimal():
            raise AbelianDomainError(f"bad abelian literal component {part!r}")
        try:
            d = int(part[1:])
        except ValueError:  # more digits than int() converts
            raise AbelianDomainError(f"abelian factor {part!r} is too large") from None
        if d == 1:
            continue
        orders.append(d)
    return AbelianGroup(tuple(orders))


@dataclass(frozen=True)
class AbElement:
    group: AbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other: "AbElement") -> "AbElement":
        self._check(other)
        return self.group.element(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        self._check(other)
        return self.group.element(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "AbElement":
        return self.group.element(-a for a in self.coords)

    def __rmul__(self, k: int) -> "AbElement":
        return self.group.element(k * a for a in self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other: "AbElement"):
        if other.group != self.group:
            raise AbelianDomainError("elements of different groups")

    def __repr__(self):
        return f"AbElement{self.coords}"


def abelian_type(orders: list[int]) -> tuple[int, ...]:
    """Cyclic factor orders, by prime and then descending, of the finite
    abelian group whose element orders are `orders` (one per element).

    |Omega_i| = #elements of order dividing p^i; the p-logs of the
    successive quotients form the conjugate of the type partition."""
    orders = np.asarray(orders)
    n = len(orders)
    parts = []
    for p in prime_factors(n):
        logs = []
        prev = 1
        q = p
        while prev < p ** p_valuation(n, p):
            cur = int(np.count_nonzero(q % orders == 0))
            logs.append(p_valuation(cur // prev, p))
            prev = cur
            q *= p
        r = logs[0] if logs else 0
        parts.extend(p ** sum(1 for m in logs if m > j) for j in range(r))
    return tuple(parts)


@dataclass(frozen=True)
class AbHom:
    """Homomorphism given by the images of the source generators."""

    source: AbelianGroup
    target: AbelianGroup
    images: tuple[AbElement, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source.factor_orders):
            raise AbelianDomainError("need one image per source generator")
        for d, img in zip(self.source.factor_orders, self.images):
            if img.group != self.target:
                raise AbelianDomainError("image in the wrong group")
            if not (d * img).is_zero():
                raise AbelianDomainError("images do not define a homomorphism")

    @staticmethod
    def identity(A: AbelianGroup) -> "AbHom":
        return AbHom(A, A, tuple(A.generators()))

    @staticmethod
    def from_matrix(A: AbelianGroup, rows) -> "AbHom":
        """Endomorphism of A from an integer matrix, one row per generator."""
        return AbHom(A, A, tuple(A.element(row) for row in rows))

    @staticmethod
    def scalar(A: AbelianGroup, k: int) -> "AbHom":
        return AbHom(A, A, tuple(k * g for g in A.generators()))

    def __call__(self, a: AbElement) -> AbElement:
        if a.group != self.source:
            raise AbelianDomainError("argument outside the source group")
        out = self.target.zero()
        for c, img in zip(a.coords, self.images):
            if c:
                out = out + c * img
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """Target coordinates of the source generators' images, a row each."""
        rows = [img.coords for img in self.images]
        return np.array(rows, dtype=np.int64).reshape(self.source.rank, self.target.rank)

    @cached_property
    def on_table(self) -> np.ndarray:
        """Target table index of the image of each source table element."""
        return self.target.index_of(self.source.table @ self.matrix)

    def compose(self, inner: "AbHom") -> "AbHom":
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise AbelianDomainError("composition mismatch")
        return AbHom(inner.source, self.target, tuple(self(img) for img in inner.images))

    def is_identity(self) -> bool:
        return self == AbHom.identity(self.source)

    def is_automorphism(self) -> bool:
        # an endomorphism of a finite group is onto when its kernel is trivial
        return self.source == self.target and np.count_nonzero(self.on_table == 0) == 1

    def multiplicative_order(self) -> int:
        if not self.is_automorphism():
            raise AbelianDomainError("order is defined for automorphisms only")
        power = self
        k = 1
        ident = AbHom.identity(self.source)
        while power != ident:
            power = self.compose(power)
            k += 1
            if k > self.source.order:
                raise AssertionError("runaway order computation")
        return k

    def inverse(self) -> "AbHom":
        return self ** (self.multiplicative_order() - 1)

    def __pow__(self, k: int) -> "AbHom":
        if k < 0:
            return self.inverse() ** (-k)
        out = AbHom.identity(self.source)
        base = self
        while k:
            if k & 1:
                out = base.compose(out)
            base = base.compose(base)
            k >>= 1
        return out


@dataclass(frozen=True)
class DualCharacter:
    """A linear character of A, identified with an exponent vector of the
    (isomorphic) dual group."""

    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.group.factor_orders):
            raise AbelianDomainError("coordinate length mismatch")

    def value_exponent(self, a: AbElement) -> tuple[int, int]:
        """(L, k) with lambda(a) = zeta_L^k, L = exponent of the group."""
        if a.group != self.group:
            raise AbelianDomainError("argument outside the group")
        return self.group.exponent, int(pairing(self.group, [self.coords], [a.coords])[0, 0])

    def __call__(self, a: AbElement) -> Cyclo:
        L, k = self.value_exponent(a)
        return root_of_unity(max(L, 1), k)

    def acted_by(self, x: AbHom) -> "DualCharacter":
        """The dual action: (alpha^x)(a) = alpha(a^(x^-1))."""
        A = self.group
        d = np.array(A.factor_orders, dtype=np.int64)
        step = A.exponent // d
        t = pairing(A, [self.coords], x.inverse().matrix)[0]  # alpha(a_j^(x^-1))
        if np.any(t % step):
            raise AssertionError("dual action produced a non-character")
        return DualCharacter(A, tuple((t // step % d).tolist()))


def pairing(A: AbelianGroup, left, right) -> np.ndarray:
    """k with alpha(a) = zeta_L^k, L = exp A, for each left row against each
    right row.  Characters and elements are both coordinate rows, and the
    pairing is symmetric in them."""
    dtype = np.int64 if A.order <= MAX_ENUMERATION else object  # exact ints
    d = np.array(A.factor_orders, dtype=dtype)
    L = A.exponent
    return np.asarray(left, dtype=dtype) * (L // d) @ np.asarray(right, dtype=dtype).T % L


def all_characters(A: AbelianGroup):
    for row in A.table.tolist():
        yield DualCharacter(A, tuple(row))


class AbSubgroup:
    """Subgroup of an AbelianGroup: a boolean mask over its element table.

    Built from table indices, the subgroup they generate; `generators`
    keeps the ones the closure used, a read-only int64 index array with
    no member inside the span of those before it.  Each index must be an
    integer in range(|parent|)."""

    def __init__(self, parent: AbelianGroup, members):
        members = np.asarray(members)
        if members.size and (members.dtype.kind not in "iu" or members.min() < 0
                             or members.max() >= parent.order):
            raise AbelianDomainError("members must be table indices in range(order)")
        self.parent = parent
        self.mask, used = _close(parent, members.astype(np.int64, copy=False))
        self.generators = np.array(used, dtype=np.int64)
        self.generators.flags.writeable = False

    @staticmethod
    def from_elements(parent: AbelianGroup, elements) -> "AbSubgroup":
        """The subgroup generated by the AbElements `elements`."""
        elements = tuple(elements)
        if any(g.group != parent for g in elements):
            raise AbelianDomainError("generator not in the parent group")
        rows = np.array([g.coords for g in elements], dtype=np.int64)
        return AbSubgroup(parent, parent.index_of(rows.reshape(len(elements), parent.rank)))

    @staticmethod
    def trivial(parent: AbelianGroup) -> "AbSubgroup":
        return AbSubgroup(parent, ())

    @staticmethod
    def full(parent: AbelianGroup) -> "AbSubgroup":
        return AbSubgroup(parent, parent.index_of(np.eye(parent.rank, dtype=np.int64)))

    @property
    def order(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.parent == other.parent
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.parent, self.mask.tobytes()))

    def __le__(self, other: "AbSubgroup") -> bool:
        return self.parent == other.parent and not np.any(self.mask & ~other.mask)

    def exponent(self) -> int:
        # a finite abelian group has an element whose order is the exponent
        return int(self.parent.element_orders[self.mask].max())

    def squares(self) -> "AbSubgroup":
        """2H, the subgroup of squares written additively."""
        A = self.parent
        return AbSubgroup(A, A.index_of(2 * A.table[self.generators]))

    def isomorphism_type(self) -> AbelianGroup:
        """Abstract type from the element-order census (unique for finite
        abelian groups)."""
        return AbelianGroup(abelian_type(self.parent.element_orders[self.mask]))

    def intersection(self, other: "AbSubgroup") -> "AbSubgroup":
        return AbSubgroup(self.parent, np.flatnonzero(self.mask & other.mask))

    def join(self, other: "AbSubgroup") -> "AbSubgroup":
        return AbSubgroup(self.parent, np.concatenate((self.generators, other.generators)))

    def image_under(self, f: AbHom) -> "AbSubgroup":
        if f.source != self.parent:
            raise AbelianDomainError("map outside the subgroup's group")
        return AbSubgroup(f.target, f.on_table[self.generators])

    def is_invariant_under(self, f: AbHom) -> bool:
        return self.image_under(f) <= self

    def __repr__(self):
        return f"AbSubgroup(order={self.order} of {self.parent.literal()})"


def _close(A: AbelianGroup, candidates: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Mask of the subgroup the table elements `candidates` generate, by
    coset extension, and the candidates it used: the first candidate g
    outside the closure H so far adds the cosets H + g, ..., H + (k-1) g,
    k the least with k g in H; a candidate already inside adds nothing."""
    table = A.table
    d, places = A._radix
    mask = np.zeros(len(table), dtype=bool)
    mask[0] = True
    members = table[:1]  # coordinate rows of H, zero first
    used = []
    while (candidates := candidates[~mask[candidates]]).size:
        g = int(candidates[0])
        used.append(g)
        steps = np.arange(A.element_orders[g] + 1)[:, None] * table[g] % d
        k = int(mask[steps[1:] @ places].argmax()) + 1  # k g in H, k <= order of g
        members = ((steps[:k, None] + members) % d).reshape(-1, len(d))
        mask[members @ places] = True
    return mask, used


# -- operations ----------------------------------------------------------


def perp(B: AbSubgroup) -> AbSubgroup:
    """Annihilator of B <= A inside the dual group, which is (noncanonically)
    A itself with the same factors: the characters trivial on B."""
    A = B.parent
    return AbSubgroup(A, np.flatnonzero(~pairing(A, A.table, A.table[B.generators]).any(axis=1)))


def perp_dual(V: AbSubgroup) -> AbSubgroup:
    """Joint kernel in A of a subgroup V <= A^ of characters.  The pairing
    is symmetric in our coordinates, so this is the same computation."""
    return perp(V)


def commutator_map(A: AbelianGroup, y: AbHom) -> tuple[AbSubgroup, AbSubgroup]:
    """gamma(a) = -a + a^y for an involution y; returns ([A,y], C_A(y))."""
    if y.source != A or y.target != A:
        raise AbelianDomainError("y must be an endomorphism of A")
    if not (y.compose(y)).is_identity() and not y.is_identity():
        raise AbelianDomainError("y must be an involution")
    gamma = commutator_hom(A, y)
    image = AbSubgroup(A, A.index_of(gamma.matrix))
    return image, AbSubgroup(A, np.flatnonzero(gamma.on_table == 0))


def commutator_hom(A: AbelianGroup, y: AbHom) -> AbHom:
    """a -> [a, y] = -a + a^y as an endomorphism of A."""
    return AbHom(A, A, tuple(y(g) - g for g in A.generators()))


def fixed_subgroup(A: AbelianGroup, maps) -> AbSubgroup:
    """Common fixed points of the given endomorphisms."""
    if any(f.source != A or f.target != A for f in maps):
        raise AbelianDomainError("maps must be endomorphisms of A")
    fixed = np.ones(len(A.table), dtype=bool)
    for f in maps:
        fixed &= f.on_table == np.arange(A.order)
    return AbSubgroup(A, np.flatnonzero(fixed))


def omega(A: AbelianGroup, i: int) -> AbSubgroup:
    """Omega_i(A) = elements of order dividing p^i of an abelian p-group."""
    if i < 0:
        raise AbelianDomainError("i must be nonnegative")
    primes = A.primes()
    if len(primes) > 1:
        raise AbelianDomainError("omega requires a p-group")
    if not primes or i == 0:
        return AbSubgroup.trivial(A)
    return AbSubgroup(A, np.flatnonzero(A.element_orders <= primes[0] ** i))


def generated_submodule(A: AbelianGroup, a: int, acting) -> AbSubgroup:
    """Smallest subgroup containing the table element a that is invariant
    under the given automorphisms of A: the span of the orbit of a."""
    for f in acting:
        if f.source != A or not f.is_automorphism():
            raise AbelianDomainError("acting maps must be automorphisms of A")
    orbit = np.zeros(len(A.table), dtype=bool)
    frontier = np.array([a], dtype=np.int64)
    while frontier.size:
        orbit[frontier] = True
        reached = np.zeros_like(orbit)
        for f in acting:
            reached[f.on_table[frontier]] = True
        frontier = np.flatnonzero(reached & ~orbit)
    return AbSubgroup(A, np.flatnonzero(orbit))


def embeds_in_C4_x_C2k(Z: AbSubgroup) -> bool:
    """Whether Z embeds into C_4 x (C_2)^k: exponent at most 4 and at most
    two squares."""
    if Z.order & (Z.order - 1):
        raise AbelianDomainError("embedding test requires a 2-group")
    return Z.exponent() <= 4 and Z.squares().order <= 2
