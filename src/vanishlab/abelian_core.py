"""Finite abelian groups, their duals, annihilator calculus and module
structure under a finite group of automorphisms.

Elements are exponent vectors against a declared factor list, written
additively; the trivial subgroup is the zero element.  Subgroups carry a
fully enumerated closure (desk scale |A| <= 2^16).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm

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
        out = 1
        for d in self.factor_orders:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return reduce(lcm, self.factor_orders, 1)

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * len(self.factor_orders))

    def element(self, coords) -> "AbElement":
        coords = tuple(c % d for c, d in zip(coords, self.factor_orders))
        if len(coords) != len(self.factor_orders):
            raise AbelianDomainError("coordinate length mismatch")
        return AbElement(self, coords)

    def generator(self, i: int) -> "AbElement":
        coords = [0] * len(self.factor_orders)
        coords[i] = 1
        return AbElement(self, tuple(coords))

    def generators(self) -> list["AbElement"]:
        return [self.generator(i) for i in range(len(self.factor_orders))]

    def elements(self):
        for coords in itertools.product(*(range(d) for d in self.factor_orders)):
            yield AbElement(self, coords)

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

    def order(self) -> int:
        return reduce(
            lcm,
            (d // gcd(d, c) for c, d in zip(self.coords, self.group.factor_orders)),
            1,
        )

    def _check(self, other: "AbElement"):
        if other.group != self.group:
            raise AbelianDomainError("elements of different groups")

    def __repr__(self):
        return f"AbElement{self.coords}"


def canonical_decomposition(A: AbelianGroup) -> AbelianGroup:
    """Primary decomposition sorted by (prime, descending exponent); a
    normal form under isomorphism."""
    parts = [
        (p, p ** p_valuation(d, p))
        for d in A.factor_orders
        for p in prime_factors(d)
    ]
    parts.sort(key=lambda pq: (pq[0], -pq[1]))
    return AbelianGroup(tuple(q for _, q in parts))


def abelian_type(orders: list[int]) -> tuple[int, ...]:
    """Cyclic factor orders, by prime and then descending, of the finite
    abelian group whose element orders are `orders` (one per element).

    |Omega_i| = #elements of order dividing p^i; the p-logs of the
    successive quotients form the conjugate of the type partition."""
    n = len(orders)
    parts = []
    for p in prime_factors(n):
        logs = []
        prev = 1
        q = p
        while prev < p ** p_valuation(n, p):
            cur = sum(1 for o in orders if q % o == 0)
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

    def compose(self, inner: "AbHom") -> "AbHom":
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise AbelianDomainError("composition mismatch")
        return AbHom(inner.source, self.target, tuple(self(img) for img in inner.images))

    def __add__(self, other: "AbHom") -> "AbHom":
        return AbHom(
            self.source,
            self.target,
            tuple(a + b for a, b in zip(self.images, other.images)),
        )

    def is_identity(self) -> bool:
        return self == AbHom.identity(self.source)

    def is_automorphism(self) -> bool:
        return self._bijective_endomorphism

    @cached_property
    def _bijective_endomorphism(self) -> bool:
        # one pass over the source, kept on the instance: the map is frozen,
        # and == and hash read only the fields
        if self.source != self.target:
            return False
        seen = {self(a).coords for a in self.source.elements()}
        return len(seen) == self.source.order

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
        k = self.multiplicative_order()
        out = AbHom.identity(self.source)
        for _ in range(k - 1):
            out = self.compose(out)
        return out

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
        L = self.group.exponent
        k = 0
        for ci, ai, d in zip(self.coords, a.coords, self.group.factor_orders):
            k += (L // d) * ci * ai
        return L, k % L if L else (1, 0)

    def __call__(self, a: AbElement) -> Cyclo:
        L, k = self.value_exponent(a)
        return root_of_unity(max(L, 1), k)

    def acted_by(self, x: AbHom) -> "DualCharacter":
        """The dual action: (alpha^x)(a) = alpha(a^(x^-1))."""
        xinv = x.inverse()
        A = self.group
        L = max(A.exponent, 1)
        new = []
        for j, d in enumerate(A.factor_orders):
            _, t = self.value_exponent(xinv(A.generator(j)))
            step = L // d
            if t % step:
                raise AssertionError("dual action produced a non-character")
            new.append((t // step) % d)
        return DualCharacter(A, tuple(new))

    def kernel(self) -> "AbSubgroup":
        A = self.group
        members = [a for a in A.elements() if self.value_exponent(a)[1] == 0]
        return AbSubgroup.from_elements(A, members)

    def multiplicative_order(self) -> int:
        return reduce(
            lcm,
            (d // gcd(d, c) for c, d in zip(self.coords, self.group.factor_orders)),
            1,
        )


def dual_group(A: AbelianGroup) -> AbelianGroup:
    """The dual is (noncanonically) isomorphic to A with the same factors."""
    return A


def all_characters(A: AbelianGroup):
    for coords in itertools.product(*(range(d) for d in A.factor_orders)):
        yield DualCharacter(A, coords)


class AbSubgroup:
    """Subgroup of an AbelianGroup with a fully enumerated closure."""

    def __init__(self, parent: AbelianGroup, generators: tuple[AbElement, ...]):
        for g in generators:
            if g.group != parent:
                raise AbelianDomainError("generator not in the parent group")
        self.parent = parent
        self.generators = tuple(g for g in generators if not g.is_zero())
        self.closure = self._close()

    def _close(self) -> frozenset:
        """The subgroup, by coset extension: each generator g outside the
        closure so far adds the cosets H + g, H + 2g, ... until k g falls
        back into H; a generator already inside adds nothing."""
        if self.parent.order > MAX_ENUMERATION:
            raise AbelianDomainError("parent group beyond enumeration cap")
        orders = self.parent.factor_orders
        members = [self.parent.zero().coords]  # H, zero first
        seen = set(members)
        for g in self.generators:
            if g.coords in seen:
                continue
            coset = members
            while True:
                coset = [
                    tuple((a + b) % d for a, b, d in zip(c, g.coords, orders))
                    for c in coset
                ]
                if coset[0] in seen:  # coset[0] = k g
                    break
                seen.update(coset)
                members.extend(coset)
        return frozenset(seen)

    @staticmethod
    def from_elements(parent: AbelianGroup, elements) -> "AbSubgroup":
        return AbSubgroup(parent, tuple(elements))

    @staticmethod
    def trivial(parent: AbelianGroup) -> "AbSubgroup":
        return AbSubgroup(parent, ())

    @staticmethod
    def full(parent: AbelianGroup) -> "AbSubgroup":
        return AbSubgroup(parent, tuple(parent.generators()))

    @property
    def order(self) -> int:
        return len(self.closure)

    def __contains__(self, a: AbElement) -> bool:
        return a.group == self.parent and a.coords in self.closure

    def elements(self):
        for coords in sorted(self.closure):
            yield AbElement(self.parent, coords)

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.parent == other.parent
            and self.closure == other.closure
        )

    def __hash__(self):
        return hash((self.parent, self.closure))

    def __le__(self, other: "AbSubgroup") -> bool:
        return self.parent == other.parent and self.closure <= other.closure

    def exponent(self) -> int:
        return reduce(lcm, (a.order() for a in self.elements()), 1)

    def squares(self) -> frozenset:
        return frozenset((2 * a).coords for a in self.elements())

    def isomorphism_type(self) -> AbelianGroup:
        """Abstract type from the element-order census (unique for finite
        abelian groups)."""
        return AbelianGroup(abelian_type([a.order() for a in self.elements()]))

    def intersection(self, other: "AbSubgroup") -> "AbSubgroup":
        members = [
            AbElement(self.parent, c) for c in self.closure & other.closure
        ]
        return AbSubgroup.from_elements(self.parent, members)

    def join(self, other: "AbSubgroup") -> "AbSubgroup":
        return AbSubgroup(self.parent, self.generators + other.generators)

    def image_under(self, f: AbHom) -> "AbSubgroup":
        return AbSubgroup(f.target, tuple(f(g) for g in self.generators))

    def is_invariant_under(self, f: AbHom) -> bool:
        return all(f(AbElement(self.parent, c)) in self for c in self.closure)

    def __repr__(self):
        return f"AbSubgroup(order={self.order} of {self.parent.literal()})"


# -- operations ----------------------------------------------------------


def perp(B: AbSubgroup) -> AbSubgroup:
    """Annihilator of B <= A inside the dual group: characters trivial on B."""
    A = B.parent
    gens = B.generators if B.generators else ()
    members = []
    for alpha in all_characters(A):
        if all(alpha.value_exponent(g)[1] == 0 for g in gens):
            members.append(AbElement(A, alpha.coords))
    return AbSubgroup.from_elements(dual_group(A), members)


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
    image = AbSubgroup(A, tuple(gamma(g) for g in A.generators()))
    kernel = AbSubgroup.from_elements(
        A, [a for a in A.elements() if gamma(a).is_zero()]
    )
    return image, kernel


def commutator_hom(A: AbelianGroup, y: AbHom) -> AbHom:
    """a -> [a, y] = -a + a^y as an endomorphism of A."""
    return AbHom(A, A, tuple(y(g) - g for g in A.generators()))


def fixed_subgroup(A: AbelianGroup, maps) -> AbSubgroup:
    """Common fixed points of the given endomorphisms."""
    members = [
        a for a in A.elements() if all(f(a) == a for f in maps)
    ]
    return AbSubgroup.from_elements(A, members)


def omega(A: AbelianGroup, i: int) -> AbSubgroup:
    """Omega_i(A) = elements of order dividing p^i of an abelian p-group."""
    if i < 0:
        raise AbelianDomainError("i must be nonnegative")
    primes = A.primes()
    if len(primes) > 1:
        raise AbelianDomainError("omega requires a p-group")
    if not primes or i == 0:
        return AbSubgroup.trivial(A)
    p = primes[0]
    gens = []
    for j, d in enumerate(A.factor_orders):
        k = min(i, p_valuation(d, p))
        gens.append((d // p**k) * A.generator(j))
    return AbSubgroup(A, tuple(gens))


def generated_submodule(a: AbElement, acting) -> AbSubgroup:
    """Smallest subgroup containing a that is invariant under the given
    automorphisms."""
    A = a.group
    for f in acting:
        if not f.is_automorphism():
            raise AbelianDomainError("acting maps must be automorphisms")
    orbit = {a.coords}
    frontier = [a]
    while frontier:
        nxt = []
        for b in frontier:
            for f in acting:
                c = f(b)
                if c.coords not in orbit:
                    orbit.add(c.coords)
                    nxt.append(c)
        frontier = nxt
    return AbSubgroup(A, tuple(AbElement(A, c) for c in sorted(orbit)))


def embeds_in_C4_x_C2k(Z: AbSubgroup) -> bool:
    """Whether Z embeds into C_4 x (C_2)^k: exponent at most 4 and at most
    two squares."""
    for a in Z.elements():
        o = a.order()
        if o != 1 and prime_factors(o) != [2]:
            raise AbelianDomainError("embedding test requires a 2-group")
    return Z.exponent() <= 4 and len(Z.squares()) <= 2
