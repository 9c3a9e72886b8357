"""Deterministic builders for the group families under study, plus a seeded
random corpus generator for property testing.

Every builder re-verifies the structural identities that define its family
after construction and raises BuilderError if they do not hold, so a corpus
entry can be trusted to be in-family by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .abelian_core import (
    AbelianGroup,
    AbHom,
    AbSubgroup,
    generated_submodule,
)
from .classifier import primary_part, subgroup_center
from .group_engine import (
    FiniteGroup,
    GroupDomainError,
    SemidirectSpec,
    action_from_generator_matrices,
    alternating_7,
    build_semidirect,
    builtin_h,
    cycles_of,
    from_permutations,
)


class BuilderError(GroupDomainError):
    """A builder's defining structural identity failed to verify."""


@dataclass
class CorpusEntry:
    group: FiniteGroup
    provenance: str
    expected_p: Fraction | None = None
    # one of "a", "b1", "b2", "b3", "b4.1", "b4.2", "AtOrAbove", or None
    expected_case: str | None = None
    expected_m: int | None = None


# -- assembly helpers -----------------------------------------------------


def _semidirect(A: AbelianGroup, h_name: str, matrices, name: str) -> FiniteGroup:
    H = builtin_h(h_name)
    if len(matrices) != len(H.generators):
        raise BuilderError("one action matrix per complement generator required")
    images = dict(zip(H.generators, matrices))
    action = action_from_generator_matrices(A, H, images)
    return build_semidirect(SemidirectSpec(A, H, action), name=name)


def _conj_on_A(G: FiniteGroup, h) -> AbHom:
    # conjugation by (0, h) acts on the abelian factor as action(h^-1)
    spec = G.semidirect_spec
    return spec.action[spec.H.compiled.law_inv(h)]


def _block_diagonal(blocks: list[tuple[tuple[int, ...], list[list[int]]]]):
    """Stack (orders, matrix) blocks into one abelian group plus matrix."""
    orders: list[int] = []
    offsets = []
    for ords, _ in blocks:
        offsets.append(len(orders))
        orders.extend(ords)
    n = len(orders)
    M = [[0] * n for _ in range(n)]
    for (ords, rows), off in zip(blocks, offsets):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                M[off + i][off + j] = v
    return AbelianGroup.of(*orders), M


def metacyclic_2generator(n: int, t: int, s: int, name: str) -> FiniteGroup:
    """<a, b | a^n = 1, b^2 = a^s, a^b = a^t> on elements (i, d) = a^i b^d."""
    elems = [(i, d) for d in (0, 1) for i in range(n)]

    def mul(x, y):
        (i, d), (j, e) = x, y
        return ((i + pow(t, d, n) * j + s * ((d + e) // 2)) % n, (d + e) % 2)

    def inv(x):
        i, d = x
        if d == 0:
            return ((-i) % n, 0)
        return ((-t * i - s) % n, 1)

    return FiniteGroup(
        elems, mul, inv, (0, 0), generators=[(1, 0), (0, 1)], name=name
    )


def heisenberg_3() -> FiniteGroup:
    """The order-27 extraspecial group of exponent 3."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(x, y):
        return (
            (x[0] + y[0]) % 3,
            (x[1] + y[1]) % 3,
            (x[2] + y[2] + x[0] * y[1]) % 3,
        )

    def inv(x):
        return ((-x[0]) % 3, (-x[1]) % 3, (-x[2] + x[0] * x[1]) % 3)

    return FiniteGroup(
        elems, mul, inv, (0, 0, 0),
        generators=[(1, 0, 0), (0, 1, 0)], name="3^(1+2)",
    )


# -- the C6-module action matrices ---------------------------------------

# order-3 fixed-point-free rotation on a rank-2 homocyclic block
ROT = [[0, 1], [-1, -1]]


def _b41_block_matrices() -> tuple[list[list[int]], list[list[int]]]:
    """Conjugation matrices (X, Y) on one (C_8)^2 block with a a^y = a^{4x}."""
    X = ROT
    Y = [[4 * X[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)]
    return X, Y


def _b42_block_matrices(n: int):
    """Conjugation matrices (X, Y) on one C_{2^n} x C_{2^n} x C_2 x C_2 block
    realizing a^{2^(n-1)} = [a^2, y]^x with C = <a0, a0^x> and D = [C, y]."""
    q = 2 ** (n - 2)
    X = [
        [0, 1, 0, 0],
        [-1, -1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
    ]
    # Y = 1 + G where G is the commutator map a |-> [a, y]
    if n == 3:
        g_f2 = [0, 4, 0, 0]
        g_f3 = [4, 4, 0, 0]
    else:
        g_f2 = [2 * q, 0, 0, 0]
        g_f3 = [0, 2 * q, 0, 0]
    G = [
        [-q, -q, 1, 1],
        [q, 0, 1, 0],
        g_f2,
        g_f3,
    ]
    Y = [[G[i][j] + (1 if i == j else 0) for j in range(4)] for i in range(4)]
    return X, Y


def _c6_action_matrix(X, Y):
    """Generator matrix for C_6 = <g> so that conjugation by g^2 is X and by
    g^3 is Y: action(g) = X o Y, whence action(g^-2) = X, action(g^3) = Y."""
    k = len(X)
    return [
        [sum(X[i][l] * Y[l][j] for l in range(k)) for j in range(k)]
        for i in range(k)
    ]


def _verify_module_shapes(G: FiniteGroup, n: int, k: int):
    """b4.2 shape check: each block has C ~ (C_{2^n})^2 and D = [C,y] ~ (C_4)^2."""
    A = G.semidirect_spec.A
    H = G.semidirect_spec.H
    g = H.generators[0]
    x = _conj_on_A(G, H.compiled.law_mul(g, g))
    y = _conj_on_A(G, H.compiled.law_mul(g, H.compiled.law_mul(g, g)))
    for block in range(k):
        a0 = A.generator(4 * block)
        C = AbSubgroup(A, (a0, x(a0)))
        if C.isomorphism_type().factor_orders != (2 ** n, 2 ** n):
            raise BuilderError("b4.2 block C is not homocyclic of exponent 2^n")
        D = AbSubgroup(A, tuple(y(c) - c for c in (a0, x(a0))))
        if D.isomorphism_type().factor_orders != (4, 4):
            raise BuilderError("b4.2 block D = [C,y] is not (C_4)^2")


# -- family builders ------------------------------------------------------


_A_FAMILY = {
    # m -> variant -> (factor orders, complement, action matrices)
    2: {
        "c3": ((3,), "C2", [[[-1]]]),
        "c5": ((5,), "C2", [[[-1]]]),
        "c9": ((9,), "C2", [[[-1]]]),
        "c3xc3": ((3, 3), "C2", [[[-1, 0], [0, -1]]]),
    },
    3: {
        "c7": ((7,), "C3", [[[2]]]),
        "c13": ((13,), "C3", [[[3]]]),
        "v4": ((2, 2), "C3", [[[0, 1], [1, 1]]]),
    },
    4: {
        "c5": ((5,), "C4", [[[2]]]),
        "c13": ((13,), "C4", [[[5]]]),
        "c3xc3": ((3, 3), "C4", [[[0, 1], [-1, 0]]]),
        "s3xs3": None,  # built as a permutation group below
    },
    5: {
        "c11": ((11,), "C5", [[[3]]]),
        "c2^4": ((2, 2, 2, 2), "C5",
                 [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]]),
        "c3^4": ((3, 3, 3, 3), "C5",
                 [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]]),
    },
    6: {
        "c7": ((7,), "C6", [[[3]]]),
        "c13": ((13,), "C6", [[[4]]]),
        "s3xa4": None,
        "c7^2:s3": None,
    },
}

_A_PERM_VARIANTS = {
    "s3xs3": (6, ["(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)"], "S3xS3"),
    "s3xa4": (7, ["(1 2 3)", "(1 2)", "(4 5)(6 7)", "(5 6 7)"], "S3xA4"),
}


def _build_a(m: int, variant: str) -> FiniteGroup:
    if m not in _A_FAMILY or variant not in _A_FAMILY[m]:
        raise BuilderError(f"unknown A-family member m={m} variant={variant!r}")
    if variant in _A_PERM_VARIANTS:
        degree, gens, name = _A_PERM_VARIANTS[variant]
        G = from_permutations(degree, gens, name=name)
    elif variant == "c7^2:s3":
        A = AbelianGroup.of(7, 7)
        G = _semidirect(A, "S3", [ROT, [[0, 1], [1, 0]]], "C7^2:S3")
    else:
        orders, h_name, mats = _A_FAMILY[m][variant]
        A = AbelianGroup.of(*orders)
        G = _semidirect(A, h_name, mats, f"{variant}:{h_name}")
    # defining predicate: A-group with Fitting subgroup of index m
    for p in G.primes():
        if not G.sylow(p).is_abelian():
            raise BuilderError("A-family output has a nonabelian Sylow subgroup")
    if G.order != G.fitting.order * m:
        raise BuilderError("A-family output has the wrong Fitting index")
    return G


_B1_SHAPES = ("d8", "q8", "m16", "c4:c4", "d8xc3")

_PGROUP_SHAPES = {
    # shape -> (constructor, [G : Z(G)])
    "d8": (lambda: metacyclic_2generator(4, -1, 0, "D8"), 4),
    "q8": (lambda: metacyclic_2generator(4, -1, 2, "Q8"), 4),
    "d16": (lambda: metacyclic_2generator(8, -1, 0, "D16"), 8),
    "q16": (lambda: metacyclic_2generator(8, -1, 4, "Q16"), 8),
    "sd16": (lambda: metacyclic_2generator(8, 3, 0, "SD16"), 8),
    "m16": (lambda: metacyclic_2generator(8, 5, 0, "M16"), 4),
    "heis3": (heisenberg_3, 9),
    "c4xc2": (lambda: _abelian_as_group(4, 2), 1),
}


def _abelian_as_group(*orders: int) -> FiniteGroup:
    A = AbelianGroup.of(*orders)
    eye = [[1 if i == j else 0 for j in range(A.rank)] for i in range(A.rank)]
    return _semidirect(A, "C1", [eye], "x".join(f"C{d}" for d in orders))


def _build_pgroup(shape: str) -> tuple[FiniteGroup, int]:
    if shape not in _PGROUP_SHAPES:
        raise BuilderError(f"unknown p-group shape {shape!r}")
    make, index = _PGROUP_SHAPES[shape]
    G = make()
    if len(G.primes()) != 1:
        raise BuilderError("p-group builder produced a mixed-order group")
    if G.order != G.center.order * index:
        raise BuilderError("p-group builder: unexpected center index")
    return G, index


def _build_b1(shape: str) -> FiniteGroup:
    if shape == "d8xc3":
        A = AbelianGroup.of(4, 3)
        # C2 inverts the C4 part and fixes the C3 part
        G = _semidirect(A, "C2", [[[-1, 0], [0, 1]]], "D8xC3")
    elif shape == "c4:c4":
        G = _c4_semi_c4()
    elif shape in ("d8", "q8", "m16"):
        G, _ = _build_pgroup(shape)
    else:
        raise BuilderError(f"unknown B1 shape {shape!r}")
    # defining predicate: Syl_2 nonabelian and Z(G) of index 4 with
    # O_2(Z(G)) = Z(Syl_2) -- all shapes here have A = Z(G)
    Q = G.sylow(2)
    if Q.is_abelian():
        raise BuilderError("B1 output has an abelian Sylow 2-subgroup")
    Z = G.center
    if G.order != 4 * Z.order:
        raise BuilderError("B1 output center does not have index 4")
    if primary_part(Z, 2) != subgroup_center(Q):
        raise BuilderError("B1 output: O_2(Z(G)) differs from Z(Q)")
    return G


def _c4_semi_c4() -> FiniteGroup:
    """C4 x| C4 with the generator acting by inversion."""
    elems = [(i, j) for i in range(4) for j in range(4)]

    def mul(x, y):
        sign = 1 if x[1] % 2 == 0 else -1
        return ((x[0] + sign * y[0]) % 4, (x[1] + y[1]) % 4)

    def inv(x):
        sign = 1 if x[1] % 2 == 0 else -1
        return ((-sign * x[0]) % 4, (-x[1]) % 4)

    return FiniteGroup(
        elems, mul, inv, (0, 0), generators=[(1, 0), (0, 1)], name="C4:C4"
    )


def _build_b2(variant: str) -> tuple[FiniteGroup, str | None]:
    swap = [[0, 1], [1, 0]]
    if variant == "s4":
        A = AbelianGroup.of(2, 2)
        G = _semidirect(A, "S3", [[[0, 1], [1, 1]], swap], "S4")
        return G, "b2"
    if variant == "c4":
        A = AbelianGroup.of(4, 4)
        G = _semidirect(A, "S3", [ROT, swap], "C4^2:S3")
        return G, "b2"
    if variant == "negative":
        # two (C_4)^2 blocks rotated oppositely, y swapping them:
        # C_A(y) is the diagonal (C_4)^2, which has four squares
        A = AbelianGroup.of(4, 4, 4, 4)
        r = [
            [0, 1, 0, 0],
            [-1, -1, 0, 0],
            [0, 0, -1, -1],
            [0, 0, 1, 0],
        ]
        t = [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
        G = _semidirect(A, "S3", [r, t], "C4^4:S3-diag")
        return G, None
    raise BuilderError(f"unknown B2 variant {variant!r}")


def _build_b41(k: int, c_part: bool) -> FiniteGroup:
    if k < 1:
        raise BuilderError("B4_1 needs k >= 1")
    X, Y = _b41_block_matrices()
    blocks = [((8, 8), _c6_action_matrix(X, Y))] * k
    if c_part:
        # C = (C_4)^2 rotated by x and inverted by y
        xc = ROT
        yc = [[-1, 0], [0, -1]]
        blocks = blocks + [((4, 4), _c6_action_matrix(xc, yc))]
    A, M = _block_diagonal(blocks)
    G = _semidirect(A, "C6", [M], f"(C8^2)^{k}{'xC4^2' if c_part else ''}:C6")
    _verify_c6_identity_blocks(G, k, None)
    return G


def _build_b42(n: int, k: int, c_part: bool) -> FiniteGroup:
    if n < 3:
        raise BuilderError("B4_2 needs n >= 3 (the module has exponent 2^n >= 8)")
    if k < 1:
        raise BuilderError("B4_2 needs k >= 1")
    X, Y = _b42_block_matrices(n)
    blocks = [((2 ** n, 2 ** n, 2, 2), _c6_action_matrix(X, Y))] * k
    if c_part:
        # C = (C_2)^2 rotated by x, centralized by y
        blocks = blocks + [((2, 2), _c6_action_matrix([[0, 1], [1, 1]],
                                                      [[1, 0], [0, 1]]))]
    A, M = _block_diagonal(blocks)
    G = _semidirect(A, "C6", [M], f"b42(n={n},k={k}{',C' if c_part else ''})")
    _verify_c6_identity_blocks(G, k, n)
    _verify_module_shapes(G, n, k)
    return G


def _verify_c6_identity_blocks(G: FiniteGroup, k: int, n: int | None):
    """Check the b4.x relation on every element of the 2-part of A."""
    A = G.semidirect_spec.A
    H = G.semidirect_spec.H
    g = H.generators[0]
    x = _conj_on_A(G, H.compiled.law_mul(g, g))
    y = _conj_on_A(G, H.compiled.law_mul(g, H.compiled.law_mul(g, g)))
    width = 2 if n is None else 4
    for a in A.elements():
        # the relation is asserted blockwise on the B-part only
        if any(a.coords[width * k:]):
            continue
        if n is None:
            if a + y(a) != x(4 * a):
                raise BuilderError("b4.1 relation a a^y = a^{4x} failed")
        else:
            if (2 ** (n - 1)) * a != x(y(2 * a) - 2 * a):
                raise BuilderError("b4.2 relation a^{2^(n-1)} = [a^2,y]^x failed")


def _build_inversion_negative() -> FiniteGroup:
    A = AbelianGroup.of(8, 8)
    neg_rot = [[0, -1], [1, 1]]
    G = _semidirect(A, "C6", [neg_rot], "C8^2:C6-inv")
    H = G.semidirect_spec.H
    g = H.generators[0]
    y = _conj_on_A(G, H.compiled.law_mul(g, H.compiled.law_mul(g, g)))
    if y != AbHom.scalar(A, -1):
        raise BuilderError("inversion builder: y does not invert A")
    return G


def _build_m5() -> FiniteGroup:
    comp2 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
    comp3 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]
    A, M = _block_diagonal([((2, 2, 2, 2), comp2), ((3, 3, 3, 3), comp3)])
    G = _semidirect(A, "C5", [M], "M5")
    # hypotheses: U, V minimal normal and noncentral; |G/UV| = 5
    spec = G.semidirect_spec
    act = spec.action[spec.H.generators[0]]
    for start, width, p in ((0, 4, 2), (4, 4, 3)):
        for a in A.elements():
            c = a.coords
            if not any(c[start:start + width]) or any(c[:start]) or any(c[start + width:]):
                continue
            sub = generated_submodule(a, [act])
            if sub.order != p ** width:
                raise BuilderError("M5 factor is not an irreducible module")
            if act(a) == a:
                raise BuilderError("M5 factor has a central element")
    if G.order != A.order * 5:
        raise BuilderError("M5 complement index is not 5")
    return G


# -- public entry points --------------------------------------------------


def build_case_family(tag: str, **params) -> CorpusEntry:
    """Build one named family member; see the module docstring for tags."""
    tag = tag.upper()
    if tag == "A":
        m = int(params.get("m", 2))
        variant = params.get("variant")
        if variant is None:
            variant = sorted(_A_FAMILY.get(m, {}))[0] if m in _A_FAMILY else ""
        G = _build_a(m, variant)
        return CorpusEntry(
            G, f"family:A m={m} variant={variant}",
            expected_p=Fraction(m - 1, m), expected_case="a", expected_m=m,
        )
    if tag == "B1":
        shape = params.get("shape", "d8")
        G = _build_b1(shape)
        return CorpusEntry(
            G, f"family:B1 shape={shape}",
            expected_p=Fraction(3, 4), expected_case="b1", expected_m=4,
        )
    if tag == "B2":
        variant = params.get("variant", "s4")
        G, case = _build_b2(variant)
        if case is None:
            return CorpusEntry(G, f"family:B2 variant={variant}",
                               expected_case="AtOrAbove")
        return CorpusEntry(
            G, f"family:B2 variant={variant}",
            expected_p=Fraction(5, 6), expected_case="b2", expected_m=6,
        )
    if tag == "B4_1":
        k = int(params.get("k", 1))
        c_part = bool(int(params.get("c_part", 0)))
        G = _build_b41(k, c_part)
        return CorpusEntry(
            G, f"family:B4_1 k={k} c_part={int(c_part)}",
            expected_p=Fraction(5, 6), expected_case="b4.1", expected_m=6,
        )
    if tag == "B4_2":
        n = int(params.get("n", 3))
        k = int(params.get("k", 1))
        c_part = bool(int(params.get("c_part", 0)))
        G = _build_b42(n, k, c_part)
        return CorpusEntry(
            G, f"family:B4_2 n={n} k={k} c_part={int(c_part)}",
            expected_p=Fraction(5, 6), expected_case="b4.2", expected_m=6,
        )
    if tag == "M5":
        G = _build_m5()
        return CorpusEntry(
            G, "family:M5", expected_p=Fraction(133, 135),
            expected_case="AtOrAbove",
        )
    if tag == "PGROUP":
        shape = params.get("shape", "d8")
        G, index = _build_pgroup(shape)
        p = Fraction(index - 1, index)
        case = None
        if p == 0:
            case, m = "a", 1
        elif p < Fraction(1067, 1260):
            case, m = "b1", 4
        else:
            case, m = "AtOrAbove", None
        return CorpusEntry(
            G, f"family:PGROUP shape={shape}", expected_p=p,
            expected_case=case, expected_m=m,
        )
    if tag == "A7":
        return CorpusEntry(
            alternating_7(), "family:A7",
            expected_p=Fraction(1067, 1260), expected_case="AtOrAbove",
        )
    if tag == "INVERSION_NEGATIVE":
        G = _build_inversion_negative()
        return CorpusEntry(G, "family:INVERSION_NEGATIVE",
                           expected_case="AtOrAbove")
    raise BuilderError(f"unknown family tag {tag!r}")


def catalog_entries(max_order: int = 2000) -> list[CorpusEntry]:
    """All deterministic family members whose order fits the cap."""
    calls: list[tuple[str, dict]] = []
    for m, variants in _A_FAMILY.items():
        for variant in sorted(variants):
            calls.append(("A", {"m": m, "variant": variant}))
    for shape in _B1_SHAPES:
        calls.append(("B1", {"shape": shape}))
    for variant in ("s4", "c4", "negative"):
        calls.append(("B2", {"variant": variant}))
    calls.append(("B4_1", {"k": 1}))
    calls.append(("B4_2", {"n": 3, "k": 1}))
    for shape in sorted(_PGROUP_SHAPES):
        calls.append(("PGROUP", {"shape": shape}))
    calls.append(("INVERSION_NEGATIVE", {}))
    out = []
    for tag, params in calls:
        entry = build_case_family(tag, **params)
        if entry.group.order <= max_order:
            out.append(entry)
    return out


def _random_perm_entry(rng: random.Random, index: int, max_order: int) -> CorpusEntry:
    while True:
        degree = rng.randint(3, 7)
        gens = []
        for _ in range(2):
            points = list(range(degree))
            rng.shuffle(points)
            gens.append(tuple(points))
        cyc = [cycles_of(g) for g in gens]
        if any(c == "()" for c in cyc):
            continue
        try:
            G = from_permutations(degree, cyc, name=f"perm{index}", max_order=max_order)
        except GroupDomainError:  # over the cap: draw again
            continue
        return CorpusEntry(G, f"perm degree={degree} gens={';'.join(cyc)}")


def random_corpus(seed: int, count: int, max_order: int = 2000) -> list[CorpusEntry]:
    """Deterministic mixed corpus: every named family member within the cap,
    padded up to `count` with random small permutation groups."""
    rng = random.Random(seed)
    entries = catalog_entries(max_order)
    index = 0
    while len(entries) < count:
        entries.append(_random_perm_entry(rng, index, max_order))
        index += 1
    return entries[:count]


def replay(provenance: str) -> CorpusEntry:
    """Rebuild a corpus entry from its provenance string."""
    head, _, rest = provenance.partition(" ")
    if head.startswith("family:"):
        tag = head[len("family:"):]
        params = {}
        for token in rest.split():
            key, _, value = token.partition("=")
            params[key] = value
        return build_case_family(tag, **params)
    if head == "perm":
        before, sep, gen_text = rest.partition("gens=")
        if not sep:
            raise BuilderError(f"unparseable provenance {provenance!r}")
        fields = dict(token.partition("=")[::2] for token in before.split())
        degree = int(fields["degree"])
        gens = gen_text.split(";")
        G = from_permutations(degree, gens, name="replay")
        return CorpusEntry(G, provenance)
    raise BuilderError(f"unparseable provenance {provenance!r}")
