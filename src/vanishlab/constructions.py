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
from math import prod

import numpy as np

from .abelian_core import (
    AbelianGroup,
    AbHom,
    AbSubgroup,
    commutator_hom,
    generated_submodule,
)
from .group_engine import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupDomainError,
    GroupSizeError,
    alternating_7,
    builtin_h,
    cycles_of,
    enumerate_permutations,
    from_permutations,
    primary_part,
    semidirect_from_matrices,
    subgroup_center,
)


# the default order cap of the verification corpus
CORPUS_MAX_ORDER = 2000


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


@dataclass(frozen=True)
class CorpusDraw:
    """A drawn corpus member, not yet built: `replay(provenance)` builds it."""
    provenance: str


# -- assembly helpers -----------------------------------------------------


def _c6_actions(G: FiniteGroup) -> tuple[AbHom, AbHom]:
    """x and y of a C_6 = <g> complement: conjugation by g^2 and by g^3.
    Conjugation by (0, h) acts on the abelian factor as action(h^-1)."""
    spec = G.semidirect_spec
    law = spec.H.compiled
    return tuple(spec.action[law.inv[law.power(law.gens[0], k)]] for k in (2, 3))


def _block_semidirect(blocks, h_name: str, name: str) -> FiniteGroup:
    """A x| builtin_h(h_name) for A the direct sum of the (orders, matrix)
    blocks, acted on by the block-diagonal matrix through H's one generator.
    |A| is checked against the size cap before the matrix is built: under
    the cap, A has at most 13 factors."""
    orders = [q for ords, _ in blocks for q in ords]
    if prod(orders) > MAX_GROUP_ORDER:
        raise GroupSizeError("semidirect product exceeds the size cap")
    M = [[0] * len(orders) for _ in orders]
    off = 0
    for ords, rows in blocks:
        for i, row in enumerate(rows):
            M[off + i][off:off + len(row)] = row
        off += len(ords)
    return semidirect_from_matrices(AbelianGroup.of(*orders), builtin_h(h_name), [M], name)


def metacyclic_2generator(n: int, t: int, s: int, name: str) -> FiniteGroup:
    """<a, b | a^n = 1, b^2 = a^s, a^b = a^t> on elements (i, d) = a^i b^d,
    number d n + i."""
    elems = [(i, d) for d in (0, 1) for i in range(n)]
    i = np.arange(n)
    right = [np.concatenate([(i + 1) % n, n + (i + t) % n]),
             np.concatenate([n + i, (i + s) % n])]
    return FiniteGroup(
        elems, None, None, (0, 0), generators=[(1, 0), (0, 1)], name=name, right=right
    )


def heisenberg_3() -> FiniteGroup:
    """The order-27 extraspecial group of exponent 3, on elements (a, b, c),
    number 9a + 3b + c, with (a, b, c)(a', b', c') = (a + a', b + b',
    c + c' + a b')."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    a, b, c = np.indices((3, 3, 3)).reshape(3, 27)
    right = [9 * ((a + 1) % 3) + 3 * b + c, 9 * a + 3 * ((b + 1) % 3) + (c + a) % 3]
    return FiniteGroup(
        elems, None, None, (0, 0, 0),
        generators=[(1, 0, 0), (0, 1, 0)], name="3^(1+2)", right=right,
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
    x, y = _c6_actions(G)
    gamma = commutator_hom(A, y)
    firsts = A.index_of(np.eye(A.rank, dtype=np.int64)[0:4 * k:4])  # a_0 of each block
    for a0 in firsts.tolist():
        C = AbSubgroup(A, [a0, x.on_table[a0]])
        if C.isomorphism_type().factor_orders != (2 ** n, 2 ** n):
            raise BuilderError("b4.2 block C is not homocyclic of exponent 2^n")
        D = C.image_under(gamma)
        if D.isomorphism_type().factor_orders != (4, 4):
            raise BuilderError("b4.2 block D = [C,y] is not (C_4)^2")


# -- family builders ------------------------------------------------------
# Each takes the parameters of its `_FAMILIES` row in order and returns the
# group, the parameter values its provenance shows and the expected verdict:
# (case, m) for a Below case, whose P is (m - 1)/m, or else the exact P of an
# AtOrAbove member (None where it is not stated).

SWAP = [[0, 1], [1, 0]]

_A_FAMILY = {
    # m -> variant -> (group name, presentation): factor orders, complement
    # and action matrices, or a degree and permutation generators
    2: {
        "c3": ("c3:C2", (3,), "C2", [[[-1]]]),
        "c5": ("c5:C2", (5,), "C2", [[[-1]]]),
        "c9": ("c9:C2", (9,), "C2", [[[-1]]]),
        "c3xc3": ("c3xc3:C2", (3, 3), "C2", [[[-1, 0], [0, -1]]]),
    },
    3: {
        "c7": ("c7:C3", (7,), "C3", [[[2]]]),
        "c13": ("c13:C3", (13,), "C3", [[[3]]]),
        "v4": ("v4:C3", (2, 2), "C3", [[[0, 1], [1, 1]]]),
    },
    4: {
        "c5": ("c5:C4", (5,), "C4", [[[2]]]),
        "c13": ("c13:C4", (13,), "C4", [[[5]]]),
        "c3xc3": ("c3xc3:C4", (3, 3), "C4", [[[0, 1], [-1, 0]]]),
        "s3xs3": ("S3xS3", 6, ["(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)"]),
    },
    5: {
        "c11": ("c11:C5", (11,), "C5", [[[3]]]),
        "c2^4": ("c2^4:C5", (2, 2, 2, 2), "C5",
                 [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]]),
        "c3^4": ("c3^4:C5", (3, 3, 3, 3), "C5",
                 [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]]),
    },
    6: {
        "c7": ("c7:C6", (7,), "C6", [[[3]]]),
        "c13": ("c13:C6", (13,), "C6", [[[4]]]),
        "s3xa4": ("S3xA4", 7, ["(1 2 3)", "(1 2)", "(4 5)(6 7)", "(5 6 7)"]),
        "c7^2:s3": ("C7^2:S3", (7, 7), "S3", [ROT, SWAP]),
    },
}


def _build_a(m: int, variant: str | None):
    """The variant defaults to the first of m's variants in sorted order."""
    if variant is None:
        variant = min(_A_FAMILY.get(m, ("",)))
    if m not in _A_FAMILY or variant not in _A_FAMILY[m]:
        raise BuilderError(f"unknown A-family member m={m} variant={variant!r}")
    name, *presentation = _A_FAMILY[m][variant]
    if len(presentation) == 2:
        G = from_permutations(*presentation, name=name)
    else:
        orders, h_name, mats = presentation
        G = semidirect_from_matrices(AbelianGroup.of(*orders), builtin_h(h_name), mats, name)
    # defining predicate: A-group with Fitting subgroup of index m
    for p in G.primes():
        if not G.sylow(p).is_abelian():
            raise BuilderError("A-family output has a nonabelian Sylow subgroup")
    if G.order != G.fitting.order * m:
        raise BuilderError("A-family output has the wrong Fitting index")
    return G, (m, variant), ("a", m)


_PGROUP_SHAPES = {
    # shape -> (constructor, [G : Z(G)]); each constructor calls its builder
    # by name, so a wrapper put on the module attribute sees the call
    "d8": (lambda: metacyclic_2generator(4, -1, 0, "D8"), 4),
    "q8": (lambda: metacyclic_2generator(4, -1, 2, "Q8"), 4),
    "d16": (lambda: metacyclic_2generator(8, -1, 0, "D16"), 8),
    "q16": (lambda: metacyclic_2generator(8, -1, 4, "Q16"), 8),
    "sd16": (lambda: metacyclic_2generator(8, 3, 0, "SD16"), 8),
    "m16": (lambda: metacyclic_2generator(8, 5, 0, "M16"), 4),
    "heis3": (lambda: heisenberg_3(), 9),
    "c4xc2": (lambda: _abelian_as_group(4, 2), 1),
}


def _abelian_as_group(*orders: int) -> FiniteGroup:
    A = AbelianGroup.of(*orders)
    eye = [[1 if i == j else 0 for j in range(A.rank)] for i in range(A.rank)]
    return semidirect_from_matrices(A, builtin_h("C1"), [eye], "x".join(f"C{d}" for d in orders))


def _build_pgroup(shape: str):
    """P(G) = 1 - 1/[G : Z(G)] for a p-group G: Below in case (a) when G is
    abelian and in case (b1) when the index is 4, else AtOrAbove."""
    if shape not in _PGROUP_SHAPES:
        raise BuilderError(f"unknown p-group shape {shape!r}")
    make, index = _PGROUP_SHAPES[shape]
    G = make()
    if len(G.primes()) != 1:
        raise BuilderError("p-group builder produced a mixed-order group")
    if G.order != G.center.order * index:
        raise BuilderError("p-group builder: unexpected center index")
    return G, (shape,), {1: ("a", 1), 4: ("b1", 4)}.get(index, Fraction(index - 1, index))


def _build_b1(shape: str):
    if shape == "d8xc3":
        A = AbelianGroup.of(4, 3)
        # C2 inverts the C4 part and fixes the C3 part
        G = semidirect_from_matrices(A, builtin_h("C2"), [[[-1, 0], [0, 1]]], "D8xC3")
    elif shape == "c4:c4":
        G = _c4_semi_c4()
    elif shape in ("d8", "q8", "m16"):
        G = _PGROUP_SHAPES[shape][0]()
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
    return G, (shape,), ("b1", 4)


def _c4_semi_c4() -> FiniteGroup:
    """C4 x| C4 with the generator acting by inversion, on elements (i, j),
    number 4i + j: (i, j)(1, 0) = (i + (-1)^j, j), (i, j)(0, 1) = (i, j + 1)."""
    elems = [(i, j) for i in range(4) for j in range(4)]
    i, j = np.indices((4, 4)).reshape(2, 16)
    right = [4 * ((i + 1 - 2 * (j % 2)) % 4) + j, 4 * i + (j + 1) % 4]
    return FiniteGroup(
        elems, None, None, (0, 0), generators=[(1, 0), (0, 1)], name="C4:C4", right=right
    )


_B2_VARIANTS = {
    # variant -> (factor orders of A, matrices of S3's generators, name,
    # expected verdict)
    "s4": ((2, 2), [[[0, 1], [1, 1]], SWAP], "S4", ("b2", 6)),
    "c4": ((4, 4), [ROT, SWAP], "C4^2:S3", ("b2", 6)),
    # two (C_4)^2 blocks rotated oppositely, y swapping them:
    # C_A(y) is the diagonal (C_4)^2, which has four squares
    "negative": ((4, 4, 4, 4), [
        [[0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, -1, -1], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    ], "C4^4:S3-diag", None),
}


def _build_b2(variant: str):
    if variant not in _B2_VARIANTS:
        raise BuilderError(f"unknown B2 variant {variant!r}")
    orders, mats, name, expected = _B2_VARIANTS[variant]
    G = semidirect_from_matrices(AbelianGroup.of(*orders), builtin_h("S3"), mats, name)
    return G, (variant,), expected


def _build_b41(k: int, c_part: int):
    if k < 1:
        raise BuilderError("B4_1 needs k >= 1")
    # every block has order at least 2: checked before the block list is formed
    if k > MAX_GROUP_ORDER.bit_length():
        raise GroupSizeError("semidirect product exceeds the size cap")
    X, Y = _b41_block_matrices()
    blocks = [((8, 8), _c6_action_matrix(X, Y))] * k
    if c_part:
        # C = (C_4)^2 rotated by x and inverted by y
        blocks.append(((4, 4), _c6_action_matrix(ROT, [[-1, 0], [0, -1]])))
    G = _block_semidirect(blocks, "C6", f"(C8^2)^{k}{'xC4^2' if c_part else ''}:C6")
    _verify_c6_identity_blocks(G, k, None)
    return G, (k, int(bool(c_part))), ("b4.1", 6)


def _build_b42(n: int, k: int, c_part: int):
    if n < 3:
        raise BuilderError("B4_2 needs n >= 3 (the module has exponent 2^n >= 8)")
    if k < 1:
        raise BuilderError("B4_2 needs k >= 1")
    # k blocks, each of order over 2^n: checked before 2^n is formed
    if max(n, k) > MAX_GROUP_ORDER.bit_length():
        raise GroupSizeError("semidirect product exceeds the size cap")
    X, Y = _b42_block_matrices(n)
    blocks = [((2 ** n, 2 ** n, 2, 2), _c6_action_matrix(X, Y))] * k
    if c_part:
        # C = (C_2)^2 rotated by x, centralized by y
        blocks.append(((2, 2), _c6_action_matrix([[0, 1], [1, 1]], [[1, 0], [0, 1]])))
    G = _block_semidirect(blocks, "C6", f"b42(n={n},k={k}{',C' if c_part else ''})")
    _verify_c6_identity_blocks(G, k, n)
    _verify_module_shapes(G, n, k)
    return G, (n, k, int(bool(c_part))), ("b4.2", 6)


def _verify_c6_identity_blocks(G: FiniteGroup, k: int, n: int | None):
    """Check the b4.x relation on every element of the B-part of A, the
    first k blocks, as coordinate rows through the maps' matrices."""
    A = G.semidirect_spec.A
    x, y = _c6_actions(G)
    width = 2 if n is None else 4
    a = A.table[~A.table[:, width * k:].any(axis=1)]
    X, Y = x.matrix, y.matrix
    if n is None:
        if (A.index_of(a + a @ Y) != A.index_of(4 * a @ X)).any():
            raise BuilderError("b4.1 relation a a^y = a^{4x} failed")
    elif (A.index_of(2 ** (n - 1) * a) != A.index_of((2 * a @ Y - 2 * a) @ X)).any():
        raise BuilderError("b4.2 relation a^{2^(n-1)} = [a^2,y]^x failed")


def _build_inversion_negative():
    A = AbelianGroup.of(8, 8)
    neg_rot = [[0, -1], [1, 1]]
    G = semidirect_from_matrices(A, builtin_h("C6"), [neg_rot], "C8^2:C6-inv")
    _, y = _c6_actions(G)
    if y != AbHom.scalar(A, -1):
        raise BuilderError("inversion builder: y does not invert A")
    return G, (), None


def _build_m5():
    comp2 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
    comp3 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]
    G = _block_semidirect([((2, 2, 2, 2), comp2), ((3, 3, 3, 3), comp3)], "C5", "M5")
    # hypotheses: U, V minimal normal and noncentral; |G/UV| = 5
    spec = G.semidirect_spec
    A, act = spec.A, spec.action[spec.H.compiled.gens[0]]
    # A = U x V with U = (C_2)^4 and V = (C_3)^4: the nonzero elements of
    # U are those of order 2, and of V those of order 3
    for p in (2, 3):
        for a in np.flatnonzero(A.element_orders == p).tolist():
            if generated_submodule(A, a, [act]).order != p ** 4:
                raise BuilderError("M5 factor is not an irreducible module")
    if G.order != A.order * 5:
        raise BuilderError("M5 complement index is not 5")
    return G, (), Fraction(133, 135)


# tag -> (its parameters with their defaults, in provenance order; builder).
# An int default makes the parameter's value an int.
_FAMILIES = {
    "A": ({"m": 2, "variant": None}, _build_a),
    "B1": ({"shape": "d8"}, _build_b1),
    "B2": ({"variant": "s4"}, _build_b2),
    "B4_1": ({"k": 1, "c_part": 0}, _build_b41),
    "B4_2": ({"n": 3, "k": 1, "c_part": 0}, _build_b42),
    "PGROUP": ({"shape": "d8"}, _build_pgroup),
    "M5": ({}, _build_m5),
    "A7": ({}, lambda: (alternating_7(), (), Fraction(1067, 1260))),
    "INVERSION_NEGATIVE": ({}, _build_inversion_negative),
}


# -- public entry points --------------------------------------------------


def build_case_family(tag: str, **params) -> CorpusEntry:
    """Build one member of the `_FAMILIES` row `tag`, with provenance
    `family:TAG k=v ...`.  A parameter the tag does not take is a
    BuilderError."""
    tag = tag.upper()
    if tag not in _FAMILIES:
        raise BuilderError(f"unknown family tag {tag!r}")
    defaults, build = _FAMILIES[tag]
    for key in params:
        if key not in defaults:
            raise BuilderError(f"family tag {tag} takes no parameter {key!r}")
    G, shown, expected = build(*(
        int(params.get(key, default)) if isinstance(default, int) else params.get(key, default)
        for key, default in defaults.items()
    ))
    provenance = " ".join([f"family:{tag}", *(f"{k}={v}" for k, v in zip(defaults, shown))])
    if isinstance(expected, tuple):
        case, m = expected
        return CorpusEntry(G, provenance, Fraction(m - 1, m), case, m)
    return CorpusEntry(G, provenance, expected, "AtOrAbove")


# Every deterministic family member as (provenance, order), in catalog
# order: `replay` builds a member from its provenance, and the listed order
# lets a draw or `catalog_entries` skip a member over its cap without
# building it (the tests check each against the built group).
_CATALOG = (
    [(f"family:A m={m} variant={v}", order) for m, v, order in (
        (2, "c3", 6), (2, "c3xc3", 18), (2, "c5", 10), (2, "c9", 18),
        (3, "c13", 39), (3, "c7", 21), (3, "v4", 12),
        (4, "c13", 52), (4, "c3xc3", 36), (4, "c5", 20), (4, "s3xs3", 36),
        (5, "c11", 55), (5, "c2^4", 80), (5, "c3^4", 405),
        (6, "c13", 78), (6, "c7", 42), (6, "c7^2:s3", 294), (6, "s3xa4", 72),
    )]
    + [(f"family:B1 shape={shape}", order) for shape, order in (
        ("d8", 8), ("q8", 8), ("m16", 16), ("c4:c4", 16), ("d8xc3", 24))]
    + [(f"family:B2 variant={v}", order) for v, order in (
        ("s4", 24), ("c4", 96), ("negative", 1536))]
    + [("family:B4_1 k=1 c_part=0", 384), ("family:B4_2 n=3 k=1 c_part=0", 1536)]
    + [(f"family:PGROUP shape={shape}", order) for shape, order in (
        ("c4xc2", 8), ("d16", 16), ("d8", 8), ("heis3", 27), ("m16", 16),
        ("q16", 16), ("q8", 8), ("sd16", 16))]
    + [("family:INVERSION_NEGATIVE", 384)]
)


def catalog_entries(max_order: int = CORPUS_MAX_ORDER) -> list[CorpusEntry]:
    """All deterministic family members whose order fits the cap, each
    built by replaying its provenance; a member over the cap is never
    built."""
    return [replay(provenance) for provenance, order in _CATALOG if order <= max_order]


def _random_perm_draw(rng: random.Random, max_order: int) -> CorpusDraw:
    """Two random permutations of a random degree 3..7, neither the
    identity, drawn again until the group they generate fits the cap.  The
    cap is checked by enumeration alone: no group is built."""
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
            enumerate_permutations(degree, gens, max_order)
        except GroupSizeError:  # over the cap: draw again
            continue
        return CorpusDraw(f"perm degree={degree} gens={';'.join(cyc)}")


def random_corpus(seed: int, count: int, max_order: int = CORPUS_MAX_ORDER) -> list[CorpusDraw]:
    """Deterministic mixed corpus: every named family member within the cap,
    padded up to `count` with random small permutation groups.  Drawing
    builds no group; `replay` builds each member from its provenance."""
    rng = random.Random(seed)
    draws = [CorpusDraw(provenance) for provenance, order in _CATALOG if order <= max_order]
    if len(draws) < count and max_order < 2:
        raise BuilderError("random groups need an order cap of at least 2")
    while len(draws) < count:
        draws.append(_random_perm_draw(rng, max_order))
    return draws[:count]


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
