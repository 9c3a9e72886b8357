"""Structural classification of groups in the low-proportion regime.

`classify_theorem_a` decides, from structure alone, whether a group's
vanishing proportion lies below the A_7 threshold 1067/1260, returning
the applicable case and its predicted proportion.  The sub-classifiers
work on an abelian 2-group module carrying commuting actions x (order 3,
fixed-point-free) and y (an involution).  `classify_a_group` refines the
A-group case into its quasi-Frobenius taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .abelian_core import (
    AbelianGroup,
    AbElement,
    AbHom,
    AbSubgroup,
    commutator_hom,
    embeds_in_C4_x_C2k,
    fixed_subgroup,
    generated_submodule,
)
from .character_lab import proportion
from .cyclotomic import p_valuation, prime_factors
from .group_engine import (
    FiniteGroup,
    GroupDomainError,
    SubgroupHandle,
    abelian_model,
    is_a_group,
    is_quasi_frobenius,
)

THRESHOLD = Fraction(1067, 1260)

ORACLE_CANDIDATE_LIMIT = 2000
B4_CANDIDATE_TRIES = 64


class SettingError(ValueError):
    """The sub-classifier's standing hypotheses do not hold."""


class CaseLabel(str, Enum):
    A = "a"
    B1 = "b1"
    B2 = "b2"
    B3 = "b3"
    B4_1 = "b4.1"
    B4_2 = "b4.2"


@dataclass
class Verdict:
    below: bool
    case: CaseLabel | None = None
    m: int | None = None
    predicted_p: Fraction | None = None
    witnesses: dict = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        if not self.below:
            return "AtOrAbove"
        return f"Below case={self.case.value} m={self.m} p={self.predicted_p}"


# -- small structural helpers --------------------------------------------


def primary_part(A: SubgroupHandle, p: int) -> SubgroupHandle:
    """O_p of an abelian (or nilpotent) subgroup: its p-elements."""
    G = A.parent
    members = frozenset(
        a for a in A.elements if set(prime_factors(G.element_order(a))) <= {p}
    )
    return SubgroupHandle(
        G, members, tuple(sorted(members, key=G.index.__getitem__))
    )


def commutator_subgroup(G: FiniteGroup, X: SubgroupHandle, Y: SubgroupHandle) -> SubgroupHandle:
    gens = {
        G.commutator(a, y)
        for a in X.elements
        for y in (Y.generators or Y.elements)
    }
    gens.discard(G.identity)
    return G.subgroup(sorted(gens, key=G.index.__getitem__))


def subgroup_center(Q: SubgroupHandle) -> SubgroupHandle:
    G = Q.parent
    gens = Q.generators or tuple(Q.elements)
    members = frozenset(
        q for q in Q.elements if all(G.mul(q, g) == G.mul(g, q) for g in gens)
    )
    return SubgroupHandle(
        G, members, tuple(sorted(members, key=G.index.__getitem__))
    )


def _direct_factors(W: AbelianGroup, B: AbSubgroup, C: AbSubgroup) -> bool:
    return B.intersection(C).order == 1 and B.order * C.order == W.order


# -- sub-classifier: the S_3 shape ---------------------------------------


def _check_module_setting(W: AbelianGroup, x: AbHom, y: AbHom, order6_cyclic: bool):
    if any(d & (d - 1) for d in W.factor_orders):
        raise SettingError("the module must be an abelian 2-group")
    if not x.is_automorphism() or not y.is_automorphism():
        raise SettingError("x and y must act as automorphisms")
    if x.multiplicative_order() != 3:
        raise SettingError("x must have order 3")
    if fixed_subgroup(W, [x]).order != 1:
        raise SettingError("x must act without nontrivial fixed points")
    if not y.compose(y).is_identity():
        raise SettingError("y must be an involution")
    if order6_cyclic and x.compose(y) != y.compose(x):
        raise SettingError("x and y must commute for the C_6 shape")


def check_s3_case(W: AbelianGroup, x: AbHom, y: AbHom) -> bool:
    """W = C x C^x with C = C_W(y), 1 < C embedding into C_4 x (C_2)^k."""
    _check_module_setting(W, x, y, order6_cyclic=False)
    C = fixed_subgroup(W, [y])
    if C.order <= 1:
        return False
    if not embeds_in_C4_x_C2k(C):
        return False
    Cx = C.image_under(x)
    return _direct_factors(W, C, Cx)


# -- sub-classifier: the C_6 shapes --------------------------------------


@dataclass
class C6Witness:
    case: CaseLabel
    b0_list: list[AbElement]
    B: AbSubgroup | None
    C: AbSubgroup | None
    x_used: AbHom | None = None


def _module_of(b: AbElement, x: AbHom, y: AbHom) -> AbSubgroup:
    return generated_submodule(b, [x, y])


def _shape_b41(W, b: AbElement, x: AbHom, y: AbHom) -> bool:
    M = _module_of(b, x, y)
    pair = AbSubgroup(W, (b, x(b)))
    if M != pair:
        return False
    if M.isomorphism_type().factor_orders != (8, 8):
        return False
    return b + y(b) == 4 * x(b)


def _shape_b42(W, b: AbElement, x: AbHom, y: AbHom) -> bool:
    n_order = b.order()
    if n_order < 8:
        return False
    n = n_order.bit_length() - 1  # order = 2^n, n >= 3
    E = AbSubgroup(W, (b, x(b)))
    if E.isomorphism_type().factor_orders != (n_order, n_order):
        return False
    gamma = commutator_hom(W, y)
    D = AbSubgroup(W, tuple(gamma(e) for e in E.generators))
    # [E, y] is generated by the generator commutators since gamma is a
    # homomorphism on the abelian module
    if D.isomorphism_type().factor_orders != (4, 4):
        return False
    M = _module_of(b, x, y)
    if M != E.join(D):
        return False
    return (2 ** (n - 1)) * b == x(gamma(2 * b))


def check_c6_case(W: AbelianGroup, x: AbHom, y: AbHom) -> C6Witness | None:
    """B3 when [W, y, y] = 1; otherwise search for the B x C decomposition
    of the (b4.1)/(b4.2) shapes.  Both generators x, x^2 are tried."""
    _check_module_setting(W, x, y, order6_cyclic=True)
    gamma = commutator_hom(W, y)
    image = AbSubgroup(W, tuple(gamma(g) for g in W.generators()))
    if all(gamma(v).is_zero() for v in image.generators):
        return C6Witness(CaseLabel.B3, [], None, None)

    exp_w = AbSubgroup.full(W).exponent()
    if exp_w < 8:
        return None
    candidates = [a for a in W.elements() if a.order() == exp_w]
    for x_used in (x, x ** 2):
        for shape, label in ((_shape_b41, CaseLabel.B4_1), (_shape_b42, CaseLabel.B4_2)):
            witness = _search_b4(W, x_used, y, candidates, shape, label)
            if witness is not None:
                witness.x_used = x_used
                return witness
    return None


def _search_b4(W, x, y, candidates, shape, label) -> C6Witness | None:
    gamma = commutator_hom(W, y)
    tried = 0
    for b0 in candidates:
        if tried >= B4_CANDIDATE_TRIES:
            break
        tried += 1
        if not shape(W, b0, x, y):
            continue
        B = _module_of(b0, x, y)
        b0_list = [b0]
        # absorb further copies of the same shape
        for b in candidates:
            M = _module_of(b, x, y)
            if M.intersection(B).order > 1:
                continue
            if not shape(W, b, x, y):
                continue
            B = B.join(M)
            b0_list.append(b)
        rank_b0 = len(_module_of(b0, x, y).isomorphism_type().factor_orders)
        # greedy G-invariant complement from low-order elements upward
        C = AbSubgroup.trivial(W)
        for c in sorted(W.elements(), key=lambda a: (a.order(), a.coords)):
            if c.order() >= b0.order():
                continue
            M = _module_of(c, x, y)
            grown = C.join(M)
            if grown.intersection(B).order == 1:
                C = grown
        if not (B.intersection(C).order == 1 and B.order * C.order == W.order):
            continue
        if not _complement_conditions(W, B, C, x, y, gamma, label, rank_b0, b0):
            continue
        return C6Witness(label, b0_list, B, C)
    return None


def _complement_conditions(W, B, C, x, y, gamma, label, rank_b0, b0) -> bool:
    if C.exponent() >= b0.order():
        return False  # exp(B) > exp(C)
    gammaC = AbSubgroup(W, tuple(gamma(c) for c in C.generators))
    if gammaC.exponent() > 2:
        return False  # exp([C, y]) <= 2
    if not all(gamma(gamma(c)).is_zero() for c in C.generators):
        return False  # [C, y, y] = 1
    for c in C.elements():
        if c.is_zero():
            continue
        rank_c = len(_module_of(c, x, y).isomorphism_type().factor_orders)
        if rank_c > rank_b0:
            return False
        if label is CaseLabel.B4_1:
            if rank_c != 2 or y(c) != -c:
                return False
    return True


# -- candidate abelian normal subgroups ----------------------------------


def _as_subgroup_handle(G: FiniteGroup, members: frozenset) -> SubgroupHandle | None:
    if G.identity not in members:
        return None
    for a in members:
        if G.inv(a) not in members:
            return None
        for b in members:
            if G.mul(a, b) not in members:
                return None
    return SubgroupHandle(
        G, members, tuple(sorted(members, key=G.index.__getitem__))
    )


def abelian_normal_candidates(G: FiniteGroup) -> list[SubgroupHandle]:
    """Candidate subgroups for the theorem's A: the builder-designated one
    when present, and the nonvanishing set when it forms a subgroup (the
    oracle route, used for orders within the table cap)."""
    out = []
    designated = getattr(G, "A_handle", None)
    if designated is not None:
        out.append(designated)
    if G.order <= ORACLE_CANDIDATE_LIMIT:
        handle = _as_subgroup_handle(G, proportion(G).nonvanishing)
        if handle is not None and all(handle != h for h in out):
            out.append(handle)
    return [
        h for h in out
        if h.is_abelian() and h.is_normal() and h.order < G.order
    ]


# -- the main classifier -------------------------------------------------


def check_b1(G: FiniteGroup) -> dict | None:
    """m = 4 with O_2(A) = Z(Q) for some abelian normal A of index 4."""
    Q = G.sylow(2)
    if Q.is_abelian():
        return None
    ZQ = subgroup_center(Q)
    for A in abelian_normal_candidates(G):
        if G.order != 4 * A.order:
            continue
        if primary_part(A, 2) == ZQ:
            return {"A": A, "Z(Q)": ZQ}
    return None


def _module_data(G: FiniteGroup, W: SubgroupHandle, x_elem, y_elem):
    model = abelian_model(W)
    return model, model.conjugation_hom(x_elem), model.conjugation_hom(y_elem)


def _check_b_m6(G: FiniteGroup, A: SubgroupHandle, Q: SubgroupHandle) -> Verdict | None:
    quotient = G.quotient(A)
    if quotient.order != 6:
        return None
    P = G.sylow(3)
    O2A = primary_part(A, 2)
    O3A = primary_part(A, 3)
    cent = G.centralizer_of_set(P.generators or P.elements)
    C_O2A_P = O2A.intersection(cent)
    if not (C_O2A_P.elements <= G.center.elements):
        return None
    W = commutator_subgroup(G, O2A, P)
    if W.order == 1:
        return None
    x_elem = next(
        (
            g
            for g in P.elements
            if g not in O3A.elements and G.element_order(g) % 3 == 0
        ),
        None,
    )
    y_elem = next((g for g in Q.elements if g not in A.elements), None)
    if x_elem is None or y_elem is None:
        return None
    # the action of x on W factors through P/O_3(A) = C_3, so no powering
    # is needed to normalize its order
    try:
        model, xh, yh = _module_data(G, W, x_elem, y_elem)
    except GroupDomainError:
        return None

    if quotient.is_abelian:  # G/A = C_6
        try:
            witness = check_c6_case(model.shape, xh, yh)
        except SettingError:
            return None
        if witness is None:
            return None
        return Verdict(
            True,
            witness.case,
            6,
            Fraction(5, 6),
            {"A": A, "W": W, "module": model, "c6": witness},
        )

    # G/A = S_3
    if A != G.fitting:
        return None
    try:
        ok = check_s3_case(model.shape, xh, yh)
    except SettingError:
        return None
    if not ok:
        return None
    C = fixed_subgroup(model.shape, [yh])
    return Verdict(
        True, CaseLabel.B2, 6, Fraction(5, 6),
        {"A": A, "W": W, "module": model, "C": C},
    )


def classify_theorem_a(G: FiniteGroup) -> Verdict:
    if is_a_group(G):
        F = G.fitting
        m = G.order // F.order
        if m <= 6:
            if m == 5:
                Z = G.center
                ratio = F.order // F.intersection(Z).order
                bad = {p for p in (2, 3) if ratio % p == 0}
                if len(bad) > 1:
                    return Verdict(False)
            return Verdict(
                True, CaseLabel.A, m, Fraction(m - 1, m), {"F": F}
            )
        return Verdict(False)

    Q = G.sylow(2)
    if Q.is_abelian():
        return Verdict(False)

    b1 = check_b1(G)
    if b1 is not None:
        return Verdict(True, CaseLabel.B1, 4, Fraction(3, 4), b1)

    for A in abelian_normal_candidates(G):
        if G.order != 6 * A.order:
            continue
        verdict = _check_b_m6(G, A, Q)
        if verdict is not None:
            return verdict
    return Verdict(False)


def verifying_b_cases(G: FiniteGroup) -> list[CaseLabel]:
    """All (b)-cases whose witnesses verify; the theorem's cases should be
    mutually exclusive, so more than one entry signals a bug."""
    found = []
    if check_b1(G) is not None:
        found.append(CaseLabel.B1)
    Q = G.sylow(2)
    if Q.is_abelian():
        return found
    for A in abelian_normal_candidates(G):
        if G.order != 6 * A.order:
            continue
        verdict = _check_b_m6(G, A, Q)
        if verdict is not None:
            found.append(verdict.case)
    return found


# -- the A-group taxonomy ------------------------------------------------


@dataclass
class AGroupCase:
    case: str  # "1" | "2" | "3" | "4.1" | "4.2"
    m: int
    witnesses: dict = field(default_factory=dict)


def _is_cyclic(G: FiniteGroup) -> bool:
    return any(G.element_order(g) == G.order for g in G.elements)


def hall_23(G: FiniteGroup) -> SubgroupHandle | None:
    """A Hall {2,3}-subgroup, as <S_2, S_3^g> for a suitable g (the corpus
    is solvable at this point, so one exists)."""
    target = 2 ** p_valuation(G.order, 2) * 3 ** p_valuation(G.order, 3)
    S2 = G.sylow(2)
    S3 = G.sylow(3)
    if S2.order * S3.order == target:
        gens = tuple(S2.generators) + tuple(S3.generators)
        H = G.subgroup(gens)
        if H.order == target:
            return H
    for g in G.elements:
        gens = tuple(S2.generators) + tuple(
            G.conj(s, g) for s in S3.generators
        )
        H = G.subgroup(gens)
        if H.order == target:
            return H
    return None


def _quasi_frobenius_with_cyclic_quotient(G: FiniteGroup, m: int) -> bool:
    F = G.fitting
    if G.order != m * F.order:
        return False
    if not _is_cyclic(G.quotient(F)):
        return False
    return is_quasi_frobenius(G).holds


def classify_a_group(G: FiniteGroup) -> AGroupCase:
    if not is_a_group(G):
        raise GroupDomainError("taxonomy requires an A-group")
    F = G.fitting
    m = G.order // F.order
    if not 1 < m <= 6:
        raise GroupDomainError("taxonomy requires 1 < [G:F(G)] <= 6")
    quotient = G.quotient(F)

    if _is_cyclic(quotient) and is_quasi_frobenius(G).holds:
        return AGroupCase("1", m, {"F": F})

    if m == 4 and quotient.is_abelian and G.sylow(2).is_abelian():
        return AGroupCase("2", m, {"F": F})

    if m == 6:
        H = hall_23(G)
        if H is None:
            raise GroupDomainError("no Hall {2,3}-subgroup found")
        K = frozenset(
            k
            for k in F.elements
            if G.element_order(k) % 2 and G.element_order(k) % 3
        )
        K = SubgroupHandle(
            G, K, tuple(sorted(K, key=G.index.__getitem__))
        )
        Hg = H.as_group()
        Hg.name = "Hall{2,3}"
        FH = Hg.fitting
        n = Hg.order // FH.order
        FH_in_G = SubgroupHandle(
            G, FH.elements, tuple(FH.generators)
        )
        if n in (2, 3):
            q = 6 // n
            if not _quasi_frobenius_with_cyclic_quotient(Hg, n):
                raise GroupDomainError("Hall subgroup fails its case-3 shape")
            T = K.join(FH_in_G).as_group()
            T.name = "T"
            FT = T.fitting
            if T.order != q * FT.order or not is_quasi_frobenius(T).holds:
                raise GroupDomainError("T = K F(H) fails its case-3 shape")
            return AGroupCase("3", m, {"K": K, "H": H, "n": n})
        if n == 6:
            hq = Hg.quotient(FH)
            if hq.is_abelian:
                return AGroupCase("4.1", m, {"K": K, "H": H})
            P = Hg.sylow(3)
            T = FH.join(P).as_group()
            T.name = "T"
            FT = T.fitting
            if (
                T.order == 3 * FT.order
                and FT.elements == FH.elements
                and is_quasi_frobenius(T).holds
            ):
                return AGroupCase("4.2", m, {"K": K, "H": H})
            raise GroupDomainError("P F(H) fails its case-4.2 shape")
    raise GroupDomainError("no taxonomy case matched")
