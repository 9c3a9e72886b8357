"""Structural classification of groups in the low-proportion regime.

`classify_theorem_a` decides, from structure alone, whether a group's
vanishing proportion lies below the A_7 threshold 1067/1260, returning
the applicable case and its predicted proportion.  The sub-classifiers
work on an abelian 2-group module carrying commuting actions x (order 3,
fixed-point-free) and y (an involution), on the module's table indices,
subgroup masks and the maps' `on_table` arrays.  `classify_a_group` refines
the A-group case into its quasi-Frobenius taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .abelian_core import (
    AbelianGroup,
    AbHom,
    AbSubgroup,
    commutator_hom,
    embeds_in_C4_x_C2k,
    fixed_subgroup,
    generated_submodule,
)
from .character_lab import proportion
from .cyclotomic import p_valuation
from .group_engine import (
    FiniteGroup,
    GroupDomainError,
    SubgroupHandle,
    abelian_model,
    commutator_subgroup,
    is_a_group,
    is_quasi_frobenius,
    primary_part,
    subgroup_center,
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
    witnesses: dict = field(default_factory=dict)

    @property
    def predicted_p(self) -> Fraction | None:
        """The paper's P(G) = (m - 1)/m of a Below verdict, None otherwise."""
        return Fraction(self.m - 1, self.m) if self.below else None

    @property
    def outcome(self) -> str:
        if not self.below:
            return "AtOrAbove"
        return f"Below case={self.case.value} m={self.m} p={self.predicted_p}"


def _direct_factors(W: AbelianGroup, B: AbSubgroup, C: AbSubgroup) -> bool:
    return np.count_nonzero(B.mask & C.mask) == 1 and B.order * C.order == W.order


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
    b0_list: list[tuple[int, ...]]  # coordinate rows
    B: AbSubgroup | None
    C: AbSubgroup | None
    x_used: AbHom | None = None

    def __repr__(self):
        # the deleted AbElement's spelling, pinned by GOLDEN_REPORTS in tests/test_cli.py
        b0 = ", ".join(f"AbElement{row}" for row in self.b0_list)
        return (f"C6Witness(case={self.case!r}, b0_list=[{b0}], B={self.B!r}, "
                f"C={self.C!r}, x_used={self.x_used!r})")


def _b42_span(W, b: int, M: AbSubgroup, x: AbHom, gamma: AbHom) -> bool:
    """Whether b, of order 2^n >= 8 and whose module is M, has E = <b, x(b)>
    of type (2^n, 2^n), D = [E, y] of type (4, 4) and M = E D, for gamma the
    commutator map of y: the part of the (b4.2) shape that x and x^2 share.
    As x is fixed-point-free of order 3, 1 + x + x^2 = 0 on W, so
    x^2(b) = -b - x(b) and <b, x^2(b)> = E."""
    n_order = int(W.element_orders[b])
    if n_order < 8:
        return False
    E = AbSubgroup(W, [b, x.on_table[b]])
    if E.isomorphism_type().factor_orders != (n_order, n_order):
        return False
    D = E.image_under(gamma)
    if D.isomorphism_type().factor_orders != (4, 4):
        return False
    return M == E.join(D)


def check_c6_case(W: AbelianGroup, x: AbHom, y: AbHom) -> C6Witness | None:
    """B3 when [W, y, y] = 1; otherwise search for the B x C decomposition
    of the (b4.1)/(b4.2) shapes, on W's table indices, subgroup masks and
    the maps' `on_table` arrays; the witness lists its candidates as
    coordinate rows.  Both generators x, x^2 are tried.  As x has order 3,
    x^2 and y generate what x and y do, so the four searches share one
    <x, y>-module per candidate, and the two (b4.2) searches one
    `_b42_span` per candidate."""
    _check_module_setting(W, x, y, order6_cyclic=True)
    gamma = commutator_hom(W, y)
    # [W, y, y] = 1 exactly when gamma o gamma = 0 (table index 0 is zero)
    if not gamma.on_table[gamma.on_table].any():
        return C6Witness(CaseLabel.B3, [], None, None)

    exp_w = W.exponent
    if exp_w < 8:
        return None
    candidates = np.flatnonzero(W.element_orders == exp_w)
    modules, spans = {}, {}

    def module(b: int) -> AbSubgroup:
        if b not in modules:
            modules[b] = generated_submodule(W, b, [x, y])
        return modules[b]

    def shape_b41(b: int, M: AbSubgroup, x_used: AbHom) -> bool:
        """Whether b, whose module is M, has the (b4.1) shape."""
        if M != AbSubgroup(W, [b, x_used.on_table[b]]):
            return False
        if M.isomorphism_type().factor_orders != (8, 8):
            return False
        a, ya, xa = W.table[[b, y.on_table[b], x_used.on_table[b]]]
        return W.index_of(a + ya) == W.index_of(4 * xa)  # a + y(a) = 4 x(a)

    def shape_b42(b: int, M: AbSubgroup, x_used: AbHom) -> bool:
        if b not in spans:
            spans[b] = _b42_span(W, b, M, x, gamma)
        n = int(W.element_orders[b]).bit_length() - 1  # order = 2^n, n >= 3
        a, twice = W.table[b], W.index_of(2 * W.table[b])
        # 2^(n-1) a = x(gamma(2a))
        return spans[b] and W.index_of(2 ** (n - 1) * a) == x_used.on_table[gamma.on_table[twice]]

    for x_used in (x, x ** 2):
        for shape, label in ((shape_b41, CaseLabel.B4_1), (shape_b42, CaseLabel.B4_2)):
            witness = _search_b4(W, x_used, y, gamma, candidates, module, shape, label)
            if witness is not None:
                witness.x_used = x_used
                return witness
    return None


def _search_b4(W, x, y, gamma, candidates, module, shape, label) -> C6Witness | None:
    """The first witness of the shape from the first B4_CANDIDATE_TRIES
    candidates, all table indices; module(b) is the <x, y>-module of a
    table element b, and shape(b, module(b), x) tests a candidate b."""
    orders = W.element_orders
    for b0 in candidates[:B4_CANDIDATE_TRIES].tolist():
        B = module(b0)
        if not shape(b0, B, x):
            continue
        rank_b0 = len(B.isomorphism_type().factor_orders)
        b0_list = [b0]
        # absorb further copies of the same shape
        for b in candidates.tolist():
            if B.mask[W.index_of(orders[b] // 2 * W.table[b])]:
                continue  # B meets <b>, so also the module of b
            M = module(b)
            if np.count_nonzero(M.mask & B.mask) == 1 and shape(b, M, x):
                B = B.join(M)
                b0_list.append(b)
        # greedy G-invariant complement from low-order elements upward
        C = AbSubgroup.trivial(W)
        for c in np.argsort(orders, kind="stable").tolist():
            if orders[c] >= orders[b0]:
                break
            grown = C.join(module(c))
            if np.count_nonzero(grown.mask & B.mask) == 1:
                C = grown
        if not _direct_factors(W, B, C):
            continue
        if not _complement_conditions(W, B, C, y, gamma, module, label, rank_b0, b0):
            continue
        return C6Witness(label, [tuple(W.table[b].tolist()) for b in b0_list], B, C)
    return None


def _complement_conditions(W, B, C, y, gamma, module, label, rank_b0, b0) -> bool:
    if C.exponent() >= W.element_orders[b0]:
        return False  # exp(B) > exp(C)
    members = np.flatnonzero(C.mask)
    commutators = gamma.on_table[members]  # [C, y] = gamma(C)
    if W.element_orders[commutators].max() > 2:
        return False  # exp([C, y]) <= 2
    if gamma.on_table[commutators].any():
        return False  # [C, y, y] = 1
    for c in members[1:].tolist():  # members[0] is zero
        rank_c = len(module(c).isomorphism_type().factor_orders)
        if rank_c > rank_b0:
            return False
        if label is CaseLabel.B4_1:
            if rank_c != 2 or y.on_table[c] != W.index_of(-W.table[c]):
                return False
    return True


# -- candidate abelian normal subgroups ----------------------------------


def abelian_normal_candidates(G: FiniteGroup) -> list[SubgroupHandle]:
    """Candidate subgroups for the theorem's A: the builder-designated one
    when present, and the nonvanishing set when it forms a subgroup (the
    oracle route, used for orders within the table cap)."""
    out = []
    designated = getattr(G, "A_handle", None)
    if designated is not None:
        out.append(designated)
    if G.order <= ORACLE_CANDIDATE_LIMIT:
        # a subgroup when it spans nothing more (the span holds the identity)
        idx = np.flatnonzero(~proportion(G).vanishing_mask)
        if G.compiled.span(idx)[0].sum() == len(idx):
            handle = G.compiled.handle(idx)
            if all(handle != h for h in out):
                out.append(handle)
    return [
        h for h in out
        if h.is_abelian and h.is_normal() and h.order < G.order
    ]


# -- the main classifier -------------------------------------------------


def check_b1(G: FiniteGroup, candidates: list[SubgroupHandle]) -> dict | None:
    """m = 4 with O_2(A) = Z(Q) for some A of index 4 among the abelian
    normal `candidates`; the Sylow 2-subgroup Q is built only when one
    has index 4."""
    index_4 = [A for A in candidates if G.order == 4 * A.order]
    if not index_4:
        return None
    Q = G.sylow(2)
    if Q.is_abelian:
        return None
    ZQ = subgroup_center(Q)
    for A in index_4:
        if primary_part(A, 2) == ZQ:
            return {"A": A, "Z(Q)": ZQ}
    return None


def _check_b_m6(G: FiniteGroup, A: SubgroupHandle) -> Verdict | None:
    """The m = 6 cases for an abelian normal A of index 6."""
    view = G.compiled
    P = G.sylow(3)
    O2A = primary_part(A, 2)
    O3A = primary_part(A, 3)
    # C_{O_2(A)}(P) <= Z(G)
    if (O2A.mask & view.centralizer_mask(P.basis) & ~G.center.mask).any():
        return None
    W = commutator_subgroup(G, O2A, P)
    if W.order == 1:
        return None
    # the first element of P outside O_3(A) of order divisible by 3, and
    # the first element of the Sylow 2-subgroup Q outside A
    xs = P.idx[~O3A.mask[P.idx] & (view.orders[P.idx] % 3 == 0)]
    Q = G.sylow(2)
    ys = Q.idx[~A.mask[Q.idx]]
    if not len(xs) or not len(ys):
        return None
    # the action of x on W factors through P/O_3(A) = C_3, so no powering
    # is needed to normalize its order
    try:
        model = abelian_model(W)
        xh, yh = model.conjugation_hom(int(xs[0])), model.conjugation_hom(int(ys[0]))
    except GroupDomainError:
        return None

    if A.mask[G.derived_subgroup.idx].all():  # G/A = C_6
        try:
            witness = check_c6_case(model.shape, xh, yh)
        except SettingError:
            return None
        if witness is None:
            return None
        return Verdict(True, witness.case, 6,
                       {"A": A, "W": W, "module": model, "c6": witness})

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
    return Verdict(True, CaseLabel.B2, 6, {"A": A, "W": W, "module": model, "C": C})


def _b_verdicts(G: FiniteGroup):
    """Every verifying (b) verdict of G, b1 first, then the m = 6 cases in
    candidate order.  Every case needs a non-abelian Sylow 2-subgroup Q;
    Q is built first only when the class sizes leave that open, and
    otherwise only for a candidate of index 4 or 6."""
    if not G.sylow_shown_nonabelian(2) and G.sylow(2).is_abelian:
        return
    candidates = abelian_normal_candidates(G)
    b1 = check_b1(G, candidates)
    if b1 is not None:
        yield Verdict(True, CaseLabel.B1, 4, b1)
    for A in candidates:
        if G.order == 6 * A.order:
            verdict = _check_b_m6(G, A)
            if verdict is not None:
                yield verdict


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
            return Verdict(True, CaseLabel.A, m, {"F": F})
        return Verdict(False)
    return next(_b_verdicts(G), Verdict(False))


def verifying_b_cases(G: FiniteGroup) -> list[CaseLabel]:
    """All (b)-cases whose witnesses verify; the theorem's cases should be
    mutually exclusive, so more than one entry signals a bug."""
    return [verdict.case for verdict in _b_verdicts(G)]


# -- the A-group taxonomy ------------------------------------------------


@dataclass
class AGroupCase:
    case: str  # "1" | "2" | "3" | "4.1" | "4.2"
    m: int
    witnesses: dict = field(default_factory=dict)


def _is_cyclic(G: FiniteGroup) -> bool:
    return bool((G.compiled.orders == G.order).any())


def hall_23(G: FiniteGroup) -> SubgroupHandle | None:
    """A Hall {2,3}-subgroup, as <S_2, S_3^g> for a suitable g (the corpus
    is solvable at this point, so one exists)."""
    target = 2 ** p_valuation(G.order, 2) * 3 ** p_valuation(G.order, 3)
    S2 = G.sylow(2)
    S3 = G.sylow(3)
    view = G.compiled
    conjugates = view.conjugates(S3.basis)  # S3's basis conjugated by each g
    for g in [view.identity, *range(G.order)]:
        H = view.subgroup([*S2.basis.tolist(), *conjugates[:, g].tolist()])
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

    if m == 4 and quotient.is_abelian and G.sylow(2).is_abelian:
        return AGroupCase("2", m, {"F": F})

    if m == 6:
        H = hall_23(G)
        if H is None:
            raise GroupDomainError("no Hall {2,3}-subgroup found")
        orders = G.compiled.orders[F.idx]
        K = G.compiled.handle(F.idx[(orders % 2 != 0) & (orders % 3 != 0)])
        Hg = H.as_group("Hall{2,3}")
        FH = Hg.fitting
        n = Hg.order // FH.order
        # Hg's element k is G's element H.idx[k]
        FH_in_G = SubgroupHandle(G.compiled, H.idx[FH.idx], H.idx[FH.basis])
        if n in (2, 3):
            q = 6 // n
            if not _quasi_frobenius_with_cyclic_quotient(Hg, n):
                raise GroupDomainError("Hall subgroup fails its case-3 shape")
            T = K.join(FH_in_G).as_group("T")
            FT = T.fitting
            if T.order != q * FT.order or not is_quasi_frobenius(T).holds:
                raise GroupDomainError("T = K F(H) fails its case-3 shape")
            return AGroupCase("3", m, {"K": K, "H": H, "n": n})
        if n == 6:
            hq = Hg.quotient(FH)
            if hq.is_abelian:
                return AGroupCase("4.1", m, {"K": K, "H": H})
            P = Hg.sylow(3)
            J = FH.join(P)
            T = J.as_group("T")
            FT = T.fitting
            if (
                T.order == 3 * FT.order
                and np.array_equal(J.idx[FT.idx], FH.idx)
                and is_quasi_frobenius(T).holds
            ):
                return AGroupCase("4.2", m, {"K": K, "H": H})
            raise GroupDomainError("P F(H) fails its case-4.2 shape")
    raise GroupDomainError("no taxonomy case matched")
