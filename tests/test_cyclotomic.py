"""Ring axioms, known identities and the six-term sum classifier."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishlab.cli import _sum_levels
from vanishlab.cyclotomic import (
    SIX_SUM_VERDICTS,
    Cyclo,
    LemmaViolationError,
    SixSumPreconditionError,
    SixSumVerdict,
    _MERGE33,
    _SORT3,
    _reduce_mod_cyclotomic,
    _sorting_network,
    _two_power_exponent,
    cyclotomic_polynomial,
    euler_phi,
    reduction_matrix,
    root_of_unity,
    six_sum_classifier,
    six_sum_inputs,
    six_sum_verdicts,
    vanishing_sum_possible,
)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24]


def small_cyclo(order: int, span: int = 3) -> st.SearchStrategy:
    coeff = st.integers(min_value=-span, max_value=span)
    return st.lists(coeff, min_size=1, max_size=euler_phi(order)).map(
        lambda cs: Cyclo.from_poly(order, cs)
    )


any_cyclo = st.sampled_from(ORDERS).flatmap(small_cyclo)


# -- cyclotomic polynomials ----------------------------------------------


def test_phi_polynomials_spot_checks():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", ORDERS)
def test_phi_degree_is_euler_phi(n):
    assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_product_of_cyclotomics_is_x_n_minus_1():
    # Phi_d over d | 12 must multiply back to x^12 - 1
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        phi = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                out[i + j] += a * b
        prod = out
    assert prod == [-1] + [0] * 11 + [1]


# -- reduction through the power table -----------------------------------


def reduce_by_long_division(coeffs, n):
    """Remainder of sum coeffs[i] x^i on division by Phi_n, length phi(n)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    terms = [(i, b) for i, b in enumerate(phi) if b]
    rem = list(coeffs)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, b in terms:
                rem[top - d + i] -= c * b
    return tuple(rem[:d] + [0] * (d - len(rem)))


@st.composite
def order_and_vector(draw):
    n = draw(st.integers(1, 420) | st.sampled_from([512, 630, 840, 930, 1024]))
    length = draw(st.integers(0, 3 * n))
    if length <= 64:
        return n, draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))
    entries = draw(st.dictionaries(st.integers(0, length - 1), st.integers(-9, 9),
                                   max_size=24))
    coeffs = [0] * length
    for i, c in entries.items():
        coeffs[i] = c
    return n, coeffs


@settings(max_examples=150, deadline=None)
@given(order_and_vector())
def test_power_table_reduction_matches_long_division(case):
    n, coeffs = case
    assert _reduce_mod_cyclotomic(coeffs, n) == reduce_by_long_division(coeffs, n)


def test_power_table_reduces_every_power():
    # x^i for 0 <= i < n is row i of the table; x^(i + n) wraps around to it
    for n in list(range(1, 421)) + [512, 630, 840, 930, 1024]:
        for i in list(range(n)) + [n, n + 1, 2 * n + n // 2, 3 * n - 1]:
            x_i = [0] * i + [1]
            assert _reduce_mod_cyclotomic(x_i, n) == reduce_by_long_division(x_i, n), (n, i)


@pytest.mark.parametrize("L", [1, 2, 12, 30, 84, 105, 930])
def test_reduction_matrix_rows_are_powers_of_zeta(L):
    M = reduction_matrix(L)
    assert M.shape == (L, euler_phi(L))
    for j in range(L):
        assert tuple(M[j].tolist()) == Cyclo.from_poly(L, [0] * j + [1]).coeffs


# -- ring axioms ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(any_cyclo, any_cyclo, any_cyclo)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Cyclo.zero() == a
    assert a * Cyclo.one() == a
    assert (a - a).is_zero()


@settings(max_examples=100, deadline=None)
@given(any_cyclo, any_cyclo)
def test_conjugation_is_a_ring_involution(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@settings(max_examples=100, deadline=None)
@given(any_cyclo)
def test_complex_embedding_tracks_exact_zero(a):
    z = a.to_complex()
    if a.is_zero():
        assert abs(z) < 1e-9
    else:
        # the norm of a nonzero algebraic integer is >= 1, which bounds the
        # embedding away from zero for these coefficient sizes
        assert abs(z) > 1e-10


# -- known identities ----------------------------------------------------


def test_cube_root_identity():
    z3 = root_of_unity(3, 1)
    assert (Cyclo.one() + z3 + z3 * z3).is_zero()


def test_quarter_root_conjugate_cancels():
    i = root_of_unity(4, 1)
    assert (i + i.conj()).is_zero()


def test_eighth_root_squares_to_quarter_root():
    z8 = root_of_unity(8, 1)
    assert z8 * z8 == root_of_unity(4, 1)


def test_equal_values_of_different_orders_hash_alike():
    a, b = Cyclo.from_poly(8, [0, 0, 1]), root_of_unity(4, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(Cyclo.from_poly(12, [2])) == hash(2)


@settings(max_examples=100, deadline=None)
@given(any_cyclo, st.integers(1, 6))
def test_hash_is_invariant_under_lifting(v, k):
    w = v.lift(k * v.order)
    assert w == v and hash(w) == hash(v)


def test_shared_roots_are_not_changed_by_arithmetic():
    roots = [root_of_unity(8, 3), root_of_unity(12, 5), root_of_unity(3, 1),
             root_of_unity(1, 0)]
    before = [(r.order, r.coeffs) for r in roots]
    for a in roots:
        -a, a * 3, 2 + a, 5 - a, a ** 3, a.conj(), a.lift(24 * a.order), hash(a)
    for a, b in itertools.product(roots, repeat=2):
        a + b, a - b, a * b, a == b, a == 1
    assert [(r.order, r.coeffs) for r in roots] == before
    assert root_of_unity(8, 3) == roots[0] and root_of_unity(8, 11) == roots[0]
    assert root_of_unity(12, 5) == roots[1] and root_of_unity(12, -7) == roots[1]


def test_sum_of_primitive_eighth_roots_vanishes():
    total = Cyclo.zero()
    for k in (1, 3, 5, 7):
        total = total + root_of_unity(8, k)
    assert total.is_zero()


def test_root_orders_are_exact():
    assert root_of_unity(8, 2).multiplicative_order() == 4
    assert root_of_unity(12, 8).multiplicative_order() == 3
    assert root_of_unity(5, 0) == Cyclo.one()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12])
def test_full_sum_of_nth_roots_vanishes(n):
    total = Cyclo.zero()
    for k in range(n):
        total = total + root_of_unity(n, k)
    assert total.is_zero()


# -- vanishing-sum feasibility -------------------------------------------


def brute_force_vanishing_sum_exists(n_terms: int, m: int) -> bool:
    roots = [root_of_unity(m, k) for k in range(m)]
    for combo in itertools.combinations_with_replacement(range(m), n_terms):
        total = Cyclo.zero()
        for k in combo:
            total = total + roots[k]
        if total.is_zero():
            return True
    return False


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_feasibility_matches_brute_force(m):
    # the prime-combination criterion is exact for these moduli
    for n_terms in range(1, 9):
        assert vanishing_sum_possible(n_terms, m) == brute_force_vanishing_sum_exists(
            n_terms, m
        ), (n_terms, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_vs_levels_match_brute_force(m):
    roots = [root_of_unity(m, k) for k in range(m)]
    for n_terms, level in enumerate(_sum_levels(m, 8), start=1):
        assert bool((level == 0).any()) == brute_force_vanishing_sum_exists(n_terms, m)
        assert len(set(level.tolist())) == len(level)
        if n_terms <= 3:
            sums = {sum(combo, Cyclo.zero()) for combo
                    in itertools.combinations_with_replacement(roots, n_terms)}
            assert len(level) == len(sums), n_terms


def test_vs_keys_are_bounded_below_int64():
    assert len(next(_sum_levels(9, 800))) == 9  # base 1601, 1601^6 < 2^64
    with pytest.raises(OverflowError):
        next(_sum_levels(9, 900))


def test_feasibility_examples():
    assert not vanishing_sum_possible(1, 6)
    assert vanishing_sum_possible(2, 6)
    assert vanishing_sum_possible(5, 6)
    assert not vanishing_sum_possible(1, 5)
    assert vanishing_sum_possible(5, 5)
    assert not vanishing_sum_possible(3, 4)


# -- six-term sums of 2-power roots --------------------------------------


def six_sum_pairs(n):
    """Every eps triple of `six_sum_inputs(n)` against every eta triple, as
    plain-int tuples: the exhaustive input set of the six-sum lemma."""
    triples = [tuple(t) for t in six_sum_inputs(n).tolist()]
    return itertools.product(triples, repeat=2)


def classify_exponents(n, ae, be):
    big = 2**n
    eps = [root_of_unity(big, a) for a in ae]
    eta = [root_of_unity(big, b) for b in be]
    return six_sum_classifier(n, eps, eta)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_six_sum_exhaustive(n):
    # every admissible tuple; any misprediction raises LemmaViolationError
    big = 2**n
    seen = set()
    for ae, be in six_sum_pairs(n):
        res = classify_exponents(n, ae, be)
        seen.add(res.verdict)
        total_zero = res.total.is_zero()
        if res.verdict in (
            SixSumVerdict.ZERO,
            SixSumVerdict.ZERO_PART2_SHAPE,
            SixSumVerdict.ZERO_PART3_SHAPE,
        ):
            assert total_zero
        else:
            assert not total_zero
        # cross-check against floating point
        approx = sum(root_of_unity(big, k).to_complex() for k in ae + be)
        assert (abs(approx) < 1e-7) == total_zero
    if n >= 3:
        assert SixSumVerdict.ZERO_PART3_SHAPE in seen


def test_six_sum_part1_all_real_signs():
    res = classify_exponents(3, (0, 4, 4), (0, 0, 0))
    assert res.verdict == SixSumVerdict.NONZERO_BY_PART1


def test_six_sum_part2_example():
    # 1 + i - i  and  1 - 1 - 1 sum to zero with the expected shape
    res = classify_exponents(2, (0, 1, 3), (0, 2, 2))
    assert res.verdict == SixSumVerdict.ZERO_PART2_SHAPE
    assert res.total.is_zero()


def test_six_sum_part3_delta_shape():
    # a zero sum with an eps of order 8 forces delta in {±zeta4, -1}
    found = False
    for ae, be in six_sum_pairs(3):
        if max(8 // math.gcd(8, k) for k in ae) < 8:
            continue
        res = classify_exponents(3, ae, be)
        if res.verdict == SixSumVerdict.ZERO_PART3_SHAPE:
            found = True
            orders = {d.multiplicative_order() for d in res.delta}
            assert orders <= {1, 2, 4}
    assert found


def test_six_sum_rejects_bad_products():
    from vanishlab.cyclotomic import SixSumPreconditionError

    with pytest.raises(SixSumPreconditionError):
        classify_exponents(2, (0, 0, 1), (0, 0, 0))


def test_six_sum_rejects_values_outside_ambient_group():
    with pytest.raises(ValueError):
        six_sum_classifier(
            2,
            [root_of_unity(3, 1)] * 3,
            [Cyclo.one()] * 3,
        )


@pytest.mark.parametrize("big", [2, 4, 8, 16, 64])
def test_two_power_exponent_reads_every_root_at_its_own_order(big):
    for m in (d for d in (1, 2, 4, 8, 16, 32, 64) if big % d == 0):
        for i in range(m):
            # zeta_m^i stored at order m (not reduced to its own order)
            v = Cyclo.from_poly(m, [0] * i + [1])
            assert root_of_unity(big, _two_power_exponent(v, big)) == v
            assert _two_power_exponent(v, big) == i * (big // m)
            w = Cyclo.from_poly(m, [0] * i + [-1])
            assert root_of_unity(big, _two_power_exponent(w, big)) == w


@pytest.mark.parametrize("v,big", [
    (root_of_unity(8, 1), 4),          # order does not divide big
    (root_of_unity(3, 1), 8),
    (Cyclo.zero(), 8),
    (Cyclo.from_int(2), 8),
    (Cyclo.from_poly(8, [1, 1]), 8),   # not a signed unit vector
    (Cyclo.from_poly(8, [0, 2]), 8),
    (Cyclo.one(), 6),                  # ambient order not a power of two
    (Cyclo.one(), 0),
])
def test_two_power_exponent_rejects_values_outside_u_big(v, big):
    with pytest.raises(ValueError):
        _two_power_exponent(v, big)


# -- the array classifier against the per-input rules --------------------


def per_input_verdict(n, ae, be):
    """The six-sum rules one input at a time, on exponents: the reference
    for `six_sum_verdicts`."""
    big = 2**n
    if sum(ae) % big or sum(be) % big:
        raise SixSumPreconditionError("product constraints violated")
    counts = [0] * big
    for k in ae + be:
        counts[k] += 1
    half = big // 2
    total_zero = not any(counts[i] - counts[i + half] for i in range(half))
    delta_exp = [(b - a) % big for a, b in zip(ae, be)]

    def order_of(k):
        return big // math.gcd(big, k)

    def as_u4(k):
        assert (k * 4) % big == 0
        return (k * 4 // big) % 4

    if all(order_of(d) <= 2 for d in delta_exp):
        if total_zero:
            raise LemmaViolationError("part 1 predicts a nonzero sum")
        return SixSumVerdict.NONZERO_BY_PART1
    if not total_zero:
        return SixSumVerdict.NONZERO
    if max(order_of(k) for k in ae + be) <= 4:
        te = tuple(sorted(as_u4(a) for a in ae))
        th = tuple(sorted(as_u4(b) for b in be))
        if {te, th} == {(0, 1, 3), (0, 2, 2)}:
            return SixSumVerdict.ZERO_PART2_SHAPE
        raise LemmaViolationError("part 2 predicts the {zeta4, -zeta4} shape")
    if all(order_of(d) <= 4 for d in delta_exp) and max(order_of(a) for a in ae) >= 8:
        if {as_u4(d) for d in delta_exp} in ({1, 2}, {3, 2}):
            return SixSumVerdict.ZERO_PART3_SHAPE
        raise LemmaViolationError("part 3 predicts delta in {±zeta4, -1}")
    return SixSumVerdict.ZERO


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_six_sum_verdicts_match_the_per_input_rules(n):
    pairs = list(six_sum_pairs(n))
    codes = six_sum_verdicts(n, [ae for ae, _ in pairs], [be for _, be in pairs])
    assert codes.dtype == np.int8
    assert [SIX_SUM_VERDICTS[c] for c in codes.tolist()] == \
        [per_input_verdict(n, ae, be) for ae, be in pairs]


def test_six_sum_sorting_network_sorts_every_zero_one_input():
    # a comparator network that sorts every 0-1 input sorts every input
    for bits in itertools.product((0, 1), repeat=6):
        values = [np.array([b]) for b in bits]
        values = _sorting_network(values[:3], _SORT3) + _sorting_network(values[3:], _SORT3)
        assert [int(v[0]) for v in _sorting_network(values, _MERGE33)] == sorted(bits)


def test_six_sum_verdicts_match_the_per_input_rules_on_a_sample_at_n5():
    # n = 5 is the first n with roots of order 32
    triples = six_sum_inputs(5)
    i, j = np.random.default_rng(2000).integers(len(triples), size=(2, 20_000))
    codes = six_sum_verdicts(5, triples[i], triples[j])
    expected = [per_input_verdict(5, ae, be) for ae, be
                in zip(triples[i].tolist(), triples[j].tolist())]
    assert [SIX_SUM_VERDICTS[c] for c in codes.tolist()] == expected
    assert set(expected) == set(SixSumVerdict)


def test_six_sum_verdicts_match_the_per_input_rules_at_n16():
    # exponents up to 2^16 - 1 do not fit int16: the int32 path
    big = 2**16
    scale = big // 8
    # the first n = 3 input of each verdict, lifted to U_(2^16)
    first = {}
    for ae, be in six_sum_pairs(3):
        first.setdefault(per_input_verdict(3, ae, be), (ae, be))
    assert len(first) == len(SixSumVerdict)
    rows = [([a * scale for a in ae], [b * scale for b in be]) for ae, be in first.values()]
    rows += [
        ([1, 2, big - 3], [0, 0, 0]),                    # order 2^16, nonzero
        ([40000, big - 40000, 0], [40000, 0, big - 40000]),  # a permutation: nonzero
        ([40000, 25536, 0], [-40000, -25536, 0]),        # negative exponents wrap
        ([0, big // 4, 3 * big // 4], [0, big // 2, big // 2]),  # part 2 shape
    ]
    codes = six_sum_verdicts(16, [ae for ae, _ in rows], [be for _, be in rows])
    assert [SIX_SUM_VERDICTS[c] for c in codes.tolist()] == \
        [per_input_verdict(16, [a % big for a in ae], [b % big for b in be])
         for ae, be in rows]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_six_sum_inputs_are_the_enumerated_triples(n):
    triples = six_sum_inputs(n)
    assert triples.dtype == np.int16 and triples.shape == (4**n, 3)
    rows = [tuple(t) for t in triples.tolist()]
    assert all(sum(t) % 2**n == 0 for t in rows)


def test_six_sum_verdicts_reject_a_batch_with_one_bad_product():
    triples = six_sum_inputs(3)
    be = triples.copy()
    be[17] = (0, 0, 1)
    with pytest.raises(SixSumPreconditionError):
        six_sum_verdicts(3, triples, be)
