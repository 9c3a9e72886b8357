"""Exact arithmetic in rings of cyclotomic integers.

An element of Z[zeta_n] is stored as an integer vector in the power basis
1, x, ..., x^(phi(n)-1) modulo the n-th cyclotomic polynomial, so equality
and zero-testing are structural.  Binary operations between elements of
different orders lift both to the lcm lazily.

Every reduction to the power basis goes through one memoised table per
order n (`power_table`): row i holds x^i mod Phi_n, so a polynomial in
zeta_n reduces as sum_i c_i * row[i mod n] with no division.  Values are
immutable, which lets `root_of_unity` memoise its results and hand the same
`Cyclo` to every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

import numpy as np


def euler_phi(n: int) -> int:
    """n times the product of 1 - 1/p over the primes p dividing n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def p_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- dense integer polynomial helpers (constant term first) --------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial b; exact integer arithmetic."""
    assert b and b[-1] == 1, "divisor must be monic"
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    while len(_trim(rem)) - 1 >= db and rem:
        d = len(rem) - 1
        c = rem[-1]
        quot[d - db] = c
        for i in range(len(b)):
            rem[d - db + i] -= c * b[i]
        _trim(rem)
    return _trim(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod(num, den)
    assert not rem, "cyclotomic division must be exact"
    return tuple(quot)


@lru_cache(maxsize=64)
def power_table(n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(n), rows): row i lists the nonzero (j, c) of x^i mod Phi_n for
    0 <= i < n, built by x^(i+1) = x * x^i with x^phi = -(Phi_n - x^phi)."""
    tail = cyclotomic_polynomial(n)[:-1]
    row = [1] + [0] * (len(tail) - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * t for r, t in zip(row, tail)]
    return len(tail), tuple(rows)


@lru_cache(maxsize=64)
def reduction_matrix(n: int) -> np.ndarray:
    """Dense int64 view of `power_table(n)`: row i = coefficients of x^i mod
    Phi_n, so an exponent-count vector times this matrix is its power-basis
    coefficient vector in Z[zeta_n]."""
    phi, rows = power_table(n)
    i, j, c = np.array(
        [(i, j, c) for i, row in enumerate(rows) for j, c in row], dtype=np.int64
    ).T
    out = np.zeros((n, phi), dtype=np.int64)
    out[i, j] = c
    return out


def _reduce_mod_cyclotomic(coeffs, n: int) -> tuple[int, ...]:
    """Power-basis coefficients of sum_i coeffs[i] zeta_n^i, any exponents."""
    phi, rows = power_table(n)
    out = [0] * phi
    for i, c in enumerate(coeffs):
        if c:
            for j, r in rows[i % n]:
                out[j] += c * r
    return tuple(out)


def _at_conductor(n: int, coeffs) -> tuple[int, tuple[int, ...]]:
    """(f, coefficients in Z[zeta_f]) of sum coeffs[i] zeta_n^i, f the least
    divisor of n with the value in Z[zeta_f], descending one prime p at a
    time to m = n / p.  If p | m, the zeta_n^(j p) = zeta_m^j are basis
    vectors.  Otherwise zeta_n^i = zeta_m^(a i) zeta_p^(b i) writes the
    value as sum_j A_j zeta_p^j with A_j in Z[zeta_m]; as the zeta_p^j sum
    to 0, it lies in Z[zeta_m] when A_1 = ... = A_(p-1), as A_0 - A_(p-1)."""
    coeffs, pending = tuple(coeffs), prime_factors(n)
    while pending:
        p = pending.pop()
        m = n // p
        if m % p == 0:
            down = None if any(coeffs[i] for i in range(len(coeffs)) if i % p) else coeffs[::p]
        else:
            a, b = pow(p, -1, m), pow(m, -1, p)
            parts = [[0] * m for _ in range(p)]
            for i, c in enumerate(coeffs):
                parts[b * i % p][a * i % m] += c
            parts = [_reduce_mod_cyclotomic(part, m) for part in parts]
            same = all(part == parts[-1] for part in parts[1:])
            down = tuple(x - y for x, y in zip(parts[0], parts[-1])) if same else None
        if down is not None:
            coeffs, n, pending = down, m, prime_factors(m)
    return n, coeffs


class Cyclo:
    """An exact cyclotomic integer, canonically reduced.

    A Cyclo is never changed after construction: every operation returns a
    new value.  Memoised values (`root_of_unity`) are shared between callers
    and rely on this."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        # assumed already reduced; use the constructors below
        self.order = order
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Cyclo":
        return Cyclo(1, (k,) if k else ())

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, ())

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo(1, (1,))

    @staticmethod
    def from_poly(order: int, coeffs) -> "Cyclo":
        """Element sum_i coeffs[i] * zeta_order^i, reduced."""
        if order < 1:
            raise ValueError("order must be positive")
        red = _reduce_mod_cyclotomic(coeffs, order)
        if not any(red):
            return Cyclo.zero()
        return Cyclo(order, red)

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self == Cyclo.one()

    def lift(self, m: int) -> "Cyclo":
        """Rewrite in Z[zeta_m]; requires order | m."""
        n = self.order
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot lift order {n} to {m}")
        step = m // n
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] += c
        return Cyclo(m, _reduce_mod_cyclotomic(out, m))

    def _pair(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo", int]:
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m), m

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Cyclo.from_int(other)
        a, b, m = self._pair(other)
        ca, cb = list(a.coeffs), list(b.coeffs)
        ca += [0] * (len(cb) - len(ca))
        cb += [0] * (len(ca) - len(cb))
        return Cyclo(m, tuple(x + y for x, y in zip(ca, cb)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = Cyclo.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return Cyclo.from_int(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo(self.order, tuple(other * c for c in self.coeffs))
        a, b, m = self._pair(other)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return Cyclo(m, _reduce_mod_cyclotomic(prod, m))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = Cyclo.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "Cyclo":
        """Complex conjugation, zeta_n -> zeta_n^(-1)."""
        n = self.order
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                out[(-i) % n] += c
        return Cyclo(n, _reduce_mod_cyclotomic(out, n))

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = Cyclo.from_int(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b, _ = self._pair(other)
        ca, cb = list(a.coeffs), list(b.coeffs)
        ca += [0] * (len(cb) - len(ca))
        cb += [0] * (len(ca) - len(cb))
        return ca == cb

    def __hash__(self):
        # the value in Z[zeta_f], f its conductor, is the same for every
        # lift; rational integers hash like ints
        f, c = _at_conductor(self.order, self.coeffs)
        c = _trim(list(c))
        return hash(c[0] if c else 0) if f == 1 else hash((f, tuple(c)))

    # -- misc ------------------------------------------------------------

    def to_complex(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z**i for i, c in enumerate(self.coeffs))

    def multiplicative_order(self) -> int:
        """Order of self as a root of unity; raises if not one."""
        for m in range(1, 2 * self.order + 1):
            if self**m == Cyclo.one():
                return m
        raise ValueError(f"{self!r} is not a root of unity")

    def __repr__(self):
        return f"Cyclo({self.render()!r})"

    def render(self) -> str:
        """Textual form like `z8^3 - z8 + 2`."""
        if self.is_zero():
            return "0"
        parts = []
        sym = f"z{self.order}"
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else sym if i == 1 else f"{sym}^{i}"
            mag = abs(c)
            body = f"{mag}" if (i == 0 or mag != 1) else ""
            sep = "*" if body and term else ""
            chunk = f"{body}{sep}{term}" or "0"
            if not parts:
                parts.append(("-" if c < 0 else "") + chunk)
            else:
                parts.append((" - " if c < 0 else " + ") + chunk)
        return "".join(parts)


@lru_cache(maxsize=1024)
def root_of_unity(n: int, k: int) -> Cyclo:
    """zeta_n^k, stored at its exact multiplicative order n/gcd(n, k).

    Memoised: equal arguments return the same shared, immutable value."""
    if n < 1:
        raise ValueError("root_of_unity requires n >= 1")
    k %= n
    g = gcd(n, k)
    n, k = n // g, k // g
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    return Cyclo.from_poly(n, coeffs)


def vanishing_sum_possible(n_terms: int, m: int) -> bool:
    """Necessary condition for a vanishing sum of n_terms elements of U_m:
    n_terms must be a nonnegative integer combination of the primes of m."""
    if m < 1:
        raise ValueError("m must be positive")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    primes = prime_factors(m)
    if not primes:
        return False  # m = 1: only n copies of 1, never zero
    reachable = [False] * (n_terms + 1)
    reachable[0] = True
    for p in primes:
        for s in range(p, n_terms + 1):
            if reachable[s - p]:
                reachable[s] = True
    return reachable[n_terms]


# -- six-term sums of 2-power roots of unity -----------------------------


class SixSumVerdict(Enum):
    NONZERO_BY_PART1 = "nonzero-by-part1"
    ZERO_PART2_SHAPE = "zero-part2-shape"
    ZERO_PART3_SHAPE = "zero-part3-shape"
    NONZERO = "nonzero"
    ZERO = "zero"


@dataclass(frozen=True)
class SixSumResult:
    verdict: SixSumVerdict
    total: Cyclo
    delta: tuple[Cyclo, Cyclo, Cyclo]


class SixSumPreconditionError(ValueError):
    """The product constraints eps1*eps2*eps3 = eta1*eta2*eta3 = 1 fail."""


class LemmaViolationError(AssertionError):
    """An exact computation contradicts a proven statement; a bug."""


def _two_power_exponent(v: Cyclo, big: int) -> int:
    """Exponent k with v = zeta_big^k, for big a power of two.

    v is read at its own order m, a power of two dividing big: as
    Phi_m = x^(m/2) + 1, the value +-zeta_m^i (i < m/2) is the single
    coefficient +-1 at i, and zeta_m^i = zeta_big^(i big/m)."""
    if big & (big - 1) or big < 1:
        raise ValueError("ambient order must be a power of two")
    if big % v.order:
        raise ValueError(f"cannot lift order {v.order} to {big}")
    nz = [(i, c) for i, c in enumerate(v.coeffs) if c]
    if len(nz) != 1 or nz[0][1] not in (1, -1):
        raise ValueError(f"{v!r} is not in U_{big}")
    i, c = nz[0]
    k = i * (big // v.order)
    return k if c == 1 else (k + big // 2) % big


# Verdict codes of `six_sum_verdicts` index SIX_SUM_VERDICTS.
SIX_SUM_VERDICTS = tuple(SixSumVerdict)
_CODE = {verdict: code for code, verdict in enumerate(SIX_SUM_VERDICTS)}
# Codes of the rows that contradict part j, raised as _VIOLATIONS[-code - 1].
_VIOLATIONS = (
    "part 1 predicts a nonzero sum",
    "part 2 predicts the {zeta4, -zeta4} shape",
    "part 3 predicts delta in {±zeta4, -1}",
)


# Compare-exchanges (i, j) that sort three values, and that merge two
# sorted triples at 0-2 and 3-5 into six sorted values.
_SORT3 = ((0, 1), (1, 2), (0, 1))
_MERGE33 = ((0, 3), (1, 4), (1, 3), (2, 5), (2, 3), (3, 4))


def _sorting_network(values: list, pairs) -> list:
    """values (arrays of one shape) after the compare-exchange of each pair
    (i, j) in turn, which leaves their minimum at i and maximum at j."""
    for i, j in pairs:
        values[i], values[j] = np.minimum(values[i], values[j]), np.maximum(values[i], values[j])
    return values


@lru_cache(maxsize=32)
def _two_power_orders(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per exponent k < 2^n, read-only uint8: the order of zeta_(2^n)^k,
    capped at 8 (the six-sum rules tell no larger orders apart), and the bit
    1 << (4k / 2^n mod 4) that names zeta^k in U_4 (meaningful where that
    order is at most 4)."""
    big = 2**n
    k = np.arange(big)
    order = np.minimum(big // np.gcd(k, big), 8).astype(np.uint8)
    bit = (1 << (k * 4 // big % 4)).astype(np.uint8)
    order.flags.writeable = bit.flags.writeable = False
    return order, bit


def six_sum_verdicts(n: int, ae, be) -> np.ndarray:
    """Verdict codes (int8, indices into SIX_SUM_VERDICTS) of the sums
    eps1+eps2+eps3+eta1+eta2+eta3 with eps_i = zeta^ae[r, i] and
    eta_i = zeta^be[r, i], zeta = zeta_(2^n), one per row r of the
    (rows, 3) exponent arrays ae and be.

    Each row takes the first rule that applies: part 1 (every
    delta_i = eta_i / eps_i is +-1: the sum is nonzero), a nonzero sum,
    part 2 (every root in U_4: the eps and eta are 1 + zeta4 - zeta4 and
    1 - 1 - 1), part 3 (an eps of order >= 8 and every delta in U_4: the
    deltas are {zeta4, -1} or {-zeta4, -1}), else zero.
    Exponents are reduced mod 2^n in the smallest signed integer type that
    holds -2^n (int8 up to n = 7, int16 up to n = 15), and each root's order
    and U_4 bit are read from the per-n tables of `_two_power_orders`.
    Raises SixSumPreconditionError if a row breaks
    eps1*eps2*eps3 = eta1*eta2*eta3 = 1, and LemmaViolationError, for the
    first row that has one, if an exact result contradicts a part."""
    if n < 1:
        raise ValueError("n must be positive")
    big, mask = 2**n, 2**n - 1
    dtype = np.min_scalar_type(-big)
    x = np.asarray((ae, be))
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError("need (rows, 3) eps and eta exponent arrays")
    # (eps/eta, slot, rows); a wrapping cast keeps every exponent mod 2^n
    x = np.ascontiguousarray(x.transpose(0, 2, 1)).astype(dtype) & mask
    if (x.sum(axis=1, dtype=dtype) & mask).any():
        raise SixSumPreconditionError("product constraints violated")

    # The sum is zero exactly when its exponent counts, folded through
    # zeta^(2^(n-1)) = -1, vanish: when its six exponents, sorted, are three
    # below 2^(n-1) followed by those three plus 2^(n-1).
    a, b, c = _sorting_network(list(x.transpose(1, 0, 2)), _SORT3)  # both triples
    s = _sorting_network([a[0], b[0], c[0], a[1], b[1], c[1]], _MERGE33)
    half = big // 2
    zero = (s[3] - s[0] == half) & (s[4] - s[1] == half) & (s[5] - s[2] == half)

    v = np.concatenate([x, (x[1:] - x[:1]) & mask]).astype(np.intp)  # eps, eta, delta
    order, bit = _two_power_orders(n)
    top = order[v].max(axis=1)  # the largest order of each triple, capped at 8
    # The U_4 exponents of each triple as a bit mask (meaningful where every
    # order is <= 4).  The exponents of a triple sum to 0 mod 4, so its set
    # of exponents determines it.
    bits = np.bitwise_or.reduce(bit[v], axis=1)
    # part 2: one of eps, eta is {1, -1} (1 - 1 - 1), the other {1, zeta4, -zeta4}
    shape2 = (np.minimum(bits[0], bits[1]) == 0b0101) & (np.maximum(bits[0], bits[1]) == 0b1011)
    # part 3: the deltas are {zeta4, -1} or {-zeta4, -1}
    shape3 = (bits[2] == 0b0110) | (bits[2] == 0b1100)

    part1 = top[2] <= 2
    part2 = np.maximum(top[0], top[1]) <= 4
    part3 = (top[2] <= 4) & (top[0] >= 8)
    # the rules in reverse, so that each overrides the ones after it
    codes = np.where(part3, np.where(shape3, _CODE[SixSumVerdict.ZERO_PART3_SHAPE], -3),
                     _CODE[SixSumVerdict.ZERO])
    codes = np.where(part2, np.where(shape2, _CODE[SixSumVerdict.ZERO_PART2_SHAPE], -2),
                     codes)
    codes = np.where(zero, codes, _CODE[SixSumVerdict.NONZERO])
    codes = np.where(part1, np.where(zero, -1, _CODE[SixSumVerdict.NONZERO_BY_PART1]),
                     codes).astype(np.int8)
    bad = np.flatnonzero(codes < 0)
    if len(bad):
        raise LemmaViolationError(_VIOLATIONS[-codes[bad[0]] - 1])
    return codes


def six_sum_classifier(n: int, eps, eta) -> SixSumResult:
    """Classify Sigma = eps1+eps2+eps3+eta1+eta2+eta3 for roots in U_(2^n)
    subject to eps1*eps2*eps3 = eta1*eta2*eta3 = 1, through a one-row
    `six_sum_verdicts`.

    The shape tests are up to the permutation symmetry of the constraint;
    no index-ordering convention is imposed on the inputs.
    """
    if n < 1:
        raise ValueError("n must be positive")
    big = 2**n
    ae = [_two_power_exponent(v, big) for v in eps]
    be = [_two_power_exponent(v, big) for v in eta]
    if len(ae) != 3 or len(be) != 3:
        raise ValueError("need exactly three eps and three eta values")
    (code,) = six_sum_verdicts(n, [ae], [be])
    verdict = SIX_SUM_VERDICTS[code]
    counts = [0] * big
    for k in ae + be:
        counts[k] += 1
    total = Cyclo.from_poly(big, counts)
    assert total.is_zero() == verdict.value.startswith("zero")
    delta = tuple(root_of_unity(big, b - a) for a, b in zip(ae, be))
    return SixSumResult(verdict, total, delta)


def six_sum_inputs(n: int) -> np.ndarray:
    """The admissible exponent triples (a1, a2, a3) over U_(2^n), those with
    a1 + a2 + a3 = 0 mod 2^n, as a (4^n, 3) int16 array: every eps triple
    against every eta triple is the exhaustive input set of the six-sum
    lemma."""
    big = 2**n
    if big - 1 > np.iinfo(np.int16).max:
        raise ValueError("six-sum exponents exceed int16")
    a1, a2 = np.divmod(np.arange(big * big), big)
    return np.stack([a1, a2, (-a1 - a2) % big], axis=1).astype(np.int16)
