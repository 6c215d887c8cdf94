"""Formal binomial series attached to group-ring exponents.

For theta = sum n_c sigma_c^{-1} and a denominator prime q (q = p in the main
case), the series (1 + zeta T)^{theta/q} has coefficients a_m with
q^{E(m)} a_m integral, E(m) = m + v_q(m!).  Everything is computed through
the factorial-normalized integral coefficients b_m = q^m m! a_m.  The
logarithmic derivative of the product of the factors
(1 + zeta^{1/c} T)^{n_c/q} is a geometric series in T, so the b_m obey
J. C. P. Miller's recurrence for a power of a power series (Knuth, TAOCP
vol. 2, 4.7), with integer scalars and one coefficient D_k per k, however
large the support of theta.  It runs on plain integers: zeta -> 2^w maps
Z[X]/(X^p - 1) onto the residues modulo 2^{pw} - 1, where an element is one
residue and a product of two elements is one bigint product and a fold.
The slot width w is fixed by the table of (1 - T)^{-|theta|/q}, which bounds
every entry (see `normalized_coeffs`), so each coefficient is decoded once,
at the end.  The full series, with the conjugate factor divided out, is the
plain series of (1 - conj) theta.

The formal q-th power identity is checked on its own route, by
cross-multiplying with the linear-factor polynomials of the finite product;
no series is inverted.  With T = qU and the common denominator
D = q^{v_q(order!)}, the series has integral coefficients, so the identity
is checked on integers.  Each coefficient is a nonnegative vector over
1, zeta, ..., zeta^{p-1}, and each truncated series product is one bigint
product of the series packed into slots (Kronecker substitution).

Also here: semilocal evaluation, checked by the same q-th power identity at
the evaluated point T = y/x in Z_y[zeta], the double digit table feeding the
perturbation algorithm, and the ramified-case congruence sums.  Every
semilocal sum (a series at T = y/x, a reassembled digit table, a
linear-factor product at T) is one integer linear combination of coordinate
vectors, reduced once mod y^N (`semilocal.sl_combination`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import (
    CycloInt,
    congruent_mod_rational,
    inverse_uniformizer_numerator,
    max_conjugate_abs,
)
from .group_ring import GroupRingElement, weights
from .semilocal import SemilocalElement, sl_combination, y_digits


def factorial_valuation(m: int, q: int) -> int:
    """v_q(m!)."""
    v = 0
    qk = q
    while qk <= m:
        v += m // qk
        qk *= q
    return v


def denominator_exponent(m: int, q: int) -> int:
    """E(m) = m + v_q(m!)."""
    return m + factorial_valuation(m, q)


# -- normalized coefficient arithmetic -------------------------------------------------


def normalized_coeffs(theta: GroupRingElement, m_max: int, q: int) -> List[CycloInt]:
    """b_m for (1 + zeta T)^{theta/q}, any integer coefficients on theta.

    The series F = prod_c (1 + zeta^{1/c} T)^{n_c/q} has
    q F'/F = sum_{k >= 1} D_k T^{k-1}, D_k = (-1)^{k-1} sum_c n_c zeta^{k/c},
    and m a_m = (1/q) sum_k D_k a_{m-k} (Miller's recurrence) becomes
    b_m = sum_{k=1..m} q^{k-1} (m-1)!/(m-k)! D_k b_{m-k}: O(m_max^2) ring
    products with integer scalars, and no division.

    It runs in Z/N, N = 2^{pw} - 1, the image of Z[X]/(X^p - 1) under
    zeta -> 2^w: a vector over 1, zeta, ..., zeta^{p-1} is one residue, and
    a ring product is a bigint product reduced mod N.  The identity
    F' = F (F'/F) holds in Q[X]/(X^p - 1)[[T]], so the recurrence gives the
    same elements of Z[X]/(X^p - 1) as the product of the factor series.

    The slot width: the factor-by-factor convolution on absolute values
    gives the table of (1 - T)^{-|theta|/q}, |theta| = sum_c |n_c|, whose
    m-th entry is the rising factorial prod_{i<m} (|theta| + i q) of step q
    (Vandermonde).  It bounds the l1 norm of the vector behind b_m, which is
    the same element whichever route computes it, and does not decrease in m
    (theta = 0 leaves b_0 = 1 alone).  So w, two bits more than the bound at
    m_max, holds every entry with a balanced offset of 2^{w-1} per slot, and
    each b_m is decoded once, at the end, then projected onto zeta..zeta^{p-1}.
    """
    p = theta.p
    norm = sum(map(abs, theta.coeffs))
    w = max(1, math.prod(range(norm, norm + m_max * q, q))).bit_length() + 2
    mod = (1 << p * w) - 1
    support = [(pow(c, p - 2, p), n) for c, n in enumerate(theta.coeffs, 1) if n]

    d = [0]                        # d[k] = D_k as a residue
    for k in range(1, m_max + 1):
        dk = sum(n << k * c_inv % p * w for c_inv, n in support)
        d.append((dk if k % 2 else -dk) % mod)
    b = [1]
    for m in range(1, m_max + 1):
        acc, scalar = 0, 1         # scalar = q^{k-1} (m-1)!/(m-k)!
        for k in range(1, m + 1):
            acc += scalar * d[k] * b[m - k]
            scalar *= q * (m - k)
        b.append(acc % mod)
    mask = (1 << w) - 1
    offset = mod // mask << (w - 1)               # 2^{w-1} in every slot
    out = []
    for bm in b:
        x = (bm + offset) % mod
        slots = [(x >> (i * w) & mask) for i in range(p)]
        out.append(CycloInt(p, tuple(v - slots[0] for v in slots[1:])))
    return out


def _exact_divide_scalar(x: CycloInt, d: int) -> CycloInt:
    out = []
    for c in x.coords:
        if c % d != 0:
            raise ArithmeticError("integrality of normalized coefficients failed")
        out.append(c // d)
    return CycloInt(x.p, tuple(out))


@dataclass(frozen=True)
class SeriesTable:
    """Exact coefficient data for a binomial series.

    a_m = numerators[m] / q^{E(m)}; `full` means the conjugate factor has
    been divided out (exponent (1 - conj) theta / q), otherwise the exponent
    is theta/q alone.
    """

    p: int
    theta: GroupRingElement
    order: int
    q: int
    full: bool
    numerators: Tuple[CycloInt, ...]

    def galois(self, c: int) -> "SeriesTable":
        """Coefficientwise Galois action; equals the table of sigma_c theta."""
        return SeriesTable(self.p, self.theta.galois(c), self.order, self.q, self.full,
                           tuple(n.galois(c) for n in self.numerators))


def binom_coeffs(theta: GroupRingElement, order: int, full: bool = True,
                 den_prime: Optional[int] = None) -> SeriesTable:
    """Series table for theta up to T^order.

    full: coefficients of (1+zeta T)^{theta/q} * [(1+conj(zeta) T)^{theta/q}]^{-1},
    which is the plain series of (1 - conj) theta; plain: (1+zeta T)^{theta/q}.
    The stored numerators are q^{E(m)} a_m.  They are integral: b_m divided
    by the unit part of m! is exact, or ArithmeticError is raised.
    """
    p = theta.p
    q = den_prime if den_prime is not None else p
    b = normalized_coeffs(theta - theta.conjugate() if full else theta, order, q)
    nums = []
    for m, bm in enumerate(b):
        unit_part = math.factorial(m) // q ** factorial_valuation(m, q)
        nums.append(_exact_divide_scalar(bm, unit_part))
    return SeriesTable(p, theta, order, q, full, tuple(nums))


# -- the q-th power check on packed integers --------------------------------------------


def to_power_basis(coords: Sequence[int]) -> Tuple[int, ...]:
    """sum_c coords[c-1] zeta^c over 1, zeta, ..., zeta^{p-1}, shifted by its
    minimum; 1 + zeta + ... + zeta^{p-1} = 0, so every entry is >= 0 and one is 0."""
    low = min(0, min(coords))
    return (-low,) + tuple(c - low for c in coords)


def packed_product(a: Sequence[Tuple[int, ...]], b: Sequence[Tuple[int, ...]],
                   order: int) -> List[Tuple[int, ...]]:
    """sum_k a_k b_{m-k} for m <= order, on power-basis vectors of one p.

    Each series is one integer (Kronecker substitution): the zeta^i entry of
    its U^m coefficient sits in slot m(2p - 1) + i of w bytes, so one bigint
    product holds every zeta^{i+j} U^{m+n} term in its own slot.  A slot sums
    at most (order + 1) p products of nonnegative entries, which fixes w.
    Slots p..2p-2 of each coefficient fold onto 0..p-2 (zeta^p = 1), and the
    result is shifted to its minimum again.
    """
    p = len(a[0])
    stride = 2 * p - 1
    bits = (max(max(v) for v in a).bit_length() + max(max(v) for v in b).bit_length()
            + ((order + 1) * p).bit_length())
    w = (bits + 7) // 8
    gap = bytes(w * (p - 1))

    def pack(series):
        return int.from_bytes(b"".join(
            b"".join(c.to_bytes(w, "little") for c in v) + gap for v in series[:order + 1]),
            "little")

    x = pack(a)
    product = x * x if a is b else x * pack(b)
    raw = product.to_bytes(2 * (order + 1) * stride * w, "little")    # each factor fits in half
    out = []
    for m in range(order + 1):
        at = m * stride * w
        s = [int.from_bytes(raw[at + i * w:at + (i + 1) * w], "little") for i in range(stride)]
        r = [s[i] + s[i + p] for i in range(p - 1)] + [s[p - 1]]
        low = min(r)
        out.append(tuple(v - low for v in r))
    return out


def _linear_factor_product(p: int, exponents: Sequence[int], order: int) -> List[Tuple[int, ...]]:
    """prod_e (1 + zeta^e T) to T^order over 1, zeta, ..., zeta^{p-1}: each
    factor is a shift plus a rotation, and every entry stays >= 0."""
    poly = [(1,) + (0,) * (p - 1)] + [(0,) * p] * order
    for e in exponents:
        k = p - e % p
        for m in range(order, 0, -1):
            prev = poly[m - 1]
            poly[m] = tuple(map(operator.add, poly[m], prev[k:] + prev[:k]))
    return poly


def _factor_exponents(table: SeriesTable) -> Tuple[List[int], List[int]]:
    """The exponents e of the linear factors (1 + zeta^e T) of num and den,
    where (1+zeta T)^{theta} / (1+conj(zeta) T)^{theta} = num/den; a factor
    with n_c < 0 moves to the other side."""
    if not table.full:
        raise ValueError("the power identity applies to the full series")
    p = table.p
    num_exps: List[int] = []
    den_exps: List[int] = []
    for c in range(1, p):
        n = table.theta.coeff(c)
        e = pow(c, p - 2, p)
        if n < 0:
            e, n = -e, -n
        num_exps += [e] * n
        den_exps += [-e] * n
    return num_exps, den_exps


@dataclass(frozen=True)
class PowerCheckResult:
    ok: bool
    first_mismatch: Optional[int]


def pth_power_check(table: SeriesTable, order: Optional[int] = None) -> PowerCheckResult:
    """Formal identity: the full series to the q-th power equals the
    finite product (1+zeta T)^{theta} / (1+conj(zeta) T)^{theta}, to T^order.

    The product is num/den, two polynomials in linear factors (a factor with
    n_c < 0 moves to the other side).  den has constant term 1, so the
    identity holds exactly when (series)^q * den = num.  With T = qU and
    D = q^V, V = v_q(order!), the series times D has integral coefficients
    A_m = N_m q^{V - v_q(m!)}, and the check is A(U)^q den(qU) = D^q num(qU):
    coefficient m of both sides is multiplied by q^{m + qV}, so the lowest
    mismatching coefficient is the same.  Every product is a `packed_product`.
    """
    num_exps, den_exps = _factor_exponents(table)
    order = table.order if order is None else order
    if not 0 <= order <= table.order:
        raise ValueError(f"power check order {order} is outside 0..{table.order}, "
                         f"the table's order")
    p, q = table.p, table.q
    top = factorial_valuation(order, q)
    base = [to_power_basis([c * q ** (top - factorial_valuation(m, q)) for c in coeff.coords])
            for m, coeff in enumerate(table.numerators[:order + 1])]
    power = base
    for bit in bin(q)[3:]:       # square-and-multiply from the leading bit
        power = packed_product(power, power, order)
        if bit == "1":
            power = packed_product(power, base, order)
    den = [tuple(c * q ** m for c in v)
           for m, v in enumerate(_linear_factor_product(p, den_exps, order))]
    crossed = packed_product(power, den, order)
    num = _linear_factor_product(p, num_exps, order)
    for m in range(order + 1):
        scale = q ** (q * top + m)
        # two power-basis vectors are the same element when they differ by a constant
        if len({a - scale * b for a, b in zip(crossed[m], num[m])}) != 1:
            return PowerCheckResult(False, m)
    return PowerCheckResult(True, None)


# -- archimedean dominance bounds ------------------------------------------------------


def binomial_abs_bound(weight: int, q: int, m: int, doubled: bool) -> Fraction:
    """|binom(-2w/q, m)| (doubled) or |binom(-w/q, m)| as an exact rational."""
    top = Fraction(-(2 if doubled else 1) * weight, q)
    val = Fraction(1)
    for i in range(m):
        val *= top - i
    val /= math.factorial(m)
    return abs(val)


@dataclass(frozen=True)
class BoundCheck:
    m: int
    bound: Fraction
    holds: bool


def coeff_bound_check(table: SeriesTable, m: int) -> BoundCheck:
    """Dominance bound on |a_m| across all conjugates, from double-precision
    magnitudes with their error bound, compared exactly.

    The margin policy: the upper estimate val + err of the magnitude must not
    exceed bound * (1 + 2^-20); the factor 1 + 2^-50 covers the one rounding
    of val + err.
    """
    w = weights(table.theta).absolute
    bound = binomial_abs_bound(w, table.q, m, doubled=table.full)
    val, err = max_conjugate_abs(table.numerators[m])
    q_e = table.q ** denominator_exponent(m, table.q)
    holds = (Fraction(val + err) * (1 + Fraction(1, 2 ** 50))
             <= bound * (1 + Fraction(1, 2 ** 20)) * q_e)
    return BoundCheck(m, bound, holds)


# -- semilocal evaluation ---------------------------------------------------------------


def sl_eval(table: SeriesTable, x: int, y: int, precision: int) -> SemilocalElement:
    """Sum of the series at T = y/x in Z_y[zeta] mod y^precision.

    The term of index n carries y^n, so the first `precision` terms give the
    limit; `sl_power_check` tests the sum.
    """
    if math.gcd(x, y) != 1:
        raise ValueError("x must be invertible modulo y")
    if math.gcd(y, table.p) != 1:
        raise ValueError("the ramified prime is handled by uniformizer expansions")
    if table.order < precision:
        raise ValueError("series table too short for the requested precision")
    m = y ** precision
    t = y * pow(x, -1, m) % m
    inv_q = pow(table.q, -1, m)
    return sl_combination(table.p, m, (
        (table.numerators[n].coords, pow(inv_q, denominator_exponent(n, table.q), m) * pow(t, n, m))
        for n in range(precision)))


def sl_power_check(table: SeriesTable, x: int, y: int, precision: int) -> bool:
    """The identity of `pth_power_check` at the evaluated point: with
    S = sl_eval(table, x, y, precision) and T = y/x, S^q den(T) = num(T)
    mod y^precision.  T^n carries y^n, so num and den are needed only below
    degree `precision`; each is one integer combination of its power-basis
    coefficients."""
    num_exps, den_exps = _factor_exponents(table)
    s = sl_eval(table, x, y, precision)
    m = s.modulus
    t = y * pow(x, -1, m) % m

    def at_t(exps: Sequence[int]) -> SemilocalElement:
        # v over 1, zeta, ..., zeta^{p-1} is sum_c (v_c - v_0) zeta^c
        return sl_combination(table.p, m, (
            (tuple(c - v[0] for c in v[1:]), pow(t, n, m))
            for n, v in enumerate(_linear_factor_product(table.p, exps, precision - 1))))

    return s ** table.q * at_t(den_exps) == at_t(num_exps)


def equivariance_check(table: SeriesTable, conjugates: Optional[Sequence[int]] = None) -> bool:
    """sigma_c of the table equals the table rebuilt from sigma_c theta.

    sigma_c permutes coordinates and the semilocal sum has integer scalars,
    so sigma_c of a summed series is always the sum of the moved table; only
    the rebuild can fail.  It takes sigma_c theta as a group-ring product, not
    the permutation of `table.galois`, so the tables are compared whole.
    """
    for c in (conjugates if conjugates is not None else range(1, table.p)):
        recomputed = binom_coeffs(GroupRingElement.sigma(table.p, c) * table.theta,
                                  table.order, table.full, table.q)
        if recomputed != table.galois(c):
            return False
    return True


# -- the double digit table --------------------------------------------------------------


@dataclass
class DoubleTable:
    """Balanced digits b_{n,h} of the twisted series rows.

    Row n is rho * a'_n * x^{-n} (the x power is absorbed into the row so the
    series becomes sum_n row_n y^n / q^{E(n)}).  Entry (n, h) is the h-th
    balanced digit of row n; the pair contributes at order y^{n+h}.
    """

    p: int
    q: int
    x: int
    y: int
    depth: int
    rho: SemilocalElement
    entries: Dict[Tuple[int, int], CycloInt]

    def entry(self, n: int, h: int) -> CycloInt:
        return self.entries[(n, h)]


def double_table(table: SeriesTable, rho: SemilocalElement, x: int, y: int,
                 depth: int) -> DoubleTable:
    """Digit table b_{n,h} for all pairs with n + h <= depth: the balanced
    y-digits of row n = rho * a'_n * x^{-n} mod y^{depth+1}, n = 0..depth."""
    if rho.modulus % y ** (depth + 1) != 0:
        raise ValueError("root of unity carries insufficient precision")
    if table.order < depth:
        raise ValueError("series table too short for the requested depth")
    modulus = y ** (depth + 1)
    rho_m = rho.reduce_to(modulus)
    inv_x = pow(x % modulus, -1, modulus)
    entries: Dict[Tuple[int, int], CycloInt] = {}
    for n, num in enumerate(table.numerators[:depth + 1]):
        row = (rho_m * SemilocalElement(table.p, modulus, num.coords)).scale(pow(inv_x, n, modulus))
        for h, digit in enumerate(y_digits(row, depth + 1 - n, y).digits):
            entries[(n, h)] = digit
    return DoubleTable(table.p, table.q, x, y, depth, rho, entries)


def reassemble(dtable: DoubleTable, entries: Mapping[Tuple[int, int], CycloInt],
               divisors: Mapping[Tuple[int, int], int], precision: int) -> SemilocalElement:
    """sum over entries of b_{n,h} y^{n+h} / (d(n,h) q^{E(n)}) mod y^precision.

    dtable gives p, q and y; the entries are its own or a perturbed copy, and
    a pair missing from divisors has d(n,h) = 1.
    """
    m = dtable.y ** precision
    inv_q = pow(dtable.q % m, -1, m)
    terms = []
    for (n, h), digit in entries.items():
        if n + h >= precision:
            continue
        scalar = pow(dtable.y, n + h, m) * pow(inv_q, denominator_exponent(n, dtable.q), m) % m
        d = divisors.get((n, h), 1)
        if d != 1:
            scalar = scalar * pow(d, -1, m) % m
        terms.append((digit.coords, scalar))
    return sl_combination(dtable.p, m, terms)


def reassembly_check(dtable: DoubleTable, table: SeriesTable, cutoff: int) -> bool:
    """The double sum reproduces rho * (series sum) mod y^cutoff."""
    target = sl_eval(table, dtable.x, dtable.y, cutoff)
    rho_k = dtable.rho.reduce_to(dtable.y ** cutoff)
    lhs = reassemble(dtable, dtable.entries, {}, cutoff)
    return lhs == rho_k * target


# -- congruence sums for the ramified case ---------------------------------------------


@dataclass(frozen=True)
class RamifiedSums:
    p: int
    total: CycloInt                  # S = 2 sum_{c > p/2} p/(1 - zeta^{1/c})
    half_congruence: bool            # S/2 = p/(8(1-zeta)) mod p
    skew_congruence: bool            # 2S - p(p-1) = p/(2(1-zeta)) mod p
    skew_nonzero: bool               # ... and that value is nonzero mod p
    conjugate_sum_ok: bool           # S + conj(S) = p(p-1)
    flipped_for_lower_half: bool     # complementary sum satisfies both with - signs


def wieferich_sums(p: int) -> RamifiedSums:
    """Exact congruences behind the p^2 | (x+y) criterion in the ramified case.

    The sum is oriented along the support {c > p/2} of the first Fueter
    element; the complementary orientation flips the sign of both
    congruences, which is also verified.
    """
    inv_num = inverse_uniformizer_numerator(p)   # p/(1 - zeta), integral

    def half_sum(support) -> CycloInt:
        acc = CycloInt.zero(p)
        for c in support:
            acc = acc + inv_num.galois(pow(c, p - 2, p))
        return acc

    h_up = half_sum(range((p + 1) // 2, p))           # S/2 on each orientation
    h_lo = half_sum(range(1, (p + 1) // 2))
    s_up, s_lo = h_up.scale(2), h_lo.scale(2)
    inv2 = pow(2, p - 2, p)
    inv8 = pow(8, p - 2, p)

    half = congruent_mod_rational(h_up, inv_num.scale(inv8), p)
    skew_val = s_up.scale(2) - CycloInt.from_rational(p, p * (p - 1))
    skew = congruent_mod_rational(skew_val, inv_num.scale(inv2), p)
    nonzero = not congruent_mod_rational(skew_val, CycloInt.zero(p), p)
    conj_ok = (s_up + s_up.conj()) == CycloInt.from_rational(p, p * (p - 1))

    flip1 = congruent_mod_rational(h_lo, -inv_num.scale(inv8), p)
    skew_lo = s_lo.scale(2) - CycloInt.from_rational(p, p * (p - 1))
    flip2 = congruent_mod_rational(skew_lo, -inv_num.scale(inv2), p)

    return RamifiedSums(p, s_up, half, skew, nonzero, conj_ok, flip1 and flip2)
