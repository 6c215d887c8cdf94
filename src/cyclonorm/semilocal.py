"""Finite-precision arithmetic in the semilocal rings Z_y[zeta].

Z_y[zeta] at working precision y^N is represented as (Z/y^N)[X]/(Phi_p(X)),
written in the power basis {zeta..zeta^{p-1}}.  The Galois action is the
substitution X -> X^c; the product-of-completions picture is recovered on
demand by factoring Phi_p modulo prime powers (Hensel lifting) and CRT.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .cyclotomic import CycloInt, basis_product, cofactor_product, galois_coords, power
from .group_ring import is_prime


@dataclass(frozen=True)
class SemilocalElement:
    """Element of (Z/modulus)[X]/(Phi_p), coordinates on {zeta..zeta^{p-1}}."""

    p: int
    modulus: int
    poly: Tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if len(self.poly) != self.p - 1:
            raise ValueError("coordinate vector must have length p-1")
        object.__setattr__(self, "poly", tuple(c % self.modulus for c in self.poly))

    def _check(self, other: "SemilocalElement") -> None:
        if self.p != other.p or self.modulus != other.modulus:
            raise ValueError("mismatched semilocal rings")

    def __add__(self, other):
        self._check(other)
        return SemilocalElement(self.p, self.modulus,
                                tuple(a + b for a, b in zip(self.poly, other.poly)))

    def __sub__(self, other):
        self._check(other)
        return SemilocalElement(self.p, self.modulus,
                                tuple(a - b for a, b in zip(self.poly, other.poly)))

    def __neg__(self):
        return SemilocalElement(self.p, self.modulus, tuple(-a for a in self.poly))

    def scale(self, n: int) -> "SemilocalElement":
        return SemilocalElement(self.p, self.modulus, tuple(n * a for a in self.poly))

    def __mul__(self, other):
        self._check(other)
        return SemilocalElement(self.p, self.modulus, basis_product(self.p, self.poly, other.poly))

    def __pow__(self, n: int) -> "SemilocalElement":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, sl_embed(self.p, 1, self.modulus))

    def is_zero(self) -> bool:
        return not any(self.poly)

    def is_one(self) -> bool:
        return self == sl_embed(self.p, 1, self.modulus)

    def galois(self, c: int) -> "SemilocalElement":
        return SemilocalElement(self.p, self.modulus, galois_coords(self.p, self.poly, c))

    def conj(self) -> "SemilocalElement":
        return SemilocalElement(self.p, self.modulus, self.poly[::-1])

    def trace(self) -> int:
        """Sum of all Galois conjugates, as an element of Z/modulus."""
        return -sum(self.poly) % self.modulus

    def norm_integer(self) -> int:
        """Product of all Galois conjugates, as an element of Z/modulus."""
        return -(self * cofactor_product(self)).poly[0] % self.modulus

    def inverse(self) -> "SemilocalElement":
        """Inverse via the cofactor product; needs the norm to be a unit."""
        cof = cofactor_product(self)
        nrm = -(self * cof).poly[0] % self.modulus
        if math.gcd(nrm, self.modulus) != 1:
            raise ZeroDivisionError("element is not invertible at this modulus")
        return cof.scale(pow(nrm, -1, self.modulus))

    def reduce_to(self, new_modulus: int) -> "SemilocalElement":
        if self.modulus % new_modulus != 0:
            raise ValueError("can only reduce to a divisor of the modulus")
        return SemilocalElement(self.p, new_modulus, tuple(c % new_modulus for c in self.poly))

    def __repr__(self):
        return f"<semilocal p={self.p} mod {self.modulus}: {self.poly}>"


def sl_embed(p: int, value: Union[int, Fraction, CycloInt], modulus: int) -> SemilocalElement:
    """Diagonal embedding of an exact value, reducing coordinates mod modulus.

    Rational inputs need a denominator prime to the modulus.
    """
    if isinstance(value, CycloInt):
        if value.p != p:
            raise ValueError("mismatched primes")
        coords = value.coords
    else:
        coords = (-value,) * (p - 1)
    out = []
    for c in coords:
        if math.gcd(c.denominator, modulus) != 1:
            raise ZeroDivisionError("denominator shares a factor with the modulus")
        out.append(c.numerator * pow(c.denominator, -1, modulus))
    return SemilocalElement(p, modulus, tuple(out))


# -- y-adic digits in the balanced system ------------------------------------------


@dataclass(frozen=True)
class YDigits:
    p: int
    base: int
    digits: Tuple[CycloInt, ...]

    def assemble(self, modulus: int) -> SemilocalElement:
        acc = SemilocalElement(self.p, modulus, (0,) * (self.p - 1))
        power = 1
        for d in self.digits:
            acc = acc + sl_embed(self.p, d, modulus).scale(power)
            power *= self.base
        return acc


def in_balanced_set(t: CycloInt, y: int) -> bool:
    """Whether all coordinates lie in (-y/2, y/2]."""
    return all(-y < 2 * c <= y for c in t.coords)


def balanced_digit(n: int, y: int) -> int:
    """Representative of n mod y in (-y/2, y/2]."""
    r = n % y
    return r - y if 2 * r > y else r


def y_digits(u: SemilocalElement, digits: int, y: int) -> YDigits:
    """First `digits` base-y digits of u, each a balanced-coordinate element.

    Requires modulus = y^N with digits <= N; the digits are unique and
    reassembly reproduces u modulo y^digits.
    """
    precision, m = 0, 1
    while m < u.modulus:
        m *= y
        precision += 1
    if m != u.modulus:
        raise ValueError("modulus is not a power of the digit base")
    if digits > precision:
        raise ValueError(f"requested {digits} digits at precision {precision}")
    out = []
    cur = [int(c) for c in u.poly]
    for _ in range(digits):
        digit = [balanced_digit(c, y) for c in cur]
        out.append(CycloInt(u.p, tuple(digit)))
        cur = [(c - d) // y for c, d in zip(cur, digit)]
    return YDigits(u.p, y, tuple(out))


# -- polynomial helpers over Z/m -------------------------------------------------------


def _poly_trim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_red(f: Sequence[int], m: int) -> List[int]:
    return _poly_trim([c % m for c in f])


def _poly_mul(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _poly_trim(out)


def _poly_add(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % m
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % m
    return _poly_trim(out)


def _poly_sub(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    return _poly_add(a, [(-y) % m for y in b], m)


def _poly_divmod(a: Sequence[int], b: Sequence[int], m: int) -> Tuple[List[int], List[int]]:
    """Division with remainder; the leading coefficient of b must be a unit mod m."""
    a = _poly_red(a, m)
    b = _poly_red(b, m)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coef = a[-1] * inv % m
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % m
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_mod(a, b, m):
    return _poly_divmod(a, b, m)[1]


def _poly_gcd(a: Sequence[int], b: Sequence[int], r: int) -> List[int]:
    """Monic gcd over the field F_r."""
    a, b = _poly_red(a, r), _poly_red(b, r)
    while b:
        a, b = b, _poly_mod(a, b, r)
    if a:
        inv = pow(a[-1], -1, r)
        a = [x * inv % r for x in a]
    return a


def _poly_powmod(a: Sequence[int], e: int, f: Sequence[int], m: int) -> List[int]:
    result = [1]
    base = _poly_mod(a, f, m)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, m), f, m)
        base = _poly_mod(_poly_mul(base, base, m), f, m)
        e >>= 1
    return result


def _poly_ext_gcd(a: Sequence[int], b: Sequence[int], r: int) -> Tuple[List[int], List[int]]:
    """(s, t) with s*a + t*b = 1 over F_r for coprime a, b."""
    r0, r1 = _poly_red(a, r), _poly_red(b, r)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, rem = _poly_divmod(r0, r1, r)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, r), r)
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, r), r)
    if len(r0) != 1:
        raise ArithmeticError("polynomials are not coprime")
    inv = pow(r0[0], -1, r)
    return [x * inv % r for x in s0], [x * inv % r for x in t0]


def _cyclotomic_poly(p: int) -> List[int]:
    return [1] * p


# -- factorization of Phi_p at rational primes ----------------------------------------


def _equal_degree_split(f: List[int], d: int, r: int, rng: random.Random) -> List[List[int]]:
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    n = len(f) - 1
    inv = pow(f[-1], -1, r)
    f = [c * inv % r for c in f]
    if n == d:
        return [f]
    while True:
        a = _poly_trim([rng.randrange(r) for _ in range(n)]) or [1]
        if r == 2:
            # additive trace map a + a^2 + ... + a^{2^{d-1}}
            t = _poly_mod(a, f, r)
            sq = list(t)
            for _ in range(d - 1):
                sq = _poly_powmod(sq, 2, f, r)
                t = _poly_add(t, sq, r)
            g = _poly_gcd(f, t, r)
        else:
            b = _poly_powmod(a, (r ** d - 1) // 2, f, r)
            g = _poly_gcd(f, _poly_sub(b, [1], r), r)
        if 0 < len(g) - 1 < n:
            q, rem = _poly_divmod(f, g, r)
            assert not rem
            return _equal_degree_split(g, d, r, rng) + _equal_degree_split(q, d, r, rng)


def _hensel_lift_factor(f: List[int], g0: List[int], r: int, precision: int) -> List[int]:
    """Lift a monic factor g0 of monic f from mod r to mod r^precision.

    Linear Hensel steps: with f = g*h + r^k e and s*g + t*h = 1 over F_r,
    the corrections dg = (t e) rem g and dh = (e - dg h)/g keep f = g*h to
    one more power of r.
    """
    g_r = _poly_red(g0, r)
    h_r, rem = _poly_divmod(_poly_red(f, r), g_r, r)
    if rem:
        raise ArithmeticError("input factor does not divide")
    s, t = _poly_ext_gcd(g_r, h_r, r)
    g, h = list(g_r), list(h_r)
    for k in range(1, precision):
        m = r ** (k + 1)
        e_full = _poly_sub(_poly_red(f, m), _poly_mul(g, h, m), m)
        assert all(c % r ** k == 0 for c in e_full)
        e = _poly_red([c // r ** k for c in e_full], r)
        dg = _poly_mod(_poly_mul(t, e, r), g_r, r)
        num = _poly_sub(e, _poly_mul(dg, h_r, r), r)
        dh, rem2 = _poly_divmod(num, g_r, r)
        assert not rem2
        g = _poly_add(g, [c * r ** k % m for c in dg], m)
        h = _poly_add(h, [c * r ** k % m for c in dh], m)
    return _poly_red(g, r ** precision)


@dataclass(frozen=True)
class LocalFactorization:
    r: int
    p: int
    precision: int                  # factors are exact mod r^precision
    factors: Tuple[Tuple[int, ...], ...]

    @property
    def g(self) -> int:
        return len(self.factors)

    @property
    def residue_degree(self) -> int:
        return len(self.factors[0]) - 1

    @property
    def modulus(self) -> int:
        return self.r ** self.precision


def multiplicative_order(a: int, n: int) -> int:
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError("order of a non-unit")
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def factor_phi(r: int, p: int, precision: int, seed: int = 0) -> LocalFactorization:
    """Monic factorization of Phi_p modulo r^precision.

    g = (p-1)/ord_p(r) factors of equal degree ord_p(r); Hensel-lifted from
    the factorization over F_r; the product is checked against Phi_p exactly.
    """
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    if r == p:
        raise ValueError("the ramified prime is handled by uniformizer expansions")
    d = multiplicative_order(r, p)
    phi = _cyclotomic_poly(p)
    rng = random.Random(f"{seed}:{r}:{p}")
    base_factors = _equal_degree_split(_poly_red(phi, r), d, r, rng)
    base_factors.sort()
    target = r ** precision
    lifted = []
    for g in base_factors:
        if precision == 1:
            lifted.append(tuple(g))
        else:
            lifted.append(tuple(_hensel_lift_factor(phi, g, r, precision)))
    prod = [1]
    for g in lifted:
        prod = _poly_mul(prod, list(g), target)
    if prod != _poly_red(phi, target):
        raise ArithmeticError("lifted factors do not multiply back to the cyclotomic polynomial")
    if len(lifted) != (p - 1) // d:
        raise ArithmeticError("wrong number of local factors")
    return LocalFactorization(r, p, precision, tuple(lifted))


# -- per-factor projections and CRT ------------------------------------------------


def coords_to_poly(u: SemilocalElement) -> List[int]:
    """Coordinates on {zeta..zeta^{p-1}} to a degree < p-1 polynomial mod Phi_p."""
    p, m = u.p, u.modulus
    top = u.poly[p - 2]
    out = [(-top) % m]
    for j in range(1, p - 1):
        out.append((u.poly[j - 1] - top) % m)
    return _poly_trim(out)


def poly_to_coords(poly: Sequence[int], p: int, m: int) -> SemilocalElement:
    coords = [0] * (p - 1)
    const = 0
    for e, c in enumerate(poly):
        if e == 0:
            const = c
        elif e <= p - 1:
            coords[e - 1] = c % m
        else:
            raise ValueError("degree too large")
    if const:
        coords = [(c - const) % m for c in coords]
    return SemilocalElement(p, m, tuple(coords))


def project_to_factor(u: SemilocalElement, fact: LocalFactorization, j: int) -> List[int]:
    """Image of u in (Z/r^N)[X]/(Psi_j)."""
    m = fact.modulus
    if u.modulus % m != 0:
        raise ValueError("element modulus is not divisible by the factor modulus")
    reduced = u.reduce_to(m) if u.modulus != m else u
    return _poly_mod(coords_to_poly(reduced), list(fact.factors[j]), m)


def _lift_inverse_mod(a: Sequence[int], f: Sequence[int], r: int, precision: int) -> List[int]:
    """Inverse of a modulo (r^precision, f), f monic, a a unit mod (r, f)."""
    s, _ = _poly_ext_gcd(_poly_mod(_poly_red(a, r), _poly_red(f, r), r), _poly_red(f, r), r)
    k = 1
    inv = s
    while k < precision:
        k = min(2 * k, precision)
        m = r ** k
        fm = _poly_red(f, m)
        am = _poly_mod(_poly_red(a, m), fm, m)
        prod = _poly_mod(_poly_mul(am, inv, m), fm, m)
        inv = _poly_mod(_poly_mul(inv, _poly_sub([2], prod, m), m), fm, m)
    return inv


def crt_from_factors(residues: Sequence[Sequence[int]], fact: LocalFactorization) -> SemilocalElement:
    """Reassemble an element of (Z/r^N)[X]/(Phi_p) from per-factor residues."""
    m = fact.modulus
    total: List[int] = []
    for j, res in enumerate(residues):
        others = [1]
        for i, f in enumerate(fact.factors):
            if i != j:
                others = _poly_mul(others, list(f), m)
        inv = _lift_inverse_mod(others, list(fact.factors[j]), fact.r, fact.precision)
        term = _poly_mod(_poly_mul(list(res), inv, m), list(fact.factors[j]), m)
        total = _poly_add(total, _poly_mul(term, others, m), m)
    total = _poly_mod(total, _cyclotomic_poly(fact.p), m)
    return poly_to_coords(total, fact.p, m)


# -- roots of unity -----------------------------------------------------------------


def root_of_unity_quotient(u: SemilocalElement, v: SemilocalElement) -> SemilocalElement:
    """rho = u/v, verified to satisfy rho^p = 1 at the working precision."""
    rho = u * v.inverse()
    if not (rho ** rho.p).is_one():
        raise ArithmeticError(
            "quotient is not a p-th root of unity at working precision; "
            "this indicates an upstream series or precision bug"
        )
    return rho


def pth_roots_in_factor(fact: LocalFactorization, j: int) -> List[List[int]]:
    """All p p-th roots of unity in (Z/r^N)[X]/(Psi_j): the powers X^k.

    r != p, so this is a Galois ring whose p-torsion is cyclic of order p,
    each root mod r having exactly one lift.  Psi_j | Phi_p gives X^p = 1,
    and Phi_p(1) = p is a unit mod r, so X != 1 mod r generates it.  The
    roots are listed in the order of their residues mod r.
    """
    r, p, f = fact.r, fact.p, fact.factors[j]
    f1 = _poly_red(f, r)
    ks = sorted(range(p), key=lambda k: _poly_powmod([0, 1], k, f1, r))
    return [_poly_powmod([0, 1], k, f, fact.modulus) for k in ks]


def prime_power_split(y: int) -> List[Tuple[int, int]]:
    """[(r, a)] with y = prod r^a."""
    parts = []
    rest = y
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            a = 0
            while rest % f == 0:
                rest //= f
                a += 1
            parts.append((f, a))
        f += 1 if f == 2 else 2
    if rest > 1:
        parts.append((rest, 1))
    return parts


def count_primes_above(p: int, y: int) -> int:
    """Primes of Z[zeta_p] above y: the sum over r | y of (p-1)/ord_p(r)."""
    return sum((p - 1) // multiplicative_order(r, p) for r, _ in prime_power_split(y))


def _int_crt(pairs: Sequence[Tuple[int, int]]) -> int:
    x, m = 0, 1
    for a, n in pairs:
        assert math.gcd(m, n) == 1
        t = (a - x) * pow(m, -1, n) % n
        x += m * t
        m *= n
    return x % m


def global_pth_root_embeddings(p: int, modulus: int) -> List[SemilocalElement]:
    """Diagonal embeddings of the p global p-th roots of unity."""
    return [sl_embed(p, CycloInt.zeta_power(p, k), modulus) for k in range(p)]


def synthetic_root_of_unity(p: int, y: int, precision: int, seed: int = 0) -> SemilocalElement:
    """A deterministic semilocal p-th root of unity in Z_y[zeta] mod y^precision.

    Built factor-by-factor over every prime r | y and CRT-joined.  Selections
    are varied until the result differs from every diagonal embedding of a
    global p-th root of unity (possible whenever some prime of y splits).
    """
    if math.gcd(p, y) != 1:
        raise ValueError("digit base must be prime to p")
    parts = prime_power_split(y)
    facts = [factor_phi(r, p, a * precision, seed=seed) for r, a in parts]
    globals_ = global_pth_root_embeddings(p, y ** precision)
    roots_per_slot = [[pth_roots_in_factor(fact, j) for j in range(fact.g)]
                      for fact in facts]
    nslots = sum(fact.g for fact in facts)

    def build(selection: int) -> SemilocalElement:
        residues_per_prime = []
        s = selection
        for fact, roots in zip(facts, roots_per_slot):
            per_factor = []
            for j in range(fact.g):
                per_factor.append(list(roots[j][s % p]))
                s //= p
            residues_per_prime.append(crt_from_factors(per_factor, fact))
        modulus = y ** precision
        coords = []
        for i in range(p - 1):
            pairs = [(u.poly[i], u.modulus) for u in residues_per_prime]
            coords.append(_int_crt(pairs) % modulus)
        return SemilocalElement(p, modulus, tuple(coords))

    limit = min(p ** nslots, 5000)
    offset = seed % limit
    for step in range(limit):
        rho = build((offset + step) % limit)
        if not (rho ** p).is_one():
            raise ArithmeticError("constructed element is not a p-th root of unity")
        if all(rho != g for g in globals_):
            return rho
    raise ArithmeticError("all p-th roots of unity at this modulus are global embeddings")
