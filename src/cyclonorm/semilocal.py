"""Finite-precision arithmetic in the semilocal rings Z_y[zeta].

Z_y[zeta] at working precision y^N is represented as (Z/y^N)[X]/(Phi_p(X)),
written in the power basis {zeta..zeta^{p-1}}.  The Galois action is the
substitution X -> X^c.  The product-of-completions picture lives in the same
ring: each factor of Phi_p over F_r, r | y, gives an idempotent E, and x E
is the component of x in that completion.  The Galois group permutes the
factors of r: one factor is split off over F_r and the others are its
transports gcd(Phi_p, Psi(X^c)); likewise one E per prime r is lifted from
F_r to Z/y^N, and sigma_c moves it onto the other factors of r.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from .cyclotomic import (CycloInt, _cyclotomic_poly, _poly_divmod, _poly_gcd, _poly_mod,
                         _poly_mul, _poly_red, basis_product, galois_coords, orbit_product,
                         power, zeta_shift)
from .group_ring import is_prime, prime_power_split


@dataclass(frozen=True)
class SemilocalElement:
    """Element of (Z/modulus)[X]/(Phi_p), coordinates on {zeta..zeta^{p-1}}.

    Coordinates are ints reduced mod modulus; anything else that is an
    integer (a bool, a numpy integer) is converted, and a coordinate that is
    not an integer (a Fraction, a float) raises TypeError.
    """

    p: int
    modulus: int
    poly: Tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if len(self.poly) != self.p - 1:
            raise ValueError("coordinate vector must have length p-1")
        poly = self.poly
        if type(poly) is not tuple or not set(map(type, poly)) <= {int}:
            poly = map(operator.index, poly)
        object.__setattr__(self, "poly", tuple(c % self.modulus for c in poly))

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

    def reduce_to(self, new_modulus: int) -> "SemilocalElement":
        if self.modulus % new_modulus != 0:
            raise ValueError("can only reduce to a divisor of the modulus")
        return SemilocalElement(self.p, new_modulus, tuple(c % new_modulus for c in self.poly))

    def __repr__(self):
        return f"<semilocal p={self.p} mod {self.modulus}: {self.poly}>"


def sl_embed(p: int, value: Union[int, CycloInt], modulus: int) -> SemilocalElement:
    """Diagonal embedding of an integer or an element of Z[zeta]: its
    integer coordinates reduced mod modulus.  A value that is not an integer
    (a Fraction) raises TypeError."""
    if isinstance(value, CycloInt):
        if value.p != p:
            raise ValueError("mismatched primes")
        return SemilocalElement(p, modulus, value.coords)
    return SemilocalElement(p, modulus, (-operator.index(value),) * (p - 1))


def sl_combination(p: int, modulus: int,
                   terms: Iterable[Tuple[Sequence[int], int]]) -> SemilocalElement:
    """sum of s v over the pairs (v, s) of an integer coordinate vector v on
    zeta..zeta^{p-1} and an integer scalar s, reduced once mod modulus."""
    acc = [0] * (p - 1)
    for v, s in terms:
        if s:
            acc = [a + s * c for a, c in zip(acc, v)]
    return SemilocalElement(p, modulus, tuple(acc))


# -- y-adic digits in the balanced system ------------------------------------------


@dataclass(frozen=True)
class YDigits:
    p: int
    base: int
    digits: Tuple[CycloInt, ...]

    def assemble(self, modulus: int) -> SemilocalElement:
        return sl_combination(self.p, modulus, ((d.coords, self.base ** h)
                                                for h, d in enumerate(self.digits)))


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


# -- factorization of Phi_p at rational primes ----------------------------------------


def _one_factor(f: List[int], d: int, r: int, p: int, rng: random.Random) -> List[int]:
    """One monic degree-d factor of a squarefree product f | Phi_p of
    degree-d irreducibles over F_r, by Cantor-Zassenhaus that keeps the
    smaller part of each split.

    A random a of F_r[zeta] = F_r[X]/(Phi_p) maps to a random residue mod f.
    The Frobenius a -> a^r is sigma_r there, so a^((r^d-1)/2) is the orbit
    product of a over <r> (its norm to F_r on each factor) to the (r-1)/2,
    and for r = 2 the trace a + a^2 + ... + a^(2^(d-1)) is a sum of d
    conjugates: both need no power of a polynomial mod f.
    """
    while len(f) - 1 > d:
        a = SemilocalElement(p, r, tuple(rng.randrange(r) for _ in range(p - 1)))
        if r == 2:
            b = sl_combination(p, r, ((galois_coords(p, a.poly, 2 ** k), 1) for k in range(d)))
        else:
            b = orbit_product(a, r % p, d) ** ((r - 1) // 2) - sl_embed(p, 1, r)
        g = _poly_gcd(f, [0] + list(b.poly), r)
        if 0 < len(g) - 1 < len(f) - 1:
            f = min(g, _poly_divmod(f, g, r)[0], key=len)
    return f


@dataclass(frozen=True)
class LocalFactorization:
    r: int
    p: int
    factors: Tuple[Tuple[int, ...], ...]     # monic, sorted, over F_r
    transports: Tuple[int, ...]              # c with factors[i] = gcd(Phi_p, Psi_1(X^c))

    @property
    def g(self) -> int:
        return len(self.factors)

    @property
    def residue_degree(self) -> int:
        return len(self.factors[0]) - 1


def multiplicative_order(a: int, n: int) -> int:
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError("order of a non-unit")
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def factor_phi(r: int, p: int) -> LocalFactorization:
    """Monic factorization of Phi_p over F_r, factors sorted, with transports.

    g = (p-1)/ord_p(r) distinct factors of degree d = ord_p(r).  One factor
    Psi_1 is split off: X - w when r = 1 mod p, for one w of order p in
    F_r^x (a power h^((r-1)/p)), and otherwise by Cantor-Zassenhaus.  The
    roots of Psi_1 are an orbit of the Frobenius sigma_r, so the roots of
    Phi_p are their c-th roots for one c per coset of <r> in (Z/p)^x, and
    the factor of those is Psi_c = gcd(Phi_p, Psi_1(X^c)) (X - w^(1/c) when
    d = 1).  transports[i] is the c of factors[i], the least of its coset.
    The product is checked against Phi_p and each degree against d: every
    irreducible factor of Phi_p has degree d, so together the two checks
    make each entry one of them.  The factorization is unique, so neither
    the route nor the random splitting can change the sorted result.
    """
    if not is_prime(r):
        raise ValueError(f"{r} is not prime")
    if r == p:
        raise ValueError("the ramified prime is handled by uniformizer expansions")
    d = multiplicative_order(r, p)
    phi = _poly_red(_cyclotomic_poly(p), r)
    frobenius = [pow(r, j, p) for j in range(d)]                # <r>, the decomposition group
    cosets = [c for c in range(1, p) if all(c * h % p >= c for h in frobenius)]
    if d == 1:
        w = next(w for w in (pow(h, (r - 1) // p, r) for h in range(2, r)) if w != 1)
        pairs = [([-pow(w, pow(c, -1, p), r) % r, 1], c) for c in cosets]
    else:
        psi = _one_factor(phi, d, r, p, random.Random(f"{r}:{p}"))
        pairs = [(psi, 1)]
        for c in cosets[1:]:
            composed = [0] * p                     # Psi_1(X^c) mod X^p - 1
            for i, coef in enumerate(psi):
                composed[i * c % p] = coef
            pairs.append((_poly_gcd(phi, composed, r), c))
    pairs.sort()
    prod = [1]
    for g, _ in pairs:
        prod = _poly_mul(prod, g, r)
    if prod != phi:
        raise ArithmeticError("factors do not multiply back to the cyclotomic polynomial")
    if any(len(g) != d + 1 for g, _ in pairs):
        raise ArithmeticError(f"a local factor does not have degree {d}")
    return LocalFactorization(r, p, tuple(tuple(g) for g, _ in pairs), tuple(c for _, c in pairs))


def _x_powers(psi: Sequence[int], p: int, r: int) -> List[List[int]]:
    """X^k mod (r, psi) for k = 0..p-1."""
    x_powers = [[1]]
    for _ in range(p - 1):
        x_powers.append(_poly_mod([0] + x_powers[-1], psi, r))
    return x_powers


# -- roots of unity -----------------------------------------------------------------


def count_primes_above(p: int, y: int) -> int:
    """Primes of Z[zeta_p] above y: the sum over r | y of (p-1)/ord_p(r)."""
    return sum((p - 1) // multiplicative_order(r, p) for r, _ in prime_power_split(y))


def global_pth_root_embeddings(p: int, modulus: int) -> List[SemilocalElement]:
    """Diagonal embeddings of the p global p-th roots of unity."""
    return [sl_embed(p, CycloInt.zeta_power(p, k), modulus) for k in range(p)]


def root_slots(p: int, y: int, precision: int) -> List[Tuple[SemilocalElement, List[int]]]:
    """(E, ks) for each factor Psi of Phi_p over F_r, for each prime r | y.

    E is the primitive idempotent of (Z/y^N)[X]/(Phi_p) on the completion
    of Psi, so the p-th roots of unity there are zeta^k E (the completion is
    unramified, as r != p).  One idempotent per prime r is lifted, for the
    factor Psi_1 that factor_phi split off.  Over F_r, e = 1 -
    Psi_1(zeta)^{r^d - 1}: Psi_1 is a unit in F_r[X]/(Psi') for Psi' !=
    Psi_1 and zero for Psi' = Psi_1.  The power is taken as
    N(Psi_1(zeta))^{r - 1}, N the orbit product over <r> (the Frobenius is
    sigma_r), with no r^d-th power.  The integer idempotent M (M^-1 mod
    r^{aN}), M = y^N / r^{aN}, of Z/y^N moves e onto the r-part, and each
    step E <- 3E^2 - 2E^3 doubles its r-adic precision.  The Galois group
    permutes the primes above r (Washington, GTM 83, Ch. 2): the factor
    Psi_c = gcd(Phi_p, Psi_1(X^c)) of transport c has for roots the zeta
    with zeta^c a root of Psi_1, so its idempotent is E_1(X^c) =
    sigma_c(E_1), a permutation of coordinates.  ks lists k = 0..p-1 in the
    order of X^k mod (r, Psi).  Raises ArithmeticError unless each lifted
    E_1 is idempotent (then so is each sigma_c(E_1), sigma_c being a ring
    map) and all the E sum to 1.
    """
    modulus = y ** precision
    slots = []
    for r, a in prime_power_split(y):
        fact = factor_phi(r, p)
        r_part = r ** (a * precision)
        cofactor = modulus // r_part
        unit = cofactor * pow(cofactor, -1, r_part)
        base = fact.factors[fact.transports.index(1)]
        psi_zeta = SemilocalElement(p, r, CycloInt.from_polynomial(p, base).coords)
        norm = orbit_product(psi_zeta, r % p, fact.residue_degree)
        e = sl_embed(p, 1, r) - norm ** (r - 1)
        lifted = SemilocalElement(p, modulus, e.poly).scale(unit)
        for _ in range((a * precision).bit_length()):
            sq = lifted * lifted
            lifted = sq.scale(3) - (sq * lifted).scale(2)
        if lifted * lifted != lifted:
            raise ArithmeticError("factor idempotent did not lift")
        for psi, c in zip(fact.factors, fact.transports):
            slots.append((lifted.galois(c), sorted(range(p), key=_x_powers(psi, p, r).__getitem__)))
    if not sl_combination(p, modulus, ((idem.poly, 1) for idem, _ in slots)).is_one():
        raise ArithmeticError("factor idempotents do not sum to 1")
    return slots


def synthetic_root_of_unity(p: int, y: int, precision: int, seed: int = 0) -> SemilocalElement:
    """A deterministic semilocal p-th root of unity in Z_y[zeta] mod y^precision.

    rho = sum_s zeta^{k_s} E_s over the factor slots s of every prime r | y
    (see root_slots).  Selections are varied until the result differs from
    every diagonal embedding of a global p-th root of unity (possible
    unless y is a power of one prime inert in Q(zeta_p)).  rho^p = 1 is
    not tested here: the pipeline's root-of-unity record checks it.
    """
    if math.gcd(p, y) != 1:
        raise ValueError("digit base must be prime to p")
    modulus = y ** precision
    slots = root_slots(p, y, precision)
    globals_ = global_pth_root_embeddings(p, modulus)

    def build(selection: int) -> SemilocalElement:
        terms = []
        for idem, ks in slots:
            selection, k = divmod(selection, p)
            terms.append((zeta_shift(p, idem.poly, ks[k]), 1))
        return sl_combination(p, modulus, terms)

    limit = min(p ** len(slots), 5000)
    offset = seed % limit
    for step in range(limit):
        rho = build((offset + step) % limit)
        if all(rho != g for g in globals_):
            return rho
    raise ArithmeticError("all p-th roots of unity at this modulus are global embeddings")
