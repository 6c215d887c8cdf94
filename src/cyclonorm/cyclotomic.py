"""Exact arithmetic in Z[zeta] for a primitive p-th root of unity.

Elements are integer coordinate vectors in the normal power basis {zeta,
zeta^2, ..., zeta^{p-1}}, a Z-basis of Z[zeta]; the constant 1 is
represented through sum_c zeta^c = -1.  All ring arithmetic is exact;
archimedean magnitudes are the only place floating point appears: one
evaluation in complex doubles with an a-priori error bound.

A CycloInt coordinate is always a plain int: the ring is Z[zeta], not
Q(zeta), so there is no inverse, and division by lambda = 1 - zeta is exact
or refused.  The coordinate kernels below (basis product, rotation by a
power of zeta, square-and-multiply), group_ring's `convolve` and
`galois_coords`, and the polynomial Euclid over Z/m serve both CycloInt
and the semilocal rings Z_y[zeta], which share the basis.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .group_ring import (GroupRingElement, convolve, galois_coords, is_prime,
                         prime_power_split, primitive_root)
from . import linalg

# -- coordinate kernels on {zeta..zeta^{p-1}} ---------------------------------------


def basis_product(p: int, a: Sequence, b: Sequence) -> Tuple:
    """Coordinates of (sum a_i zeta^i)(sum b_j zeta^j): `convolve` folded by
    zeta^p = 1 and sum_c zeta^c = -1, for integer and residue entries."""
    acc = convolve(a, b)               # acc[k] is the coefficient of zeta^(k + 2)
    acc.append(0)                      # read as zeta^1 (k = -1) and zeta^(2p - 1)
    const = acc[p - 2]
    return tuple(acc[k] + acc[k + p] - const for k in range(-1, p - 2))


def zeta_shift(p: int, coords: Sequence, k: int) -> Tuple:
    """Coordinates of zeta^k x: rotate (0, x_1..x_{p-1}) by k, then fold the
    constant through sum_c zeta^c = -1; no multiplication is made."""
    k %= p
    full = (0,) + tuple(coords)
    rotated = full[p - k:] + full[:p - k]
    const = rotated[0]
    if not const:
        return rotated[1:]
    return tuple(v - const for v in rotated[1:])


def power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply; n = 0 gives `one`."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return one if result is None else result


def orbit_product(x, a: int, n: int):
    """prod_{k<n} sigma_{a^k}(x) for n >= 1, on any element with `p`,
    `galois` and `*` (CycloInt, SemilocalElement).

    Climbs the subgroups of <a>: for each prime q | n, taken with its
    multiplicity, x <- x sigma_a(x) ... sigma_{a^(q-1)}(x) and a <- a^q, so
    the whole product costs sum (q - 1) multiplications.  Over F_r, sigma_r
    is the Frobenius, so n = ord_p(r) gives the norm to F_r, x^((r^n-1)/(r-1)).
    """
    if n < 1:
        raise ValueError(f"orbit length must be positive, got {n}")
    for q, e in prime_power_split(n):
        for _ in range(e):
            acc = x
            for _ in range(q - 1):
                acc = x * acc.galois(a)
            x = acc
            a = pow(a, q, x.p)
    return x


@dataclass(frozen=True)
class CycloInt:
    """Element of Z[zeta_p]: integer coordinates in the basis {zeta..zeta^{p-1}}.

    Coordinates are stored as a tuple of ints; anything else that is an
    integer (a bool, a numpy integer) is converted, and a coordinate that is
    not an integer (a Fraction, a float) raises TypeError.
    """

    p: int
    coords: Tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if len(self.coords) != self.p - 1:
            raise ValueError("coordinate vector must have length p-1")
        if type(self.coords) is not tuple or not set(map(type, self.coords)) <= {int}:
            object.__setattr__(self, "coords", tuple(map(operator.index, self.coords)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_rational(cls, p: int, value: int) -> "CycloInt":
        return cls(p, (-value,) * (p - 1))

    @classmethod
    def zeta_power(cls, p: int, k: int) -> "CycloInt":
        k %= p
        if k == 0:
            return cls.from_rational(p, 1)
        coords = [0] * (p - 1)
        coords[k - 1] = 1
        return cls(p, tuple(coords))

    @classmethod
    def from_exp_map(cls, p: int, terms: Dict[int, int]) -> "CycloInt":
        """From {exponent mod p: coefficient}; exponent 0 handled via the base."""
        coords = [0] * (p - 1)
        const = 0
        for e, v in terms.items():
            e %= p
            if e == 0:
                const += v
            else:
                coords[e - 1] += v
        if const:
            coords = [c - const for c in coords]
        return cls(p, tuple(coords))

    @classmethod
    def from_polynomial(cls, p: int, poly: Sequence[int]) -> "CycloInt":
        """From coefficients of 1, zeta, ..., zeta^{deg} (deg <= p-1)."""
        return cls.from_exp_map(p, {i: c for i, c in enumerate(poly)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return len(set(self.coords)) == 1

    def as_rational(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return -self.coords[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycloInt") -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} != {other.p}")

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.p, tuple(-a for a in self.coords))

    def scale(self, v: int) -> "CycloInt":
        return CycloInt(self.p, tuple(v * a for a in self.coords))

    def __mul__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.p, basis_product(self.p, self.coords, other.coords))

    def __pow__(self, n: int) -> "CycloInt":
        return power(self, n, CycloInt.from_rational(self.p, 1))

    # -- Galois action ---------------------------------------------------------

    def galois(self, c: int) -> "CycloInt":
        """sigma_c: zeta -> zeta^c."""
        return CycloInt(self.p, galois_coords(self.p, self.coords, c))

    def conj(self) -> "CycloInt":
        return CycloInt(self.p, self.coords[::-1])

    def group_ring_power(self, theta: GroupRingElement) -> "CycloInt":
        """x^theta = prod_c sigma_c^{-1}(x)^{n_c} for theta with n_c >= 0."""
        if theta.p != self.p:
            raise ValueError("mismatched primes")
        t = theta.lift() if theta.modulus is not None else theta
        if any(n < 0 for n in t.coeffs):
            raise ValueError("group-ring exponent must have nonnegative coefficients")
        result = CycloInt.from_rational(self.p, 1)
        for c in range(1, self.p):
            n = t.coeff(c)
            if n:
                result = result * (self.galois(pow(c, self.p - 2, self.p)) ** n)
        return result

    # -- trace, norm, pairing ---------------------------------------------------

    def trace(self) -> int:
        return -sum(self.coords)

    def norm(self) -> int:
        """Field norm: the product of the p - 1 conjugates, an integer."""
        return orbit_product(self, primitive_root(self.p), self.p - 1).as_rational()

    def __repr__(self) -> str:
        terms = [f"{c}*z^{e}" for e, c in zip(range(1, self.p), self.coords) if c]
        return f"<{' + '.join(terms) if terms else '0'} (p={self.p})>"


# -- coordinate maps ------------------------------------------------------------


def kappa(x: CycloInt) -> Tuple[int, ...]:
    """Coordinates of x with respect to {zeta..zeta^{p-1}} (identity on storage)."""
    return x.coords


def kappa_inv(p: int, vec: Sequence[int]) -> CycloInt:
    return CycloInt(p, tuple(vec))


def trace_coordinate_residues(x: CycloInt) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Trace-form coordinate extraction, two variants.

    Returns (exact, shifted) with
      exact[c-1]   = Tr((zeta^{-c} - 1) x)          ( = p * kappa(x)_c, always)
      shifted[c-1] = Tr((1 + zeta^{-c}) x)          ( = p * kappa(x)_c on trace-zero x)
    """
    p = x.p
    tr = x.trace()
    exact = []
    shifted = []
    for c in range(1, p):
        t = -sum(zeta_shift(p, x.coords, -c))          # Tr(zeta^{-c} x)
        exact.append(t - tr)
        shifted.append(t + tr)
    return tuple(exact), tuple(shifted)


def trace_form(e: CycloInt) -> List[int]:
    """The row of w -> Tr(w e) on kappa(w): Tr(w e) = sum_c (p e_{p-c} - sum_i e_i) w_c."""
    p, coords = e.p, e.coords
    total = sum(coords)
    return [p * coords[(p - c) - 1] - total for c in range(1, p)]


def trace_product_coordinate_identity(x: CycloInt, y: CycloInt) -> bool:
    """Tr(x y) equals the trace form of y applied to kappa(x), exactly."""
    return (x * y).trace() == sum(a * b for a, b in zip(trace_form(y), kappa(x)))


# -- lambda-adic expansions -------------------------------------------------------


def uniformizer(p: int) -> CycloInt:
    return CycloInt.from_rational(p, 1) - CycloInt.zeta_power(p, 1)


def inverse_uniformizer_numerator(p: int) -> CycloInt:
    """p/(1-zeta) as an exact algebraic integer: -(zeta + 2 zeta^2 + ... )."""
    return CycloInt(p, tuple(-c for c in range(1, p)))


def divide_by_uniformizer(x: CycloInt) -> CycloInt:
    """x/lambda for lambda = 1 - zeta, as x (p/lambda) / p: exact, and a
    ValueError when lambda does not divide x."""
    p = x.p
    scaled = (x * inverse_uniformizer_numerator(p)).coords
    if any(c % p for c in scaled):
        raise ValueError("element is not divisible by the uniformizer")
    return CycloInt(p, tuple(c // p for c in scaled))


def residue_mod_uniformizer(x: CycloInt) -> int:
    """Image in Z[zeta]/(lambda) = F_p, i.e. evaluation at zeta = 1 mod p."""
    return sum(x.coords) % x.p


def lambda_valuation(x: CycloInt) -> int:
    """v_lambda(x) for nonzero x."""
    if x.is_zero():
        raise ValueError("valuation of zero")
    v = 0
    while residue_mod_uniformizer(x) == 0:
        x = divide_by_uniformizer(x)
        v += 1
    return v


@dataclass(frozen=True)
class LambdaExpansion:
    p: int
    digits: Tuple[int, ...]
    terminated: bool  # remainder hit zero within the requested digits

    def partial_sum(self) -> CycloInt:
        p = self.p
        acc = CycloInt.zero(p)
        power = CycloInt.from_rational(p, 1)
        lam = uniformizer(p)
        for d in self.digits:
            if d:
                acc = acc + power.scale(d)
            power = power * lam
        return acc


def lambda_expand(w: CycloInt, digits: int) -> LambdaExpansion:
    """First `digits` balanced lambda-adic digits of an integral element.

    Digits lie in {-(p-1)/2..(p-1)/2}; the partial sum reproduces w modulo
    lambda^digits.
    """
    if digits < 1:
        raise ValueError("need at least one digit")
    p = w.p
    out = []
    cur = w
    for _ in range(digits):
        d = residue_mod_uniformizer(cur)
        if d > (p - 1) // 2:
            d -= p
        out.append(d)
        cur = cur - CycloInt.from_rational(p, d)
        cur = divide_by_uniformizer(cur)
    return LambdaExpansion(p, tuple(out), cur.is_zero())


def congruent_mod_uniformizer_power(a: CycloInt, b: CycloInt, k: int) -> bool:
    """a = b mod lambda^k, by at most k divisions of a - b by lambda."""
    d = a - b
    if d.is_zero():
        return True
    for _ in range(k):
        if residue_mod_uniformizer(d):
            return False
        d = divide_by_uniformizer(d)
    return True


def congruent_mod_rational(a: CycloInt, b: CycloInt, m: int) -> bool:
    """a = b mod m Z[zeta], coordinatewise."""
    return all(c % m == 0 for c in (a - b).coords)


# -- archimedean magnitudes ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _roots_of_unity(p: int) -> Tuple[complex, ...]:
    """e^{2 pi i j/p} for j = 0..p-1 in complex doubles."""
    return tuple(cmath.exp(2j * math.pi * j / p) for j in range(p))


def embedding_abs(x: CycloInt, c: int = 1) -> Tuple[float, float]:
    """|sigma_c(x)| at zeta = e^{2 pi i/p} in double precision, with an a-priori
    error bound: (value, err) with |value - |sigma_c(x)|| <= err.

    err = (p + 8) 2^-50 sum_e |x_e|.  Why it holds, with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3-4): the angle
    2 pi j/p < 8 is within 3 ulp (math.pi, the product by j, the division
    by p), so within 3 * 2^-50, and cos and sin are each within 1 ulp, so a
    root is within (3 + 1/4) 2^-50.  Converting x_e to a float and taking the
    product add 2u relative, so each term x_e zeta^{ce} is within
    4 * 2^-50 |x_e|.  Each of the p - 2 complex additions adds at most
    sqrt(2) u times the running sum of |terms|, so the sum adds
    (p - 1) 2^-52 sum |x_e|, and abs (1 ulp) adds 2u |acc|.  That is below
    (4 + (p + 1)/4) 2^-50 sum |x_e|, and the bound keeps a margin that
    absorbs the roundings in computing err itself.

    Domain: every |x_e| < 2^1000, so no value overflows (p is far below
    2^20).  The identities tables stay far inside it: at p = 101 their
    largest coordinate has 32 bits.
    """
    p = x.p
    roots = _roots_of_unity(p)
    acc = 0j
    for e, coef in enumerate(x.coords, 1):
        if coef:
            acc += coef * roots[c * e % p]
    return abs(acc), (p + 8) * 2.0 ** -50 * sum(map(abs, x.coords))


def max_conjugate_abs(x: CycloInt) -> Tuple[float, float]:
    """max_c |sigma_c(x)| with the error bound of `embedding_abs`.

    x has integer coordinates, so sigma_{p-c}(x) is the complex conjugate of
    sigma_c(x) and c = 1..(p-1)/2 covers every absolute value.  The bound is
    the same for every c, so value + err bounds every conjugate.
    """
    best = (0.0, 0.0)
    for c in range(1, (x.p + 1) // 2):
        v, e = embedding_abs(x, c)
        if v > best[0]:
            best = (v, e)
    return best


# -- polynomial helpers over Z/m ------------------------------------------------------
# Coefficient lists, lowest degree first.  Division needs the leading
# coefficient of the divisor to be a unit mod m: over a field F_r it always
# is; over Z/N with N composite, pow(lc, -1, N) raises ValueError when not.


def _poly_trim(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_red(f: Sequence[int], m: int) -> List[int]:
    return _poly_trim([c % m for c in f])


def _poly_divmod(a: Sequence[int], b: Sequence[int], m: int) -> Tuple[List[int], List[int]]:
    """Division with remainder; ValueError when the leading coefficient of b
    is not a unit mod m."""
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


def _poly_mul(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    return _poly_red(convolve(a, b), m)


def _poly_gcd(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    """Monic gcd over Z/m by Euclid.  Over a field F_m it always exists; over
    composite m, ValueError when a leading coefficient met is not a unit."""
    a, b = _poly_red(a, m), _poly_red(b, m)
    while b:
        a, b = b, _poly_mod(a, b, m)
    if a:
        inv = pow(a[-1], -1, m)
        a = [x * inv % m for x in a]
    return a


def _cyclotomic_poly(p: int) -> List[int]:
    return [1] * p


# -- ideals in Hermite normal form -----------------------------------------------------


def _linear_root(g: CycloInt, n: int) -> Optional[int]:
    """c with gcd(Phi_p, g) = X - c over Z/n, g read as sum_e g_e X^e; None
    when Euclid meets a leading coefficient that is not a unit mod n, or when
    the monic gcd is not linear."""
    try:
        d = _poly_gcd(_cyclotomic_poly(g.p), [0, *g.coords], n)
    except ValueError:
        return None
    return -d[0] % n if len(d) == 2 else None


@dataclass(frozen=True, eq=False)
class CycloIdeal:
    """Nonzero ideal of Z[zeta]: the HNF basis of its coordinate lattice and
    the generators it was built from.

    Two routes build the HNF.  An ideal with Z[zeta]/I = Z/n is the kernel of
    zeta -> c mod n for one root c of Phi_p mod n (Kummer-Dedekind), so its
    HNF is written from (n, c): a principal ideal whose generator shares a
    linear factor X - c with Phi_p mod |N(g)|, and a product of two such
    ideals with coprime norms, whose roots join by CRT.  Every other ideal
    takes the generic HNF of its generators' zeta-multiples.

    `gens` are the nonzero generators given to `from_generators`, and for a
    product the distinct pairwise products of the factors' gens, which
    generate it.  Equality and hashing read the HNF only, which is canonical.
    """

    p: int
    hnf: Tuple[Tuple[int, ...], ...]
    gens: Tuple[CycloInt, ...]

    @classmethod
    def from_generators(cls, gens: Sequence[CycloInt]) -> "CycloIdeal":
        gens = tuple(g for g in gens if not g.is_zero())
        if not gens:
            raise ValueError("the zero ideal is not supported")
        p = gens[0].p
        bound = abs(gens[0].norm())
        if len(gens) == 1:
            c = _linear_root(gens[0], bound)
            if c is not None:
                return cls._kernel_at_root(p, bound, c, gens)
        rows = []
        for g in gens:
            rows.extend(zeta_shift(p, g.coords, k) for k in range(p - 1))
        hnf = linalg.hermite_normal_form(rows, p - 1, det_multiple=bound)
        ideal = cls(p, tuple(tuple(r) for r in hnf), gens)
        ideal._verify_zeta_stable()
        return ideal

    @classmethod
    def principal(cls, g: CycloInt) -> "CycloIdeal":
        return cls.from_generators([g])

    @classmethod
    def _kernel_at_root(cls, p: int, n: int, c: int,
                        gens: Tuple[CycloInt, ...]) -> "CycloIdeal":
        """The ideal generated by `gens` as the kernel of Z[zeta] -> Z/n,
        zeta -> c, written in HNF: the row of zeta^j (j < p - 1) is
        zeta^j - c^(j+1) zeta^(p-1) mod n, which maps to c^j (1 - c^p) = 0,
        and the last row is n zeta^(p-1).

        Certificate: Phi_p(c) = 0 mod n makes zeta -> c a ring map onto Z/n,
        whose kernel has index n; the rows lie in it and span a lattice of
        index n, so they span the kernel.  Each generator must vanish at c
        mod n, which puts the ideal they generate in the kernel; that ideal
        has index n too (n = |N(g)| for (g), n1 n2 for a coprime product),
        so the two are equal.  A failed check raises AssertionError.
        """
        powers = [1]
        for _ in range(p - 1):
            powers.append(powers[-1] * c % n)
        if sum(powers) % n:
            raise AssertionError(f"{c} is not a root of Phi_{p} mod {n}")
        for g in gens:
            if sum(map(operator.mul, g.coords, powers[1:])) % n:
                raise AssertionError(f"a generator does not vanish at {c} mod {n}")
        rows = [tuple(1 if k == j else 0 for k in range(p - 2)) + (-powers[j + 2] % n,)
                for j in range(p - 2)]
        rows.append((0,) * (p - 2) + (n,))
        return cls(p, tuple(rows), gens)

    def _cyclic_root(self) -> Optional[Tuple[int, int]]:
        """(n, c) when the HNF pivots are 1, ..., 1, n, so that Z[zeta]/I = Z/n
        with zeta -> c; else None.  The row of zeta^(p-2) ends in
        -c^(p-1) = -c^-1 mod n, which gives c."""
        n = self.hnf[-1][-1]
        if self.norm() != n:
            return None
        return n, -pow(self.hnf[-2][-1], -1, n) % n

    def _verify_zeta_stable(self) -> None:
        for row in self.hnf:
            if not linalg.hnf_contains(self.hnf, zeta_shift(self.p, row, 1)):
                raise AssertionError("ideal lattice is not stable under zeta")

    def basis_elements(self) -> List[CycloInt]:
        return [kappa_inv(self.p, row) for row in self.hnf]

    def __mul__(self, other: "CycloIdeal") -> "CycloIdeal":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        gens = tuple(dict.fromkeys(a * b for a in self.gens for b in other.gens))
        # coprime norms make the factors comaximal, so the product is their
        # intersection: the kernel at the root that is c1 mod n1 and c2 mod n2
        mine, theirs = self._cyclic_root(), other._cyclic_root()
        if mine and theirs and math.gcd(mine[0], theirs[0]) == 1:
            (n1, c1), (n2, c2) = mine, theirs
            c = c1 + n1 * ((c2 - c1) * pow(n1, -1, n2) % n2)
            return CycloIdeal._kernel_at_root(self.p, n1 * n2, c, gens)
        # the Z-basis of self times ideal generators of other spans the
        # product lattice, so no further closure under zeta is needed; the
        # norm product times the standard lattice sits inside the product ideal
        rows = []
        basis = self.basis_elements()
        for g in other.gens:
            if g.is_rational():
                rows.extend(a.scale(g.as_rational()).coords for a in basis)
            else:
                rows.extend((a * g).coords for a in basis)
        hnf = linalg.hermite_normal_form(rows, self.p - 1,
                                         det_multiple=self.norm() * other.norm())
        out = CycloIdeal(self.p, tuple(tuple(r) for r in hnf), gens)
        out._verify_zeta_stable()
        return out

    def __pow__(self, n: int) -> "CycloIdeal":
        if n < 1:
            raise ValueError("positive ideal powers only")
        return power(self, n, None)

    def norm(self) -> int:
        """Index of the lattice in Z^(p-1): the product of its HNF pivots."""
        return math.prod(row[i] for i, row in enumerate(self.hnf))

    def contains(self, x: CycloInt) -> bool:
        return linalg.hnf_contains(self.hnf, x.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloIdeal) and self.p == other.p and self.hnf == other.hnf

    def __hash__(self):
        return hash((self.p, self.hnf))

    def is_unit_ideal(self) -> bool:
        return self.norm() == 1


# -- the characteristic data of an equation instance ------------------------------------


@dataclass(frozen=True)
class CharacteristicData:
    p: int
    e: int
    x: int
    y: int
    z: int
    alpha: CycloInt
    ideal: CycloIdeal
    norm_is_zp: bool
    ideal_pth_power_is_alpha: bool
    ideal_norm_is_z: bool
    conjugates_coprime: bool
    size_bounds_apply: bool      # |y| > |x|, the regime of the size lemma
    size_bounds_hold: bool       # |y| > |z| > 2p (meaningful only when applicable)

    @property
    def all_identity_checks(self) -> bool:
        return self.norm_is_zp and self.ideal_pth_power_is_alpha \
            and self.ideal_norm_is_z and self.conjugates_coprime


def equation_value(p: int, x: int, y: int) -> int:
    """(x^p + y^p)/(x+y), an integer for x + y != 0."""
    if x + y == 0:
        raise ValueError("x + y must be nonzero")
    num = x ** p + y ** p
    assert num % (x + y) == 0
    return num // (x + y)


def characteristic_data(p: int, e: int, x: int, y: int, z: int) -> CharacteristicData:
    """The algebraic number alpha and ideal (alpha, z) attached to a solution."""
    if e not in (0, 1):
        raise ValueError("e must be 0 or 1")
    if x == 0 or y == 0 or z == 0:
        raise ValueError("x, y, z must be nonzero")
    if math.gcd(math.gcd(abs(x), abs(y)), abs(z)) != 1:
        raise ValueError("x, y, z must be coprime")
    if math.gcd(abs(x), abs(y)) != 1:
        raise ValueError("x and y must be coprime")
    if equation_value(p, x, y) != p ** e * z ** p:
        raise ValueError("inputs do not satisfy the norm equation")
    if e == 1 and (x + y) % p != 0:
        raise ValueError("the ramified case requires p | x + y")

    zeta = CycloInt.zeta_power(p, 1)
    alpha = CycloInt.from_rational(p, x) + zeta.scale(y)
    if e == 1:
        alpha = divide_by_uniformizer(alpha)
    norm_is_zp = alpha.norm() == z ** p

    ideal = CycloIdeal.from_generators([alpha, CycloInt.from_rational(p, z)])
    pth_power = ideal ** p
    ideal_pth_power_is_alpha = pth_power == CycloIdeal.principal(alpha)
    ideal_norm_is_z = ideal.norm() == abs(z)

    coprime = True
    for c in range(1, p):
        for d in range(c + 1, p):
            both = CycloIdeal.from_generators([alpha.galois(c), alpha.galois(d)])
            if not both.is_unit_ideal():
                coprime = False

    applies = abs(y) > abs(x)
    holds = abs(y) > abs(z) > 2 * p if applies else True
    return CharacteristicData(
        p, e, x, y, z, alpha, ideal,
        norm_is_zp, ideal_pth_power_is_alpha, ideal_norm_is_z, coprime,
        applies, holds,
    )
