"""Exact arithmetic in Z[G] and F_p[G] for G = (Z/pZ)^x, and the two
coordinate kernels it shares with Z[zeta] and Z_y[zeta].

Elements are stored as coefficient vectors indexed by c in {1..p-1} with the
meaning  sum_c n_c * sigma_c^{-1},  where sigma_c: zeta -> zeta^c.  Indexing by
the inverse automorphism keeps Stickelberger formulas free of inversions; the
group law on indices is plain multiplication mod p either way.

`convolve` is the one product loop, `galois_coords` the one Galois index map
(sigma_a t is that of 1/a); by the discrete log c = g^k, Z[G] is the cyclic
group ring of length p - 1 (Rader, Proc. IEEE 56, 1968) and folds `convolve`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


@functools.cache
def primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p."""
    order = p - 1
    prime_factors = [r for r, _ in prime_power_split(order)]
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


def convolve(a: Sequence, b: Sequence) -> List:
    """acc[i + j] = sum a_i b_j, skipping zero entries: the one product loop."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    acc[j] += ai * bj
    return acc


@functools.cache
def galois_map(p: int, c: int) -> Callable[[Sequence], Tuple]:
    """Index map of sigma_c, c in 1..p-1, on entries 1..p-1: entry j moves to c j."""
    return operator.itemgetter(*sorted(range(p - 1), key=lambda j: (j + 1) * c % p))


def galois_coords(p: int, coords: Sequence, c: int) -> Tuple:
    """Coordinates of sigma_c (zeta -> zeta^c): entry j moves to c j mod p."""
    if c % p == 0:
        raise ValueError("Galois index must be prime to p")
    return galois_map(p, c % p)(coords)


@functools.cache
def _log_order(p: int) -> Tuple[Callable[[Sequence], Tuple], Callable[[Sequence], Tuple]]:
    """(to_log, from_log): a vector on c = 1..p-1 read in the order of k, c = g^k, and back."""
    powers = [pow(primitive_root(p), k, p) for k in range(p - 1)]
    return (operator.itemgetter(*[c - 1 for c in powers]),
            operator.itemgetter(*sorted(range(p - 1), key=powers.__getitem__)))


@dataclass(frozen=True)
class GroupRingElement:
    """sum_c coeffs[c-1] * sigma_c^{-1}, over Z or Z/modulus."""

    p: int
    coeffs: Tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if len(self.coeffs) != self.p - 1:
            raise ValueError("coefficient vector must have length p-1")
        if self.modulus is not None:
            if any(not (0 <= c < self.modulus) for c in self.coeffs):
                object.__setattr__(
                    self, "coeffs", tuple(c % self.modulus for c in self.coeffs)
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, modulus: Optional[int] = None) -> "GroupRingElement":
        return cls(p, (0,) * (p - 1), modulus)

    @classmethod
    def one(cls, p: int, modulus: Optional[int] = None) -> "GroupRingElement":
        return cls.from_inverse_coeffs(p, {1: 1}, modulus)

    @classmethod
    def from_inverse_coeffs(cls, p: int, coeffs: Dict[int, int],
                            modulus: Optional[int] = None) -> "GroupRingElement":
        """Build from {c: n_c} for sum n_c sigma_c^{-1}."""
        vec = [0] * (p - 1)
        for c, n in coeffs.items():
            if not 1 <= c <= p - 1:
                raise ValueError(f"index {c} outside 1..{p-1}")
            vec[c - 1] += n
        return cls(p, tuple(vec), modulus)

    @classmethod
    def sigma(cls, p: int, a: int, modulus: Optional[int] = None) -> "GroupRingElement":
        """The automorphism sigma_a as a ring element."""
        a %= p
        if a == 0:
            raise ValueError("sigma index must be prime to p")
        return cls.from_inverse_coeffs(p, {pow(a, p - 2, p): 1}, modulus)

    @classmethod
    def norm_element(cls, p: int, modulus: Optional[int] = None) -> "GroupRingElement":
        return cls(p, (1,) * (p - 1), modulus)

    # -- basic accessors ----------------------------------------------------

    def coeff(self, c: int) -> int:
        """Coefficient n_c of sigma_c^{-1}."""
        return self.coeffs[c - 1]

    def support(self) -> List[int]:
        return [c for c in range(1, self.p) if self.coeff(c) != 0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring structure ------------------------------------------------------

    def _check_compatible(self, other: "GroupRingElement") -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} != {other.p}")
        if self.modulus != other.modulus:
            raise ValueError(f"mismatched moduli {self.modulus} != {other.modulus}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        return GroupRingElement(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.modulus
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        return GroupRingElement(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.modulus
        )

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.p, tuple(-a for a in self.coeffs), self.modulus)

    def scale(self, n: int) -> "GroupRingElement":
        return GroupRingElement(self.p, tuple(n * a for a in self.coeffs), self.modulus)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution under sigma_a sigma_b = sigma_{ab}: discrete logs add mod p - 1."""
        self._check_compatible(other)
        to_log, from_log = _log_order(self.p)
        acc = convolve(to_log(self.coeffs), to_log(other.coeffs)) + [0]
        folded = [x + y for x, y in zip(acc, acc[self.p - 1:])]     # k + p - 1 onto k
        return GroupRingElement(self.p, from_log(folded), self.modulus)

    def galois(self, a: int) -> "GroupRingElement":
        """sigma_a * self, an index map: n_d <- n_{da mod p}."""
        return GroupRingElement(self.p, galois_coords(self.p, self.coeffs, pow(a, -1, self.p)),
                                self.modulus)

    def conjugate(self) -> "GroupRingElement":
        """Left multiplication by complex conjugation sigma_{p-1}."""
        return GroupRingElement(self.p, self.coeffs[::-1], self.modulus)

    def reduce(self, modulus: int) -> "GroupRingElement":
        return GroupRingElement(self.p, tuple(c % modulus for c in self.coeffs), modulus)

    def lift(self) -> "GroupRingElement":
        """Minimal nonnegative integer representative over Z."""
        return GroupRingElement(self.p, self.coeffs, None)

    def __repr__(self) -> str:
        terms = [f"{n}*s{c}^-1" for c, n in zip(range(1, self.p), self.coeffs) if n]
        body = " + ".join(terms) if terms else "0"
        tag = f" mod {self.modulus}" if self.modulus is not None else ""
        return f"<{body} (p={self.p}{tag})>"


@dataclass(frozen=True)
class WeightInfo:
    absolute: int
    relative: Optional[int]
    nonnegative: bool


def weights(t: GroupRingElement) -> WeightInfo:
    """Absolute weight sum |n_c|, relative weight n_c + n_{p-c} when constant."""
    if t.modulus is not None:
        raise ValueError("weights are defined for elements over Z")
    p = t.p
    absolute = sum(abs(c) for c in t.coeffs)
    sums = {t.coeff(c) + t.coeff(p - c) for c in range(1, p)}
    relative = sums.pop() if len(sums) == 1 else None
    return WeightInfo(absolute, relative, all(c >= 0 for c in t.coeffs))


def idempotent_mod_p(p: int, k: int) -> GroupRingElement:
    """Character idempotent e_k of F_p[G] for the mod-p Teichmuller character:
    e_k = (1/(p-1)) sum_a a^k sigma_a^{-1}; 1/(p-1) = -1 mod p."""
    if not 0 <= k <= p - 2:
        raise ValueError(f"character exponent {k} outside 0..{p-2}")
    coeffs = {a: (-pow(a, k, p)) % p for a in range(1, p)}
    return GroupRingElement.from_inverse_coeffs(p, coeffs, p)


@functools.cache
def subgroups(p: int) -> Tuple[Tuple[int, int], ...]:
    """All subgroups of G as (order, generator index a of sigma_a).

    One cyclic subgroup per divisor of p-1, generated by g^{(p-1)/d} for the
    smallest primitive root g.
    """
    g = primitive_root(p)
    divisors = sorted(d for d in range(1, p) if (p - 1) % d == 0)
    return tuple((d, pow(g, (p - 1) // d, p)) for d in divisors)


def fixing_subgroups(p: int, coeffs: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """Subgroups (order, a), (1, 1) first, whose sigma_a's index map keeps `coeffs`."""
    return tuple((o, g) for o, g in subgroups(p) if galois_map(p, g)(coeffs) == coeffs)
