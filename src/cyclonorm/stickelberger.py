"""Generators and structure of the Stickelberger ideal.

Fuchsian and Fueter elements, the Fermat quotient map, modified idempotents,
Bernoulli numbers mod p computed along two independent routes, the
irregularity profile, and the weight-2 annihilator.  Everything is a function
of the prime p (the quotient map reads it from its argument); the generator
families and the Bernoulli table are cached per p, and a p that is not an odd
prime raises ValueError.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .group_ring import (
    GroupRingElement,
    fixing_subgroups,
    galois_map,
    idempotent_mod_p,
    is_prime,
    primitive_root,
)


@functools.cache
def fuchsian(p: int, n: int) -> GroupRingElement:
    """Theta_n = (n - sigma_n) * (1/p) sum c sigma_c^{-1}, coefficients floor(nc/p)."""
    if not 2 <= n <= p:
        raise ValueError(f"Fuchsian index {n} outside 2..{p}")
    return GroupRingElement(p, tuple((n * c) // p for c in range(1, p)))


@functools.cache
def fueter(p: int, n: int) -> GroupRingElement:
    """psi_n = Theta_{n+1} - Theta_n, a positive relative-weight-1 generator."""
    if not 1 <= n <= (p - 1) // 2:
        raise ValueError(f"Fueter index {n} outside 1..{(p-1)//2}")
    return fuchsian(p, 2) if n == 1 else fuchsian(p, n + 1) - fuchsian(p, n)


def fermat_quotient(t: GroupRingElement) -> int:
    """phi(t) = sum_c c^{p-2} n_c mod p; satisfies zeta^t = zeta^{phi(t)}."""
    p = t.p
    coeffs = t.coeffs
    return sum(pow(c, p - 2, p) * coeffs[c - 1] for c in range(1, p)) % p


def fermat_quotient_classical(p: int, n: int) -> int:
    """(n^p - n)/p mod p, the closed form for the Fuchsian elements."""
    return ((pow(n, p, p * p) - n) // p) % p


# -- Bernoulli numbers, two routes ---------------------------------------------------


def teichmuller_lift(p: int, a: int) -> int:
    """omega(a) mod p^2: the unique (p-1)-st root of unity congruent to a."""
    return pow(a, p, p * p)


def bernoulli_mod_p_teichmuller(p: int, k: int) -> int:
    """B_{1, omega^{-k}} mod p via (1/p) sum a * omega(a)^{-k}, work mod p^2.

    Defined for k not congruent to 1 mod p-1 (the k = 1 value has a pole).
    """
    if k % (p - 1) == 1:
        raise ValueError("the k = 1 generalized Bernoulli value is not p-integral")
    psq = p * p
    exp = (-k) % (p - 1)
    total = 0
    for a in range(1, p):
        total = (total + a * pow(teichmuller_lift(p, a), exp, psq)) % psq
    if total % p != 0:
        raise ArithmeticError("character sum not divisible by p")
    return (total // p) % p


@functools.lru_cache(maxsize=None)
def bernoulli_rational(m: int) -> Fraction:
    """Exact rational Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    total = Fraction(0)
    comb = 1  # C(m+1, j) built incrementally
    for j in range(m):
        total += comb * bernoulli_rational(j)
        comb = comb * (m + 1 - j) // (j + 1)
    return -total / (m + 1)


def bernoulli_mod_p_kummer(p: int, k: int) -> int:
    """B_{1, omega^{-k}} mod p via the congruence with B_{p-k}/(p-k), odd k >= 3."""
    if k % 2 == 0 or not 3 <= k <= p - 2:
        raise ValueError("classical route needs odd k with 3 <= k <= p-2")
    m = p - k
    b = bernoulli_rational(m)
    if b.denominator % p == 0:
        raise ArithmeticError("von Staudt-Clausen denominator divisible by p")
    num = b.numerator % p
    den_inv = pow(b.denominator % p, p - 2, p)
    m_inv = pow(m % p, p - 2, p)
    return num * den_inv * m_inv % p


@functools.cache
def bernoulli_table(p: int) -> Dict[int, int]:
    """{odd k in 3..p-2: B_{1, omega^{-k}} mod p}, cross-checked along both routes.

    The cached dict is shared by every caller: read it, or copy it first.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    table = {}
    for k in range(3, p - 1, 2):
        v1 = bernoulli_mod_p_teichmuller(p, k)
        v2 = bernoulli_mod_p_kummer(p, k)
        if v1 != v2:
            raise ArithmeticError(
                f"Bernoulli cross-check mismatch at p={p}, k={k}: {v1} != {v2}"
            )
        table[k] = v1
    return table


# -- modified idempotents -------------------------------------------------------------


def theta_p(p: int) -> GroupRingElement:
    return fuchsian(p, p)


def modified_idempotent(p: int, k: int) -> GroupRingElement:
    """E_k in F_p[G]: the Stickelberger multiple of e_k.

    E_k = B_{1, omega^{-k}} e_k for odd k >= 3; the k = 1 member is fixed by
    the convention E_1 = -Theta_p (so E_1 = e_1 in F_p[G] and phi(E_1) = 1).
    """
    if k % 2 == 0 or not 1 <= k <= p - 2:
        raise ValueError("modified idempotents are indexed by odd k in 1..p-2")
    if k == 1:
        return (-theta_p(p)).reduce(p)
    b = bernoulli_table(p)[k]
    return idempotent_mod_p(p, k).scale(b).reduce(p)


@dataclass(frozen=True)
class BernoulliProfile:
    p: int
    table: Dict[int, int]            # odd k in 3..p-2 -> B_{1, omega^{-k}} mod p
    irregular_indices: Tuple[int, ...]   # odd k with vanishing value
    irregularity_index: int          # i_p
    surviving: Tuple[int, ...]       # R_p = {odd k nonvanishing} + {1}
    surviving_count: int             # r_p = |R_p|
    minus_part_rank: int             # rank over F_p of (1 - conj) * Fueter span
    lepisto_ok: bool                 # i_p < (p-1)/4
    rank_matches: bool               # minus_part_rank == r_p


def minus_part_rank(p: int) -> int:
    """Rank over F_p of the span of (1 - conj) sigma_c psi_n for all c, n.

    The span is walked by Krylov subspaces: for each n, the rows
    sigma_g^i (1 - conj) psi_n, i = 0, 1, ..., for a primitive root g, until
    the first row already in the running span.  That span is then
    sigma_g-stable, so no later sigma_g^i adds to it, and sigma_g generates
    every sigma_c.  Left multiplication by sigma_g is the index map
    t_d <- t_{dg}, and each row is reduced against an echelon mod p as it
    comes: at most rank + (p-1)/2 rows of the (p-1)^2/2.
    """
    step = galois_map(p, pow(primitive_root(p), -1, p))          # sigma_g t
    echelon: List[Tuple[int, List[int]]] = []      # (pivot, row with pivot entry 1)
    for n in range(1, (p - 1) // 2 + 1):
        coeffs = fueter(p, n).coeffs
        row = [(a - b) % p for a, b in zip(coeffs, reversed(coeffs))]
        while True:
            v = row
            for pivot, basis_row in echelon:
                f = v[pivot]
                if f:
                    v = [(x - f * y) % p for x, y in zip(v, basis_row)]
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is None:
                break
            inv = pow(v[pivot], p - 2, p)
            echelon.append((pivot, [x * inv % p for x in v]))
            row = step(row)
    return len(echelon)


def bernoulli_profile(p: int) -> BernoulliProfile:
    table = bernoulli_table(p)
    irregular = tuple(sorted(k for k, v in table.items() if v == 0))
    i_p = len(irregular)
    surviving = tuple(sorted([1] + [k for k, v in table.items() if v != 0]))
    r_p = len(surviving)
    rank = minus_part_rank(p)
    return BernoulliProfile(
        p=p,
        table=dict(table),
        irregular_indices=irregular,
        irregularity_index=i_p,
        surviving=surviving,
        surviving_count=r_p,
        minus_part_rank=rank,
        lepisto_ok=4 * i_p < p - 1,
        rank_matches=rank == r_p,
    )


# -- the weight-two annihilator ---------------------------------------------------------


@dataclass(frozen=True)
class Annihilator:
    element: GroupRingElement
    recipe: str                      # 'double-fueter' | 'two-term' | 'search'
    fixed_by: Tuple[Tuple[int, int], ...]  # nontrivial fixing subgroups (order, gen)

    @property
    def is_unfixed(self) -> bool:
        return not self.fixed_by


def _search(p: int, quotient: Dict[int, int]
            ) -> Iterator[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]]:
    """(coefficients, nontrivial fixing subgroups) of each quotient-zero
    sigma_a psi_m + sigma_b psi_n, m <= n, in (m, n, a, b) order."""
    # moves[a](t) = sigma_a t, the Galois permutation of 1/a
    moves = [None] + [galois_map(p, pow(a, -1, p)) for a in range(1, p)]
    half = (p - 1) // 2
    for m in range(1, half + 1):
        for n in range(m, half + 1):
            psi_m, psi_n = fueter(p, m).coeffs, fueter(p, n).coeffs
            for a in range(1, p):
                for b in range(1, p):
                    if (a * quotient[m] + b * quotient[n]) % p == 0:
                        t = tuple(map(operator.add, moves[a](psi_m), moves[b](psi_n)))
                        yield t, fixing_subgroups(p, t)[1:]


def construct_weight2_annihilator(p: int) -> Annihilator:
    """A positive relative-weight-2 element with vanishing Fermat quotient.

    Each sigma_a psi_n has relative weight 1, and phi(sigma_a t) = a phi(t),
    so every candidate below has relative weight 2 and quotient 0.  The
    preferred one is not fixed by any nontrivial subgroup (the norm element
    is fixed by all of them).  Recipes first: 2 psi_n when phi(psi_n) = 0,
    then sigma_a psi_1 + sigma_b psi_2 with a = phi(psi_2), b = -phi(psi_1).
    Then the exhaustive search over sigma_a psi_m + sigma_b psi_n, smallest
    (m, n, a, b) first.  When no candidate is unfixed (p in {5, 7}), the
    first subgroup-fixed search element other than the norm element is
    returned, else the norm element, which m = n = 1, b = -a always reaches:
    at 5 the norm element is the only candidate, at 7 the others are fixed
    by the order-3 subgroup.

    The search runs on coefficient tuples, sigma_a an index map; only the
    candidate returned becomes a group-ring element.
    """
    if p < 5:
        raise ValueError("needs p >= 5")
    half = (p - 1) // 2
    quotient = {n: fermat_quotient(fueter(p, n)) for n in range(1, half + 1)}
    sigma = functools.partial(GroupRingElement.sigma, p)

    recipes = [(fueter(p, n).scale(2), "double-fueter")
               for n in range(1, half + 1) if quotient[n] == 0]
    a, b = quotient[2], -quotient[1] % p
    if a and b:
        recipes.append((sigma(a) * fueter(p, 1) + sigma(b) * fueter(p, 2), "two-term"))
    for elem, recipe in recipes:
        cand = Annihilator(elem, recipe, fixing_subgroups(p, elem.coeffs)[1:])
        if cand.is_unfixed:
            return cand

    norm = (1,) * (p - 1)
    fallback = None
    for t, fixed_by in _search(p, quotient):
        if not fixed_by:
            return Annihilator(GroupRingElement(p, t), "search", ())
        if fallback is None or fallback[0] == norm and t != norm:
            fallback = (t, fixed_by)
    t, fixed_by = fallback
    return Annihilator(GroupRingElement(p, t), "search", fixed_by)
