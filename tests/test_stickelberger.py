import functools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cyclonorm import linalg

from cyclonorm.cyclotomic import CycloInt
from cyclonorm.group_ring import GroupRingElement, fixing_subgroups, weights
from cyclonorm.stickelberger import (
    Annihilator,
    bernoulli_mod_p_kummer,
    bernoulli_mod_p_teichmuller,
    bernoulli_profile,
    bernoulli_rational,
    construct_weight2_annihilator,
    fermat_quotient,
    fermat_quotient_classical,
    fuchsian,
    fueter,
    minus_part_rank,
    modified_idempotent,
    theta_p,
)

PRIMES = [5, 7, 11, 13, 37]


def test_fuchsian_examples():
    assert fuchsian(5, 2) == GroupRingElement.from_inverse_coeffs(5, {3: 1, 4: 1})
    assert fuchsian(5, 5).coeffs == (1, 2, 3, 4)
    # sigma_c^{-1} translation: coefficient c sits at sigma_c^{-1}
    s = GroupRingElement.sigma
    assert fuchsian(5, 5) == s(5, 1) + s(5, 3).scale(2) + s(5, 2).scale(3) + s(5, 4).scale(4)
    with pytest.raises(ValueError):
        fuchsian(5, 1)
    with pytest.raises(ValueError):
        fuchsian(5, 6)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_p_not_an_odd_prime_is_refused(p):
    calls = [lambda: fuchsian(p, 2), lambda: fueter(p, 1), lambda: theta_p(p),
             lambda: minus_part_rank(p), lambda: bernoulli_profile(p),
             lambda: modified_idempotent(p, 3), lambda: construct_weight2_annihilator(p)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("p", PRIMES)
def test_fueter_structure(p):
    half = (p - 1) // 2
    # first generator: support over the upper half indices
    expected = GroupRingElement.from_inverse_coeffs(p, {c: 1 for c in range(half + 1, p)})
    assert fueter(p, 1) == expected == fuchsian(p, 2)
    for n in range(1, half + 1):
        psi = fueter(p, n)
        if n > 1:
            assert psi == fuchsian(p, n + 1) - fuchsian(p, n)
        w = weights(psi)
        assert w.relative == 1 and w.nonnegative and w.absolute == half
        support = set(psi.support())
        assert support | {p - c for c in support} == set(range(1, p))
        assert support & {p - c for c in support} == set()


@pytest.mark.parametrize("p", PRIMES)
def test_fermat_quotient_two_paths(p):
    for n in range(2, p + 1):
        assert fermat_quotient(fuchsian(p, n)) == fermat_quotient_classical(p, n)
    assert fermat_quotient(theta_p(p)) == p - 1


def test_fermat_quotient_example_p5():
    # direct power-sum evaluation: 3^3 + 4^3 = 91 = 1 mod 5 = (2^5 - 2)/5 mod 5
    assert fermat_quotient(fuchsian(5, 2)) == 91 % 5 == 1
    assert ((2 ** 5 - 2) // 5) % 5 == 1


@pytest.mark.parametrize("p", PRIMES)
def test_fermat_quotient_linear_and_action(p):
    rng = random.Random(p)
    z = CycloInt.zeta_power(p, 1)
    for _ in range(25):
        t1 = GroupRingElement(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
        t2 = GroupRingElement(p, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        assert fermat_quotient(t1.scale(a) + t2.scale(b)) == \
            (a * fermat_quotient(t1) + b * fermat_quotient(t2)) % p
        pos = GroupRingElement(p, tuple(rng.randrange(0, 4) for _ in range(p - 1)))
        assert z.group_ring_power(pos) == CycloInt.zeta_power(p, fermat_quotient(pos))


def test_bernoulli_rational_against_sympy():
    for m in range(0, 40):
        if m == 1:
            continue   # conventions differ in the sign of the odd first value
        assert bernoulli_rational(m) == Fraction(int(sympy.bernoulli(m).p),
                                                 int(sympy.bernoulli(m).q))


@pytest.mark.parametrize("p", PRIMES)
def test_bernoulli_two_routes_agree(p):
    for k in range(3, p - 1, 2):
        assert bernoulli_mod_p_teichmuller(p, k) == bernoulli_mod_p_kummer(p, k)


def test_irregularity_profiles():
    prof7 = bernoulli_profile(7)
    assert prof7.irregularity_index == 0
    prof37 = bernoulli_profile(37)
    assert prof37.irregularity_index == 1
    assert prof37.irregular_indices == (5,)      # p - k = 32
    assert 37 - prof37.irregular_indices[0] == 32
    # the witness is visible in the exact rational numerator too
    b32 = bernoulli_rational(32)
    assert b32.numerator % 37 == 0


@pytest.mark.parametrize("p", PRIMES)
def test_profile_bounds_and_rank(p):
    prof = bernoulli_profile(p)
    assert prof.lepisto_ok                      # 4 i_p < p - 1
    assert prof.surviving_count == (p - 1) // 2 - prof.irregularity_index
    assert prof.rank_matches
    assert 4 * prof.surviving_count >= p - 1   # r_p >= (p - 1)/4


def test_rank_lower_bound_follows_from_lepisto():
    # r_p = (p - 1)/2 - i_p, so 4 i_p < p - 1 gives 4 r_p > p - 1: the
    # irregularity-profile record reads Lepisto's bound alone
    for p in sympy.primerange(5, 102):
        prof = bernoulli_profile(p)
        assert prof.surviving_count == (p - 1) // 2 - prof.irregularity_index
        assert prof.lepisto_ok and 4 * prof.surviving_count >= p - 1


def rank_mod_p_reference(rows, p):
    """Gauss-Jordan elimination over F_p: the rank of the rows mod p."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def minus_part_rows(p):
    """Every (1 - conj) sigma_c psi_n mod p, the rows minus_part_rank spans."""
    rows = []
    for n in range(1, (p - 1) // 2 + 1):
        for c in range(1, p):
            elem = GroupRingElement.sigma(p, c) * fueter(p, n)
            rows.append([(a - b) % p for a, b in zip(elem.coeffs, elem.conjugate().coeffs)])
    return rows


def reference_hnf_rank(rows, p):
    """The all-rows route: the HNF of the rows and p*Z^(p-1), whose pivots
    equal to 1 count the rank mod p."""
    hnf = linalg.hermite_normal_form(rows, p - 1, det_multiple=p)
    return sum(hnf[i][i] == 1 for i in range(p - 1))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 37])
def test_minus_part_rank_against_elimination(p):
    rows = minus_part_rows(p)
    assert minus_part_rank(p) == reference_hnf_rank(rows, p) == rank_mod_p_reference(rows, p)


# (p - 1)/2 minus the irregularity index: (37, 32), (59, 44), (67, 58) and
# (101, 68) are the irregular pairs, so each rank is one short of (p - 1)/2
@pytest.mark.parametrize("p,rank", [(37, 17), (59, 28), (67, 32), (101, 49)])
def test_minus_part_rank_pinned(p, rank):
    assert minus_part_rank(p) == rank


@st.composite
def matrices_mod_prime(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3 * p, 3 * p), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)), max_size=8))
    if rows:
        # a repeated row adds nothing to the rank
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return p, ncols, rows


@settings(max_examples=200, deadline=None)
@given(matrices_mod_prime())
def test_hnf_pivots_of_one_count_the_rank_mod_p(case):
    # with p*Z^n preloaded every pivot divides p, and the index p^(n - rank)
    # leaves exactly rank pivots equal to 1
    p, ncols, rows = case
    hnf = linalg.hermite_normal_form(rows, ncols, det_multiple=p)
    assert all(hnf[i][i] in (1, p) for i in range(ncols))
    assert sum(hnf[i][i] == 1 for i in range(ncols)) == rank_mod_p_reference(rows, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_modified_idempotents(p):
    prof = bernoulli_profile(p)
    e1 = modified_idempotent(p, 1)
    assert fermat_quotient(e1) == 1
    for k in range(3, p - 1, 2):
        ek = modified_idempotent(p, k)
        assert fermat_quotient(ek) == 0
        if k in prof.surviving:
            for m in range(2, p):
                assert GroupRingElement.sigma(p, m, p) * ek == ek.scale(pow(m, k, p)).reduce(p)
        else:
            assert ek.is_zero()


def test_annihilator_across_primes():
    # p = 5: the norm element is the only quotient-zero candidate
    ann5 = construct_weight2_annihilator(5)
    assert not ann5.is_unfixed
    assert ann5.element == GroupRingElement.norm_element(5)
    assert fermat_quotient(ann5.element) == 0

    # p = 7: candidates exist but are fixed by the order-3 subgroup
    ann7 = construct_weight2_annihilator(7)
    assert not ann7.is_unfixed
    assert ann7.element != GroupRingElement.norm_element(7)
    assert weights(ann7.element).relative == 2
    assert fermat_quotient(ann7.element) == 0
    assert ann7.fixed_by and ann7.fixed_by[0][0] == 3

    # p >= 11: the two-term recipe provides a stabilizer-free element
    for p in (11, 13, 37):
        ann = construct_weight2_annihilator(p)
        assert ann.is_unfixed
        assert weights(ann.element).relative == 2
        assert weights(ann.element).nonnegative
        assert fermat_quotient(ann.element) == 0
        assert all(o == 1 for o, _ in fixing_subgroups(p, ann.element.coeffs))


# (recipe, coefficients, fixed_by) of each branch, recorded from the search
# that ran strict and then relaxed: the norm element at 5, a search element
# fixed by the order-3 subgroup at 7, the two-term recipe at 11, and 2 psi_3
# at 59, the least prime that takes the double-fueter recipe
ANNIHILATOR_PINS = {
    5: ("search", (1, 1, 1, 1), ((2, 4), (4, 2))),
    7: ("search", (0, 0, 2, 0, 2, 2), ((3, 2),)),
    11: ("two-term", (0, 0, 0, 1, 1, 1, 1, 2, 2, 2), ()),
    59: ("double-fueter", (0,) * 14 + (2,) * 5 + (0,) * 10 + (2,) * 10 + (0,) * 5 + (2,) * 14,
         ()),
}


def reference_annihilator(p):
    """The object route: every candidate built as group-ring products, its
    stabilizers from fixing_subgroups, and the fallback chosen by min."""
    def candidate(elem, recipe):
        return Annihilator(elem, recipe,
                           tuple((o, g) for o, g in fixing_subgroups(p, elem.coeffs) if o > 1))

    half = (p - 1) // 2
    quotient = {n: fermat_quotient(fueter(p, n)) for n in range(1, half + 1)}
    sigma = functools.partial(GroupRingElement.sigma, p)
    recipes = [(fueter(p, n).scale(2), "double-fueter")
               for n in range(1, half + 1) if quotient[n] == 0]
    a, b = quotient[2], -quotient[1] % p
    if a and b:
        recipes.append((sigma(a) * fueter(p, 1) + sigma(b) * fueter(p, 2), "two-term"))
    for elem, recipe in recipes:
        cand = candidate(elem, recipe)
        if cand.is_unfixed:
            return cand
    fixed = []
    for m in range(1, half + 1):
        for n in range(m, half + 1):
            for a in range(1, p):
                for b in range(1, p):
                    if (a * quotient[m] + b * quotient[n]) % p == 0:
                        cand = candidate(sigma(a) * fueter(p, m) + sigma(b) * fueter(p, n),
                                         "search")
                        if cand.is_unfixed:
                            return cand
                        fixed.append(cand)
    norm = GroupRingElement.norm_element(p)
    return min(fixed, key=lambda cand: cand.element == norm)


@pytest.mark.parametrize("p", [p for p in range(5, 62) if sympy.isprime(p)])
def test_annihilator_equals_the_object_route(p):
    ann, ref = construct_weight2_annihilator(p), reference_annihilator(p)
    assert (ann.element, ann.recipe, ann.fixed_by) == (ref.element, ref.recipe, ref.fixed_by)


@pytest.mark.parametrize("p", sorted(ANNIHILATOR_PINS))
def test_annihilator_branches_pinned(p):
    ann = construct_weight2_annihilator(p)
    assert (ann.recipe, ann.element.coeffs, ann.fixed_by) == ANNIHILATOR_PINS[p]


def test_stabilizer_finding_second_generator_p7():
    """The second generator at p = 7 is fixed by the order-3 subgroup.

    This pins the boundary of the subgroup-invariance transfer: the fixed
    difference is annihilated even though the cofactor moves.
    """
    p = 7
    psi2 = fueter(p, 2)
    fixed = fixing_subgroups(p, psi2.coeffs)
    assert (3, 2) in fixed
    # the cofactor 1 + sigma_2 - sigma_3 is NOT fixed by sigma_2 ...
    t = GroupRingElement.one(7) + GroupRingElement.sigma(7, 2) - GroupRingElement.sigma(7, 3)
    assert GroupRingElement.sigma(7, 2) * t != t
    # ... and the moved difference is annihilated by the top element
    u = GroupRingElement.sigma(7, 2) * t - t
    assert (theta_p(p) * u).is_zero()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_invariance_transfer_forward(p):
    from cyclonorm.group_ring import subgroups
    rng = random.Random(p * 31)
    for _ in range(15):
        t = GroupRingElement.zero(p)
        theta = GroupRingElement.zero(p)
        for _ in range(3):
            c = rng.randrange(1, p)
            n = rng.randrange(1, (p - 1) // 2 + 1)
            a = rng.randrange(-2, 3)
            s = GroupRingElement.sigma(p, c)
            base = GroupRingElement.one(p) + GroupRingElement.sigma(p, n) \
                - GroupRingElement.sigma(p, n + 1)
            t = t + (s * base).scale(a)
            theta = theta + (s * fueter(p, n)).scale(a)
        for order, gen in subgroups(p):
            nu = GroupRingElement.sigma(p, gen)
            if nu * t == t:
                assert nu * theta == theta
            if nu * theta == theta and nu * t != t:
                # converse boundary: the moved difference is annihilated
                assert (theta_p(p) * (nu * t - t)).is_zero()
