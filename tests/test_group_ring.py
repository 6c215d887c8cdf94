import math

import pytest
from hypothesis import given, settings, strategies as st

from cyclonorm.group_ring import (
    GroupRingElement,
    fixing_subgroups,
    idempotent_mod_p,
    is_prime,
    prime_power_split,
    primitive_root,
    subgroups,
    weights,
)

PRIMES = [5, 7, 11, 13]


def elements(p, lo=-9, hi=9):
    return st.tuples(*([st.integers(lo, hi)] * (p - 1))).map(
        lambda t: GroupRingElement(p, t))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(p, data):
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    c = data.draw(elements(p))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_group_law_examples():
    s = GroupRingElement.sigma
    assert s(5, 2) * s(5, 3) == s(5, 1)
    e = s(5, 2) + s(5, 4)
    assert e * GroupRingElement.one(5) == e
    assert s(7, 2) * (s(7, 2) + s(7, 3)) == s(7, 4) + s(7, 6)


def test_weights_examples():
    # first generator support: sigma_2 + sigma_4 at p = 5
    psi1 = GroupRingElement.sigma(5, 2) + GroupRingElement.sigma(5, 4)
    w = weights(psi1)
    assert w.absolute == 2 and w.relative == 1 and w.nonnegative

    top = GroupRingElement(5, (1, 2, 3, 4))
    w = weights(top)
    assert w.absolute == 10 and w.relative == 5

    single = GroupRingElement.from_inverse_coeffs(5, {1: 1})
    w = weights(single)
    assert w.absolute == 1 and w.relative is None


@pytest.mark.parametrize("p", PRIMES)
def test_weights_additive_on_positive(p):
    import random
    rng = random.Random(p)
    for _ in range(20):
        a = GroupRingElement(p, tuple(rng.randrange(0, 5) for _ in range(p - 1)))
        b = GroupRingElement(p, tuple(rng.randrange(0, 5) for _ in range(p - 1)))
        wa, wb, wab = weights(a), weights(b), weights(a + b)
        assert wab.absolute == wa.absolute + wb.absolute
        if wa.relative is not None and wb.relative is not None:
            assert wab.relative == wa.relative + wb.relative


@pytest.mark.parametrize("p", PRIMES)
def test_idempotent_relations(p):
    es = [idempotent_mod_p(p, k) for k in range(p - 1)]
    one = GroupRingElement.one(p, p)
    total = GroupRingElement.zero(p, p)
    for e in es:
        assert e * e == e
        total = total + e
    assert total == one
    for i in range(p - 1):
        for j in range(i + 1, p - 1):
            assert (es[i] * es[j]).is_zero()
    # conjugation sign and the character twist
    for k in range(p - 1):
        assert es[k].conjugate() == es[k].scale(pow(p - 1, k, p)).reduce(p)
        for m in range(1, p):
            lhs = GroupRingElement.sigma(p, m, p) * es[k]
            assert lhs == es[k].scale(pow(m, k, p)).reduce(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 37])
def test_character_idempotents_are_pairwise_orthogonal(p):
    # the identities record checks only e^2 = e and sum e = 1, which force
    # e_i e_j = 0 in F_p[G] = F_p^(p-1); here every product is formed
    es = [idempotent_mod_p(p, k) for k in range(p - 1)]
    for i in range(p - 1):
        for j in range(i + 1, p - 1):
            assert GroupRingElement.__mul__(es[i], es[j]).is_zero(), (p, i, j)


def test_idempotent_examples():
    e0 = idempotent_mod_p(5, 0)
    assert e0 == GroupRingElement.norm_element(5).scale(4).reduce(5)
    # sigma_2 e_1 = 2 e_1
    e1 = idempotent_mod_p(5, 1)
    assert GroupRingElement.sigma(5, 2, 5) * e1 == e1.scale(2).reduce(5)


def test_subgroups_enumeration():
    assert primitive_root(5) == 2
    subs5 = subgroups(5)
    assert [o for o, _ in subs5] == [1, 2, 4]
    # order 2 subgroup of (Z/5)^x is generated by 4
    assert dict(subs5)[2] == 4


def test_trial_division_factorization():
    for n in range(1, 500):
        parts = prime_power_split(n)
        assert math.prod(r ** a for r, a in parts) == n
        assert all(is_prime(r) and a >= 1 for r, a in parts)
        assert [r for r, _ in parts] == sorted({r for r, _ in parts})
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 97, 101):
        g = primitive_root(p)
        assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1
        assert all(len({pow(h, k, p) for k in range(p - 1)}) < p - 1 for h in range(2, g))


def test_subgroup_fix_examples():
    norm = GroupRingElement.norm_element(5)
    assert {o for o, _ in fixing_subgroups(norm.p, norm.coeffs)} == {1, 2, 4}

    psi1 = GroupRingElement.sigma(5, 2) + GroupRingElement.sigma(5, 4)
    assert [o for o, _ in fixing_subgroups(psi1.p, psi1.coeffs)] == [1]

    psi1_7 = GroupRingElement.from_inverse_coeffs(7, {4: 1, 5: 1, 6: 1})
    assert [o for o, _ in fixing_subgroups(psi1_7.p, psi1_7.coeffs)] == [1]


def test_modulus_mismatch_rejected():
    a = GroupRingElement.zero(5)
    b = GroupRingElement.zero(5, 5)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        GroupRingElement.zero(5) * GroupRingElement.zero(7)
