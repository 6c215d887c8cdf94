import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclonorm.cyclotomic import CycloInt
from cyclonorm.group_ring import is_prime
from cyclonorm.semilocal import (
    SemilocalElement,
    _lift_inverse_mod,
    _poly_gcd,
    _poly_mod,
    _poly_mul,
    _poly_powmod,
    _poly_red,
    _poly_sub,
    _poly_trim,
    balanced_digit,
    crt_from_factors,
    factor_phi,
    global_pth_root_embeddings,
    in_balanced_set,
    multiplicative_order,
    prime_power_split,
    project_to_factor,
    pth_roots_in_factor,
    root_of_unity_quotient,
    sl_embed,
    synthetic_root_of_unity,
    y_digits,
)


def test_factor_counts_examples():
    assert factor_phi(11, 5, 2).g == 4        # 11 = 1 mod 5: linear factors
    assert factor_phi(2, 5, 3).g == 1         # order of 2 mod 5 is 4: inert
    assert factor_phi(19, 5, 2).g == 2        # order 2: quadratic factors
    with pytest.raises(ValueError):
        factor_phi(5, 5, 2)
    with pytest.raises(ValueError):
        factor_phi(10, 5, 2)


def test_factor_counts_random_pairs():
    rng = random.Random(42)
    primes = [r for r in range(2, 200) if is_prime(r)]
    done = 0
    while done < 20:
        p = rng.choice([5, 7, 11, 13])
        r = rng.choice(primes)
        if r == p:
            continue
        fact = factor_phi(r, p, 2)
        d = multiplicative_order(r, p)
        assert fact.g == (p - 1) // d
        assert fact.residue_degree == d
        assert all(f[-1] == 1 for f in fact.factors)
        done += 1


@pytest.mark.parametrize("p,m", [(5, 11 ** 3), (7, 2 ** 8), (5, 12 ** 3)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_embedding_is_homomorphic(p, m, data):
    coords = st.tuples(*([st.integers(-50, 50)] * (p - 1)))
    a = CycloInt(p, data.draw(coords))
    b = CycloInt(p, data.draw(coords))
    assert sl_embed(p, a + b, m) == sl_embed(p, a, m) + sl_embed(p, b, m)
    assert sl_embed(p, a * b, m) == sl_embed(p, a, m) * sl_embed(p, b, m)
    c = data.draw(st.integers(1, p - 1))
    assert sl_embed(p, a.galois(c), m) == sl_embed(p, a, m).galois(c)


def test_embedding_examples():
    assert sl_embed(5, 1, 11 ** 2).is_one()
    u = sl_embed(5, CycloInt.zeta_power(5, 1), 11 ** 2)
    assert u.galois(2) == sl_embed(5, CycloInt.zeta_power(5, 2), 11 ** 2)
    # unit inversion
    v = sl_embed(5, 7, 11 ** 2)
    assert (v * v.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        sl_embed(5, 11, 11 ** 2).inverse()
    from fractions import Fraction
    w = sl_embed(5, Fraction(1, 7), 11 ** 2)
    assert (w * v).is_one()


def test_embedding_equivariance_bulk():
    # the diagonal embedding commutes with conjugation: 1000 random pairs
    rng = random.Random(17)
    p, m = 5, 11 ** 3
    for _ in range(1000):
        x = CycloInt(p, tuple(rng.randrange(-100, 101) for _ in range(p - 1)))
        c = rng.randrange(1, p)
        assert sl_embed(p, x.galois(c), m) == sl_embed(p, x, m).galois(c)


def test_galois_composition():
    rng = random.Random(0)
    for p, m in [(5, 11 ** 3), (7, 2 ** 8)]:
        for _ in range(30):
            u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert u.galois(a).galois(b) == u.galois(a * b % p)
            assert u.galois(1) == u


def test_y_digit_examples():
    p, y, n = 5, 66, 4
    m = y ** n
    t = CycloInt(p, (3, -5, 0, 7))
    assert in_balanced_set(t, y)
    d = y_digits(sl_embed(p, t, m), n, y)
    assert d.digits[0] == t and all(x.is_zero() for x in d.digits[1:])
    zeta_digit = y_digits(sl_embed(p, CycloInt.zeta_power(p, 1).scale(y), m), n, y)
    assert zeta_digit.digits[0].is_zero()
    assert zeta_digit.digits[1] == CycloInt.zeta_power(p, 1)


def test_y_digit_roundtrip_bijection():
    p, y, n = 5, 66, 4
    m = y ** n
    rng = random.Random(1)
    seen = set()
    for _ in range(60):
        u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        d = y_digits(u, n, y)
        assert all(in_balanced_set(t, y) for t in d.digits)
        assert d.assemble(m) == u
        seen.add(tuple(tuple(t.coords) for t in d.digits))
    assert len(seen) == 60
    with pytest.raises(ValueError):
        y_digits(SemilocalElement(p, m, (0,) * 4), n + 1, y)


def test_crt_consistency_composite_base():
    # computing mod y^N agrees with per-prime-power computation
    p, y, n = 5, 12, 3
    m = y ** n
    rng = random.Random(4)
    for _ in range(20):
        a = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        b = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        c = a * b + a.galois(2)
        for r, e in prime_power_split(y):
            mr = r ** (e * n)
            ar, br = a.reduce_to(mr), b.reduce_to(mr)
            cr = ar * br + ar.galois(2)
            assert cr == c.reduce_to(mr)


def test_factor_projection_crt_roundtrip():
    p, r, n = 5, 11, 3
    fact = factor_phi(r, p, n)
    m = r ** n
    rng = random.Random(5)
    for _ in range(15):
        u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        res = [project_to_factor(u, fact, j) for j in range(fact.g)]
        assert crt_from_factors(res, fact) == u
    # products respect the factorwise computation
    for _ in range(10):
        u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        v = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        prod = u * v
        for j in range(fact.g):
            pu = project_to_factor(u, fact, j)
            pv = project_to_factor(v, fact, j)
            direct = _poly_mod(_poly_mul(pu, pv, m), list(fact.factors[j]), m)
            assert direct == project_to_factor(prod, fact, j)


def test_root_quotient_examples():
    p, y, n = 5, 11, 4
    m = y ** n
    v = sl_embed(p, 3, m)
    assert root_of_unity_quotient(v, v).is_one()
    z = sl_embed(p, CycloInt.zeta_power(p, 1), m)
    assert root_of_unity_quotient(z * v, v) == z
    with pytest.raises(ArithmeticError):
        root_of_unity_quotient(sl_embed(p, 2, m), sl_embed(p, 3, m))


@pytest.mark.parametrize("p,y", [(5, 11), (5, 22), (7, 13), (3, 7), (5, 106)])
def test_synthetic_roots_nontrivial(p, y):
    rho = synthetic_root_of_unity(p, y, 5)
    assert (rho ** p).is_one()
    assert all(rho != g for g in global_pth_root_embeddings(p, y ** 5))


def test_root_enumeration_count():
    # p = 3 splits at r = 7 into two linear factors: 3^2 local cube roots
    fact = factor_phi(7, 3, 2)
    assert fact.g == 2
    roots = [pth_roots_in_factor(fact, j) for j in range(2)]
    assert all(len(r) == 3 for r in roots)
    seen = set()
    for a in roots[0]:
        for b in roots[1]:
            u = crt_from_factors([a, b], fact)
            assert (u ** 3).is_one()
            seen.add(u.poly)
    assert len(seen) == 9
    # exactly 3 of the 9 are global embeddings
    globals_ = {g.poly for g in global_pth_root_embeddings(3, 7 ** 2)}
    assert len(globals_ & seen) == 3


def reference_pth_roots_in_factor(fact, j):
    """The earlier construction: random search mod r, then a Newton lift."""
    r, p = fact.r, fact.p
    f = list(fact.factors[j])
    d = len(f) - 1
    card = r ** d - 1
    assert card % p == 0
    f1 = _poly_red(f, r)
    roots_mod_r = {(1,)}
    rng = random.Random(f"{r}:{p}:{j}:pth-roots")
    while len(roots_mod_r) < p:
        a = _poly_trim([rng.randrange(r) for _ in range(d)])
        if not a or _poly_gcd(a, f1, r) != [1]:
            continue
        w = _poly_powmod(a, card // p, f1, r)
        if w == [1]:
            continue
        cur = list(w)
        for _ in range(p - 1):
            roots_mod_r.add(tuple(cur))
            cur = _poly_mod(_poly_mul(cur, w, r), f1, r)
    return [reference_newton_lift(list(w0), f, r, fact.precision, p)
            for w0 in sorted(roots_mod_r)]


def reference_newton_lift(w, f, r, precision, p):
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        m = r ** k
        fm = _poly_red(f, m)
        val = _poly_sub(_poly_powmod(w, p, fm, m), [1], m)
        deriv = _poly_mod(_poly_mul([p % m], _poly_powmod(w, p - 1, fm, m), m), fm, m)
        dinv = _lift_inverse_mod(deriv, f, r, k)
        w = _poly_mod(_poly_sub(w, _poly_mul(val, dinv, m), m), fm, m)
    return _poly_red(w, r ** precision)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pth_roots_match_search_and_lift(p):
    # same roots in the same order, so every seed selects the same rho
    for r in range(2, 60):
        if not is_prime(r) or r == p:
            continue
        for precision in (1, 2, 3, 5):
            fact = factor_phi(r, p, precision)
            for j in range(fact.g):
                roots = pth_roots_in_factor(fact, j)
                assert roots == reference_pth_roots_in_factor(fact, j)
                m, f = fact.modulus, list(fact.factors[j])
                assert all(_poly_powmod(w, p, f, m) == [1] for w in roots)


def test_balanced_digit_bounds():
    for y in (5, 6, 11, 66):
        for n in range(-3 * y, 3 * y):
            d = balanced_digit(n, y)
            assert -y < 2 * d <= y
            assert (n - d) % y == 0
