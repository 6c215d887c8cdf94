import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cyclonorm.cyclotomic import (
    CycloInt,
    _cyclotomic_poly,
    _poly_divmod,
    _poly_gcd,
    _poly_mod,
    _poly_red,
    _poly_trim,
    orbit_product,
    zeta_shift,
)
from cyclonorm import semilocal
from cyclonorm.group_ring import is_prime
from cyclonorm.semilocal import (
    SemilocalElement,
    _poly_mul,
    balanced_digit,
    count_primes_above,
    factor_phi,
    global_pth_root_embeddings,
    in_balanced_set,
    multiplicative_order,
    prime_power_split,
    root_slots,
    sl_combination,
    sl_embed,
    synthetic_root_of_unity,
    y_digits,
)


def test_factor_counts_examples():
    assert factor_phi(11, 5).g == 4        # 11 = 1 mod 5: linear factors
    assert factor_phi(2, 5).g == 1         # order of 2 mod 5 is 4: inert
    assert factor_phi(19, 5).g == 2        # order 2: quadratic factors
    with pytest.raises(ValueError):
        factor_phi(5, 5)
    with pytest.raises(ValueError):
        factor_phi(10, 5)


def test_factor_phi_checks_each_degree(monkeypatch):
    # Phi_13 over F_3: four cubic factors, Psi_1 and its transports c = 2, 4, 7.
    # Transports patched to Psi_2 Psi_4, then 1, then Psi_7 keep the product
    # Phi_13 and the count four; only the degree check catches them
    true = factor_phi(3, 13)
    by_c = dict(zip(true.transports, true.factors))
    wrong = iter([_poly_mul(by_c[2], by_c[4], 3), [1], list(by_c[7])])
    monkeypatch.setattr(semilocal, "_one_factor", lambda *args: list(by_c[1]))
    monkeypatch.setattr(semilocal, "_poly_gcd", lambda *args: next(wrong))
    with pytest.raises(ArithmeticError, match="degree 3"):
        factor_phi(3, 13)


def test_factor_counts_random_pairs():
    rng = random.Random(42)
    primes = [r for r in range(2, 200) if is_prime(r)]
    done = 0
    while done < 20:
        p = rng.choice([5, 7, 11, 13])
        r = rng.choice(primes)
        if r == p:
            continue
        fact = factor_phi(r, p)
        d = multiplicative_order(r, p)
        assert fact.g == (p - 1) // d
        assert fact.residue_degree == d
        assert all(f[-1] == 1 for f in fact.factors)
        done += 1


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
       r=st.sampled_from([2, 3, 5, 7, 11, 13, 29, 43, 101, 211]), data=st.data())
def test_frobenius_is_sigma_r(p, r, data):
    # over F_r the Frobenius x -> x^r is sigma_r, so the orbit product over
    # <r> is the norm x^(1 + r + ... + r^(d-1))
    assume(r != p)
    x = SemilocalElement(p, r, tuple(data.draw(st.lists(st.integers(0, r - 1),
                                                        min_size=p - 1, max_size=p - 1))))
    d = multiplicative_order(r, p)
    assert x ** r == x.galois(r)
    assert orbit_product(x, r % p, d) == x ** ((r ** d - 1) // (r - 1))


# SHA-256 of repr((r, p, factors)) over the primes p <= 43 and r < 160,
# r != p (468 pairs), recorded at the Cantor-Zassenhaus split that raised
# polynomials to (r^d - 1)/2 mod f
FACTOR_SWEEP_SHA = "8ab085e7416b5e8f1a9d845204747354ca075e95717952a182f79a874744b94c"


def test_factor_phi_sweep_pinned():
    digest = hashlib.sha256()
    pairs = 0
    for p in range(3, 44):
        if not is_prime(p):
            continue
        for r in range(2, 160):
            if is_prime(r) and r != p:
                digest.update(repr((r, p, factor_phi(r, p).factors)).encode())
                pairs += 1
    assert pairs == 468
    assert digest.hexdigest() == FACTOR_SWEEP_SHA


@pytest.mark.parametrize("p,y,precision,sha,ks", [
    # r = 2 (two cubic factors) and r = 13 (three quadratic factors)
    (7, 26, 6, "3826a3d69e59389f640a1782a4ac05c0bb6b1639f0b3601bb0278796d1dde9bb",
     [[2, 1, 6, 0, 3, 5, 4], [2, 1, 4, 0, 6, 3, 5], [1, 0, 3, 4, 5, 6, 2],
      [1, 0, 4, 3, 6, 5, 2], [1, 0, 4, 3, 6, 5, 2]]),
    # two factors of degree 50; the idempotent's power r^d - 1 has 386 bits
    (101, 211, 8, "9ca8bc601d3ad387e39961099129f828d2283c2fbea7d43b6ef8a82acc71bdf8", None),
], ids=["7-26-6", "101-211-8"])
def test_root_slots_pinned(p, y, precision, sha, ks):
    # SHA-256 of repr([(E.poly, ks)]), recorded at the route that raised
    # Psi(zeta) to r^d - 1
    slots = root_slots(p, y, precision)
    assert hashlib.sha256(repr([(e.poly, k) for e, k in slots]).encode()).hexdigest() == sha
    if ks is not None:
        assert [k for _, k in slots] == ks


def reference_split_slots(p, r, precision):
    """Slots at a prime r = 1 mod p from the closed form.  The root c of
    Phi_p mod r^K that lifts w (its Teichmuller lift w^(r^(K-1))) gives the
    idempotent E = (1/p) sum_{j<p} c^(-j) zeta^j, which is 1 at zeta -> c and
    0 at the other roots; on zeta..zeta^(p-1) its coordinates are
    p^-1 (c^-k - 1).  The slots follow the factors X - w in sorted order,
    and ks sorts k by w^k mod r."""
    modulus = r ** precision
    inv_p = pow(p, -1, modulus)
    roots = sorted((w for w in range(2, r) if pow(w, p, r) == 1), key=lambda w: -w % r)
    slots = []
    for w in roots:
        c = pow(w, r ** (precision - 1), modulus)
        coords = tuple(inv_p * (pow(c, -k, modulus) - 1) % modulus for k in range(1, p))
        slots.append((coords, sorted(range(p), key=lambda k: pow(w, k, r))))
    return slots


@pytest.mark.parametrize("p,r,precision", [(5, 11, 3), (13, 53, 4), (29, 59, 4), (89, 179, 8)])
def test_split_slots_equal_the_closed_form(p, r, precision):
    slots = [(e.poly, ks) for e, ks in root_slots(p, r, precision)]
    assert slots == reference_split_slots(p, r, precision)


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


def test_embedding_inverts_only_fraction_coordinates():
    # integer coordinates go in as they are, also those sharing a factor
    # with the modulus; nothing is inverted, so a Fraction, which would need
    # its denominator inverted, is refused
    m = 2 ** 5 * 11 ** 2
    t = CycloInt(5, (22, -10 ** 30, 0, 7))
    assert sl_embed(5, t, m).poly == tuple(c % m for c in t.coords)
    assert sl_embed(5, 44, m).poly == ((-44) % m,) * 4
    for bad in (Fraction(1, 7), Fraction(1, 11)):
        with pytest.raises(TypeError):
            sl_embed(5, bad, m)


def reference_combination(p, modulus, terms):
    """The object route: embed, scale and add one element at a time."""
    acc = SemilocalElement(p, modulus, (0,) * (p - 1))
    for v, s in terms:
        acc = acc + sl_embed(p, CycloInt(p, tuple(v)), modulus).scale(s)
    return acc


_coordinate = st.one_of(st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30))
_scalar = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6), st.integers(10 ** 40, 10 ** 45))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 13]),
       modulus=st.one_of(st.just(2), st.integers(2, 10 ** 6), st.integers(10 ** 30, 10 ** 40)),
       terms=st.lists(st.tuples(st.lists(_coordinate, min_size=12, max_size=12), _scalar),
                      max_size=8))
@example(p=5, modulus=2, terms=[])
@example(p=3, modulus=2, terms=[([1, -1] + [0] * 10, 3), ([10 ** 30, -(10 ** 30)] + [0] * 10, 0)])
@example(p=7, modulus=11 ** 3, terms=[([-5] * 12, 11 ** 3), ([7] * 12, 11 ** 3 + 1)])
def test_combination_matches_the_object_route(p, modulus, terms):
    terms = [(tuple(v[:p - 1]), s) for v, s in terms]
    got = sl_combination(p, modulus, terms)
    assert got == reference_combination(p, modulus, terms)
    assert all(0 <= c < modulus for c in got.poly)


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


# -- the earlier route: Phi_p's factors Hensel-lifted to r^N, joined by a
# polynomial CRT at each r | y and an integer CRT across them


def _poly_add(a, b, m):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x % m
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % m
    return _poly_trim(out)


def _poly_sub(a, b, m):
    return _poly_add(a, [(-y) % m for y in b], m)


def _poly_powmod(a, e, f, m):
    result = [1]
    base = _poly_mod(a, f, m)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, m), f, m)
        base = _poly_mod(_poly_mul(base, base, m), f, m)
        e >>= 1
    return result


def reference_ext_gcd(a, b, r):
    """(s, t) with s*a + t*b = 1 over F_r for coprime a, b."""
    r0, r1 = _poly_red(a, r), _poly_red(b, r)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, rem = _poly_divmod(r0, r1, r)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, r), r)
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, r), r)
    assert len(r0) == 1
    inv = pow(r0[0], -1, r)
    return [x * inv % r for x in s0], [x * inv % r for x in t0]


def reference_hensel_lift(f, g0, r, precision):
    """Lift a monic factor g0 of monic f from mod r to mod r^precision."""
    g_r = _poly_red(g0, r)
    h_r, rem = _poly_divmod(_poly_red(f, r), g_r, r)
    assert not rem
    s, t = reference_ext_gcd(g_r, h_r, r)
    g, h = list(g_r), list(h_r)
    for k in range(1, precision):
        m = r ** (k + 1)
        e_full = _poly_sub(_poly_red(f, m), _poly_mul(g, h, m), m)
        assert all(c % r ** k == 0 for c in e_full)
        e = _poly_red([c // r ** k for c in e_full], r)
        dg = _poly_mod(_poly_mul(t, e, r), g_r, r)
        dh, rem2 = _poly_divmod(_poly_sub(e, _poly_mul(dg, h_r, r), r), g_r, r)
        assert not rem2
        g = _poly_add(g, [c * r ** k % m for c in dg], m)
        h = _poly_add(h, [c * r ** k % m for c in dh], m)
    return _poly_red(g, r ** precision)


def reference_lifted_factors(r, p, precision):
    phi, m = _cyclotomic_poly(p), r ** precision
    lifted = [reference_hensel_lift(phi, list(g), r, precision) for g in factor_phi(r, p).factors]
    prod = [1]
    for g in lifted:
        prod = _poly_mul(prod, g, m)
    assert prod == _poly_red(phi, m)
    return lifted


def reference_lift_inverse(a, f, r, precision):
    """Inverse of a modulo (r^precision, f), f monic, a a unit mod (r, f)."""
    s, _ = reference_ext_gcd(_poly_mod(_poly_red(a, r), _poly_red(f, r), r), _poly_red(f, r), r)
    k, inv = 1, s
    while k < precision:
        k = min(2 * k, precision)
        m = r ** k
        fm = _poly_red(f, m)
        prod = _poly_mod(_poly_mul(_poly_mod(_poly_red(a, m), fm, m), inv, m), fm, m)
        inv = _poly_mod(_poly_mul(inv, _poly_sub([2], prod, m), m), fm, m)
    return inv


def reference_project(u, f, m):
    """Image of u in (Z/m)[X]/(f), m a power of r dividing u's modulus."""
    u = u.reduce_to(m)
    top = u.poly[-1]
    return _poly_mod(_poly_trim([-top % m] + [(c - top) % m for c in u.poly[:-1]]), f, m)


def reference_crt(residues, factors, r, precision, p):
    m = r ** precision
    total = []
    for j, res in enumerate(residues):
        others = [1]
        for i, f in enumerate(factors):
            if i != j:
                others = _poly_mul(others, f, m)
        inv = reference_lift_inverse(others, factors[j], r, precision)
        term = _poly_mod(_poly_mul(res, inv, m), factors[j], m)
        total = _poly_add(total, _poly_mul(term, others, m), m)
    coords = CycloInt.from_polynomial(p, _poly_mod(total, _cyclotomic_poly(p), m)).coords
    return SemilocalElement(p, m, coords)


def reference_int_crt(pairs):
    x, m = 0, 1
    for a, n in pairs:
        x += m * ((a - x) * pow(m, -1, n) % n)
        m *= n
    return x % m


def reference_synthetic_root_of_unity(p, y, precision, seed=0):
    if math.gcd(p, y) != 1:
        raise ValueError("digit base must be prime to p")
    parts = [(r, a * precision) for r, a in prime_power_split(y)]
    lifted = [reference_lifted_factors(r, p, n) for r, n in parts]
    roots = []          # X^k mod (r^N, Psi), listed by its residue mod (r, Psi)
    for (r, n), factors in zip(parts, lifted):
        for f in factors:
            ks = sorted(range(p), key=lambda k: _poly_powmod([0, 1], k, _poly_red(f, r), r))
            roots.append([_poly_powmod([0, 1], k, f, r ** n) for k in ks])
    modulus = y ** precision
    globals_ = global_pth_root_embeddings(p, modulus)

    def build(selection):
        per_prime, slot = [], 0
        for (r, n), factors in zip(parts, lifted):
            residues = []
            for _ in factors:
                residues.append(roots[slot][selection % p])
                selection //= p
                slot += 1
            per_prime.append(reference_crt(residues, factors, r, n, p))
        return SemilocalElement(p, modulus, tuple(
            reference_int_crt([(u.poly[i], u.modulus) for u in per_prime]) % modulus
            for i in range(p - 1)))

    limit = min(p ** len(roots), 5000)
    offset = seed % limit
    for step in range(limit):
        rho = build((offset + step) % limit)
        if not (rho ** p).is_one():
            raise ArithmeticError("constructed element is not a p-th root of unity")
        if all(rho != g for g in globals_):
            return rho
    raise ArithmeticError("all p-th roots of unity at this modulus are global embeddings")


def test_factor_projection_crt_roundtrip():
    # u splits into its slot components u E_j, which add back to u; each
    # component is u in the completion of Psi_j and 0 in the others
    p, r, n = 5, 11, 3
    m = r ** n
    slots = [e for e, _ in root_slots(p, r, n)]
    lifted = reference_lifted_factors(r, p, n)
    assert len(slots) == len(lifted) == factor_phi(r, p).g
    rng = random.Random(5)
    for _ in range(15):
        u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        total = SemilocalElement(p, m, (0,) * (p - 1))
        for j, e in enumerate(slots):
            total = total + u * e
            for i, f in enumerate(lifted):
                expected = reference_project(u, f, m) if i == j else []
                assert reference_project(u * e, f, m) == expected
        assert total == u
    # products respect the factorwise computation
    for _ in range(10):
        u = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        v = SemilocalElement(p, m, tuple(rng.randrange(m) for _ in range(p - 1)))
        for e in slots:
            assert (u * v) * e == (u * e) * (v * e)


@pytest.mark.parametrize("p,y", [(5, 11), (5, 22), (7, 13), (3, 7), (5, 106)])
def test_synthetic_roots_nontrivial(p, y):
    rho = synthetic_root_of_unity(p, y, 5)
    assert (rho ** p).is_one()
    assert all(rho != g for g in global_pth_root_embeddings(p, y ** 5))


def test_root_enumeration_count():
    # p = 3 splits at r = 7 into two linear factors: 3^2 local cube roots
    p, m = 3, 7 ** 2
    slots = root_slots(p, 7, 2)
    assert len(slots) == 2
    (e0, _), (e1, _) = slots
    seen = set()
    for a in range(p):
        for b in range(p):
            u = (SemilocalElement(p, m, zeta_shift(p, e0.poly, a))
                 + SemilocalElement(p, m, zeta_shift(p, e1.poly, b)))
            assert (u ** p).is_one()
            seen.add(u.poly)
    assert len(seen) == 9
    # exactly 3 of the 9 are global embeddings
    globals_ = {g.poly for g in global_pth_root_embeddings(p, m)}
    assert len(globals_ & seen) == 3


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), y=st.integers(2, 120),
       precision=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
def test_slot_idempotents_split_rho(p, y, precision, seed):
    assume(math.gcd(p, y) == 1)
    m = y ** precision
    slots = root_slots(p, y, precision)
    assert len(slots) == count_primes_above(p, y)
    total = SemilocalElement(p, m, (0,) * (p - 1))
    for s, (e, ks) in enumerate(slots):
        assert e * e == e
        assert sorted(ks) == list(range(p))
        assert all((e * f).is_zero() for t, (f, _) in enumerate(slots) if t != s)
        total = total + e
    assert total.is_one()
    try:
        rho = synthetic_root_of_unity(p, y, precision, seed=seed)
    except ArithmeticError:
        # y is a power of one inert prime: its p local roots are the global ones
        assert len(slots) == 1
        return
    # rho E_s = zeta^{k_s} E_s for exactly one k_s, and these pieces make up rho
    rebuilt = SemilocalElement(p, m, (0,) * (p - 1))
    for e, _ in slots:
        pieces = [SemilocalElement(p, m, zeta_shift(p, e.poly, k)) for k in range(p)]
        assert pieces.count(rho * e) == 1
        rebuilt = rebuilt + rho * e
    assert rebuilt == rho


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs).poly
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_root_matches_reference_route(p):
    # the same rho byte for byte, and the same refusals, at every seed
    for y in (7, 11, 12, 22, 25, 27, 33, 35, 38, 39, 106):
        for precision in (1, 2, 5):
            for seed in (0, 1, 30699422):
                assert _outcome(synthetic_root_of_unity, p, y, precision, seed=seed) == \
                    _outcome(reference_synthetic_root_of_unity, p, y, precision, seed=seed)


def search_and_lift_pth_roots(f, r, p, precision, j):
    """The p-th roots of unity in (Z/r^N)[X]/(f) by random search mod r,
    then a Newton lift, listed in the order of their residues mod r."""
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
    return [reference_newton_lift(list(w0), f, r, precision, p) for w0 in sorted(roots_mod_r)]


def reference_newton_lift(w, f, r, precision, p):
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        m = r ** k
        fm = _poly_red(f, m)
        val = _poly_sub(_poly_powmod(w, p, fm, m), [1], m)
        deriv = _poly_mod(_poly_mul([p % m], _poly_powmod(w, p - 1, fm, m), m), fm, m)
        dinv = reference_lift_inverse(deriv, f, r, k)
        w = _poly_mod(_poly_sub(w, _poly_mul(val, dinv, m), m), fm, m)
    return _poly_red(w, r ** precision)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pth_roots_match_search_and_lift(p):
    # zeta^k E_j, k in slot order, is the searched-and-lifted list in the
    # completion of Psi_j and 0 in the others, so every seed selects the same rho
    for r in range(2, 60):
        if not is_prime(r) or r == p:
            continue
        for precision in (1, 2, 3, 5):
            m = r ** precision
            lifted = reference_lifted_factors(r, p, precision)
            for j, (e, ks) in enumerate(root_slots(p, r, precision)):
                roots = [SemilocalElement(p, m, zeta_shift(p, e.poly, k)) for k in ks]
                assert [reference_project(w, lifted[j], m) for w in roots] == \
                    search_and_lift_pth_roots(lifted[j], r, p, precision, j)
                assert all(reference_project(w, f, m) == []
                           for i, f in enumerate(lifted) if i != j for w in roots)
                assert all(w ** p == e for w in roots)


def test_balanced_digit_bounds():
    for y in (5, 6, 11, 66):
        for n in range(-3 * y, 3 * y):
            d = balanced_digit(n, y)
            assert -y < 2 * d <= y
            assert (n - d) % y == 0
