"""The shared coordinate kernels against the schoolbook loops they replaced.

CycloInt, SemilocalElement and GroupRingElement multiply through one loop,
`group_ring.convolve`, and move by sigma through one index map,
`group_ring.galois_coords`; `cyclotomic` imports both.  The references
below are the earlier per-class loops: the CycloInt product, the semilocal
product that reduces mod m at every step, the Z[G] product indexed by
c d mod p, the polynomial product over Z/m of `semilocal._poly_mul`, the
Galois permutation (as a map and as the earlier incremental loop), sigma_a t
as the product with the element sigma_a (on either side), and the
fixed-subgroup test by that product; and the earlier archimedean
evaluation, which raised e^{2 pi i c/p} to each power in turn, and the
maximum over all p - 1 conjugates; and the root-exponent search that placed
each local factor of Phi_p before `factor_phi` listed its Galois transport.
"""

import contextlib
import random
import os
import pathlib
import signal
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, settings, strategies as st

import cyclonorm
from cyclonorm.cyclotomic import (
    CycloInt,
    _cyclotomic_poly,
    _poly_gcd,
    _poly_red,
    _poly_trim,
    basis_product,
    embedding_abs,
    galois_coords,
    max_conjugate_abs,
    power,
    uniformizer,
    zeta_shift,
)
from cyclonorm.group_ring import (GroupRingElement, convolve, fixing_subgroups, is_prime,
                                  subgroups)
from cyclonorm.semilocal import SemilocalElement, _poly_mul, _x_powers, factor_phi, sl_embed

PRIMES = [3, 5, 7, 11, 13]


def reference_cyclo_mul(p, a, b):
    acc = [0] * p  # indexed by exponent mod p
    for i in range(1, p):
        x = a[i - 1]
        if not x:
            continue
        for j in range(1, p):
            y = b[j - 1]
            if y:
                acc[(i + j) % p] += x * y
    const = acc[0]
    if const:
        return tuple(acc[c] - const for c in range(1, p))
    return tuple(acc[1:])


def reference_semilocal_mul(p, m, a, b):
    acc = [0] * p
    for i in range(1, p):
        x = a[i - 1]
        if not x:
            continue
        for j in range(1, p):
            y = b[j - 1]
            if y:
                acc[(i + j) % p] = (acc[(i + j) % p] + x * y) % m
    const = acc[0]
    return tuple((acc[c] - const) % m for c in range(1, p))


def reference_galois(p, coords, c):
    c %= p
    out = [0] * (p - 1)
    for j in range(1, p):
        out[(c * j) % p - 1] = coords[j - 1]
    return tuple(out)


def reference_embedding_abs(x, c, dps):
    with mpmath.workdps(dps):
        z = mpmath.e ** (2j * mpmath.pi * c / x.p)
        acc = mpmath.mpc(0)
        for e, coef in enumerate(x.coords, 1):
            if coef:
                acc += coef * z ** e
        return abs(acc)


SCALARS = st.integers(-40, 40)


def cyclo(p):
    return st.tuples(*([SCALARS] * (p - 1))).map(lambda t: CycloInt(p, t))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclo_kernels_match_references(p, data):
    a, b = data.draw(cyclo(p)), data.draw(cyclo(p))
    ref = reference_cyclo_mul(p, a.coords, b.coords)
    assert (a * b).coords == ref
    assert basis_product(p, a.coords, b.coords) == ref
    c = data.draw(st.integers(1, p - 1), label="c")
    assert a.galois(c).coords == reference_galois(p, a.coords, c)
    assert galois_coords(p, a.coords, c) == reference_galois(p, a.coords, c)
    assert a.conj() == a.galois(p - 1)
    with pytest.raises(ValueError):
        a.galois(p)
    n = data.draw(st.integers(0, 5), label="n")
    expected = CycloInt.from_rational(p, 1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integral_coordinates_stay_ints(p, data):
    a, b = data.draw(cyclo(p)), data.draw(cyclo(p))
    v = data.draw(SCALARS, label="v")
    terms = data.draw(st.dictionaries(st.integers(0, p - 1), SCALARS, max_size=p))
    for x in (a, b, a + b, a - b, -a, a * b, a.scale(v), a.scale(2),
              a.galois(data.draw(st.integers(1, p - 1))), a.conj(),
              CycloInt.from_exp_map(p, terms)):
        assert type(x.coords) is tuple and all(type(c) is int for c in x.coords), x
    assert type(a.trace()) is int


def test_only_integer_coordinates_are_taken():
    converted = CycloInt(5, (True, numpy.int64(-3), 0, 7))
    assert converted.coords == (1, -3, 0, 7)
    assert all(type(c) is int for c in converted.coords)
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, 1.0):
        with pytest.raises(TypeError):
            CycloInt(5, (1, bad, 0, 0))


def test_only_integer_semilocal_coordinates_are_taken():
    converted = SemilocalElement(5, 121, (True, numpy.int64(-3), 0, 7))
    assert converted.poly == (1, 118, 0, 7)
    assert all(type(c) is int for c in converted.poly)
    assert SemilocalElement(5, 121, [1, 2, 3, 125]).poly == (1, 2, 3, 4)
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, 1.0):
        with pytest.raises(TypeError):
            SemilocalElement(5, 121, (1, bad, 0, 0))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_powers_are_refused():
    # n >>= 1 keeps n = -1, so an unguarded loop squares forever
    zeta, one = CycloInt.zeta_power(5, 1), CycloInt.from_rational(5, 1)
    with time_limit(5):
        with pytest.raises(ValueError):
            zeta ** -1
        with pytest.raises(ValueError):
            power(zeta, -1, one)
        with pytest.raises(ValueError):
            sl_embed(5, zeta, 11 ** 2) ** -1


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_semilocal_kernels_match_references(p, data):
    m = data.draw(st.integers(2, 10 ** 9), label="m")
    coords = st.tuples(*([st.integers(0, m - 1)] * (p - 1)))
    u = SemilocalElement(p, m, data.draw(coords))
    v = SemilocalElement(p, m, data.draw(coords))
    assert (u * v).poly == reference_semilocal_mul(p, m, u.poly, v.poly)
    c = data.draw(st.integers(1, p - 1), label="c")
    assert u.galois(c).poly == reference_galois(p, u.poly, c)
    assert u.conj() == u.galois(p - 1)
    total = u
    for k in range(2, p):
        total = total + u.galois(k)
    assert len(set(total.poly)) == 1 and u.trace() == -total.poly[0] % m
    norm = u
    for k in range(2, p):
        norm = norm * u.galois(k)
    assert len(set(norm.poly)) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_group_ring_conjugate_is_sigma_minus_one(p):
    t = GroupRingElement(p, tuple(range(1, p)))
    assert t.conjugate() == GroupRingElement.sigma(p, p - 1) * t
    tm = t.reduce(p)
    assert tm.conjugate() == GroupRingElement.sigma(p, p - 1, p) * tm


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zeta_shift_is_the_product_by_zeta_power(p, data):
    k = data.draw(st.integers(-2 * p, 2 * p), label="k")
    zk = CycloInt.zeta_power(p, k).coords
    a = data.draw(cyclo(p))
    assert zeta_shift(p, a.coords, k) == reference_cyclo_mul(p, a.coords, zk)
    m = data.draw(st.integers(2, 10 ** 9), label="m")
    u = data.draw(st.tuples(*([st.integers(0, m - 1)] * (p - 1))), label="u")
    assert SemilocalElement(p, m, zeta_shift(p, u, k)).poly == \
        reference_semilocal_mul(p, m, u, zk)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_embedding_abs_matches_power_evaluation(p, data):
    x = data.draw(cyclo(p))
    c = data.draw(st.integers(1, p - 1), label="c")
    value, err = embedding_abs(x, c)
    size = max(abs(Fraction(v).numerator) + Fraction(v).denominator for v in x.coords)
    reference = reference_embedding_abs(x, c, 2 * (40 + len(str(size))))
    assert abs(value - reference) <= err


@st.composite
def magnitude_cases(draw):
    """An element at p <= 37 with coordinates up to 2^900, or one whose
    conjugates are far smaller than its coordinates, so its evaluation
    cancels: (1 - zeta)^k, or a power of the cyclotomic unit
    1 + zeta + ... + zeta^(a-1)."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]), label="p")
    kind = draw(st.sampled_from(["wide", "uniformizer", "unit"]), label="kind")
    if kind == "wide":
        entry = st.integers(-2 ** 900, 2 ** 900)
        return CycloInt(p, tuple(draw(st.lists(entry, min_size=p - 1, max_size=p - 1))))
    if kind == "uniformizer":
        return uniformizer(p) ** draw(st.integers(0, 850), label="k")
    a = draw(st.integers(2, p - 1), label="a")
    unit = CycloInt.from_polynomial(p, [1] * a)
    return unit ** draw(st.integers(0, 900 // a.bit_length()), label="k")


@settings(max_examples=60, deadline=None)
@given(magnitude_cases())
def test_embedding_abs_within_its_error_bound(x):
    # the double-precision value against a 60-digit evaluation, at every c;
    # the reference errs by about 10^-60 sum |x_e|, far inside err
    total = sum(map(abs, x.coords))
    for c in range(1, x.p):
        value, err = embedding_abs(x, c)
        assert err == (x.p + 8) * 2.0 ** -50 * total
        with mpmath.workdps(60):
            assert abs(value - reference_embedding_abs(x, c, 60)) <= err


def test_the_package_does_not_import_mpmath():
    code = "import sys, cyclonorm.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(pathlib.Path(cyclonorm.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def reference_max_conjugate_abs(x):
    best = (0.0, 0.0)
    for c in range(1, x.p):
        v, e = embedding_abs(x, c)
        if v > best[0]:
            best = (v, e)
    return best


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_max_conjugate_abs_half_scan_matches_full_scan(p, data):
    x = data.draw(cyclo(p))
    value, err = max_conjugate_abs(x)
    full_value, full_err = reference_max_conjugate_abs(x)
    assert abs(value - full_value) <= err + full_err


# -- Z[G] and the polynomial product through `convolve`, sigma through one map -------

WIDE_PRIMES = PRIMES + [17, 23]


def reference_group_ring_mul(p, a, b, modulus=None):
    out = [0] * (p - 1)
    for c in range(1, p):
        nc = a[c - 1]
        if nc == 0:
            continue
        for d in range(1, p):
            md = b[d - 1]
            if md:
                out[(c * d) % p - 1] += nc * md
    return tuple(out) if modulus is None else tuple(x % modulus for x in out)


def reference_galois_coords(p, coords, c):
    c %= p
    if c == 0:
        raise ValueError("Galois index must be prime to p")
    out = [0] * (p - 1)
    k = 0
    for a in coords:
        k += c
        if k >= p:
            k -= p
        out[k - 1] = a
    return tuple(out)


def reference_poly_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _poly_trim(out)


def reference_fixing_subgroups(t):
    """(order, generator) of each subgroup whose sigma fixes t, by the product."""
    return [(o, g) for o, g in subgroups(t.p)
            if reference_group_ring_mul(t.p, GroupRingElement.sigma(t.p, g).coeffs,
                                        t.coeffs, t.modulus) == t.coeffs]


def group_ring(p, modulus=None):
    entry = SCALARS if modulus is None else st.integers(0, modulus - 1)
    return st.tuples(*([entry] * (p - 1))).map(lambda t: GroupRingElement(p, t, modulus))


@pytest.mark.parametrize("p", WIDE_PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_products_through_convolve_match_references(p, data):
    for modulus in (None, p):
        s, t = data.draw(group_ring(p, modulus)), data.draw(group_ring(p, modulus))
        assert (s * t).coeffs == reference_group_ring_mul(p, s.coeffs, t.coeffs, modulus)
    a, b = data.draw(cyclo(p)), data.draw(cyclo(p))
    assert basis_product(p, a.coords, b.coords) == reference_cyclo_mul(p, a.coords, b.coords)
    m = data.draw(st.integers(2, 10 ** 9), label="m")
    polys = st.lists(st.integers(-m, m), max_size=p)
    f, g = data.draw(polys, label="f"), data.draw(polys, label="g")
    assert _poly_mul(f, g, m) == reference_poly_mul(f, g, m)
    assert convolve(f, g) == [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
                              for k in range(len(f) + len(g) - 1)]


@pytest.mark.parametrize("p", WIDE_PRIMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_group_ring_galois_is_the_product_by_sigma(p, data):
    for modulus in (None, p):
        t = data.draw(group_ring(p, modulus))
        for a in range(1, p):
            sigma = GroupRingElement.sigma(p, a, modulus)
            moved = t.galois(a)
            assert moved == sigma * t == t * sigma
            assert moved.coeffs == reference_group_ring_mul(p, sigma.coeffs, t.coeffs, modulus)
            assert galois_coords(p, t.coeffs, a) == reference_galois_coords(p, t.coeffs, a)
        with pytest.raises(ValueError):
            t.galois(p)
    x = data.draw(cyclo(p))
    for c in range(1, p):
        assert galois_coords(p, x.coords, c) == reference_galois_coords(p, x.coords, c)


@pytest.mark.parametrize("p", WIDE_PRIMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_ring_galois_composes(p, data):
    t = data.draw(group_ring(p, data.draw(st.sampled_from([None, p]), label="modulus")))
    a, b = data.draw(st.integers(1, p - 1), label="a"), data.draw(st.integers(1, p - 1), label="b")
    assert t.galois(b).galois(a) == t.galois(a * b % p)
    assert t.galois(1) == t and t.galois(p - 1) == t.conjugate()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_fixing_subgroups_match_the_product_test(p):
    # random elements, and orbit sums over each subgroup, which it fixes
    rng = random.Random(p)
    elements = [GroupRingElement.norm_element(p), GroupRingElement.zero(p)]
    for _ in range(6):
        x = GroupRingElement(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
        elements.append(x)
        for order, gen in subgroups(p):
            orbit = GroupRingElement.zero(p)
            for k in range(order):
                orbit = orbit + x.galois(pow(gen, k, p))
            elements += [orbit, orbit.reduce(p)]
    for t in elements:
        expected = reference_fixing_subgroups(t)
        assert list(fixing_subgroups(p, t.coeffs)) == expected
        assert expected[0] == (1, 1)


def reference_root_exponent(psi, powers, p, r):
    """The least k with psi(X^k) = 0 in F_r[X]/(base), where powers holds
    X^j mod (r, base): every root of Phi_p there is a power of X."""
    for k in range(1, p):
        acc = [0] * (len(psi) - 1)
        for i, coef in enumerate(psi):
            for j, v in enumerate(powers[k * i % p]):
                acc[j] += coef * v
        if not any(v % r for v in acc):
            return k
    raise ArithmeticError("a local factor has no root among the powers of zeta")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_factor_phi_transports(p):
    # one c per coset of <r>, c = 1 among them; Psi_c = gcd(Phi_p, Psi_1(X^c))
    # with X^c not reduced mod X^p - 1; and the root exponent k of Psi_c in
    # F_r[X]/(Psi_1), found by search, has k c in <r>
    for r in range(2, 220):
        if not is_prime(r) or r == p:
            continue
        fact = factor_phi(r, p)
        frobenius = {pow(r, j, p) for j in range(fact.residue_degree)}
        cosets = {frozenset(c * h % p for h in frobenius) for c in fact.transports}
        assert 1 in fact.transports and len(cosets) == len(fact.transports) == fact.g
        assert set().union(*cosets) == set(range(1, p))
        base = fact.factors[fact.transports.index(1)]
        phi, powers = _poly_red(_cyclotomic_poly(p), r), _x_powers(base, p, r)
        for psi, c in zip(fact.factors, fact.transports):
            composed = [0] * (c * (len(base) - 1) + 1)
            for i, coef in enumerate(base):
                composed[c * i] = coef
            assert tuple(_poly_gcd(phi, composed, r)) == psi, (p, r, c)
            assert reference_root_exponent(psi, powers, p, r) * c % p in frobenius, (p, r, c)
