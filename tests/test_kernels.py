"""The shared coordinate kernels against the schoolbook loops they replaced.

CycloInt and SemilocalElement both multiply, conjugate and invert through
the module-level kernels of `cyclotomic`.  The references below are the
earlier per-class loops: the CycloInt product, the semilocal product that
reduces mod m at every step, and the Galois permutation; and the earlier
archimedean evaluation, which raised e^{2 pi i c/p} to each power in turn,
and the maximum over all p - 1 conjugates.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cyclonorm.cyclotomic import (
    CycloInt,
    basis_product,
    embedding_abs,
    galois_coords,
    max_conjugate_abs,
    zeta_shift,
)
from cyclonorm.group_ring import GroupRingElement
from cyclonorm.semilocal import SemilocalElement, sl_embed

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
        for e in range(1, x.p):
            coef = Fraction(x.coord(e))
            if coef:
                acc += mpmath.mpf(coef.numerator) / coef.denominator * z ** e
        return abs(acc)


def scalars(rational):
    ints = st.integers(-40, 40)
    if not rational:
        return ints
    # integral Fractions such as Fraction(6, 3) are drawn too: they must come out as ints
    return st.one_of(ints, st.fractions(-20, 20, max_denominator=6),
                     st.integers(-9, 9).map(lambda n: Fraction(3 * n, 3)))


def cyclo(p, rational):
    return st.tuples(*([scalars(rational)] * (p - 1))).map(lambda t: CycloInt(p, t))


def is_integral_value(c):
    return Fraction(c).denominator == 1


def assert_int_invariant(x: CycloInt):
    assert type(x.coords) is tuple
    for c in x.coords:
        assert type(c) is int if is_integral_value(c) else type(c) is Fraction, x
    assert x.is_integral() == all(is_integral_value(c) for c in x.coords)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclo_kernels_match_references(p, data):
    rational = data.draw(st.booleans(), label="rational")
    a, b = data.draw(cyclo(p, rational)), data.draw(cyclo(p, rational))
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
    rational = data.draw(st.booleans(), label="rational")
    a, b = data.draw(cyclo(p, rational)), data.draw(cyclo(p, rational))
    v = data.draw(scalars(True), label="v")
    for x in (a, b, a + b, a - b, -a, a * b, a.scale(v), a.scale(2),
              a.galois(data.draw(st.integers(1, p - 1))), a.conj()):
        assert_int_invariant(x)
    tr = a.trace()
    assert (type(tr) is int) == is_integral_value(tr)
    terms = data.draw(st.dictionaries(st.integers(0, p - 1), scalars(True), max_size=p))
    assert_int_invariant(CycloInt.from_exp_map(p, terms))
    # halves that cancel leave integral coordinates
    assert_int_invariant(CycloInt.from_exp_map(p, {0: Fraction(1, 2), 1: Fraction(1, 2)}))
    if not a.is_zero():
        inv = a.inverse()
        assert_int_invariant(inv)
        assert a * inv == CycloInt.from_rational(p, 1)


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
    assert norm == sl_embed(p, u.norm_integer(), m)
    try:
        inv = u.inverse()
    except ZeroDivisionError:
        return
    assert (u * inv).is_one()


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
    a = data.draw(cyclo(p, data.draw(st.booleans(), label="rational")))
    assert zeta_shift(p, a.coords, k) == reference_cyclo_mul(p, a.coords, zk)
    assert_int_invariant(CycloInt(p, zeta_shift(p, a.coords, k)))
    m = data.draw(st.integers(2, 10 ** 9), label="m")
    u = data.draw(st.tuples(*([st.integers(0, m - 1)] * (p - 1))), label="u")
    assert SemilocalElement(p, m, zeta_shift(p, u, k)).poly == \
        reference_semilocal_mul(p, m, u, zk)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fraction_product_matches_schoolbook(p, data):
    # at least one factor has a non-integral coordinate; the other is either kind
    a = data.draw(cyclo(p, True).filter(lambda x: not x.is_integral()), label="a")
    b = data.draw(cyclo(p, data.draw(st.booleans(), label="rational")), label="b")
    for x, y in ((a, b), (b, a)):
        prod = x * y
        assert prod.coords == reference_cyclo_mul(p, x.coords, y.coords)
        assert_int_invariant(prod)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_embedding_abs_matches_power_evaluation(p, data):
    x = data.draw(cyclo(p, data.draw(st.booleans(), label="rational")))
    c = data.draw(st.integers(1, p - 1), label="c")
    value, err = embedding_abs(x, c)
    size = max(abs(Fraction(v).numerator) + Fraction(v).denominator for v in x.coords)
    reference = reference_embedding_abs(x, c, 2 * (40 + len(str(size))))
    assert abs(value - reference) <= err


def reference_max_conjugate_abs(x):
    best = (mpmath.mpf(0), mpmath.mpf(0))
    for c in range(1, x.p):
        v, e = embedding_abs(x, c)
        if v > best[0]:
            best = (v, e)
    return best


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_max_conjugate_abs_half_scan_matches_full_scan(p, data):
    x = data.draw(cyclo(p, data.draw(st.booleans(), label="rational")))
    value, err = max_conjugate_abs(x)
    full_value, full_err = reference_max_conjugate_abs(x)
    assert abs(value - full_value) <= err + full_err
