import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclonorm import linalg
from cyclonorm.cyclotomic import (
    CycloIdeal,
    CycloInt,
    _cyclotomic_poly,
    _linear_root,
    _poly_gcd,
    characteristic_data,
    congruent_mod_uniformizer_power,
    divide_by_uniformizer,
    equation_value,
    embedding_abs,
    inverse_uniformizer_numerator,
    kappa,
    kappa_inv,
    lambda_expand,
    lambda_valuation,
    orbit_product,
    residue_mod_uniformizer,
    trace_coordinate_residues,
    trace_form,
    trace_product_coordinate_identity,
    uniformizer,
)
from cyclonorm.group_ring import GroupRingElement

PRIMES = [5, 7, 11, 13]


def trace_pairing(x, y):
    """Hermitian pairing Tr(x * conj(y))."""
    return (x * y.conj()).trace()


@dataclasses.dataclass(frozen=True)
class NormChain:
    """Quantities from the norm-comparison chain on trace-zero elements.

    pairing = Tr(x conj(x)) = p * sum x_c^2; the chain (squared throughout)
    is  p^2 |kappa|_sup^2  <=  p * pairing  <=  p^2 (p-1) |kappa|_sup^2.
    """

    sup: int
    pairing: int
    left_ok: bool
    right_ok: bool

    @property
    def holds(self) -> bool:
        return self.left_ok and self.right_ok


def norms_compare(x):
    """Reference for the `norm-chain` record, with the chain inequalities
    that `identities` no longer evaluates (they hold for any integers)."""
    if x.trace() != 0:
        raise ValueError("norm chain applies to trace-zero elements")
    p = x.p
    coords = kappa(x)
    sup = max((abs(c) for c in coords), default=0)
    pairing = trace_pairing(x, x)
    sq_sum = sum(c * c for c in coords)
    if pairing != p * sq_sum:
        raise AssertionError("pairing identity failed on trace-zero element")
    return NormChain(
        sup=sup,
        pairing=pairing,
        left_ok=sup * sup <= sq_sum,
        right_ok=sq_sum <= (p - 1) * sup * sup,
    )


def cyclo(p, lo=-9, hi=9):
    return st.tuples(*([st.integers(lo, hi)] * (p - 1))).map(lambda t: CycloInt(p, t))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_axioms(p, data):
    a, b, c = (data.draw(cyclo(p)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@pytest.mark.parametrize("p", PRIMES)
def test_basic_traces_and_norms(p):
    z = CycloInt.zeta_power(p, 1)
    one = CycloInt.from_rational(p, 1)
    assert z ** p == one
    assert z.galois(2) == CycloInt.zeta_power(p, 2)
    assert z.trace() == -1
    assert one.trace() == p - 1
    assert uniformizer(p).norm() == p
    assert CycloInt.from_rational(p, 3).norm() == 3 ** (p - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_norm_multiplicative_and_matches_conjugate_product(p):
    rng = random.Random(p)
    for _ in range(5):
        a = CycloInt(p, tuple(rng.randrange(-5, 6) for _ in range(p - 1)))
        b = CycloInt(p, tuple(rng.randrange(-5, 6) for _ in range(p - 1)))
        assert (a * b).norm() == a.norm() * b.norm()
        prod = CycloInt.from_rational(p, 1)
        for c in range(1, p):
            prod = prod * a.galois(c)
        assert prod == CycloInt.from_rational(p, a.norm())


@pytest.mark.parametrize("p", [7, 13])
def test_orbit_product_is_the_plain_product(p):
    # any a and any length n, not only n = ord_p(a)
    rng = random.Random(p)
    x = CycloInt(p, tuple(rng.randrange(-5, 6) for _ in range(p - 1)))
    for a in range(1, p):
        prod = CycloInt.from_rational(p, 1)
        for n in range(1, 13):
            prod = prod * x.galois(a ** (n - 1))
            assert orbit_product(x, a, n) == prod
    with pytest.raises(ValueError):
        orbit_product(x, 2, 0)


def test_galois_group_ring_power():
    z = CycloInt.zeta_power(5, 1)
    theta = GroupRingElement.from_inverse_coeffs(5, {2: 1, 3: 2})
    # z^theta = sigma_2^{-1}(z) * sigma_3^{-1}(z)^2 = z^{2^{-1} + 2*3^{-1}}
    expected = CycloInt.zeta_power(5, (pow(2, 3, 5) + 2 * pow(3, 3, 5)) % 5)
    assert z.group_ring_power(theta) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_uniformizer_identity(p):
    num = inverse_uniformizer_numerator(p)
    assert num * uniformizer(p) == CycloInt.from_rational(p, p)
    total = CycloInt.zero(p)
    for c in range(1, p):
        total = total + num.galois(c)
    assert total.as_rational() == Fraction(p * (p - 1), 2)


def test_lambda_expansion_examples():
    p = 5
    lam = uniformizer(p)
    d = lambda_expand(lam, 4)
    assert d.digits == (0, 1, 0, 0) and d.terminated

    d = lambda_expand(CycloInt.from_rational(p, p), p - 1)
    assert d.digits == (0,) * (p - 1)
    assert lambda_valuation(CycloInt.from_rational(p, p)) == p - 1

    z = CycloInt.zeta_power(p, 1)
    d = lambda_expand(z, 3)
    assert d.digits == (1, -1, 0) and d.terminated


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_divide_by_uniformizer_is_exact(p, data):
    x = data.draw(cyclo(p, -50, 50))
    assert divide_by_uniformizer(uniformizer(p) * x) == x
    # residue 1 mod lambda: a lambda-unit, which lambda does not divide
    unit = x + CycloInt.from_rational(p, 1 - residue_mod_uniformizer(x))
    assert residue_mod_uniformizer(unit) == 1
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_uniformizer(unit)


@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lambda_expand_roundtrip(p, data):
    w = data.draw(cyclo(p, -20, 20))
    exp = lambda_expand(w, 6)
    assert all(abs(d) <= (p - 1) // 2 for d in exp.digits)
    diff = w - exp.partial_sum()
    if not diff.is_zero():
        assert lambda_valuation(diff) >= 6


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_congruence_mod_lambda_power_matches_the_valuation(p, data):
    # b = a + lambda^j x, so a - b has valuation j + v(x) (or is 0)
    a, x = data.draw(cyclo(p, -20, 20), label="a"), data.draw(cyclo(p, -20, 20), label="x")
    j, k = data.draw(st.integers(0, 8), label="j"), data.draw(st.integers(0, 12), label="k")
    b = a + uniformizer(p) ** j * x
    d = a - b
    assert congruent_mod_uniformizer_power(a, b, k) == \
        (d.is_zero() or lambda_valuation(d) >= k)


@pytest.mark.parametrize("p", PRIMES)
def test_kappa_identities(p):
    rng = random.Random(p)
    z = CycloInt.zeta_power(p, 3 % p)
    assert kappa(z)[2 % (p - 1)] == 1 and sum(map(abs, kappa(z))) == 1
    assert kappa(CycloInt.zero(p)) == (Fraction(0),) * (p - 1)
    for _ in range(50):
        x = CycloInt(p, tuple(rng.randrange(-99, 100) for _ in range(p - 1)))
        assert kappa_inv(p, kappa(x)) == x
        exact, _ = trace_coordinate_residues(x)
        assert all(e == p * c for e, c in zip(exact, kappa(x)))
    # the shifted displayed form requires zero trace
    for _ in range(50):
        raw = [rng.randrange(-30, 31) for _ in range(p - 2)]
        raw.append(-sum(raw))
        x = CycloInt(p, tuple(raw))
        assert Fraction(x.trace()) == 0
        _, shifted = trace_coordinate_residues(x)
        assert all(s == p * c for s, c in zip(shifted, kappa(x)))


@pytest.mark.parametrize("p", PRIMES)
def test_trace_pairing(p):
    z = CycloInt.zeta_power
    assert trace_pairing(z(p, 1), z(p, 1)) == p - 1
    assert trace_pairing(z(p, 1), z(p, 2)) == -1
    rng = random.Random(p + 1)
    for _ in range(40):
        x = CycloInt(p, tuple(rng.randrange(-30, 31) for _ in range(p - 1)))
        y = CycloInt(p, tuple(rng.randrange(-30, 31) for _ in range(p - 1)))
        assert trace_product_coordinate_identity(x, y)
    # pairing with itself on trace-zero elements
    for _ in range(40):
        raw = [rng.randrange(-30, 31) for _ in range(p - 2)]
        raw.append(-sum(raw))
        x = CycloInt(p, tuple(raw))
        assert Fraction(trace_pairing(x, x)) == p * sum(Fraction(c) ** 2 for c in x.coords)


@pytest.mark.parametrize("p", PRIMES)
def test_kappa_conjugation_functorial(p):
    # conjugating permutes coordinates: coordinate c*j of sigma_c x is
    # coordinate j of x
    rng = random.Random(p * 7)
    for _ in range(30):
        x = CycloInt(p, tuple(rng.randrange(-20, 21) for _ in range(p - 1)))
        c = rng.randrange(1, p)
        moved = kappa(x.galois(c))
        for j in range(1, p):
            assert moved[(c * j) % p - 1] == kappa(x)[j - 1]


def test_norm_chain_examples():
    x = CycloInt.zeta_power(5, 1) - CycloInt.zeta_power(5, 2)
    chain = norms_compare(x)
    assert chain.holds and chain.sup == 1
    with pytest.raises(ValueError):
        norms_compare(CycloInt.zeta_power(5, 1))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_norm_chain_random(p):
    rng = random.Random(p)
    count = 0
    while count < 100:
        raw = [rng.randrange(-50, 51) for _ in range(p - 2)]
        raw.append(-sum(raw))
        x = CycloInt(p, tuple(raw))
        if x.is_zero():
            continue
        assert norms_compare(x).holds
        count += 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=p - 1, max_size=p - 1)))
def test_norm_chain_inequalities_hold_for_any_integers(coords):
    # the chain sup^2 <= sum x_c^2 <= (p - 1) sup^2 asks nothing of x: one
    # square is the largest, and each of the p - 1 squares is at most it
    sup = max(abs(c) for c in coords)
    sq_sum = sum(c * c for c in coords)
    assert sup * sup <= sq_sum <= len(coords) * sup * sup


@pytest.mark.parametrize("p", PRIMES + [23])
def test_trace_form_is_the_product_trace(p):
    # the row of w -> Tr(w e) against the product trace, and against the
    # coordinate formula p sum_j x_j y_{p-j} - (sum x)(sum y)
    rng = random.Random(p * 11)
    for _ in range(40):
        x = CycloInt(p, tuple(rng.randrange(-50, 51) for _ in range(p - 1)))
        y = CycloInt(p, tuple(rng.randrange(-50, 51) for _ in range(p - 1)))
        row = trace_form(y)
        assert sum(a * b for a, b in zip(row, x.coords)) == (x * y).trace()
        xs, ys = x.coords, y.coords
        assert (x * y).trace() == (p * sum(xs[j - 1] * ys[p - j - 1] for j in range(1, p))
                                   - sum(xs) * sum(ys))
    assert trace_form(CycloInt.from_rational(p, 1)) == [-1] * (p - 1)   # Tr(zeta^c) = -1


def test_embedding_abs_certified():
    x = CycloInt.from_polynomial(7, [3, 1, -2])
    v, err = embedding_abs(x, 1)
    import cmath
    z = cmath.exp(2j * cmath.pi / 7)
    assert abs(float(v) - abs(3 + z - 2 * z * z)) < 1e-9
    assert float(err) < 2 ** -38


def test_ideal_examples():
    p = 5
    lam = uniformizer(p)
    assert CycloIdeal.principal(lam) ** (p - 1) == \
        CycloIdeal.principal(CycloInt.from_rational(p, p))
    rng = random.Random(2)
    for _ in range(8):
        a = CycloInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
        b = CycloInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
        if a.is_zero() or b.is_zero():
            continue
        ia, ib = CycloIdeal.principal(a), CycloIdeal.principal(b)
        assert ia * ib == CycloIdeal.principal(a * b)
        assert (ia * ib).norm() == ia.norm() * ib.norm()
        assert ia.norm() == abs(a.norm())


def reference_ideal_mul(a, b):
    """The product from all (p-1)^2 products of the two Z-bases."""
    gens = tuple(x * y for x in a.basis_elements() for y in b.basis_elements())
    hnf = linalg.hermite_normal_form([kappa(g) for g in gens], a.p - 1,
                                     det_multiple=a.norm() * b.norm())
    return CycloIdeal(a.p, tuple(tuple(r) for r in hnf), gens)


def ideals(p):
    """Principal ideals, (alpha, n), (n, lambda), powers of lambda and the unit ideal."""
    lam = uniformizer(p)
    elem = st.tuples(*([st.integers(-3, 3)] * (p - 1))).map(
        lambda t: CycloInt(p, t)).filter(lambda x: not x.is_zero())
    n = st.integers(1, 60).map(lambda v: CycloInt.from_rational(p, v))
    return st.one_of(
        elem.map(CycloIdeal.principal),
        st.tuples(elem, n).map(lambda g: CycloIdeal.from_generators(list(g))),
        st.tuples(elem, n).map(lambda g: CycloIdeal.from_generators(list(g)) ** 2),
        n.map(lambda v: CycloIdeal.from_generators([v, lam])),
        st.integers(1, p).map(lambda k: CycloIdeal.principal(lam) ** k),
        st.just(CycloIdeal.principal(CycloInt.from_rational(p, 1))),
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ideal_product_matches_full_basis_product(p, data):
    a, b = data.draw(ideals(p), label="a"), data.draw(ideals(p), label="b")
    product = a * b
    assert product == reference_ideal_mul(a, b)
    # the stored generators lie in the ideal and generate all of it
    for ideal in (a, b, product):
        assert all(ideal.contains(g) for g in ideal.gens)
        assert CycloIdeal.from_generators(ideal.gens) == ideal


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lambda_powers_have_two_generators(p):
    # (lambda)^k stores the one generator lambda^k; with the norm p^k, which
    # lies in it, the two generate it as well
    lam = uniformizer(p)
    for k in range(1, p + 1):
        ideal = CycloIdeal.principal(lam) ** k
        assert ideal.gens == (lam ** k,)
        norm = CycloInt.from_rational(p, ideal.norm())
        assert CycloIdeal.from_generators([norm, lam ** k]) == ideal


@pytest.mark.parametrize("p,alpha,n", [(5, (-3, -2, -3, 0), 11), (7, (3, 2, -2, -3, 1, 1), 42)])
def test_generators_take_a_third_row_when_two_fall_short(p, alpha, n):
    # squares whose short generator set, once read back from the HNF, took a
    # third row; the stored set is the three distinct monomials of (alpha, n)^2
    a, m = CycloInt(p, alpha), CycloInt.from_rational(p, n)
    ideal = CycloIdeal.from_generators([a, m]) ** 2
    assert ideal.gens == (a * a, a * m, m * m)
    assert CycloIdeal.from_generators(ideal.gens) == ideal
    assert ideal * ideal == reference_ideal_mul(ideal, ideal)


def reference_principal_hnf(g):
    """The generic route: the HNF of the p - 1 multiples zeta^k g, mod |N(g)|."""
    p = g.p
    rows = [kappa(CycloInt.zeta_power(p, k) * g) for k in range(p - 1)]
    hnf = linalg.hermite_normal_form(rows, p - 1, det_multiple=abs(g.norm()))
    return tuple(map(tuple, hnf))


def principal_generators(p):
    """Elements with coordinates in -4..4, their multiples by lambda, x sigma_2(x)
    (a split prime of N(x) comes back as two primes over it, so the quotient
    is not cyclic) and the units zeta^k (the unit ideal)."""
    elem = st.tuples(*([st.integers(-4, 4)] * (p - 1))).map(
        lambda t: CycloInt(p, t)).filter(lambda x: not x.is_zero())
    lam = uniformizer(p)
    return st.one_of(
        elem,
        elem.map(lambda x: x * lam),
        elem.map(lambda x: x * x.galois(2)),
        st.integers(0, p - 1).map(lambda k: CycloInt.zeta_power(p, k)),
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_principal_hnf_matches_generic_route(p, data):
    g = data.draw(principal_generators(p), label="g")
    assert CycloIdeal.principal(g).hnf == reference_principal_hnf(g)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_principal_products_match_full_basis_product(p, data):
    a = CycloIdeal.principal(data.draw(principal_generators(p), label="a"))
    b = CycloIdeal.principal(data.draw(principal_generators(p), label="b"))
    # a b: mostly coprime norms (the CRT route); a a: a shared norm (generic)
    assert a * b == reference_ideal_mul(a, b)
    assert a * a == reference_ideal_mul(a, a)


# p = 5 generators, one per case of the principal route
@pytest.mark.parametrize("coords,norm,case", [
    ((-2, -3, 0, -3), 31, "cyclic"),      # gcd(Phi_5, g) = X - 16 mod 31
    ((1, 1, -2, 0), 55, "cyclic"),        # lambda (zeta + 2 zeta^2)
    ((-4, 1, -4, 0), 121, "not cyclic"),  # two primes over 11: quotient F_11^2
    ((4, -4, -2, 3), 3091, "non-unit"),   # cyclic, but Euclid meets 11 | lc mod 11 * 281
    ((0, 0, -1, -1), 1, "unit"),
])
def test_principal_route_cases(coords, norm, case):
    g = CycloInt(5, coords)
    assert abs(g.norm()) == norm
    ideal = CycloIdeal.principal(g)
    assert ideal.hnf == reference_principal_hnf(g)
    assert (_linear_root(g, norm) is not None) == (case == "cyclic")
    assert (ideal._cyclic_root() is not None) == (case != "not cyclic")
    if case == "non-unit":
        with pytest.raises(ValueError):
            _poly_gcd(_cyclotomic_poly(5), [0, *coords], norm)


def test_crt_product_of_coprime_cyclic_ideals():
    p = 5
    a, b = CycloInt(p, (-2, -3, 0, -3)), uniformizer(p)
    ia, ib = CycloIdeal.principal(a), CycloIdeal.principal(b)
    assert ia._cyclic_root() == (31, 16) and ib._cyclic_root() == (5, 1)
    product = ia * ib
    assert product._cyclic_root() == (155, 16)
    assert product == reference_ideal_mul(ia, ib) == CycloIdeal.principal(a * b)


def test_wrong_root_fails_the_certificate():
    p, g = 5, CycloInt(5, (-2, -3, 0, -3))
    c = _linear_root(g, 31)
    assert CycloIdeal._kernel_at_root(p, 31, c, (g,)) == CycloIdeal.principal(g)
    # c + 1 is no root of Phi_5 mod 31; c^2 is, but g does not vanish there
    for wrong in (c + 1, c * c % 31):
        with pytest.raises(AssertionError):
            CycloIdeal._kernel_at_root(p, 31, wrong, (g,))
    # Phi_5(c + 1) alone fails, before any generator is read
    with pytest.raises(AssertionError, match="not a root"):
        CycloIdeal._kernel_at_root(p, 31, c + 1, ())


def test_crt_product_checks_every_generator():
    # (a) (lambda) = kernel at c = 16 mod 155; a lambda vanishes there, a does
    # not (it is a unit at lambda)
    p = 5
    a, lam = CycloInt(p, (-2, -3, 0, -3)), uniformizer(p)
    product = CycloIdeal.principal(a) * CycloIdeal.principal(lam)
    assert product.gens == (a * lam,)
    assert CycloIdeal._kernel_at_root(p, 155, 16, (a * lam,)) == product
    with pytest.raises(AssertionError, match="does not vanish"):
        CycloIdeal._kernel_at_root(p, 155, 16, (a * lam, a))
    # a factor that carries a wrong generator makes the CRT route refuse
    wrong = dataclasses.replace(CycloIdeal.principal(a), gens=(a + uniformizer(p),))
    with pytest.raises(AssertionError, match="does not vanish"):
        wrong * CycloIdeal.principal(lam)


def test_characteristic_data_p3():
    data = characteristic_data(3, 0, 19, 18, 7)
    assert data.alpha.norm() == 343
    assert data.all_identity_checks
    assert data.ideal.norm() == 7
    # explicit Fact-style ideal identities
    assert data.ideal ** 3 == CycloIdeal.principal(data.alpha)
    both = CycloIdeal.from_generators([data.alpha.galois(1), data.alpha.galois(2)])
    assert both.is_unit_ideal()

    data2 = characteristic_data(3, 1, 2, 1, 1)
    assert data2.all_identity_checks
    assert equation_value(3, 2, 1) == 3


def test_characteristic_data_rejects_non_solutions():
    with pytest.raises(ValueError):
        characteristic_data(5, 0, 3, 2, 1)
    with pytest.raises(ValueError):
        characteristic_data(3, 0, 20, 18, 7)   # not coprime
