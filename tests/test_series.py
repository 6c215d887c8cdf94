import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclonorm import series as series_module
from cyclonorm.cyclotomic import CycloInt, basis_product, inverse_uniformizer_numerator, zeta_shift
from cyclonorm.group_ring import GroupRingElement
from cyclonorm.lattice import guard_depth
from cyclonorm.semilocal import SemilocalElement, YDigits, in_balanced_set, synthetic_root_of_unity
from cyclonorm.series import (
    binom_coeffs,
    coeff_bound_check,
    denominator_exponent,
    double_table,
    equivariance_check,
    factorial_valuation,
    normalized_coeffs,
    packed_product,
    pth_power_check,
    reassembly_check,
    sl_eval,
    sl_power_check,
    to_power_basis,
    wieferich_sums,
)
from cyclonorm.stickelberger import (
    construct_weight2_annihilator,
    fueter,
)


@dataclasses.dataclass(frozen=True)
class QZeta:
    """Element of Q(zeta_p) for the reference routes: integer coordinates on
    zeta..zeta^{p-1} over one positive denominator, in lowest terms.  The
    product is the schoolbook `basis_product`, so these routes share nothing
    with the packed integer routes they check."""

    p: int
    num: tuple
    den: int = 1

    @classmethod
    def reduced(cls, p, num, den):
        g = math.gcd(den, *num)
        return cls(p, tuple(c // g for c in num), den // g)

    @classmethod
    def of(cls, x: CycloInt):
        return cls(x.p, x.coords)

    @classmethod
    def zero(cls, p):
        return cls.of(CycloInt.zero(p))

    @classmethod
    def from_rational(cls, p, v):
        return cls.of(CycloInt.from_rational(p, v))

    def __add__(self, other):
        return QZeta.reduced(self.p, tuple(a * other.den + b * self.den
                                           for a, b in zip(self.num, other.num)),
                             self.den * other.den)

    def __mul__(self, other):
        return QZeta.reduced(self.p, basis_product(self.p, self.num, other.num),
                             self.den * other.den)

    def scale(self, v: Fraction):
        return QZeta.reduced(self.p, tuple(v.numerator * c for c in self.num),
                             v.denominator * self.den)


def reference_coefficient(table, m):
    """a_m = numerators[m] / q^{E(m)} in Q(zeta)."""
    return QZeta.of(table.numerators[m]).scale(
        Fraction(1, table.q ** denominator_exponent(m, table.q)))


# The earlier route to the tables: general Z[zeta] products against the
# monomial factor series, and for the full table the reciprocal of the
# conjugate table.  normalized_coeffs and binom_coeffs must agree with it.


def reference_base_normalized(p, q, n, c, m_max):
    c_inv = pow(c, p - 2, p)
    out = [CycloInt.from_rational(p, 1)]
    scalar = 1
    for m in range(1, m_max + 1):
        scalar *= n - (m - 1) * q
        out.append(CycloInt.zeta_power(p, m * c_inv % p).scale(scalar))
    return out


def reference_convolve(a, b, m_max):
    p = a[0].p
    out = []
    for m in range(m_max + 1):
        acc = CycloInt.zero(p)
        for k in range(m + 1):
            acc = acc + (a[k] * b[m - k]).scale(math.comb(m, k))
        out.append(acc)
    return out


def reference_invert(b, m_max):
    p = b[0].p
    out = [CycloInt.from_rational(p, 1)]
    for m in range(1, m_max + 1):
        acc = CycloInt.zero(p)
        for k in range(1, m + 1):
            acc = acc + (b[k] * out[m - k]).scale(math.comb(m, k))
        out.append(-acc)
    return out


def reference_normalized_coeffs(theta, m_max, q):
    p = theta.p
    out = [CycloInt.from_rational(p, 1)] + [CycloInt.zero(p)] * m_max
    for c in range(1, p):
        n = theta.coeff(c)
        if n:
            out = reference_convolve(out, reference_base_normalized(p, q, n, c, m_max), m_max)
    return out


def reference_binom_numerators(theta, order, full, q):
    b = reference_normalized_coeffs(theta, order, q)
    if full:
        b_conj = reference_normalized_coeffs(theta.conjugate(), order, q)
        b = reference_convolve(b, reference_invert(b_conj, order), order)
    return tuple(QZeta.of(bm).scale(Fraction(q ** factorial_valuation(m, q), math.factorial(m)))
                 for m, bm in enumerate(b))


def reference_rotation_coeffs(theta, m_max, q):
    """Reference for normalized_coeffs: each factor convolution as a sum of
    zeta-rotations of integer coordinate tuples over zeta, ..., zeta^{p-1}."""
    p = theta.p
    b = [(-1,) * (p - 1)] + [(0,) * (p - 1)] * m_max
    for c in range(1, p):
        n = theta.coeff(c)
        if not n:
            continue
        c_inv = pow(c, p - 2, p)
        s = [1]
        for i in range(m_max):
            s.append(s[-1] * (n - i * q))
        out = []
        for m in range(m_max + 1):
            acc = (0,) * (p - 1)
            for k in range(m + 1):
                scalar = math.comb(m, k) * s[m - k]
                if scalar:
                    rotated = zeta_shift(p, b[k], (m - k) * c_inv)
                    acc = tuple(a + scalar * v for a, v in zip(acc, rotated))
            out.append(acc)
        b = out
    return [CycloInt(p, coords) for coords in b]


# q is drawn from the primes below 12 (p itself at index 0); the reference
# route finishes quickly up to order 10 at p <= 13 and order 6 above.
TABLE_PRIMES = [3, 5, 7, 11, 13, 17, 23, 31]
SMALL_OR_LARGE = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(TABLE_PRIMES), q_at=st.integers(0, 4),
       coeffs=st.lists(SMALL_OR_LARGE, min_size=30, max_size=30),
       order=st.integers(0, 10), full=st.booleans())
@example(p=31, q_at=0, coeffs=[0] * 30, order=6, full=True)               # theta = 0
@example(p=5, q_at=1, coeffs=[0] * 30, order=0, full=False)
@example(p=13, q_at=0, coeffs=[-2, 1] * 15, order=0, full=True)          # order 0
@example(p=31, q_at=2, coeffs=[10 ** 6, -10 ** 6] * 15, order=6, full=True)
@example(p=23, q_at=0, coeffs=[10 ** 6] * 30, order=6, full=False)
@example(p=17, q_at=4, coeffs=[-10 ** 6] + [0] * 29, order=6, full=False)
def test_tables_equal_the_reciprocal_route(p, q_at, coeffs, order, full):
    q = ([p] + [r for r in (2, 3, 5, 7, 11) if r != p])[q_at]
    order = min(order, 10 if p <= 13 else 6)
    theta = GroupRingElement(p, tuple(coeffs[:p - 1]))
    tab = binom_coeffs(theta, order, full=full, den_prime=q)
    assert tuple(map(QZeta.of, tab.numerators)) == reference_binom_numerators(theta, order, full, q)
    for bm in normalized_coeffs(theta, order, q) + list(tab.numerators):
        assert set(map(type, bm.coords)) == {int}


# the rotation loop reaches the primes and orders (to 12) that the reciprocal
# route cannot finish, where the slot width of the residues is widest
# full support at p = 43 with entries +-10^6 and order 12: the widest slots
@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([5, 13, 29, 37, 43]), q=st.sampled_from([2, 3, 43]),
       coeffs=st.lists(SMALL_OR_LARGE, min_size=42, max_size=42),
       m_max=st.integers(0, 12))
@example(p=43, q=2, coeffs=[10 ** 6, -10 ** 6] * 21, m_max=12)
@example(p=43, q=43, coeffs=[10 ** 6, -10 ** 6] * 21, m_max=12)
@example(p=43, q=43, coeffs=[-10 ** 6] * 42, m_max=12)
def test_tables_equal_the_rotation_loop(p, q, coeffs, m_max):
    theta = GroupRingElement(p, tuple(coeffs[:p - 1]))
    assert normalized_coeffs(theta, m_max, q) == reference_rotation_coeffs(theta, m_max, q)


def annihilator_element(p):
    return construct_weight2_annihilator(p).element


def test_denominator_exponent():
    assert factorial_valuation(12, 5) == 2
    assert denominator_exponent(12, 5) == 14
    assert denominator_exponent(0, 5) == 0
    assert [denominator_exponent(m, 5) for m in range(6)] == [0, 1, 2, 3, 4, 6]


@pytest.mark.parametrize("p", [5, 7])
def test_single_factor_against_direct_binomial(p):
    for c in range(1, p):
        t = GroupRingElement.from_inverse_coeffs(p, {c: 1})
        tab = binom_coeffs(t, 6, full=False)
        c_inv = pow(c, p - 2, p)
        for m in range(7):
            binom = Fraction(1)
            for i in range(m):
                binom *= Fraction(1, p) - i
            binom /= math.factorial(m)
            assert reference_coefficient(tab, m) == \
                QZeta.of(CycloInt.zeta_power(p, m * c_inv % p)).scale(binom)


@pytest.mark.parametrize("p", [5, 7])
def test_leading_coefficient_is_one(p):
    for theta in [fueter(p, 1), annihilator_element(p)]:
        for full in (True, False):
            tab = binom_coeffs(theta, 3, full=full)
            assert reference_coefficient(tab, 0) == QZeta.from_rational(p, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_integrality_to_order_12(p):
    thetas = [fueter(p, 1), fueter(p, 1).scale(2),
              fueter(p, 1) + fueter(p, 2), annihilator_element(p)]
    for theta in thetas:
        for full in (True, False):
            # binom_coeffs raises ArithmeticError unless every numerator is
            # integral; the Q(zeta) route confirms it on its own
            tab = binom_coeffs(theta, 12, full=full)
            assert all(n.den == 1 for n in reference_binom_numerators(theta, 12, full, p))
            assert tuple(map(QZeta.of, tab.numerators)) == \
                reference_binom_numerators(theta, 12, full, p)


@pytest.mark.parametrize("p", [5, 7])
def test_reciprocal_route_equals_signed_convolution(p):
    theta = fueter(p, 1).scale(2)
    via_reciprocal = reference_convolve(
        reference_normalized_coeffs(theta, 8, p),
        reference_invert(reference_normalized_coeffs(theta.conjugate(), 8, p), 8), 8)
    direct = reference_normalized_coeffs(theta - theta.conjugate(), 8, p)
    assert via_reciprocal == direct


@pytest.mark.parametrize("p", [5, 7])
def test_formal_power_identity(p):
    for theta in [fueter(p, 1), fueter(p, 1).scale(2), annihilator_element(p)]:
        tab = binom_coeffs(theta, 8, full=True)
        res = pth_power_check(tab)
        assert res.ok, res
    # trivial order-zero case
    tab = binom_coeffs(fueter(p, 1), 0, full=True)
    assert pth_power_check(tab, 0).ok


# The earlier route to the power check: the finite product as a series, with
# each factor power taken by square-and-multiply and the conjugate side
# inverted as a series.  pth_power_check must give the same verdict.  The
# series products take CycloInt or QZeta coefficients.


def reference_ps_mul(a, b, order):
    p = a[0].p
    out = []
    for m in range(order + 1):
        acc = type(a[0]).zero(p)
        for k in range(m + 1):
            if k < len(a) and m - k < len(b):
                acc = acc + a[k] * b[m - k]
        out.append(acc)
    return out


def reference_ps_pow(a, e, order):
    p, kind = a[0].p, type(a[0])
    result = [kind.from_rational(p, 1)] + [kind.zero(p)] * order
    base = list(a)
    while e:
        if e & 1:
            result = reference_ps_mul(result, base, order)
        base = reference_ps_mul(base, base, order)
        e >>= 1
    return result


def reference_ps_inv(a, order):
    p = a[0].p
    one = CycloInt.from_rational(p, 1)
    assert a[0] == one
    out = [one]
    for m in range(1, order + 1):
        acc = CycloInt.zero(p)
        for k in range(1, m + 1):
            if k < len(a):
                acc = acc + a[k] * out[m - k]
        out.append(-acc)
    return out


def reference_linear_factor_power(p, theta, conj, order):
    series = [CycloInt.from_rational(p, 1)] + [CycloInt.zero(p)] * order
    for c in range(1, p):
        n = theta.coeff(c)
        if n == 0:
            continue
        e = pow(c, p - 2, p)
        if conj:
            e = (p - 1) * e % p
        factor = [CycloInt.from_rational(p, 1), CycloInt.zeta_power(p, e)]
        factor += [CycloInt.zero(p)] * (order - 1)
        if n > 0:
            series = reference_ps_mul(series, reference_ps_pow(factor, n, order), order)
        else:
            series = reference_ps_mul(
                series, reference_ps_inv(reference_ps_pow(factor, -n, order), order), order)
    return series


def reference_pth_power_check(table, order):
    p = table.p
    partial = [reference_coefficient(table, m) for m in range(order + 1)]
    lhs = reference_ps_pow(partial, table.q, order)
    rhs = reference_ps_mul(
        reference_linear_factor_power(p, table.theta, False, order),
        reference_ps_inv(reference_linear_factor_power(p, table.theta, True, order), order),
        order,
    )
    for m in range(order + 1):
        if lhs[m] != QZeta.of(rhs[m]):
            return False, m
    return True, None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_power_check_matches_the_reciprocal_route(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    q = data.draw(st.sampled_from([p, 7 if p == 5 else 5]))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=p - 1, max_size=p - 1))
    theta = GroupRingElement(p, tuple(coeffs))
    order = data.draw(st.integers(0, 6))
    tab = binom_coeffs(theta, order, full=True, den_prime=q)
    corrupt = data.draw(st.integers(0, order)) if data.draw(st.booleans()) else None
    if corrupt is not None:
        k = data.draw(st.integers(0, p - 2))
        delta = data.draw(st.integers(-3, 3).filter(bool))
        nums = list(tab.numerators)
        coords = list(nums[corrupt].coords)
        coords[k] += delta
        nums[corrupt] = CycloInt(p, tuple(coords))
        tab = dataclasses.replace(tab, numerators=tuple(nums))
    res = pth_power_check(tab, order)
    assert (res.ok, res.first_mismatch) == reference_pth_power_check(tab, order)
    assert res.first_mismatch == corrupt


def _corrupted(tab, indices, rng):
    """tab with one coordinate of each numerator in indices moved by a nonzero amount."""
    nums = list(tab.numerators)
    for m in indices:
        coords = list(nums[m].coords)
        coords[rng.randrange(tab.p - 1)] += rng.choice([-3, -2, -1, 1, 2, 3])
        nums[m] = CycloInt(tab.p, tuple(coords))
    return dataclasses.replace(tab, numerators=tuple(nums))


@pytest.mark.parametrize("p,q,order", [
    (13, 13, 6), (17, 17, 6), (23, 23, 6),          # the pipeline's primes
    (5, 3, 8), (7, 3, 8), (11, 3, 7), (7, 5, 8), (13, 5, 8), (5, 7, 8), (11, 7, 8),
])
def test_power_check_matches_the_reciprocal_route_at_wider_range(p, q, order):
    # q in {3, 5, 7} at order >= 7 has v_q(order!) > 0, so the common
    # denominator q^{v_q(order!)} of the scaled series is not 1
    rng = random.Random(1000 * p + 10 * q + order)
    theta = GroupRingElement(p, tuple(rng.randint(-2, 2) for _ in range(p - 1)))
    clean = binom_coeffs(theta, order, full=True, den_prime=q)
    for indices in [(), (rng.randint(0, order),), tuple(rng.sample(range(order + 1), 2))]:
        tab = _corrupted(clean, indices, rng)
        res = pth_power_check(tab, order)
        assert (res.ok, res.first_mismatch) == reference_pth_power_check(tab, order)
        assert res.first_mismatch == (min(indices) if indices else None)


@pytest.mark.parametrize("bad", [-1, 7])
def test_power_check_refuses_an_order_outside_the_table(bad):
    tab = binom_coeffs(GroupRingElement(5, (1, 0, 2, -1)), 6, full=True)
    with pytest.raises(ValueError, match=f"order {bad} is outside 0..6"):
        pth_power_check(tab, bad)


def _random_series(p, order, rng, bits):
    return [CycloInt(p, tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(p - 1)))
            for _ in range(order + 1)]


def _packed(a, b, order):
    """packed_product on CycloInt series, with the normal form checked."""
    vectors = [[to_power_basis(x.coords) for x in s] for s in (a, b)]
    product = packed_product(vectors[0], vectors[0] if a is b else vectors[1], order)
    assert len(product) == order + 1
    assert all(min(v) == 0 and len(v) == len(a[0].coords) + 1 for v in product)
    return [CycloInt(a[0].p, tuple(x - v[0] for x in v[1:])) for v in product]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
def test_packed_product_matches_schoolbook(p):
    # random coordinates up to 2^200 in size, the extreme series +-2^200 that
    # fills every slot to its width, the zero series and single-term series
    rng = random.Random(p)
    top = 1 << 200
    for order in range(9):
        zero = [CycloInt.zero(p)] * (order + 1)
        extreme = [CycloInt(p, tuple(top if (i + m) % 2 else -top for i in range(p - 1)))
                   for m in range(order + 1)]
        single = list(zero)
        single[rng.randint(0, order)] = _random_series(p, 0, rng, 200)[0]
        pairs = [(_random_series(p, order, rng, bits), _random_series(p, order, rng, 200))
                 for bits in (1, 8, 64, 200)]
        pairs += [(zero, extreme), (extreme, extreme), (single, extreme), (single, single)]
        for a, b in pairs:
            assert _packed(a, b, order) == reference_ps_mul(a, b, order)
        for a in (extreme, pairs[0][0], pairs[3][0]):
            assert _packed(a, a, order) == reference_ps_mul(a, a, order)


def test_q_variant_integrality_and_power():
    for theta in [fueter(5, 1), fueter(5, 1).scale(2)]:
        tab = binom_coeffs(theta, 10, full=True, den_prime=7)
        assert tab.q == 7
        assert pth_power_check(tab, 6).ok


@pytest.mark.parametrize("p", [5, 7])
def test_dominance_bounds(p):
    theta = fueter(p, 1).scale(2)
    tab = binom_coeffs(theta, 8, full=True)
    for m in range(9):
        check = coeff_bound_check(tab, m)
        assert check.holds, (m, check)
    plain = binom_coeffs(theta, 8, full=False)
    for m in range(9):
        assert coeff_bound_check(plain, m).holds
    # a_0 = 1 meets its bound 1 exactly; doubled, it breaks it
    doubled = dataclasses.replace(tab, numerators=(tab.numerators[0].scale(2),)
                                  + tab.numerators[1:])
    assert coeff_bound_check(tab, 0).holds
    assert not coeff_bound_check(doubled, 0).holds
    # bounds are monotone in the weight for nested exponent elements
    small = binom_coeffs(fueter(p, 1), 6, full=True)
    for m in range(7):
        assert coeff_bound_check(small, m).bound <= coeff_bound_check(tab, m).bound


def test_sl_eval_power_certificate():
    tab = binom_coeffs(fueter(5, 1), 8, full=True)
    x, y, precision = 3, 11, 4
    m = y ** precision
    t = y * pow(x, -1, m) % m
    expected = [0] * 4
    for n in range(precision):
        a = reference_coefficient(tab, n)
        scalar = pow(t, n, m) * pow(a.den, -1, m)
        expected = [e + scalar * c for e, c in zip(expected, a.num)]
    assert sl_eval(tab, x, y, precision).poly == tuple(e % m for e in expected)
    assert sl_power_check(tab, x, y, precision)
    # x not invertible modulo y, a ramified base, a table shorter than the precision
    for args in ((11, 11, 3), (3, 25, 3), (3, 11, 9)):
        with pytest.raises(ValueError):
            sl_eval(tab, *args)
        with pytest.raises(ValueError):
            sl_power_check(tab, *args)
    with pytest.raises(ValueError):
        sl_power_check(binom_coeffs(fueter(5, 1), 8, full=False), x, y, precision)


@pytest.mark.parametrize("p,x,y", [(5, 3, 11), (7, 2, 13)])
def test_equivariance(p, x, y):
    tab = binom_coeffs(fueter(p, 1), 8, full=True)
    assert equivariance_check(tab)
    # sigma_c permutes coordinates, so it commutes with the semilocal sum
    for c in range(1, p):
        assert sl_eval(tab.galois(c), x, y, 4) == sl_eval(tab, x, y, 4).galois(c)


def test_galois_table_matches_recomputation():
    p = 5
    theta = fueter(p, 1)
    tab = binom_coeffs(theta, 6, full=True)
    for c in range(1, p):
        moved = tab.galois(c)
        rebuilt = binom_coeffs(GroupRingElement.sigma(p, c) * theta, 6, full=True)
        assert moved.numerators == rebuilt.numerators


@pytest.mark.parametrize("p", [5, 7, 11])
def test_wieferich_sums(p):
    ws = wieferich_sums(p)
    assert ws.half_congruence
    assert ws.skew_congruence
    assert ws.skew_nonzero
    assert ws.conjugate_sum_ok
    assert ws.flipped_for_lower_half


def test_wieferich_sum_value_p5():
    ws = wieferich_sums(5)
    num = inverse_uniformizer_numerator(5)
    # support {3, 4}: the inverse exponents are 2 and 4
    expected = (num.galois(2) + num.galois(4)).scale(2)
    assert ws.total == expected


def digit_rows_check(dtable, table):
    """Reference for the row check that `pipeline` does not run: the digits
    of row n are balanced and reassemble rho * a'_n * x^{-n} mod y^(depth+1-n)."""
    p, y, depth = dtable.p, dtable.y, dtable.depth
    m = y ** (depth + 1)
    rho = dtable.rho.reduce_to(m)
    inv_x = pow(dtable.x, -1, m)
    for n, num in enumerate(table.numerators[:depth + 1]):
        row = (rho * SemilocalElement(p, m, num.coords)).scale(pow(inv_x, n, m))
        k = depth + 1 - n
        digits = [dtable.entries[(n, h)] for h in range(k)]
        diff = row - YDigits(p, y, tuple(digits)).assemble(m)
        if any(c % y ** k for c in diff.poly):
            return False
        if not all(in_balanced_set(d, y) for d in digits):
            return False
    return True


# (p, x, y) with y prime to p and not a power of one prime inert in Q(zeta_p)
PIPELINE_GRID = [(5, 3, 11), (5, 2, 31), (7, 3, 26), (7, 2, 29), (11, 3, 35), (11, 2, 23),
                 (13, 2, 53), (13, 3, 35), (17, 2, 19), (19, 2, 37), (23, 3, 47)]


def pipeline_tables(p, x, y):
    """The series table and digit table that `pipeline` builds at (p, x, y)
    with its default level and precision."""
    ann = construct_weight2_annihilator(p)
    theta = ann.element if ann.is_unfixed else fueter(p, 1).scale(2)
    depth = max(6, guard_depth(p))
    tab = binom_coeffs(theta, depth + 2, full=True)
    rho = synthetic_root_of_unity(p, y, depth + 1)
    return tab, double_table(tab, rho, x, y, depth)


@pytest.mark.parametrize("p,x,y", PIPELINE_GRID)
def test_digit_rows_hold_by_construction(p, x, y):
    # balanced_digit lands in (-y/2, y/2] and each digit step divides
    # exactly, so every row check holds without being run
    tab, dt = pipeline_tables(p, x, y)
    assert digit_rows_check(dt, tab)


def test_double_table_rows_and_reassembly():
    p = 5
    theta = fueter(p, 1).scale(2)
    tab = binom_coeffs(theta, 8, full=True)
    for y, x in [(11, 3), (22, 3)]:
        rho = synthetic_root_of_unity(p, y, 8)
        dt = double_table(tab, rho, x, y, depth=5)
        assert digit_rows_check(dt, tab)
        assert reassembly_check(dt, tab, 5)
        # the first row digits are the digits of the root itself
        from cyclonorm.semilocal import y_digits
        rho_digits = y_digits(rho.reduce_to(y ** 6), 6, y)
        assert dt.entry(0, 0) == rho_digits.digits[0]


def _moved(t, i, y):
    """t with coordinate i moved by 1, kept inside (-y/2, y/2] when it was."""
    c = t.coords[i] + (1 if 2 * (t.coords[i] + 1) <= y else -1)
    return CycloInt(t.p, t.coords[:i] + (c,) + t.coords[i + 1:])


def test_digit_checks_fail_on_a_moved_digit():
    # every digit counts: moving one coordinate of any one digit, inside
    # the balanced set, breaks its row, and breaks the reassembled sum
    # exactly when the digit's order y^(n+h) lies below the cutoff
    p, y, x, depth, cutoff = 5, 22, 3, 5, 4
    tab = binom_coeffs(fueter(p, 1).scale(2), 8, full=True)
    dt = double_table(tab, synthetic_root_of_unity(p, y, depth + 1), x, y, depth)
    assert digit_rows_check(dt, tab) and reassembly_check(dt, tab, cutoff)
    rng = random.Random(14)
    for (n, h), digit in dt.entries.items():
        entries = {**dt.entries, (n, h): _moved(digit, rng.randrange(p - 1), y)}
        moved = dataclasses.replace(dt, entries=entries)
        assert not digit_rows_check(moved, tab)
        assert reassembly_check(moved, tab, cutoff) == (n + h >= cutoff)


def test_equivariance_check_fails_on_a_moved_numerator():
    p = 5
    tab = binom_coeffs(fueter(p, 1), 6, full=True)
    assert equivariance_check(tab)
    for n, num in enumerate(tab.numerators):
        nums = tab.numerators[:n] + (_moved(num, n % (p - 1), 10 ** 9),) + tab.numerators[n + 1:]
        assert not equivariance_check(dataclasses.replace(tab, numerators=nums))


@pytest.mark.parametrize("p,x,y", [(5, 3, 22), (7, 3, 26), (13, 2, 53), (11, 3, 35)])
def test_sl_power_check_fails_on_a_moved_numerator(p, x, y):
    # numerator n enters the sum at y^n, so the check at precision 6 sees a
    # move of any numerator below 6 and none above
    tab = binom_coeffs(fueter(p, 1).scale(2), 9, full=True)
    assert sl_power_check(tab, x, y, 6)
    zeta = CycloInt.zeta_power(p, 1)
    for n, num in enumerate(tab.numerators):
        nums = tab.numerators[:n] + (num + zeta,) + tab.numerators[n + 1:]
        moved = dataclasses.replace(tab, numerators=nums)
        assert sl_power_check(moved, x, y, 6) == (n >= 6)


def test_binom_coeffs_refuses_a_coefficient_that_does_not_divide(monkeypatch):
    # b_m is divided exactly by the unit part of m!, which is 2, 6, 24, 24,
    # 144 for m = 2..6 and q = 5: a move by zeta leaves one coordinate off
    theta = fueter(5, 1)
    normalized = series_module.normalized_coeffs
    for m in range(2, 7):
        def moved(theta, m_max, q, m=m):
            b = normalized(theta, m_max, q)
            b[m] = b[m] + CycloInt.zeta_power(theta.p, 1)
            return b
        monkeypatch.setattr(series_module, "normalized_coeffs", moved)
        with pytest.raises(ArithmeticError):
            binom_coeffs(theta, 6)


def test_double_table_requires_precision():
    p = 5
    tab = binom_coeffs(fueter(p, 1), 4, full=True)
    rho = synthetic_root_of_unity(p, 11, 3)
    with pytest.raises(ValueError):
        double_table(tab, rho, 3, 11, depth=5)
