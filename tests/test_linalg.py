import gc
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclonorm import linalg
from cyclonorm.cyclotomic import CycloInt, zeta_shift
from cyclonorm.linalg import _ext_gcd


def test_iroot_exact():
    assert linalg.iroot(0, 3) == 0
    assert linalg.iroot(26, 3) == 2
    assert linalg.iroot(27, 3) == 3
    assert linalg.iroot(10 ** 30, 2) == 10 ** 15


@given(st.integers(min_value=0, max_value=10 ** 12), st.integers(min_value=1, max_value=6))
def test_iroot_bracket(n, k):
    r = linalg.iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(st.integers(min_value=0, max_value=10 ** 700), st.integers(min_value=2, max_value=12))
def test_iroot_bracket_at_any_size(n, k):
    r = linalg.iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@pytest.mark.parametrize("k", range(3, 8))
def test_iroot_exact_at_80_digit_roots(k):
    # for k >= 4, r^k is above the largest double (about 1.8e308); for
    # k = 3 it is not, but r is far beyond a double's 53-bit precision
    r = 10 ** 80 + 12345
    assert linalg.iroot(r ** k - 1, k) == r - 1
    assert linalg.iroot(r ** k, k) == r
    assert linalg.iroot(r ** k + 1, k) == r
    assert linalg.is_perfect_power(r ** k, k) == r
    assert linalg.is_perfect_power(-r ** k, k) == (-r if k % 2 else None)
    assert linalg.is_perfect_power(r ** k - 1, k) is None
    assert linalg.is_perfect_power(r ** k + 1, k) is None


def test_perfect_power():
    assert linalg.is_perfect_power(343, 3) == 7
    assert linalg.is_perfect_power(-343, 3) == -7
    assert linalg.is_perfect_power(342, 3) is None
    assert linalg.is_perfect_power(-4, 2) is None


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Reference: exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_norm_is_the_multiplication_matrix_determinant(p):
    """CycloInt.norm, a product of conjugates, against the determinant of
    x acting on the basis zeta..zeta^{p-1}: on 0, on units and on
    coordinates of size 10^6."""
    rng = random.Random(p)

    def det_norm(x):
        return bareiss_det([zeta_shift(p, x.coords, j) for j in range(1, p)])

    zero = CycloInt.zero(p)
    assert zero.norm() == det_norm(zero) == 0
    units = [CycloInt.from_rational(p, s) for s in (1, -1)]
    units += [CycloInt.zeta_power(p, k) for k in (1, p - 1)]
    # cyclotomic units (1 - zeta^a)/(1 - zeta) = 1 + zeta + ... + zeta^(a-1)
    units += [CycloInt.from_exp_map(p, {e: 1 for e in range(a)}) for a in range(2, p)]
    for u in units:
        assert u.norm() == det_norm(u) == 1
    for _ in range(3):
        x = CycloInt(p, tuple(rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(p - 1)))
        assert x.norm() == det_norm(x)
    assert CycloInt.from_rational(p, 10 ** 6).norm() == 10 ** (6 * (p - 1))


def _randmix(rows, rng, steps=20):
    out = [list(r) for r in rows]
    n = len(out)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-3, 4)
            out[i] = [a + c * b for a, b in zip(out[i], out[j])]
    return out


def reference_hermite_normal_form(rows: Sequence[Sequence[int]], ncols: Optional[int] = None,
                                  det_multiple: Optional[int] = None) -> List[List[int]]:
    """Row-style HNF of the lattice spanned by integer rows.

    Streaming insertion: each row is reduced against the current pivot rows,
    combining through extended gcd (a unimodular 2x2 step).  Pivots end up
    positive with the entries above them reduced into [0, pivot).

    det_multiple: a positive integer D with D*Z^ncols contained in the
    lattice (e.g. the norm of an ideal).  Entries are then kept reduced
    mod D, which prevents coefficient blowup on large inputs.
    """
    if ncols is None:
        ncols = len(rows[0])
    pivots: Dict[int, List[int]] = {}
    if det_multiple is not None:
        if det_multiple <= 0:
            raise ValueError("det_multiple must be positive")
        for j in range(ncols):
            pivots[j] = [det_multiple if i == j else 0 for i in range(ncols)]

    def clip(vec: List[int]) -> List[int]:
        if det_multiple is None:
            return vec
        return [x % det_multiple for x in vec]

    for r in rows:
        row = clip(list(r))
        col = 0
        while col < ncols:
            if row[col] == 0:
                col += 1
                continue
            piv = pivots.get(col)
            if piv is None:
                if row[col] < 0:
                    row = [-x for x in row]
                pivots[col] = row
                break
            a, b = piv[col], row[col]
            if b % a == 0:
                q = b // a
                row = clip([x - q * y for x, y in zip(row, piv)])
            else:
                g, u, v = _ext_gcd(a, b)
                qa, qb = a // g, b // g
                new_piv = [u * x + v * y for x, y in zip(piv, row)]
                new_piv[col] = g
                pivots[col] = [g if j == col else new_piv[j] % det_multiple
                               if det_multiple is not None else new_piv[j]
                               for j in range(ncols)]
                row = clip([qa * y - qb * x for x, y in zip(piv, row)])
            col += 1
    basis = [pivots[c] for c in sorted(pivots)]
    # Reduce entries above pivots: for each row, sweep the pivot rows below
    # it in increasing order, so re-polluted later columns get fixed by the
    # subsequent sweeps.
    pivot_cols = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    for k in range(len(basis)):
        for i in range(k + 1, len(basis)):
            piv = basis[i][pivot_cols[i]]
            q = basis[k][pivot_cols[i]] // piv
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def test_hnf_canonical_under_unimodular_changes():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        det = abs(bareiss_det(mat))
        if det == 0:
            continue
        h = linalg.hermite_normal_form(mat, n, det)
        for _ in range(4):
            assert linalg.hermite_normal_form(_randmix(mat, rng), n, det) == h


def test_hnf_det_multiple_matches_plain():
    rng = random.Random(5)
    for _ in range(20):
        n = 4
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = bareiss_det(mat)
        if d == 0:
            continue
        plain = reference_hermite_normal_form(mat, n)
        seeded = linalg.hermite_normal_form(mat, n, det_multiple=abs(d))
        assert plain == seeded


def test_hnf_membership():
    h = linalg.hermite_normal_form([[2, 0, 1], [0, 3, 1], [0, 0, 5]], 3, 30)
    assert linalg.hnf_contains(h, [2, 3, 2])
    assert not linalg.hnf_contains(h, [1, 0, 0])


def _check_modular_hnf(rows, ncols, det_multiple, rng):
    """The modular HNF equals the reference one, and hnf_contains on it
    agrees with the reference: v is in the lattice exactly when adding it
    leaves the reference HNF unchanged."""
    expected = reference_hermite_normal_form(rows, ncols)
    h = linalg.hermite_normal_form(rows, ncols, det_multiple)
    assert h == expected
    for _ in range(4):
        inside = [sum(rng.randrange(-3, 4) * r[j] for r in rows) for j in range(ncols)]
        # a lattice vector, the same one moved by a unit vector, and a random one
        for v in (inside, [x + (j == 0) for j, x in enumerate(inside)],
                  [rng.randrange(-9, 10) for _ in range(ncols)]):
            member = reference_hermite_normal_form(rows + [v], ncols) == expected
            assert linalg.hnf_contains(h, v) == member


def test_modular_hnf_matches_reference():
    rng = random.Random(23)
    checked = 0
    while checked < 120:
        # full-rank n x n and (n + extra) x n matrices, D = k |det| of the
        # first n rows, so D Z^n lies in the lattice
        n = rng.randrange(1, 8)
        amp = rng.choice([1, 3, 9])
        rows = [[rng.randrange(-amp, amp + 1) for _ in range(n)]
                for _ in range(n + rng.randrange(3))]
        det = abs(bareiss_det(rows[:n]))
        if det == 0:
            continue
        _check_modular_hnf(rows, n, rng.randrange(1, 6) * det, rng)
        checked += 1
    checked = 0
    while checked < 30:
        # the ideal shape: the p - 1 zeta-shifts of a nonzero element, D its norm
        p = rng.choice([3, 5, 7, 11, 13])
        x = CycloInt(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
        if x.is_zero():
            continue
        rows = [list(zeta_shift(p, x.coords, k)) for k in range(p - 1)]
        _check_modular_hnf(rows, p - 1, abs(int(x.norm())), rng)
        checked += 1


class ReferenceRowSpace:
    """Reference for RowSpace: an echelon over Fractions, each row scaled to pivot 1."""

    def __init__(self):
        self._echelon = []
        self._pivots = []

    @property
    def rank(self):
        return len(self._echelon)

    def _reduce(self, row):
        v = [Fraction(x) for x in row]
        for piv, erow in zip(self._pivots, self._echelon):
            if v[piv]:
                c = v[piv]
                v = [a - c * b for a, b in zip(v, erow)]
        return v

    def contains(self, row):
        return not any(self._reduce(row))

    def add(self, row):
        v = self._reduce(row)
        for idx, x in enumerate(v):
            if x:
                inv = Fraction(1) / x
                self._echelon.append([a * inv for a in v])
                self._pivots.append(idx)
                return True
        return False


def rank_rational(rows):
    """Rank over Q of integer rows."""
    space = linalg.RowSpace()
    return sum(space.add(row) for row in rows)


@st.composite
def row_space_calls(draw):
    """A sequence of (add or contains, row) calls in one dimension; the rows
    are integer rows, zero rows and rational combinations of earlier rows
    cleared of their denominators."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-5, 5), st.integers(-10 ** 30, 10 ** 30))
    fraction = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    calls, seen = [], []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["int", "zero", "dependent"]))
        if kind == "int":
            row = draw(st.lists(entry, min_size=n, max_size=n))
        elif kind == "zero":
            row = [0] * n
        else:
            row = [Fraction(0)] * n
            for base in seen:
                c = draw(fraction)
                row = [a + c * b for a, b in zip(row, base)]
            den = math.lcm(*(x.denominator for x in row))
            row = [int(x * den) for x in row]
        seen.append(row)
        calls.append((draw(st.sampled_from(["add", "contains"])), row))
    return calls


@settings(max_examples=150, deadline=None)
@given(row_space_calls())
def test_row_space_matches_the_fraction_echelon(calls):
    space, reference = linalg.RowSpace(), ReferenceRowSpace()
    rows = []
    for method, row in calls:
        assert getattr(space, method)(row) == getattr(reference, method)(row)
        assert space.rank == reference.rank
        if method == "add":
            rows.append(row)
            assert rank_rational(rows) == reference.rank


def test_integer_kernel_saturated():
    rng = random.Random(3)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 3), rng.randrange(3, 7)
        a = [[rng.randrange(-8, 9) for _ in range(ncols)] for _ in range(nrows)]
        kern = linalg.integer_kernel(a, ncols)
        for v in kern:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        assert len(kern) == ncols - rank_rational(a)
        # saturation: gcd of each vector's entries reduced basis still integral
        space = linalg.RowSpace()
        for v in kern:
            assert space.add(v)


def test_lll_preserves_lattice_and_shortens():
    rng = random.Random(9)
    basis = [[rng.randrange(-40, 41) for _ in range(5)] for _ in range(4)]
    if rank_rational(basis) < 4:
        return
    red = linalg.lll_reduce(basis)
    h1 = reference_hermite_normal_form(basis, 5)
    h2 = reference_hermite_normal_form(red, 5)
    assert h1 == h2
    norm = lambda v: sum(x * x for x in v)
    assert min(norm(v) for v in red) <= min(norm(v) for v in basis)


def _short_vectors_by_brute_force(basis, radius_sq):
    """The nonzero lattice vectors of squared norm <= radius_sq, from a scan of
    the coefficient box that holds them; None when it has over 20 000 points."""
    n = len(basis)
    # coefficient i of a vector v is <v, dual_i>, and ||dual_i||^2 is the
    # i-th diagonal entry of the inverse Gram matrix: minor_i / det
    gram = linalg.gram_matrix(basis)
    det = bareiss_det(gram)
    reach = []
    for i in range(n):
        minor = [[g for j, g in enumerate(row) if j != i]
                 for k, row in enumerate(gram) if k != i]
        reach.append(linalg.iroot(radius_sq * bareiss_det(minor) // det, 2))
    if math.prod(2 * r + 1 for r in reach) > 20_000:
        return None
    expected = set()
    for coeffs in itertools.product(*(range(-r, r + 1) for r in reach)):
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(len(basis[0])))
        if any(v) and sum(x * x for x in v) <= radius_sq:
            expected.add(v)
    return expected


def test_enumerate_short_vectors_complete():
    # one vector of each +/- pair of the brute-force set: found | -found is
    # the set and found & -found is empty
    rng = random.Random(13)
    basis, radius_sq = [[2, 0], [1, 3]], 20
    checked = 0
    while checked < 41:
        if rank_rational(basis) == len(basis):
            expected = _short_vectors_by_brute_force(basis, radius_sq)
            if expected is not None:
                found = [tuple(v) for v in linalg.enumerate_short_vectors(
                    basis, radius_sq, sup_bound=math.isqrt(radius_sq))]
                negated = {tuple(-x for x in v) for v in found}
                assert len(set(found)) == len(found)
                assert set(found) | negated == expected
                assert not set(found) & negated
                # under a sup bound: a part of that, holding every vector within it
                r = rng.randrange(0, 4)
                cut = [tuple(v) for v in
                       linalg.enumerate_short_vectors(basis, radius_sq, sup_bound=r)]
                assert set(cut) <= set(found) and len(set(cut)) == len(cut)
                assert {v for v in found if max(map(abs, v)) <= r} <= set(cut)
                checked += 1
        n = rng.randrange(1, 4)
        basis = [[rng.randrange(-3, 4) for _ in range(n + 1)] for _ in range(n)]
        # squared norms are integers: the floor of a rational radius loses nothing
        radius_sq = rng.randrange(0, 100) // rng.randrange(1, 4)


def test_enumeration_leaves_no_recurse_cycle():
    # one enumeration run to its end, one dropped after its first vector:
    # neither may leave its recursive closure to the cyclic collector
    basis = [[1, 0, 2], [0, 1, 1], [1, 1, 0]]
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert list(linalg.enumerate_short_vectors(basis, 6, sup_bound=math.isqrt(6)))
        dropped = linalg.enumerate_short_vectors(basis, 6, sup_bound=2)
        assert next(dropped)
        del dropped
        gc.collect()
        assert not [o for o in gc.garbage if getattr(o, "__name__", None) == "recurse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_short_vector_routines_reject_dependent_rows():
    with pytest.raises(ValueError):
        linalg.lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        list(linalg.enumerate_short_vectors([[1, 2, 3], [2, 4, 6]], 10))


def _reference_gso(basis):
    n = len(basis)
    ortho, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = list(basis[i])
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(basis[i], ortho[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(a * a for a in v))
    return mu, norms


def reference_lll(rows, delta=Fraction(3, 4)):
    """Textbook LLL that recomputes the rational Gram-Schmidt data after every step."""
    basis = [[Fraction(x) for x in row] for row in rows]
    n = len(basis)
    if n <= 1:
        return [[int(x) for x in row] for row in basis]
    mu, norms = _reference_gso(basis)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                mu, norms = _reference_gso(basis)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = _reference_gso(basis)
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in basis]


def test_lll_matches_reference():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 7)
        ambient = n + rng.randrange(3)
        amp = rng.choice([2, 10, 100])
        rows = [[rng.randrange(-amp, amp + 1) for _ in range(ambient)] for _ in range(n)]
        if rank_rational(rows) < n:
            continue
        assert linalg.lll_reduce(rows) == reference_lll(rows)
        checked += 1


# Outputs of lll_reduce recorded when it still rounded a Fraction: bases whose
# size reduction meets an exact half, +-1/2, +-3/2, 5/2 or 7/2, so rounding
# half to even (0, +-2, 2, 4) decides the result.
LLL_TIE_PINS = [
    ([[2, 0], [1, 3]], [[2, 0], [1, 3]]),
    ([[2, 0], [-1, 1]], [[-1, 1], [1, 1]]),
    ([[2, 0], [3, 1]], [[-1, 1], [1, 1]]),
    ([[2, 0], [-3, 2]], [[2, 0], [1, 2]]),
    ([[2, 0], [5, 1]], [[1, 1], [1, -1]]),
    ([[2, 0], [-5, 1]], [[-1, 1], [1, 1]]),
    ([[2, 0], [7, 1]], [[-1, 1], [1, 1]]),
    ([[4, 0], [2, 1]], [[2, 1], [0, -2]]),
    ([[4, 0], [6, 1]], [[-2, 1], [0, 2]]),
    ([[2, 0, 0], [1, 2, 0], [1, 1, 2]], [[2, 0, 0], [1, 2, 0], [1, 1, 2]]),
    ([[2, 0, 0], [-1, 2, 0], [1, -1, 2]], [[2, 0, 0], [-1, 2, 0], [1, -1, 2]]),
    ([[2, 2, 0], [1, 1, 2], [0, 2, 1]], [[2, 2, 0], [1, 1, 2], [0, 2, 1]]),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
    ([[2, 0, 0], [3, 2, 0], [5, -3, 2]], [[2, 0, 0], [-1, 2, 0], [-1, 1, 2]]),
    ([[0, 2, 0], [1, 1, 1], [1, -1, 3]], [[0, 2, 0], [1, 1, 1], [-1, 1, 1]]),
]


@pytest.mark.parametrize("rows, reduced", LLL_TIE_PINS)
def test_lll_rounds_ties_to_even(rows, reduced):
    assert linalg.lll_reduce(rows) == reduced
    assert reference_lll(rows) == reduced


@st.composite
def small_bases(draw):
    """Independent rows with entries in -2..2, where size reduction often
    meets an exact half."""
    n = draw(st.integers(1, 4))
    ambient = draw(st.integers(n, n + 1))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient),
                         min_size=n, max_size=n))
    assume(rank_rational(rows) == n)
    return rows


@settings(max_examples=300, deadline=None)
@given(small_bases())
def test_lll_matches_reference_on_small_entries(rows):
    assert linalg.lll_reduce(rows) == reference_lll(rows)
