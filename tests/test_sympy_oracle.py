"""Fast routes against sympy, an oracle written outside this package.

CycloIdeal lattices against sympy's Hermite normal form: sympy's HNF is
column-style, so the two bases are compared as lattices: each lies in the
other's span over Z, and both have the same index.  linalg.integer_kernel
against sympy's nullspace over Q, and its saturation by the gcd of its
maximal minors.  linalg.lll_reduce against sympy's DomainMatrix.lll: the
same lattice, and both bases LLL-reduced for delta = 3/4 by an exact test
on linalg.integral_gso data.  semilocal.factor_phi against sympy's
factorization over finite fields.  The package itself never imports sympy."""

import itertools
import math
import random

import pytest

from cyclonorm import lattice, linalg
from cyclonorm.cyclotomic import CycloIdeal, CycloInt, _linear_root, kappa, uniformizer
from cyclonorm.harness import RunConfig, cmd_pipeline
from cyclonorm.semilocal import factor_phi

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor_sqf, gf_irred_p_rabin, gf_mul  # noqa: E402


def sympy_lattice(g):
    """Columns of sympy's HNF of the multiples zeta^k g: a basis of (g)."""
    rows = [kappa(CycloInt.zeta_power(g.p, k) * g) for k in range(g.p - 1)]
    return hermite_normal_form(sympy.Matrix(rows).T)


def in_span(basis_columns, vec):
    x = basis_columns.LUsolve(sympy.Matrix(vec))
    return all(t.is_integer for t in x)


def assert_same_lattice(ideal, g):
    """ideal = (g), checked against sympy's basis of (g)."""
    theirs = sympy_lattice(g)
    ours = sympy.Matrix(ideal.hnf).T
    assert theirs.shape == ours.shape
    assert abs(theirs.det()) == ideal.norm() == ours.det()
    assert all(in_span(theirs, row) for row in ideal.hnf)
    assert all(in_span(ours, list(theirs.col(j))) for j in range(theirs.cols))


def random_elements(p, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = CycloInt(p, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
        if not x.is_zero():
            out.append(x)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_principal_ideals_match_sympy(p):
    routes = set()
    for g in random_elements(p, 8, seed=p):
        routes.add(_linear_root(g, abs(g.norm())) is not None)
        assert_same_lattice(CycloIdeal.principal(g), g)
    assert routes == {True, False}


@pytest.mark.parametrize("p", [5, 7, 11])
def test_crt_products_match_sympy(p):
    elems = random_elements(p, 8, seed=100 + p)
    crt = 0
    for a, b in zip(elems[::2], elems[1::2]):
        ia, ib = CycloIdeal.principal(a), CycloIdeal.principal(b)
        product = ia * ib
        if ia._cyclic_root() and ib._cyclic_root() and math.gcd(ia.norm(), ib.norm()) == 1:
            crt += 1
        assert_same_lattice(product, a * b)
    assert crt


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lambda_powers_match_sympy(p):
    lam = uniformizer(p)
    for k in range(1, p + 1):
        assert_same_lattice(CycloIdeal.principal(lam) ** k, lam ** k)


def assert_kernel_matches_sympy(rows, n):
    """integer_kernel(rows, n) spans sympy's nullspace over Q and is saturated:
    the gcd of its r x r minors is 1, so it is all of the kernel in Z^n."""
    basis = linalg.integer_kernel(rows, n)
    nullspace = (sympy.Matrix(rows) if rows else sympy.zeros(1, n)).nullspace()
    r = len(nullspace)
    assert len(basis) == r
    if not r:
        return
    ours = sympy.Matrix(basis).T
    theirs = sympy.Matrix.hstack(*nullspace)
    # equal rank, and containment both ways over Q
    assert ours.rank() == theirs.rank() == sympy.Matrix.hstack(ours, theirs).rank() == r
    g = 0
    for cols in itertools.combinations(range(n), r):
        g = math.gcd(g, int(ours.extract(list(cols), list(range(r))).det(method="bareiss")))
        if g == 1:
            break
    assert g == 1


def test_integer_kernel_matches_sympy_on_random_systems():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 9)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))]
        if len(rows) > 1 and rng.random() < 0.4:     # a dependent row
            a, b = rng.sample(rows, 2)
            rows.append([2 * x - 3 * y for x, y in zip(a, b)])
        assert_kernel_matches_sympy(rows, n)


@pytest.mark.parametrize("p, x, y, seed", [
    (7, 3, 26, 0), (11, 5, 39, 1861842506), (17, 2, 19, 0), (19, 2, 39, 0)])
def test_integer_kernel_matches_sympy_on_twisted_systems(monkeypatch, p, x, y, seed):
    # the condition systems the twist stage hands to siegel_solve, and their
    # shared rows alone
    systems = set()
    solve = lattice.siegel_solve

    def recording(rows, ambient, *args):
        systems.add(tuple(map(tuple, rows)))
        systems.add(tuple(map(tuple, rows[:-1])))
        return solve(rows, ambient, *args)

    monkeypatch.setattr(lattice, "siegel_solve", recording)
    cmd_pipeline(RunConfig("pipeline", p=p, x=x, y=y, seed=seed))
    assert len(systems) >= 2
    for rows in systems:
        assert_kernel_matches_sympy([list(r) for r in rows], p - 1)


def is_lll_reduced(basis):
    """Size reduction 2|lam_kj| <= d_(j+1) and the Lovasz test with delta = 3/4,
    4 (d_(k+1) d_(k-1) + lam_(k,k-1)^2) >= 3 d_k^2, on integral_gso data."""
    d, lam = linalg.integral_gso(linalg.gram_matrix(basis))
    return (all(2 * abs(lam[k][j]) <= d[j + 1] for k in range(len(basis)) for j in range(k))
            and all(4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 3 * d[k] ** 2
                    for k in range(1, len(basis))))


def assert_lll_matches_sympy(basis):
    ours = linalg.lll_reduce(basis)
    theirs = DomainMatrix(basis, (len(basis), len(basis[0])), ZZ).lll().to_Matrix().tolist()
    lattice_of = [hermite_normal_form(sympy.Matrix(b).T) for b in (basis, ours, theirs)]
    assert lattice_of[0] == lattice_of[1] == lattice_of[2]
    assert is_lll_reduced(ours) and is_lll_reduced([[int(x) for x in r] for r in theirs])


def test_lll_reduce_matches_sympy_on_random_bases():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        n = rng.randrange(1, 9)
        basis = [[rng.randrange(-60, 61) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
        if sympy.Matrix(basis).rank() == len(basis):
            assert_lll_matches_sympy(basis)
            checked += 1


def test_lll_reduce_matches_sympy_on_twisted_kernels(monkeypatch):
    # the kernels siegel_solve reduces in the twist stage of four pipelines
    kernels = set()
    reduce = linalg.lll_reduce

    def recording(rows):
        kernels.add(tuple(map(tuple, rows)))
        return reduce(rows)

    monkeypatch.setattr(linalg, "lll_reduce", recording)
    for p, x, y, seed in [(7, 3, 26, 0), (11, 5, 39, 1861842506), (13, 2, 53, 0),
                          (19, 2, 39, 0)]:
        cmd_pipeline(RunConfig("pipeline", p=p, x=x, y=y, seed=seed))
    monkeypatch.undo()
    assert any(len(k) > 1 for k in kernels)
    for kernel in kernels:
        assert_lll_matches_sympy([list(r) for r in kernel])


# factor_phi over every odd prime p <= 61 and prime r < 220, r != p: 782 pairs
PHI_PAIRS = [(p, r) for p in range(3, 62) if sympy.isprime(p)
             for r in range(2, 220) if sympy.isprime(r) and r != p]


def test_factor_phi_is_the_factorization_by_sympy():
    # sympy's Rabin test finds every factor irreducible, and sympy's product
    # of the factors is Phi_p; with distinct monic factors in sorted order
    # that is the unique factorization over F_r
    assert len(PHI_PAIRS) == 782
    for p, r in PHI_PAIRS:
        factors = factor_phi(r, p).factors
        assert list(factors) == sorted(set(factors))
        product = [1]
        for f in factors:
            dense = [int(c) for c in reversed(f)]      # sympy: leading coefficient first
            assert dense[0] == 1 and gf_irred_p_rabin(dense, r, ZZ), (p, r, f)
            product = gf_mul(product, dense, r, ZZ)
        assert product == [1] * p, (p, r)


def test_factor_phi_matches_gf_factor_sqf():
    # sympy's own factorization, on the primes p <= 23: up to p = 61 it takes
    # 13 s, beyond the time that the oracle tests may spend
    for p, r in PHI_PAIRS:
        if p <= 23:
            _, theirs = gf_factor_sqf([1] * p, r, ZZ)
            ours = factor_phi(r, p).factors
            assert sorted(tuple(int(c) for c in reversed(f)) for f in theirs) == list(ours)
