"""CycloIdeal lattices against sympy's Hermite normal form, an oracle written
outside this package.  sympy's HNF is column-style, so the two bases are
compared as lattices: each lies in the other's span over Z, and both have the
same index.  The package itself never imports sympy."""

import math
import random

import pytest

from cyclonorm.cyclotomic import CycloIdeal, CycloInt, _linear_root, kappa, uniformizer

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402


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
