import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclonorm import lattice, linalg
from cyclonorm.cyclotomic import CycloInt
from cyclonorm.harness import RunConfig, cmd_pipeline
from cyclonorm.lattice import (
    ENUMERATION_LIMIT,
    SolverIncomplete,
    perturb_for_independence,
    bordered_bounds,
    bound_clash,
    default_vanishing_order,
    displayed_chain_holds,
    extend_kernel,
    guard_depth,
    hadamard_bv,
    inhomogeneous_select,
    lemma9_size_bound,
    order_unrank,
    read_matrix,
    siegel_solve,
    sum_preservation_check,
    theorem2_feasible,
    theorem3_feasible,
    threshold_pair,
    write_witness,
)
from cyclonorm.series import DoubleTable, binom_coeffs, double_table, equivariance_check
from cyclonorm.semilocal import synthetic_root_of_unity
from cyclonorm.stickelberger import (
    construct_weight2_annihilator,
    fueter,
)
from test_series import PIPELINE_GRID, pipeline_tables


def order_rank(pair):
    """Position (1-based) of (j, k) in the order by (j+k, k): the inverse of
    order_unrank."""
    j, k = pair
    s = j + k
    return s * (s + 1) // 2 + k + 1


def rank_rational(rows):
    """Rank over Q of integer rows."""
    space = linalg.RowSpace()
    return sum(space.add(row) for row in rows)


def test_order_examples():
    assert [order_unrank(n) for n in (1, 2, 3, 4)] == [(0, 0), (1, 0), (0, 1), (2, 0)]


def test_order_bijection():
    for n in range(1, 10 ** 4 + 1):
        assert order_rank(order_unrank(n)) == n
    pairs = [order_unrank(n) for n in range(1, 200)]
    for a, b in zip(pairs, pairs[1:]):
        assert (sum(a), a[1]) < (sum(b), b[1])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 41, 43])
def test_threshold_pair(p):
    mu, chi = threshold_pair(p)
    s = mu + chi
    assert order_rank((mu, chi)) == p - 1
    assert s * (s + 1) // 2 < p - 1 <= (s + 1) * (s + 2) // 2
    assert s < p - 1   # the pair sums stay below the prime, so denominators
    assert s < p       # carry no factorial contribution


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101])
def test_guard_depth_covers_the_forward_neighbours(p):
    sums = [sum(order_unrank(i)) for i in range(1, p)]
    assert guard_depth(p) == max(sums) + 1
    assert guard_depth(p) <= 6 if p <= 19 else guard_depth(p) > 6


def test_hadamard_bv_examples():
    box = hadamard_bv([[1, 1, 1, 1, 1]], 5)
    assert box.gram_det == 5
    assert box.sup_bound_int() == 1          # floor(5^(1/8))
    # orthogonal rows: the Hadamard estimate is an equality
    rows = [[2, 0, 0, 0], [0, 3, 0, 0]]
    box2 = hadamard_bv(rows, 4)
    assert box2.gram_det == 36 == 4 * 9
    with pytest.raises(ValueError):
        hadamard_bv([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError, match="rows are linearly dependent"):
        hadamard_bv([[1, 1, 0], [2, 2, 0]], 3)


def test_siegel_all_ones_example():
    w = siegel_solve([[1, 1, 1, 1, 1]], 5)
    assert sum(w) == 0 and any(w)
    assert max(abs(x) for x in w) <= 1


def test_siegel_with_trace_zero_row():
    rows = [[1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 1]]
    w = siegel_solve(rows, 6)
    assert any(w)
    assert sum(w) == 0
    assert sum(a * b for a, b in zip(rows[0], w)) == 0


def _box_vectors(dim, radius):
    if dim == 0:
        yield ()
        return
    for head in range(-radius, radius + 1):
        for tail in _box_vectors(dim - 1, radius):
            yield (head,) + tail


def box_oracle(rows, ambient, bound):
    """The (sup, lex)-smallest sign-normalized nonzero kernel vector in the box,
    by an exhaustive scan of all (2 bound + 1)^ambient points."""
    best = None
    for vec in _box_vectors(ambient, bound):
        if any(vec) and all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows):
            if next(x for x in vec if x) < 0:
                vec = tuple(-x for x in vec)
            key = (max(abs(x) for x in vec), vec)
            if best is None or key < best:
                best = key
    return None if best is None else list(best[1])


def test_siegel_random_against_box_oracle():
    # Each system is solved at its box-lemma bound, where a kernel vector must
    # be found, and at a random small bound, where the solver must fail exactly
    # when the box holds none.  Boxes of at most 10^5 points are also scanned,
    # and the solver must return the scan's vector.
    rng = random.Random(7)
    done = 0
    scanned = []
    while done < 50:
        nrows = rng.randrange(1, 4)
        ambient = rng.randrange(nrows + 2, 9)
        a = [[rng.randrange(-10, 11) for _ in range(ambient)] for _ in range(nrows)]
        if rank_rational(a) < nrows:
            continue
        box = hadamard_bv(a, ambient)
        lemma = max(box.sup_bound_int(), 1)
        for bound in (lemma, rng.randrange(1, 4)):
            try:
                w = siegel_solve(a, ambient, bound)
            except SolverIncomplete:
                assert bound < lemma
                w = None
            else:
                assert any(w)
                assert all(sum(x * y for x, y in zip(row, w)) == 0 for row in a)
                assert max(abs(x) for x in w) <= bound
            if (2 * bound + 1) ** ambient <= 10 ** 5:
                assert w == box_oracle(a, ambient, bound)
                scanned.append(w is None)
        done += 1
    assert scanned.count(False) >= 40 and scanned.count(True) >= 10


@pytest.mark.parametrize("rows, expected", [
    ([[1] + [0] * 10], [0] * 10 + [1]),
    ([[1] * 12], [0] * 10 + [1, -1]),
    ([[1] * 20], None),
], ids=["unit-11", "ones-12", "ones-20"])
def test_siegel_wide_dense_kernels(rows, expected):
    # kernels of dimension 10 to 19 at sup-norm 1, where the ball of squared
    # radius ambient holds far more vectors than the box.  All-ones at ambient
    # 20 has ~10^8 zero-sum vectors of sup-norm 1, so the search stops at the
    # work limit instead of running for hours.
    if expected is None:
        with pytest.raises(SolverIncomplete, match=f"stopped after {ENUMERATION_LIMIT} vectors"):
            siegel_solve(rows, len(rows[0]))
    else:
        assert siegel_solve(rows, len(rows[0])) == expected


def test_siegel_solver_incomplete():
    # full-rank square system: kernel is trivial
    with pytest.raises(SolverIncomplete):
        siegel_solve([[1, 0], [0, 1]], 2, 5)


def test_siegel_refuses_bound_below_one():
    # a bound below 1 admits no nonzero vector: refused, not raised to 1
    for bound in (0, -4):
        with pytest.raises(ValueError):
            siegel_solve([[1, 1, 1, 1, 1]], 5, bound)


@st.composite
def shared_rows_and_row(draw):
    """m < n <= 12 shared rows with entries in -9..9 and one extra row; up to
    two rows are combinations of the rows before them (dependent blocks)."""
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=0, max_value=n - 1))
    dependent = draw(st.sets(st.integers(min_value=1, max_value=m), max_size=2)) if m else ()
    rows = []
    for i in range(m + 1):
        if i in dependent:
            coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
        else:
            rows.append(draw(st.lists(st.integers(min_value=-9, max_value=9),
                                      min_size=n, max_size=n)))
    return rows[:m], rows[m], n


def _gram_det(basis):
    return linalg.integral_gso(linalg.gram_matrix(basis))[0][-1]


def _solve(*args):
    try:
        return siegel_solve(*args)
    except (SolverIncomplete, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(shared_rows_and_row(), st.integers(min_value=1, max_value=2))
def test_twist_kernel_from_the_shared_kernel(system, bound):
    shared, row, n = system
    rows = shared + [row]
    ours = extend_kernel(linalg.integer_kernel(shared, n), row)
    direct = linalg.integer_kernel(rows, n)
    for basis in (ours, direct):
        assert all(len(v) == n and not any(sum(a * b for a, b in zip(r, v)) for r in rows)
                   for v in basis)
    # two sublattices of the saturated kernel with one rank and one covolume
    assert len(ours) == len(direct)
    assert _gram_det(ours) == _gram_det(direct)
    try:
        expected = hadamard_bv(rows, n)
    except ValueError:
        expected = None
    assert bordered_bounds(shared, [row], n) == [expected]
    if len(ours) <= 6:       # the box search grows with the kernel dimension
        assert _solve(rows, n, bound, ours) == _solve(rows, n, bound)


def test_bordered_bounds_per_row():
    shared = [[1, 1, 1, 1, 1]]
    extra = [[1, 2, 3, 4, 5], [2, 2, 2, 2, 2], [0, 0, 0, 0, 0], [1, 0, 0, 0, -1]]
    got = bordered_bounds(shared, extra, 5)
    assert got == [hadamard_bv(shared + [extra[0]], 5), None, None,
                   hadamard_bv(shared + [extra[3]], 5)]
    assert got[3].gram_det == 10
    # dependent shared rows, or too many rows, give no row a bound
    assert bordered_bounds([[1, 2, 0], [2, 4, 0]], [[0, 0, 1]], 4) == [None]
    assert bordered_bounds([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], 3) == [None]


def test_siegel_rejects_a_kernel_the_rows_do_not_annihilate():
    rows = [[1, 1, 1, 1, 1]]
    kernel = linalg.integer_kernel(rows, 5)
    assert siegel_solve(rows, 5, 1, kernel) == siegel_solve(rows, 5, 1)
    with pytest.raises(ValueError, match="annihilated by the rows"):
        siegel_solve(rows, 5, 1, kernel + [[1, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="annihilated by the rows"):
        siegel_solve(rows, 5, 1, [v[:4] for v in kernel])


def test_matrix_file_roundtrip(tmp_path):
    rows = [[1, -2, 3], [0, 4, -5]]
    path = tmp_path / "mat.txt"
    path.write_text("2 3\n1 -2 3\n0 4 -5\n", encoding="ascii")
    assert read_matrix(str(path)) == rows
    wpath = tmp_path / "wit.txt"
    write_witness(str(wpath), [1, 0, -7])
    assert wpath.read_text(encoding="ascii") == "1 0 -7\n"


# -- the perturbation pass -------------------------------------------------------------


def genuine_table(p=5, y=106, x=3, depth=6, seed=0):
    tab = binom_coeffs(fueter(p, 1).scale(2), depth + 2, full=True)
    rho = synthetic_root_of_unity(p, y, depth + 2, seed=seed)
    return tab, double_table(tab, rho, x, y, depth=depth)


def synthetic_table(p, y, x, depth, seed, plant=True):
    rng = random.Random(seed)
    entries = {}
    for s in range(depth + 1):
        for h in range(s + 1):
            n = s - h
            entries[(n, h)] = CycloInt(
                p, tuple(rng.randrange(-(y // 2) + 1, y // 2 + 1) for _ in range(p - 1)))
    if plant:
        entries[(1, 0)] = entries[(0, 0)]
        entries[(1, 1)] = entries[(0, 1)]
    rho = synthetic_root_of_unity(p, y, depth + 1, seed=seed)
    return DoubleTable(p, p, x, y, depth, rho, entries)


def rank_certificate(mt):
    """The ranks the pass recorded are 1, 2, ..., one per processed pair."""
    return mt.ranks == list(range(1, len(mt.ranks) + 1))


@pytest.mark.parametrize("p,x,y", PIPELINE_GRID)
def test_perturbation_ranks_hold_by_construction(p, x, y):
    # each step records the rank after an add that enlarged the span, or
    # raises RankStuck, so the ranks are 1..p-1 without being checked
    _, dt = pipeline_tables(p, x, y)
    mt = perturb_for_independence(dt)
    assert rank_certificate(mt) and len(mt.ranks) == p - 1


def test_perturbation_on_genuine_table():
    tab, dt = genuine_table()
    mt = perturb_for_independence(dt)
    assert rank_certificate(mt)
    assert sum_preservation_check(mt, 5)
    worst, ok = mt.sup_certificate()
    assert ok


def test_sum_preservation_fails_on_a_moved_entry():
    # after a pass with perturbation steps, moving one coordinate of any one
    # entry below the precision changes the perturbed sum
    p, precision = 5, 5
    mt = perturb_for_independence(synthetic_table(p, 106, 3, 5, seed=0))
    assert mt.divisors and sum_preservation_check(mt, precision)
    rng = random.Random(14)
    checked = 0
    for (n, h), entry in mt.entries.items():
        if n + h >= precision:
            continue
        i = rng.randrange(p - 1)
        coords = entry.coords[:i] + (entry.coords[i] + 1,) + entry.coords[i + 1:]
        moved = dataclasses.replace(mt, entries={**mt.entries, (n, h): CycloInt(p, coords)})
        assert not sum_preservation_check(moved, precision)
        checked += 1
    assert checked >= len(mt.divisors)


def test_perturbation_synthetic_tables_certificates():
    p, y, x = 5, 106, 3
    actions = set()
    for seed in range(20):
        dt = synthetic_table(p, y, x, 5, seed)
        mt = perturb_for_independence(dt)
        assert mt.ranks == list(range(1, p))                     # full rank growth
        assert sum_preservation_check(mt, 5)                     # sum kept, mod y^5
        worst, ok = mt.sup_certificate()
        assert ok and worst < y                                  # digit size bound
        carry, carry_ok = mt.carry_certificate()
        assert carry_ok and carry <= p - 1                       # per-step carry
        assert any(s.action != "independent" for s in mt.steps)  # dependency hit
        actions.update(s.action for s in mt.steps)
    assert "rebalanced" in actions


def test_perturbation_identity_when_independent():
    # a table that is already independent comes back unchanged with d = 1
    p, y, x = 5, 106, 3
    for seed in range(40):
        dt = synthetic_table(p, y, x, 5, seed + 1000, plant=False)
        mt = perturb_for_independence(dt)
        if all(s.action == "independent" for s in mt.steps):
            assert mt.entries == dt.entries
            assert not mt.divisors
            break
    else:
        pytest.fail("no spontaneously independent table found")


def test_perturbation_guards():
    p, y, x = 5, 8, 3
    dt = synthetic_table(p, 106, x, 5, 0)
    small = DoubleTable(p, p, x, y, 5, dt.rho, dt.entries)
    mt = perturb_for_independence(small)         # y <= 2p runs all the same
    assert isinstance(mt, lattice.ModifiedTable) and rank_certificate(mt)
    shallow = DoubleTable(p, p, x, 106, 1, dt.rho,
                          {k: v for k, v in dt.entries.items() if sum(k) <= 1})
    with pytest.raises(ValueError):
        perturb_for_independence(shallow)        # missing forward guard entries


def _sha(obj):
    return hashlib.sha256(repr(obj).encode("ascii")).hexdigest()


# SHA-256 of the layers `pipeline --p 61 --x 2 --y 127` (seed 0, depth 11)
# runs before the twist stage, the paper's regime p > 41: the series
# numerators to order 13 and the perturbation pass on the digit table.
PAPER_REGIME_PINS = {
    "numerators": "53225c7d76be5952abfd8956e4b30a459966b7b365f82a7af94fe8a77fa8b174",
    "entries": "384a73ff77542d1f11444e00f7ed03938f9fe08d4485ed96772df69ebaa80257",
    "divisors": "ddee0e8e97f10cfb2470b5fec9739d0c14e30a96debb14cf2441a66e1d4e8cd3",
    "ranks": "ef8b4a50ac6367629e1bc8cc38426635df3700337003765567a0351043815d96",
    "steps": "6859b824762cd8a34718141281414a6a217055a5371b647ab1f541d1b2ed9261",
}


def test_paper_regime_layers_pinned_at_p61():
    p, x, y, depth = 61, 2, 127, 11
    assert depth == guard_depth(p)
    ann = construct_weight2_annihilator(p)
    assert ann.is_unfixed
    theta = ann.element
    tab = binom_coeffs(theta, depth + 2)
    assert equivariance_check(tab)
    dt = double_table(tab, synthetic_root_of_unity(p, y, depth + 1, seed=0), x, y, depth)
    mt = perturb_for_independence(dt)
    got = {
        "numerators": _sha([n.coords for n in tab.numerators]),
        "entries": _sha(sorted((k, v.coords) for k, v in mt.entries.items())),
        "divisors": _sha(sorted(mt.divisors.items())),
        "ranks": _sha(mt.ranks),
        "steps": _sha(mt.steps),
    }
    assert got == PAPER_REGIME_PINS


def test_twist_selection_toy_scale():
    tab, dt = genuine_table()
    mt = perturb_for_independence(dt)
    sel = inhomogeneous_select(mt)
    assert sel.homogeneous_ok
    assert sel.pivot_pairing != 0
    assert sel.leading_digit_ok
    assert sel.waivers          # toy scale must record its waivers
    w = sel.witness
    # orthogonality certificates, recomputed from scratch
    from fractions import Fraction
    for pair in mt.processed:
        if sum(pair) <= sel.level and pair != (sel.level, 0):
            assert Fraction((w * mt.entries[pair]).trace()) == 0
    assert Fraction((w * mt.entries[(sel.level, 0)]).trace()) == sel.pivot_pairing


def test_twist_selection_p7():
    p, y, x = 7, 211, 2
    tab = binom_coeffs(fueter(p, 1).scale(2), 9, full=True)
    rho = synthetic_root_of_unity(p, y, 9)
    dt = double_table(tab, rho, x, y, depth=7)
    mt = perturb_for_independence(dt)
    sel = inhomogeneous_select(mt)
    assert sel.trace_zero
    assert sel.homogeneous_ok and sel.pivot_pairing != 0 and sel.leading_digit_ok
    assert sel.pivot_pairing == -p * int(sel.witness.coords[(p - sel.twist_index) - 1])


def test_twist_selection_reports_the_enumeration_limit(monkeypatch):
    # with the search stopped at once, no twist yields a vector; that proves
    # nothing, so the scan must name the limit, not claim a contradiction
    p, y, x = 7, 211, 2
    tab = binom_coeffs(fueter(p, 1).scale(2), 9, full=True)
    rho = synthetic_root_of_unity(p, y, 9)
    mt = perturb_for_independence(double_table(tab, rho, x, y, depth=7))
    monkeypatch.setattr(lattice, "ENUMERATION_LIMIT", 0)
    with pytest.raises(SolverIncomplete) as info:
        inhomogeneous_select(mt)
    assert "enumeration limit (0 vectors)" in str(info.value)
    assert "contradiction" not in str(info.value)


def test_twist_selection_failure_claims_no_contradiction():
    # at this seed every twist's least kernel vector pairs to 0 with the
    # pivot; other vectors of the box are not tried, so nothing is proved
    rep = cmd_pipeline(RunConfig("pipeline", p=7, x=9, y=38, seed=30699422))
    rec = next(r for r in rep.records if r.name == "twist-selection")
    assert rec.status == "fail"
    assert "pairs to 0 with the pivot" in rec.outputs["error"]
    assert "contradiction" not in rec.outputs["error"]


# -- inequality evaluators -------------------------------------------------------------


def test_displayed_chain_boundary():
    assert not displayed_chain_holds(41, 83)     # boundary prime: fails
    assert displayed_chain_holds(43, 87)         # first prime past it: holds
    assert displayed_chain_holds(43, 2 * 43 + 1)
    assert not displayed_chain_holds(40, 1000)


def test_bound_clash_examples():
    p, y = 43, 87
    z = y - 1
    lhs = 4 * z ** 4 * p ** 2 * (p - 1) * y
    rhs = y ** 8
    assert bound_clash(p, y, z, level=4) == (lhs < rhs)
    # monotone: growing y eventually flips to upper-dominates and stays
    z, lvl = 2 * 5 + 1, 4
    flipped = False
    for y in range(12, 4000, 7):
        v = bound_clash(5, y, z, level=lvl)
        if flipped:
            assert v
        elif v:
            flipped = True
    assert flipped


def test_variant_feasibility():
    assert default_vanishing_order(64) == 6
    assert theorem2_feasible(67)
    assert theorem2_feasible(43)
    assert theorem2_feasible(23)
    assert not theorem2_feasible(19)
    assert not theorem2_feasible(5, 4)
    for p in (13, 37, 101):
        assert theorem3_feasible(p, 5)
        assert not theorem3_feasible(p, 4)
    assert lemma9_size_bound(5, 7)
    assert (2 * 5) ** 7 // 5 == 2 * 10 ** 6      # the (5, 7) chain numbers
    assert 2 * 10 ** 6 > (2 * 7) ** 4
