"""Integer-lattice machinery for the coefficient tables.

The index order and its counting function, the digit-perturbation pass that
forces linear independence of the coefficient vectors while preserving
the summed series and the digit size bounds,
Hadamard / box-lemma bounds, a certified small-kernel-vector solver, the
inhomogeneous twist selection, and the final inequality evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cyclotomic import CycloInt, kappa_inv, trace_form
from .semilocal import balanced_digit, sl_embed
from .series import DoubleTable, reassemble


class SolverIncomplete(Exception):
    """No admissible vector: the box holds none, or the search hit its limit."""


class EnumerationLimit(SolverIncomplete):
    """The kernel-vector search met ENUMERATION_LIMIT vectors and stopped."""


class RankStuck(Exception):
    """No basis vector escapes the current span: impossible below full rank."""


# -- the index order --------------------------------------------------------------------


def order_unrank(n: int) -> Tuple[int, int]:
    if n < 1:
        raise ValueError("ranks are 1-based")
    s = 0
    while (s + 1) * (s + 2) // 2 < n:
        s += 1
    k = n - s * (s + 1) // 2 - 1
    return (s - k, k)


def threshold_pair(p: int) -> Tuple[int, int]:
    """The pair of rank p-1: the last one needed for a full basis."""
    return order_unrank(p - 1)


def guard_depth(p: int) -> int:
    """Least digit-table depth that holds the forward neighbour (n+1, h) of
    every pair the perturbation pass processes (ranks 1..p-1)."""
    n, h = threshold_pair(p)
    return n + h + 1


# -- the perturbation pass --------------------------------------------------------------


@dataclass
class PerturbStep:
    pair: Tuple[int, int]
    action: str                      # 'independent' | 'rebalanced' | 'basis-twist'
    twist_index: Optional[int]
    carry_sup: int                   # |kappa(s)|_sup of the carried correction


@dataclass
class ModifiedTable:
    source: DoubleTable
    entries: Dict[Tuple[int, int], CycloInt]
    divisors: Dict[Tuple[int, int], int]          # d(n, h) in {1, p}
    processed: List[Tuple[int, int]]
    steps: List[PerturbStep]
    ranks: List[int]

    @property
    def p(self) -> int:
        return self.source.p

    def sup_certificate(self) -> Tuple[int, bool]:
        worst = 0
        for (n, h), e in self.entries.items():
            worst = max(worst, max(abs(c) for c in e.coords))
        return worst, worst < self.source.y

    def carry_certificate(self) -> Tuple[int, bool]:
        worst = max((s.carry_sup for s in self.steps), default=0)
        return worst, worst <= self.p - 1


def perturb_for_independence(dtable: DoubleTable) -> ModifiedTable:
    """Perturb the digit table until the coefficient vectors are independent.

    Processes pairs in the index order up to rank p-1.  A dependent entry b
    is combined with its forward neighbour: p b = b' + y s with b' the
    balanced residue, |kappa(s)| <= p-1; if b' is still dependent, a basis
    vector y zeta^j is moved across the two terms.  The series sum is
    preserved exactly (denominator flags d in {1, p}), every modified entry
    keeps sup-norm < y, and only the forward neighbour is ever touched.
    It runs at y <= 2p too, below the paper's range y > 2p; there the
    certificates of the returned table say whether its bounds held.
    """
    p, y = dtable.p, dtable.y
    need = [order_unrank(i) for i in range(1, p)]
    for (n, h) in need:
        if (n + 1, h) not in dtable.entries:
            raise ValueError("digit table lacks the forward guard entries")
        if n + 1 >= p:
            raise ValueError("denominator bookkeeping requires pair sums below p")

    entries = dict(dtable.entries)
    divisors: Dict[Tuple[int, int], int] = {}
    steps: List[PerturbStep] = []
    ranks: List[int] = []
    space = linalg.RowSpace()

    for pair in need:
        n, h = pair
        current = entries[pair]
        if space.add(current.coords):
            steps.append(PerturbStep(pair, "independent", None, 0))
            ranks.append(space.rank)
            continue
        scaled = [p * c for c in current.coords]
        residue = [balanced_digit(c, y) for c in scaled]
        carry = [(c - r) // y for c, r in zip(scaled, residue)]
        carry_sup = max(abs(c) for c in carry) if carry else 0
        base = CycloInt(p, tuple(residue))
        ahead = entries[(n + 1, h)]
        if space.add(residue):
            entries[pair] = base
            entries[(n + 1, h)] = ahead + CycloInt(p, tuple(carry))
            divisors[pair] = p
            steps.append(PerturbStep(pair, "rebalanced", None, carry_sup))
            ranks.append(space.rank)
            continue
        # Twist by y zeta^j, signed away from the residue coordinate so the
        # twisted coordinate stays within (-y, y]; pick the smallest escaping
        # j, preferring a strictly smaller sup-norm.
        choices = []
        for j in range(1, p):
            sign = -1 if residue[j - 1] > 0 else 1
            cand = list(residue)
            cand[j - 1] += sign * y
            if not space.contains(cand):
                choices.append((0 if abs(cand[j - 1]) < y else 1, j, sign, cand))
        if not choices:
            raise RankStuck(f"no basis vector escapes the span at pair {pair}")
        _, j, sign, cand = min(choices)
        space.add(cand)
        entries[pair] = CycloInt(p, tuple(cand))
        zeta_j = CycloInt.zeta_power(p, j)
        entries[(n + 1, h)] = ahead + CycloInt(p, tuple(carry)) - zeta_j.scale(sign)
        divisors[pair] = p
        steps.append(PerturbStep(pair, "basis-twist", sign * j, carry_sup))
        ranks.append(space.rank)

    return ModifiedTable(dtable, entries, divisors, need, steps, ranks)


def sum_preservation_check(mtable: ModifiedTable, precision: int) -> bool:
    """The perturbed sum equals the original double sum mod y^precision."""
    src = mtable.source
    return (reassemble(src, mtable.entries, mtable.divisors, precision)
            == reassemble(src, src.entries, {}, precision))


# -- Hadamard and box-lemma bounds ------------------------------------------------------------


@dataclass(frozen=True)
class BoxBound:
    gram_det: int
    rows: int
    ambient: int

    @property
    def codimension(self) -> int:
        return self.ambient - self.rows

    def sup_bound_int(self) -> int:
        """floor of the bound: any integer vector within it has sup <= this."""
        return linalg.iroot(self.gram_det, 2 * self.codimension)


def hadamard_bv(rows: Sequence[Sequence[int]], ambient: int) -> BoxBound:
    """Box-lemma data of independent rows: their exact Gram determinant, the
    last leading minor of the integral Gram-Schmidt data."""
    if len(rows) >= ambient:
        raise ValueError("need strictly fewer rows than the ambient dimension")
    try:
        d, _ = linalg.integral_gso(linalg.gram_matrix(rows))
    except ValueError:
        raise ValueError("rows are linearly dependent") from None
    return BoxBound(d[-1], len(rows), ambient)


def bordered_bounds(shared: Sequence[Sequence[int]], extra: Sequence[Sequence[int]],
                    ambient: int) -> List[Optional[BoxBound]]:
    """hadamard_bv(shared + [row], ambient) for each row of extra, from one
    integral Gram-Schmidt of the shared rows bordered by each row in turn
    (the last step of integral_gso's recurrence).  None where hadamard_bv
    raises ValueError: too many rows, or dependent ones, so dependent shared
    rows give no row a bound."""
    count = len(shared) + 1
    if count >= ambient:
        return [None] * len(extra)
    try:
        d, lam = linalg.integral_gso(linalg.gram_matrix(shared))
    except ValueError:
        return [None] * len(extra)
    bounds: List[Optional[BoxBound]] = []
    for row in extra:
        products = [_dot(row, s) for s in shared] + [_dot(row, row)]
        det = linalg.gso_border(d, lam, products)[-1]
        bounds.append(BoxBound(det, count, ambient) if det else None)
    return bounds


def extend_kernel(kernel: Sequence[Sequence[int]], row: Sequence[int]) -> List[List[int]]:
    """Basis of the saturated kernel of a system with `row` appended, from a
    basis K of the saturated kernel of the system.

    c -> c K maps Z^len(K) onto that saturated kernel, so the vectors it
    also sends to zero under row are c K for c in the saturated kernel of
    the one integer form c -> row . (c K).
    """
    form = [_dot(row, v) for v in kernel]
    extended = []
    for c in linalg.integer_kernel([form], len(kernel)):
        vec = [0] * len(row)
        for ci, v in zip(c, kernel):
            if ci:
                vec = [a + ci * b for a, b in zip(vec, v)]
        extended.append(vec)
    return extended


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


# Work limit of the kernel-vector search: vectors met, one per +/- pair.
ENUMERATION_LIMIT = 100_000


def siegel_solve(rows: Sequence[Sequence[int]], ambient: int,
                 bound: Optional[int] = None,
                 kernel: Optional[Sequence[Sequence[int]]] = None) -> List[int]:
    """A nonzero integer kernel vector with sup-norm within the box bound.

    Kernel basis by exact unimodular elimination, LLL-reduced, then searched
    by Fincke-Pohst enumeration.  A caller that already holds a basis of the
    saturated kernel passes it as `kernel` instead: each vector must have
    length ambient and satisfy rows . v = 0, else ValueError; that it spans
    the whole saturated kernel is the caller's word, and the witness is
    the least vector of the lattice it spans.  With r the smaller of the
    bound and the least sup-norm in the reduced basis, the enumeration
    covers the ball of squared radius ambient * r^2, which holds every
    vector of sup-norm <= r, and cuts the branches that hold none, so the
    search is complete.
    Deterministic: the (sup-norm, coordinates)-smallest admissible vector
    wins, sign-normalized.  The box still holds exponentially many vectors
    as the kernel dimension grows; a search that meets more than
    ENUMERATION_LIMIT of them (one per +/- pair) raises SolverIncomplete
    rather than run for hours or return a vector it has not shown minimal.
    How many vectors the search meets depends on the reduced basis, and so
    on the basis it starts from: two bases of one lattice give the same
    witness wherever neither search reaches the limit, but one may reach it
    where the other does not.
    """
    rows = [list(r) for r in rows]
    if any(len(r) != ambient for r in rows):
        raise ValueError("row length must match the ambient dimension")
    if bound is None:
        bound = hadamard_bv(rows, ambient).sup_bound_int()
    if bound < 1:
        raise ValueError(f"the sup-norm bound must be at least 1, got {bound}")

    def canonical(v: List[int]) -> Tuple[int, Tuple[int, ...]]:
        first = next(x for x in v if x)
        if first < 0:
            v = [-x for x in v]
        return (max(abs(x) for x in v), tuple(v))

    if kernel is None:
        kernel = linalg.integer_kernel(rows, ambient)
    elif any(len(v) != ambient or any(_dot(r, v) for r in rows) for v in kernel):
        raise ValueError("each given kernel vector must have length ambient and be "
                         "annihilated by the rows")
    if not kernel:
        raise SolverIncomplete("kernel is trivial")
    reduced = linalg.lll_reduce(kernel)
    best = min(canonical(v) for v in reduced)
    radius = min(best[0], bound)
    radius_sq = ambient * radius * radius
    for count, vec in enumerate(linalg.enumerate_short_vectors(
            reduced, radius_sq, sup_bound=radius)):
        if count == ENUMERATION_LIMIT:
            raise EnumerationLimit(
                f"enumeration stopped after {count} vectors (sup-norm <= {radius}, "
                f"squared radius {radius_sq}, kernel dimension {len(reduced)})")
        key = canonical(vec)
        if key < best and key[0] <= bound:
            best = key
    if best[0] > bound:
        raise SolverIncomplete("no kernel vector inside the box")
    return list(best[1])


# -- the inhomogeneous twist selection --------------------------------------------------------


@dataclass
class TwistSelection:
    witness: CycloInt                # w, trace zero unless the row was waived
    twist_index: int                 # k with the twisted condition
    level: int                       # pivot pair is (level, 0)
    pivot_pairing: int               # Tr(w * pivot entry), nonzero
    box_radius: int
    homogeneous_ok: bool             # Tr(w * entry) = 0 on every other pair
    trace_zero: bool
    leading_digit_ok: bool           # series-side leading coefficient reproduces it
    waivers: Tuple[str, ...]


def inhomogeneous_select(mtable: ModifiedTable, level: Optional[int] = None) -> TwistSelection:
    """A short trace-zero vector orthogonal to every table entry except a
    twisted pivot, with a nonzero pivot pairing.

    The pivot is the entry at (level, 0); homogeneous conditions cover all
    other pairs with sum <= level.  When the ambient dimension p-1 cannot
    support the full condition count (small p), the level is lowered and the
    trace-zero row dropped as needed; every waiver is reported.

    The p - 1 twisted systems share every row but the twisted pivot row.
    The kernel of the shared rows is computed once, and each twist's kernel
    is built from it by extend_kernel when the scan first reaches that twist,
    then kept for the second radius; siegel_solve takes it as given.  This
    basis differs from the one integer_kernel gives for the twist's rows, so
    a twist whose search reaches ENUMERATION_LIMIT with one basis may finish
    with the other; below the limit the witness is the same.  The box-lemma
    fallback bounds each twist by bordering one integral Gram-Schmidt of the
    shared rows with its row (bordered_bounds).
    """
    src = mtable.source
    p, y = src.p, src.y
    waivers: List[str] = []

    requested = 4 if level is None else level
    lvl = requested
    use_ones = True
    while lvl >= 1:
        nconds = (lvl + 1) * (lvl + 2) // 2 - 1 + (1 if use_ones else 0) + 1
        if nconds < p - 1:
            break
        if use_ones:
            use_ones = False
            continue
        lvl -= 1
        use_ones = True
    if lvl < 1:
        raise ValueError("ambient dimension cannot support any level")
    if lvl != requested:
        waivers.append(f"level lowered from {requested} to {lvl} (ambient dimension {p-1})")
    if not use_ones:
        waivers.append("trace-zero condition dropped (ambient dimension too small)")

    hom_pairs = [order_unrank(i) for i in range(1, (lvl + 1) * (lvl + 2) // 2 + 1)]
    pivot_pair = (lvl, 0)
    hom_pairs.remove(pivot_pair)
    for pair in hom_pairs + [pivot_pair]:
        if pair not in mtable.entries:
            raise ValueError(f"modified table lacks pair {pair}")

    base_rows = [trace_form(mtable.entries[pair]) for pair in hom_pairs]
    if use_ones:
        base_rows.append([1] * (p - 1))

    box_radius = linalg.iroot(y, 2)
    pivot = mtable.entries[pivot_pair]
    pivot_row = trace_form(pivot)
    twist_rows = [[a + b for a, b in zip(pivot_row, trace_form(CycloInt.zeta_power(p, k)))]
                  for k in range(1, p)]      # the pivot row twisted by zeta^k, k = 1..p-1
    shared_kernel = linalg.integer_kernel(base_rows, p - 1)
    kernels: Dict[int, List[List[int]]] = {}   # twist k -> kernel of its rows

    limited = set()          # twists whose search stopped at ENUMERATION_LIMIT

    def scan(radius_limit: int) -> Optional[Tuple]:
        for k, row in enumerate(twist_rows, 1):
            if k not in kernels:
                kernels[k] = extend_kernel(shared_kernel, row)
            try:
                w_coords = siegel_solve(base_rows + [row], p - 1, radius_limit, kernels[k])
            except SolverIncomplete as exc:
                if isinstance(exc, EnumerationLimit):
                    limited.add(k)
                continue
            w_cand = kappa_inv(p, tuple(w_coords))
            pairing = (w_cand * pivot).trace()
            if pairing == 0:
                continue
            return (k, w_coords, w_cand, pairing)
        return None

    radii = [box_radius]
    best = scan(box_radius)
    if best is None:
        # The sqrt(y) box is guaranteed only beyond the theorem's size range;
        # fall back to the box-lemma bound of the condition rows.
        bv_radius = box_radius
        for box in bordered_bounds(base_rows, twist_rows, p - 1):
            if box is not None:       # None: dependent rows, no box bound
                bv_radius = max(bv_radius, box.sup_bound_int())
        if bv_radius > box_radius:
            radii.append(bv_radius)
            best = scan(bv_radius)
            if best is not None:
                waivers.append(
                    f"box radius enlarged from {box_radius} to {bv_radius} "
                    f"(box-lemma bound; the sqrt(y) box needs larger p)")
                box_radius = bv_radius
    if best is None and limited:
        raise SolverIncomplete(
            f"no twist gave a vector, and the search for twists {sorted(limited)} "
            f"stopped at the enumeration limit ({ENUMERATION_LIMIT} vectors), so "
            "the box was not searched in full")
    if best is None:
        raise SolverIncomplete(
            f"for each twist and each radius tried ({', '.join(map(str, radii))}), "
            "the box holds no kernel vector or its (sup-norm, coordinates)-least "
            "kernel vector pairs to 0 with the pivot; no other vector of the box "
            "was tried")
    k, w_coords, w, pivot_pairing = best

    hom_ok = all((w * mtable.entries[pair]).trace() == 0 for pair in hom_pairs)
    trace_zero = w.trace() == 0
    if use_ones and pivot_pairing != -p * w_coords[(p - k) - 1]:
        raise AssertionError("twisted pairing identity failed")

    leading_ok = _leading_digit_check(mtable, w, lvl, pivot_pairing)
    if not use_ones:
        waivers.append("pivot pairing validated directly (form without trace-zero row)")

    return TwistSelection(
        witness=w,
        twist_index=k,
        level=lvl,
        pivot_pairing=pivot_pairing,
        box_radius=box_radius,
        homogeneous_ok=hom_ok,
        trace_zero=trace_zero,
        leading_digit_ok=leading_ok,
        waivers=tuple(waivers),
    )


def _leading_digit_check(mtable: ModifiedTable, w: CycloInt, lvl: int,
                         pivot_pairing: int) -> bool:
    """Series side of the pairing: the y-adic order-lvl coefficient of the
    traced sum is pivot_pairing / (d * q^lvl), i.e. nonzero mod y."""
    src = mtable.source
    y = src.y
    series_sum = reassemble(src, mtable.entries, mtable.divisors, lvl + 1)
    m = series_sum.modulus
    traced = sl_embed(src.p, w, m) * series_sum
    value = traced.trace()
    if value % y ** lvl != 0:
        return False
    e = (value // y ** lvl) % y
    d = mtable.divisors.get((lvl, 0), 1)
    q_pow = pow(src.q, lvl, y) * d % y
    return (e * q_pow - pivot_pairing) % y == 0


# -- final inequality evaluators -----------------------------------------------------------


def bound_clash(p: int, y: int, z: int, level: int = 4) -> bool:
    """Whether z^2 p sqrt((p-1) y) < y^level / 2, exactly: an upper bound
    below the lower bound, so no such value can exist.

    Squares both sides: 4 z^4 p^2 (p-1) y  vs  y^(2 level).
    """
    if p < 3 or y < 1 or z == 0 or level < 1:
        raise ValueError("positive sizes expected")
    return 4 * z ** 4 * p ** 2 * (p - 1) * y < y ** (2 * level)


def displayed_chain_holds(p: int, y: int) -> bool:
    """The closing inequality of the box-bound chain: 2^8 < y^(p - 41 + 1/2).

    Exact form: 2^16 < y^(2p - 81); false whenever the exponent is
    nonpositive (y >= 2 always holds here).
    """
    if y < 2:
        raise ValueError("needs y >= 2")
    e = 2 * p - 81
    if e <= 0:
        return False
    return 2 ** 16 < y ** e


def default_vanishing_order(p: int) -> int:
    """ceil(p^(1/3)) + 2, the vanishing order used by the first variant chain."""
    r = linalg.iroot(p, 3)
    if r ** 3 < p:
        r += 1
    return r + 2


def theorem2_feasible(p: int, n: Optional[int] = None) -> bool:
    """23 n + 41 < 8 p with n the vanishing order (default ceil(p^(1/3)) + 2)."""
    n = default_vanishing_order(p) if n is None else n
    return 23 * n + 41 < 8 * p


def theorem3_feasible(p: int, k: int) -> bool:
    """21 p^2 < (k (p-1))^2, the multi-orbit feasibility condition."""
    return 21 * p * p < (k * (p - 1)) ** 2


def lemma9_size_bound(p: int, q: int) -> bool:
    """(2p)^(q/(p-1)) / p^(1/(p-1)) > 2q, exactly: (2p)^q > p (2q)^(p-1)."""
    return (2 * p) ** q > p * (2 * q) ** (p - 1)


# -- matrix files ---------------------------------------------------------------------------


def read_matrix(path: str) -> List[List[int]]:
    with open(path, encoding="ascii") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError("the matrix file must start with a 'rows cols' line")
        nrows, ncols = int(header[0]), int(header[1])
        if nrows < 1:
            raise ValueError("the matrix has no rows")
        if ncols < 1:
            raise ValueError("the matrix has no columns")
        rows = []
        for _ in range(nrows):
            row = [int(x) for x in f.readline().split()]
            if len(row) != ncols:
                raise ValueError("matrix row does not match the declared width")
            rows.append(row)
        if f.read().strip():
            raise ValueError("the matrix file has more rows than declared")
    return rows


def write_witness(path: str, vec: Sequence[int]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(" ".join(str(x) for x in vec) + "\n")
