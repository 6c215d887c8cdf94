"""Exact integer linear algebra used throughout the package.

Everything here works on plain Python ints, so all results are exact; a
rational quantity (a Gram-Schmidt coefficient, a squared norm over a Gram
determinant) is kept as an integer numerator over a known integer
denominator.  Matrices are lists of row lists.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # integer Newton from 2^ceil(bits/k) > n^(1/k): the iterates fall
    # strictly until the floor is reached (no float, so no overflow)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_power(n: int, k: int) -> Optional[int]:
    """Return r with r**k == n (signs allowed for odd k), else None."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = is_perfect_power(-n, k)
        return None if r is None else -r
    r = iroot(n, k)
    return r if r ** k == n else None


def gram_matrix(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]


class RowSpace:
    """Incremental row space over Q of integer rows, with exact membership tests.

    The echelon is kept in integers: each row is a primitive integer vector,
    and a vector v is reduced by v <- e_piv v - v_piv e, then divided by the
    gcd of its entries.
    """

    def __init__(self) -> None:
        self._echelon: List[List[int]] = []
        self._pivots: List[int] = []

    @property
    def rank(self) -> int:
        return len(self._echelon)

    def _reduce(self, row: Sequence[int]) -> List[int]:
        v = list(row)
        for piv, erow in zip(self._pivots, self._echelon):
            c = v[piv]
            if c:
                e = erow[piv]
                v = [e * a - c * b for a, b in zip(v, erow)]
                g = math.gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        return v

    def contains(self, row: Sequence[int]) -> bool:
        return not any(self._reduce(row))

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; return True if it enlarged the space."""
        v = self._reduce(row)
        for idx, x in enumerate(v):
            if x:
                g = math.gcd(*v)
                self._echelon.append([a // g for a in v])
                self._pivots.append(idx)
                return True
        return False


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def hermite_normal_form(rows: Sequence[Sequence[int]], ncols: int,
                        det_multiple: int) -> List[List[int]]:
    """Row-style HNF of the lattice spanned by integer rows and D*Z^ncols.

    D = det_multiple must be a positive integer with D*Z^ncols contained in
    the lattice (e.g. the norm of an ideal).  The basis starts as D*e_0, ...,
    D*e_(ncols-1), so the lattice has full rank and row i holds the pivot of
    column i.  Each row is inserted by reducing it against the pivot rows,
    combining through extended gcd (a unimodular 2x2 step).  Every entry off
    the diagonal is kept mod D (Domich-Kannan-Trotter; Cohen, Alg. 2.4.8):
    D*Z^ncols lies in the lattice, so every pivot divides D and the final
    reduction of the entries above a pivot into [0, pivot) is unchanged.
    """
    if det_multiple <= 0:
        raise ValueError("det_multiple must be positive")
    mod = det_multiple
    basis = [[mod if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    for r in rows:
        row = [x % mod for x in r]
        for col in range(ncols):
            b = row[col]
            if b == 0:
                continue
            piv = basis[col]
            a = piv[col]
            if b % a == 0:
                q = b // a
                row[col:] = [(x - q * y) % mod for x, y in zip(row[col:], piv[col:])]
            else:
                g, u, v = _ext_gcd(a, b)
                qa, qb = a // g, b // g
                basis[col] = piv[:col] + [g] + [(u * x + v * y) % mod for x, y in
                                                zip(piv[col + 1:], row[col + 1:])]
                row[col:] = [(qa * y - qb * x) % mod for x, y in zip(piv[col:], row[col:])]
    # Reduce entries above pivots: for each row, sweep the pivot rows below
    # it in increasing order, so re-polluted later columns get fixed by the
    # subsequent sweeps.
    for k, top in enumerate(basis):
        for i in range(k + 1, ncols):
            q = top[i] // basis[i][i]
            if q:
                top[i:] = [(a - q * b) % mod for a, b in zip(top[i:], basis[i][i:])]
    return basis


def hnf_contains(hnf: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Whether an integer vector lies in the lattice of a full-rank HNF (pivot i in column i)."""
    v = list(vec)
    for i, row in enumerate(hnf):
        q, rem = divmod(v[i], row[i])
        if rem:
            return False
        if q:
            v[i:] = [a - q * b for a, b in zip(v[i:], row[i:])]
    return True


def integer_kernel(a: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Basis of the saturated lattice {w in Z^ncols : A w = 0}.

    Row-reduces [A^T | I] with unimodular operations; rows whose A^T part
    vanishes give the kernel.
    """
    nrows = len(a)
    at = [[a[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
          for j in range(ncols)]
    lead = 0
    for col in range(nrows):
        piv = None
        while True:
            candidates = [i for i in range(lead, ncols) if at[i][col] != 0]
            if not candidates:
                break
            candidates.sort(key=lambda i: abs(at[i][col]))
            piv = candidates[0]
            at[lead], at[piv] = at[piv], at[lead]
            done = True
            for i in range(lead + 1, ncols):
                if at[i][col] != 0:
                    q = at[i][col] // at[lead][col]
                    at[i] = [x - q * y for x, y in zip(at[i], at[lead])]
                    if at[i][col] != 0:
                        done = False
            if done:
                break
        if any(at[i][col] != 0 for i in range(lead, ncols)):
            lead += 1
    kernel = [row[nrows:] for row in at[lead:] if not any(row[:nrows])]
    return [k for k in kernel if any(k)]


def integral_gso(gram: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """Integral Gram-Schmidt data of a linearly independent basis, from its Gram matrix.

    Returns (d, lam): d[0] = 1 and d[i + 1] is the Gram determinant of the
    first i + 1 vectors, so ||b*_i||^2 = d[i + 1] / d[i]; lam[k][j] =
    d[j + 1] mu[k][j] for j < k.  All entries are integers (Cohen, Alg. 2.6.7).
    """
    n = len(gram)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("basis must be linearly independent")
            else:
                d[k + 1] = u
    return d, lam


def gso_border(d: Sequence[int], lam: Sequence[Sequence[int]],
               products: Sequence[int]) -> List[int]:
    """The step integral_gso's recurrence makes for its row k, for a vector v
    outside the basis: border the data (d, lam) of independent b_0..b_(k-1)
    by v, given products = [<v, b_0>, ..., <v, b_(k-1)>, <v, v>].  Bordering
    one Gram-Schmidt by many vectors in turn costs one step each.

    Returns [lam_0, ..., lam_(k-1), D] with lam_j = d[j + 1] mu_j(v) and D
    the Gram determinant of b_0..b_(k-1), v, which is 0 exactly when v lies
    in the span of the b_j.
    """
    k = len(products) - 1
    row: List[int] = []
    for j, u in enumerate(products):
        lj = lam[j] if j < k else row
        for i in range(j):
            u = (d[i + 1] * u - row[i] * lj[i]) // d[i]
        row.append(u)
    return row


def lll_reduce(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL reduction with delta = 3/4 of linearly independent integer rows
    (ValueError otherwise).

    Each row is size-reduced against all earlier rows before its Lovasz
    test.  The Gram-Schmidt data are the integers of integral_gso, updated
    in place after every size reduction and swap (Cohen, Alg. 2.6.7), so
    the whole reduction runs in integers.
    """
    basis = [[int(x) for x in row] for row in rows]
    n = len(basis)
    if n <= 1:
        return basis
    d, lam = integral_gso(gram_matrix(basis))
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            # r = mu = lk[j] / d[j + 1] rounded, ties to even
            r, rem = divmod(2 * lk[j] + d[j + 1], 2 * d[j + 1])
            if rem == 0 and r & 1:
                r -= 1
            if r:
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                lk[j] -= r * d[j + 1]
                for i in range(j):
                    lk[i] -= r * lam[j][i]
        nu = lk[k - 1]
        # ||b*_k||^2 >= (3/4 - mu^2) ||b*_(k-1)||^2, times 4 d[k] d[k-1]
        if 4 * (d[k + 1] * d[k - 1] + nu * nu) >= 3 * d[k] ** 2:
            k += 1
            continue
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        lam[k - 1][:k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1][:k - 1]
        d_swapped = (d[k - 1] * d[k + 1] + nu * nu) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - nu * t) // d[k]
            lam[i][k - 1] = (d_swapped * t + nu * lam[i][k]) // d[k + 1]
        d[k] = d_swapped
        k = max(k - 1, 1)
    return basis


def enumerate_short_vectors(basis: Sequence[Sequence[int]], radius_sq: int, *,
                            sup_bound: Optional[int] = None):
    """Yield the nonzero lattice vectors with squared Euclidean norm <= radius_sq.

    Fincke-Pohst enumeration on a linearly independent (ideally LLL-reduced)
    integer basis, exact in integers over one common denominator.  One
    vector per +/- pair: the nonzero coefficient of highest index is
    positive.  Squared norms in an integer lattice are integers, so an
    integer radius_sq loses nothing.

    Branches that hold no vector of sup-norm <= sup_bound are cut: every
    vector of the ball with sup-norm <= sup_bound is still yielded, and some
    with a larger sup-norm may be.  The default sup_bound, isqrt(radius_sq),
    bounds the sup-norm of every vector of the ball, so it yields exactly the
    ball.  The cut: if sup(v) <= r then |<v, w>| <= r ||w||_1, for w = b*_l
    and for w = pi_l(v), the part of v orthogonal to b_0..b_(l-1), which is
    fixed once the coefficients from l up are.
    """
    n = len(basis)
    if n == 0:
        return
    d, lam = integral_gso(gram_matrix(basis))
    if radius_sq < 0:
        return
    if sup_bound is None:
        sup_bound = math.isqrt(radius_sq)
    # ||sum x_i b_i||^2 = sum_l t_l^2 / (d[l] d[l+1]) with the integers
    # t_l = d[l+1] x_l + sum_{i>l} lam[i][l] x_i; scale it by `common`
    common = math.lcm(*(d[l] * d[l + 1] for l in range(n)))
    weight = [common // (d[l] * d[l + 1]) for l in range(n)]
    budget = radius_sq * common
    # ortho[l] = d[l] b*_l, integral; <v, b*_l> = t_l / d[l]
    ortho = []
    for l in range(n):
        u = list(basis[l])
        for j in range(l):
            u = [(d[j + 1] * a - lam[l][j] * b) // d[j] for a, b in zip(u, ortho[j])]
        ortho.append(u)
    t_cap = [sup_bound * sum(map(abs, u)) for u in ortho]
    coeffs = [0] * n

    def recurse(level: int, used: int, nonzero: bool, proj: List[int]):
        # nonzero: some coefficient above this level is nonzero; proj:
        # common * pi_(level+1)(v)
        if level < 0:
            if nonzero:
                vec = [0] * len(basis[0])
                for c, row in zip(coeffs, basis):
                    if c:
                        vec = [a + c * b for a, b in zip(vec, row)]
                yield vec
            return
        shift = sum(lam[i][level] * coeffs[i] for i in range(level + 1, n))
        t_max = min(math.isqrt((budget - used) // weight[level]), t_cap[level])
        step = d[level + 1]
        lo = -((t_max + shift) // step) if nonzero else 0
        for x in range(lo, (t_max - shift) // step + 1):
            coeffs[level] = x
            t = step * x + shift
            now = used + weight[level] * t * t
            f = weight[level] * t
            nxt = [a + f * b for a, b in zip(proj, ortho[level])]
            # ||pi(v)||^2 <= r ||pi(v)||_1, scaled: now = common * ||pi(v)||^2
            if now > sup_bound * sum(map(abs, nxt)):
                continue
            yield from recurse(level - 1, now, nonzero or x != 0, nxt)
        coeffs[level] = 0

    try:
        yield from recurse(n - 1, 0, False, [0] * len(basis[0]))
    finally:
        recurse = None      # the closure refers to itself: break that cycle
