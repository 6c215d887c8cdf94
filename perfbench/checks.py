"""Output checks that do not trust the code under test.

The arithmetic here (Bareiss determinant, integer roots) is written again on
purpose: a witness is judged against a box bound computed without
`cyclonorm.lattice` or `cyclonorm.linalg`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence


def det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def gram_det(rows: Sequence[Sequence[int]]) -> int:
    """det(A A^T) for the integer rows A."""
    return det([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by bisection on exact integers."""
    lo, hi = 0, 1
    while hi ** k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def box_bound(rows: Sequence[Sequence[int]]) -> int:
    """iroot(det(A A^T), 2 (n - r)): the box-lemma sup-norm bound of A."""
    return iroot(gram_det(rows), 2 * (len(rows[0]) - len(rows)))


def parse_witness(text: str) -> Optional[List[int]]:
    """The integer vector on the first line of a witness file, or None."""
    try:
        return [int(t) for t in text.split("\n", 1)[0].split()]
    except ValueError:
        return None


def witness_problem(rows: Sequence[Sequence[int]], text: str) -> Optional[str]:
    """Why `text` is not a valid witness for A w = 0 within the box, or None."""
    w = parse_witness(text)
    if w is None or len(w) != len(rows[0]):
        return "witness is not a vector of the ambient dimension"
    if not any(w):
        return "witness is zero"
    if any(sum(a * b for a, b in zip(row, w)) for row in rows):
        return "A w != 0"
    bound = box_bound(rows)
    if max(abs(t) for t in w) > bound:
        return f"sup-norm {max(abs(t) for t in w)} exceeds the box bound {bound}"
    return None


def record_counts(report_json: str) -> dict:
    """Record statuses of a report tree, counted from its records."""
    counts = {"pass": 0, "fail": 0, "waived": 0}
    for rec in json.loads(report_json)["records"]:
        counts[rec["status"]] += 1
    return counts
