"""Seeded inputs for the three workloads.

Each workload is a fixed list of CLI ops per run.  The seed draws the inputs;
the shape of the list (which primes, which digit bases, which system sizes)
is fixed, because the cost of one op is set by that shape and a run must cost
the same on every seed for its timings to be comparable.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional

import checks

WORKLOADS = ("identities", "pipeline", "siegel")

IDENTITY_PRIMES = (5, 7, 11, 13, 17, 19, 23)

# (p, y) per pipeline cell; x and the root seed are drawn from the workload
# seed.  y is fixed per cell because it sets the cost: it picks the box
# radius isqrt(y) of the twist scan and the splitting of y in Z[zeta_p].  The
# cells keep the known defects in the load: y a power of one inert prime
# raises ArithmeticError ((5, 13), (5, 43), (7, 27), (7, 31), (11, 29),
# (13, 19)), and some draws fail perturbation-pass records.  The cells come
# in four cost classes, so that the percentiles of a two-pass run (44
# samples) fall inside a class of like ops:
#   - below the median: p = 5 with y <= 15 (box radius 3) or y = 43, where
#     the whole 4-dimensional box is scanned in about 0.1 s;
#   - op_s.p50: p = 7 with y >= 25, where the 6-dimensional box is too large
#     to scan and inhomogeneous_select takes the LLL path; most of the 0.2 s
#     goes to series tables, cyclotomic products and the semilocal roots, and
#     the two cells that raise do so after that work;
#   - op_s.p90 (the rank with ten samples beyond it): p = 11, where series
#     and cyclotomic work is nine tenths of the time;
#   - above it: p = 13, p = 17, and p = 7 with y = 23, where the 6-dimensional
#     box is scanned once per twist until one succeeds.  How many twists that
#     takes depends on x and the root seed (0.5 s to 10 s for one (7, 23) op),
#     so that cell also fixes x = 2 and root seed 0 (about 2 s).
PIPELINE_CLASSES = (
    ((5, 11), (5, 12), (5, 13), (5, 14), (5, 11), (5, 12), (5, 43)),
    ((7, 26), (7, 27), (7, 29), (7, 31), (7, 33), (7, 38), (7, 40), (7, 44)),
    ((11, 25), (11, 29), (11, 35), (11, 39)),
    ((13, 19), (17, 19), (7, 23, 2, 0)),
)

# (rows, ambient, box bound) per siegel system.  Entries are drawn uniformly
# from [-10, 10] as in acceptance criterion 08, and a draw is kept only when
# it is full rank and lands on its cell's box bound, which fixes the box
# volume (2b + 1)^ambient and with it the cost of the exhaustive scan.
# The 50 cells come in four cost classes, so that each percentile of a
# two-pass run (100 samples) falls in the middle of a class of like ops:
#   - 18 small systems of a few milliseconds, scanned or reduced by LLL;
#   - op_s.p50: twelve 1x8 scans of 3^8 vectors;
#   - twelve wide systems (ambient 10 to 12) on LLL and enumeration, whose
#     cost varies with the draw (0.08 s to 0.3 s; shapes such as 3x11 or 4x12,
#     which can take 0.7 s, are left out because they would reach into the
#     class above);
#   - op_s.p90: eight 2x5 scans of 11^5 vectors, the costliest ops.
SIEGEL_CLASSES = (
    ((1, 4, 2),) * 3 + ((1, 5, 1),) * 3 + ((3, 5, 37),) * 3
    + ((1, 6, 1),) * 3 + ((3, 6, 12),) * 3 + ((1, 7, 1),) * 3,
    ((1, 8, 1),) * 12,
    ((2, 10, 2), (2, 10, 2), (3, 10, 3), (3, 10, 3), (4, 10, 6), (4, 10, 6),
     (5, 11, 11), (5, 11, 11), (6, 11, 32), (6, 11, 32), (6, 12, 17), (6, 12, 17)),
    ((2, 5, 5),) * 8,
)
MAX_DRAWS = 100_000


@dataclass
class Op:
    label: str
    argv: List[str]
    outputs: List[str]                      # files the op writes, compared across passes
    rows: Optional[List[List[int]]] = None  # the siegel system, for the witness check


def build(workload: str, seed: int, workdir: str) -> List[Op]:
    """The op list of one run; siegel matrix files are written into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identities":
        return [_identities_op(p, rng.randrange(2 ** 31), workdir) for p in IDENTITY_PRIMES]
    if workload == "pipeline":
        return [_pipeline_op(i, cell, rng, workdir)
                for i, cell in enumerate(interleave(PIPELINE_CLASSES))]
    if workload == "siegel":
        return [_siegel_op(i, cell, rng, workdir)
                for i, cell in enumerate(interleave(SIEGEL_CLASSES))]
    raise ValueError(f"unknown workload {workload!r}")


def interleave(classes):
    """The cells of all classes in one list, each class spread evenly over it.

    Host speed drifts over seconds, so the ops that set a percentile are
    spread over the whole pass rather than run back to back."""
    keyed = [((j + 0.5) / len(cells), c, cell)
             for c, cells in enumerate(classes) for j, cell in enumerate(cells)]
    return [cell for _, _, cell in sorted(keyed, key=lambda k: k[:2])]


def _identities_op(p: int, s: int, workdir: str) -> Op:
    base = os.path.join(workdir, f"identities_p{p}")
    return Op(f"identities p={p} seed={s}",
              ["identities", "--p", str(p), "--seed", str(s), "--out", base],
              [base + ".json", base + ".tsv"])


def _pipeline_op(i: int, cell, rng: random.Random, workdir: str) -> Op:
    p, y, *fixed = cell
    x, s = fixed or (rng.choice([c for c in range(2, 10) if math.gcd(c, y) == 1]),
                     rng.randrange(2 ** 31))
    base = os.path.join(workdir, f"pipeline_{i:02d}")
    return Op(f"pipeline p={p} x={x} y={y} seed={s}",
              ["pipeline", "--p", str(p), "--x", str(x), "--y", str(y),
               "--seed", str(s), "--out", base],
              [base + ".json", base + ".tsv"])


def _siegel_op(i: int, cell, rng: random.Random, workdir: str) -> Op:
    nrows, ambient, bound = cell
    rows = draw_system(rng, nrows, ambient, bound)
    matrix = os.path.join(workdir, f"siegel_{i:02d}.txt")
    with open(matrix, "w", encoding="ascii") as f:
        f.write(f"{nrows} {ambient}\n")
        for row in rows:
            f.write(" ".join(str(a) for a in row) + "\n")
    witness = os.path.join(workdir, f"siegel_{i:02d}.w")
    return Op(f"siegel {nrows}x{ambient} b={bound}",
              ["siegel", "--matrix", matrix, "--out", witness], [witness], rows)


def draw_system(rng: random.Random, nrows: int, ambient: int, bound: int) -> List[List[int]]:
    """A random full-rank nrows x ambient system with the given box bound."""
    for _ in range(MAX_DRAWS):
        rows = [[rng.randrange(-10, 11) for _ in range(ambient)] for _ in range(nrows)]
        g = checks.gram_det(rows)
        if g and checks.iroot(g, 2 * (ambient - nrows)) == bound:
            return rows
    raise RuntimeError(f"no {nrows}x{ambient} system with box bound {bound} "
                       f"in {MAX_DRAWS} draws")
