"""Command-line entry point.

Commands: identities, search, pipeline, report, siegel.
Exit codes: 0 all checks pass, 1 failures present, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import lattice
from .harness import RunConfig, cmd_identities, cmd_pipeline, cmd_report, cmd_search, write_report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it.  A
    build leaves cyclic garbage behind and costs about 25 parses (1.4 ms on a
    2-vCPU VM, Python 3.11), which matters when `main` runs many commands."""
    parser = argparse.ArgumentParser(
        prog="cyclonorm",
        description="Exact cyclotomic checks for the norm equation "
                    "(x^p + y^p)/(x + y) = p^e z^p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=5, help="odd prime exponent")
        sp.add_argument("--q", type=int, default=None, help="second prime for the variant equation")
        sp.add_argument("--e", type=int, default=None, choices=(0, 1), help="ramification exponent")
        sp.add_argument("--bound", type=int, default=20, help="search box bound")
        sp.add_argument("--x", type=int, default=None)
        sp.add_argument("--y", type=int, default=None)
        sp.add_argument("--precision", type=int, default=6, help="semilocal precision (power of y)")
        sp.add_argument("--level", type=int, default=4, help="vanishing order for the twist stage")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None, help="report base path (writes .json and .tsv)")
        sp.add_argument("--waive-scale", action="store_true",
                        help="run size-gated stages at toy scale, recording waivers")

    for name, help_text in [
        ("identities", "run the exact identity suite at a prime"),
        ("search", "exhaustive small-solution scan"),
        ("pipeline", "end-to-end semilocal pipeline on a (pseudo-)solution"),
        ("report", "re-render the flat summary from a stored report"),
    ]:
        common(sub.add_parser(name, help=help_text))

    siegel = sub.add_parser("siegel", help="solve A w = 0 inside the box bound from a matrix file")
    siegel.add_argument("--matrix", type=str, required=True, help="matrix file: 'rows cols' then rows")
    siegel.add_argument("--bound", type=int, default=None, help="sup-norm bound (default: box-lemma bound)")
    siegel.add_argument("--out", type=str, default=None, help="witness output file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "siegel":
        try:
            rows = lattice.read_matrix(args.matrix)
            if not rows:
                raise ValueError("the matrix has no rows")
            bound = args.bound
            if bound is None:
                bound = lattice.hadamard_bv(rows, len(rows[0]))[0].sup_bound_int()
            if bound < 1:
                raise ValueError(f"the sup-norm bound must be at least 1, got {bound}")
        except (ValueError, OSError) as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return 2
        try:
            witness = lattice.siegel_solve(rows, len(rows[0]), bound)
        except lattice.SolverIncomplete as exc:
            print(f"no admissible vector: {exc}", file=sys.stderr)
            return 1
        line = " ".join(str(x) for x in witness)
        if args.out:
            lattice.write_witness(args.out, witness)
        print(line)
        return 0

    cfg = RunConfig(
        command=args.command, p=args.p, q=args.q, e=args.e, bound=args.bound,
        x=args.x, y=args.y, precision=args.precision, level=args.level,
        seed=args.seed, out=args.out, waive_scale=args.waive_scale,
    )
    problem = cfg.validate()
    if problem:
        print(f"invalid input: {problem}", file=sys.stderr)
        return 2

    try:
        if args.command == "identities":
            report = cmd_identities(cfg)
        elif args.command == "search":
            report = cmd_search(cfg)
        elif args.command == "pipeline":
            report = cmd_pipeline(cfg)
        elif args.command == "report":
            for path in cmd_report(cfg):
                print(path)
            return 0
        else:
            parser.error(f"unknown command {args.command}")
            return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(report.to_tsv())
    if cfg.out:
        for path in write_report(report, cfg.out):
            print(f"wrote {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
