"""Command-line entry point.

Commands: identities, search, pipeline, report, siegel.  Each command takes
only the options it reads (see READS); any other option or argument is
refused as invalid input before the command runs.
Exit codes: 0 all checks pass, 1 failures present, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import lattice
from .harness import RunConfig, cmd_identities, cmd_pipeline, cmd_report, cmd_search, write_report

# Every option any command reads, with its parser settings.
OPTIONS = {
    "p": dict(type=int, default=5, help="odd prime exponent"),
    "q": dict(type=int, default=None, help="second prime for the variant equation"),
    "e": dict(type=int, default=None, choices=(0, 1), help="ramification exponent"),
    "bound": dict(type=int, default=20, help="search box bound"),
    "x": dict(type=int, default=None),
    "y": dict(type=int, default=None),
    "precision": dict(type=int, default=6, help="semilocal precision (power of y)"),
    "level": dict(type=int, default=4, help="vanishing order for the twist stage"),
    "seed": dict(type=int, default=0),
    "out": dict(type=str, default=None, help="report base path (writes .json and .tsv)"),
    "matrix": dict(type=str, required=True, help="matrix file: 'rows cols' then rows"),
}
SIEGEL_OPTIONS = {
    "bound": dict(type=int, default=None, help="sup-norm bound (default: box-lemma bound)"),
    "out": dict(type=str, default=None, help="witness output file"),
}

# command -> (help, the options it reads)
READS = {
    "identities": ("run the exact identity suite at a prime", ("p", "seed", "out")),
    "search": ("exhaustive small-solution scan", ("p", "q", "e", "bound", "out")),
    "pipeline": ("end-to-end semilocal pipeline on a (pseudo-)solution",
                 ("p", "x", "y", "precision", "level", "seed", "out")),
    "report": ("re-render the flat summary from a stored report", ("out",)),
    "siegel": ("solve A w = 0 inside the box bound from a matrix file",
               ("matrix", "bound", "out")),
}


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
    for command, (help_text, names) in READS.items():
        sp = sub.add_parser(command, help=help_text)
        specs = {**OPTIONS, **SIEGEL_OPTIONS} if command == "siegel" else OPTIONS
        for name in names:
            sp.add_argument(f"--{name}", **specs[name])
    return parser


def _refusal(command: str, extra) -> str:
    """One clause per option or argument in `extra`, which `command` left unread."""
    unread = argparse.ArgumentParser(add_help=False)
    for name in OPTIONS:
        unread.add_argument(f"--{name}", nargs="?", default=argparse.SUPPRESS)
    given, unknown = unread.parse_known_args(extra)
    clauses = []
    for name, value in vars(given).items():
        readers = "/".join(c for c, (_, names) in READS.items() if name in names)
        label = name if value is None else f"{name} = {value}"
        clauses.append(f"{label} applies to {readers} only; {command} does not read it")
    return "; ".join(clauses + [f"{command} does not read {token}" for token in unknown])


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        print(f"invalid input: {_refusal(args.command, extra)}", file=sys.stderr)
        return 2

    if args.command == "siegel":
        try:
            rows = lattice.read_matrix(args.matrix)
            witness = lattice.siegel_solve(rows, len(rows[0]), args.bound)
            if args.out:
                lattice.write_witness(args.out, witness)
        except (ValueError, OSError) as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return 2
        except lattice.SolverIncomplete as exc:
            print(f"no admissible vector: {exc}", file=sys.stderr)
            return 1
        print(" ".join(str(x) for x in witness))
        return 0

    cfg = RunConfig(**vars(args))
    problem = cfg.validate()
    if problem:
        print(f"invalid input: {problem}", file=sys.stderr)
        return 2

    try:
        # looked up at call time, so a rebound cmd_* (a tracer, a test) is used
        result = globals()[f"cmd_{args.command}"](cfg)
        # the report files are written before anything is printed, so an
        # unwritable --out prints only the refusal
        written = write_report(result, cfg.out) if cfg.out and args.command != "report" else []
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2

    if args.command == "report":
        for path in result:
            print(path)
        return 0
    sys.stdout.write(result.to_tsv())
    for path in written:
        print(f"wrote {path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
