#!/usr/bin/env python3
"""Check that two source trees give the same outputs on every benchmark op
and on a fixed list of further commands.

For each tree, one subprocess runs every op that `perfbench/workloads.build`
makes for the three workloads and the given seeds (default 1 and 2) through
`cyclonorm.cli.main`, in one process as the benchmark does.  It then runs
each command of EXTRA_COMMANDS once, with `--out` in the work directory.
Those reach paths that no benchmark op reaches: the p = 3 search, the p = 3
pipelines (e = 0, and e = 1 with its division by 1 - zeta), the search
with a second prime q, the identities at p = 59, the least prime whose
weight-2 annihilator comes from the double-Fueter recipe (about 2 s per
tree), the pipeline at (31, 2, 67), which builds its root of unity
from the ten cubic factors of Phi_31 over F_67 and reaches `root_slots`
and `factor_phi` beyond the benchmark's primes (about 1 s per tree), the
pipeline at (29, 2, 59), where all 28 twists are searched in the
sqrt(y) box before the box-lemma fallback (0.3-0.9 s per tree), and the
pipeline at (13, 2, 53), where Phi_13 splits into twelve linear factors
over F_53, so `factor_phi` lists them directly and `root_slots` moves one
lifted idempotent onto the other eleven slots (about 0.1 s per tree), and
the pipeline at (13, 3, 35), whose perturbation-pass record fails (a basis
twist leaves a digit of size y), so the bytes of a failing record are
compared too (about 0.2 s per tree).  The further commands take about 3 s
per tree in all (2-vCPU host, Python 3.11).

Both trees run in the same work directory, because a report records its
`--out` path.  Each op is summed up by the SHA-256 of its output files,
stdout and stderr, and its exit code or exception.  Every op whose summary
differs is printed, with the first differing lines of each output file that
differs, and the exit code is 1 if any does.

Usage: python scripts/same_outputs.py OLD_SRC NEW_SRC [seeds...]

OLD_SRC and NEW_SRC are directories that hold the `cyclonorm` package, such
as the `src/` of two checkouts.  Each tree must be the one imported: a
directory without the package, or a package that loads from elsewhere (an
installed copy), ends the run with exit code 2 and a line naming the
directory.
"""

import contextlib
import difflib
import hashlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
DIFF_LINES = 8   # diff lines, headers included, shown per differing output file
EXTRA_COMMANDS = [
    ["search", "--p", "3", "--bound", "50"],
    ["search", "--p", "5", "--q", "7", "--bound", "60"],
    ["pipeline", "--p", "3", "--x", "19", "--y", "18"],
    ["pipeline", "--p", "3", "--x", "2", "--y", "1"],
    ["identities", "--p", "59"],
    ["pipeline", "--p", "31", "--x", "2", "--y", "67"],
    ["pipeline", "--p", "29", "--x", "2", "--y", "59"],
    ["pipeline", "--p", "13", "--x", "2", "--y", "53"],
    ["pipeline", "--p", "13", "--x", "3", "--y", "35"],
]


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_op(main, label: str, argv, outputs) -> None:
    """Run one op through `main` and print its JSON line."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is an outcome to compare
        code, raised = None, f"{type(exc).__name__}: {exc}"
    files, texts = {}, {}
    for path in outputs:
        p = pathlib.Path(path)
        files[p.name] = digest(p.read_bytes()) if p.exists() else None
        texts[p.name] = p.read_text(encoding="utf-8") if p.exists() else ""
    print(json.dumps({
        "op": label, "code": code, "raised": raised,
        "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue()),
        "files": files, "texts": texts,
    }), flush=True)


def run_ops(src: str, workdir: str, seeds) -> int:
    """Child side: print one JSON line per op with the digests of its outcome
    and the text of its output files.  Returns 2, before any op, when
    `cyclonorm` is not imported from src."""
    sys.path[:0] = [src, str(PERFBENCH)]
    from cyclonorm import cli
    import workloads

    if pathlib.Path(src) not in pathlib.Path(cli.__file__).resolve().parents:
        print(f"cyclonorm was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    for workload in workloads.WORKLOADS:
        for seed in seeds:
            opdir = pathlib.Path(workdir) / f"{workload}_{seed}"
            opdir.mkdir()
            for i, op in enumerate(workloads.build(workload, seed, str(opdir))):
                run_op(cli.main, f"{workload} seed={seed} #{i:02d} {op.label}",
                       op.argv, op.outputs)
    opdir = pathlib.Path(workdir) / "extra"
    opdir.mkdir()
    for i, argv in enumerate(EXTRA_COMMANDS):
        base = str(opdir / f"{i:02d}")
        run_op(cli.main, f"extra #{i:02d} {' '.join(argv)}", argv + ["--out", base],
               [base + ".json", base + ".tsv"])
    return 0


class WrongTree(Exception):
    """A source tree is not the one the child imported."""


def outcomes(src: str, workdir: str, seeds) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    pathlib.Path(workdir).mkdir()
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, workdir] + [str(s) for s in seeds],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode == 2:
        raise WrongTree(src)
    proc.check_returncode()
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return {row.pop("op"): row for row in rows}


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        return run_ops(argv[1], argv[2], [int(s) for s in argv[3:]])
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src, new_src = (str(pathlib.Path(a).resolve()) for a in argv[:2])
    for src in (old_src, new_src):
        if not (pathlib.Path(src) / "cyclonorm" / "cli.py").is_file():
            print(f"no cyclonorm package under {src}", file=sys.stderr)
            return 2
    seeds = [int(s) for s in argv[2:]] or [1, 2]
    base = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        workdir = str(pathlib.Path(base) / "work")
        old = outcomes(old_src, workdir, seeds)
        new = outcomes(new_src, workdir, seeds)
    except WrongTree:      # the child has printed the line that says why
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    differ = 0
    for op in sorted(old.keys() | new.keys()):
        a, b = old.get(op, {}), new.get(op, {})
        old_texts, new_texts = a.pop("texts", {}), b.pop("texts", {})
        if a != b:
            differ += 1
            parts = sorted(k for k in (a or b) if a.get(k) != b.get(k))
            print(f"DIFFERS {op}: {', '.join(parts)}")
            for name in sorted(old_texts.keys() | new_texts.keys()):
                lines = list(difflib.unified_diff(
                    old_texts.get(name, "").splitlines(), new_texts.get(name, "").splitlines(),
                    f"old/{name}", f"new/{name}", n=0, lineterm=""))
                for line in lines[:DIFF_LINES]:
                    print(f"    {line}")
                if len(lines) > DIFF_LINES:
                    print(f"    ... {len(lines) - DIFF_LINES} more lines")
    summary = ", ".join(f"{n} {w}" for w, n in Counter(op.split()[0] for op in old).items())
    print(f"{differ} of {len(old.keys() | new.keys())} ops differ ({summary} ops per tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
