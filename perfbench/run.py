"""The cyclonorm benchmark: one workload per run, driven through the CLI.

    python3 perfbench/run.py --workload {identities,pipeline,siegel} \
        --seed N --seconds S --trace {0,1}

Every op is one call of the public entry point `cyclonorm.cli.main(argv)` in
this process: a closed loop with one caller, ops one after another, no
threads.  The package is imported from `src/` next to this directory.

A run sets up (imports cyclonorm, draws the inputs, writes matrix files),
makes one untimed warm-up pass over its op list, so that in-process caches
such as `stickelberger.bernoulli_rational` are full and the first outputs are
on record, then makes a fixed number of timed passes: one per 10 s of
`--seconds` (two for identities), at least two.
Every op of every pass is checked: its report or witness bytes must equal
those of the warm-up pass, an identities report may hold no `fail` record,
and a siegel witness must be a nonzero kernel vector within the box bound,
computed here independently.

With `--trace 0` the last line holds the end-to-end metrics; with `--trace 1`
each timed pass is followed by a traced one, and the run reports the
per-layer metrics, the traced wall time and the tracing overhead.  The line
before it, starting with `# info`, records the environment and the failure
counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
# Timed passes per 10 s of --seconds.  identities has only seven ops per pass
# and needs more than 20 op samples for its tail percentile to rise above the
# median, so it makes twice as many passes.
PASSES_PER_10S = {"identities": 2, "pipeline": 1, "siegel": 1}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result in this checkout."""


def load_cli():
    """cyclonorm.cli from the checkout's src/, never from anywhere else."""
    if not (SRC / "cyclonorm" / "cli.py").is_file():
        raise BenchmarkError(f"no cyclonorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cyclonorm import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"cyclonorm was imported from {cli.__file__}, not from {SRC}")
    return cli


class Tally:
    """Outcome counts over a set of ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.raised: Counter = Counter()
        self.refused = 0
        self.rejected: List[str] = []
        self.records: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + self.refused + len(self.rejected)


def execute(cli, op: workloads.Op):
    """Run one op; returns (seconds, exit code, exception raised or None)."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    sink = io.StringIO()
    raised = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is an outcome to count, not a reason to stop
        code, raised = None, exc
    dt = time.perf_counter() - t0
    return dt, code, raised


def read_outputs(op: workloads.Op) -> List[Optional[str]]:
    out = []
    for path in op.outputs:
        try:
            with open(path, encoding="ascii") as f:
                out.append(f.read())
        except FileNotFoundError:
            out.append(None)
    return out


def check(op: workloads.Op, code, raised, texts, reference, tally: Tally) -> tuple:
    """Count the op's outcome in `tally`; returns its signature for comparison."""
    tally.attempted += 1
    signature = (code, None if raised is None else f"{type(raised).__name__}: {raised}", texts)
    if raised is not None:
        tally.raised[type(raised).__name__] += 1
    elif code == 2:
        tally.refused += 1
    elif op.rows is not None:
        problem = checks.witness_problem(op.rows, texts[0] or "")
        if problem:
            tally.rejected.append(f"{op.label}: {problem}")
    elif texts[0] is not None:
        counts = checks.record_counts(texts[0])
        tally.records.update(counts)
        if op.argv[0] == "identities" and counts["fail"]:
            tally.rejected.append(f"{op.label}: {counts['fail']} fail records")
    if reference is not None and signature != reference:
        tally.rejected.append(f"{op.label}: output differs from the warm-up pass")
    return signature


def run_pass(cli, ops, references, tally: Tally) -> tuple:
    """One pass over the op list; returns (wall seconds, op seconds, signatures)."""
    t0 = time.perf_counter()
    times, signatures = [], []
    for op, ref in zip(ops, references):
        dt, code, raised = execute(cli, op)
        times.append(dt)
        signatures.append(check(op, code, raised, read_outputs(op), ref, tally))
    return time.perf_counter() - t0, times, signatures


def tail_q(n: int) -> float:
    """0.9, or for fewer than 100 samples the highest percentile that still has
    ten samples beyond it, but never below the median."""
    return max(min(math.ceil(0.9 * n), n - 10), math.ceil(n / 2)) / n


def quantile(samples: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) distribution.

    A single order statistic jumps when the host switches between its fast and
    slow spells and the share of samples taken in each crosses the rank; the
    weighted mean moves smoothly with that share instead."""
    import mpmath  # a dependency of cyclonorm, imported with it
    s = sorted(samples)
    n = len(s)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x
               for i, x in enumerate(s))


def setup_times(args) -> List[float]:
    """Interpreter start to inputs written, measured on fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        workdir = tempfile.mkdtemp(dir=WORK)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe", workdir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {err.strip()}")
        samples.append(t1 - t0)
    return samples


def host_loop_ms() -> float:
    """Median time of five runs of a fixed pure-Python loop: a change here
    between passes or runs is the host's speed changing, not the program's."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def timed_passes(workload: str, seconds: int) -> int:
    """PASSES_PER_10S[workload] passes per 10 s of --seconds, at least two.
    The count never depends on measured speed, so two commits time the same
    ops equally often and their percentiles fall on the same ranks."""
    return max(2, round(seconds * PASSES_PER_10S[workload] / 10))


def measure(cli, args, ops) -> dict:
    host = [host_loop_ms()]
    tally_warm = Tally()
    t0 = time.perf_counter()
    _, _, references = run_pass(cli, ops, [None] * len(ops), tally_warm)
    warmup_s = time.perf_counter() - t0

    tally = Tally()
    walls, samples, traced_walls, layers = [], [], [], []
    for _ in range(timed_passes(args.workload, args.seconds)):
        wall, times, _ = run_pass(cli, ops, references, tally)
        walls.append(wall)
        samples += times
        host.append(host_loop_ms())
        if args.trace:
            with tracing.Tracer() as tracer:
                traced_wall, _, _ = run_pass(cli, ops, references, tally)
            unreached = tracer.unreached(args.workload)
            if unreached:
                raise BenchmarkError(f"traced run recorded no calls on {', '.join(unreached)}")
            traced_walls.append(traced_wall)
            layers.append(tracer.layer_metrics())
    return {"warmup_s": warmup_s, "warm": tally_warm, "tally": tally, "walls": walls,
            "samples": samples, "traced_walls": traced_walls, "layers": layers,
            "host_loop_ms": host}


def per_layer(m: dict, passes: int) -> Dict[str, dict]:
    tally = m["tally"]
    out = {}
    for name in m["layers"][0]:
        unit = "s" if name.endswith("_s") else "count"
        out[name] = {"value": statistics.median(layer[name] for layer in m["layers"]),
                     "unit": unit}
    for status in ("pass", "fail", "waived"):
        out[f"harness.records.{status}"] = {"value": tally.records[status] / passes,
                                            "unit": "count"}
    out["ops.failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    out["ops.raised.ArithmeticError"] = {"value": tally.raised["ArithmeticError"] / passes,
                                         "unit": "count"}
    out["ops.raised.other"] = {
        "value": (sum(tally.raised.values()) - tally.raised["ArithmeticError"]) / passes,
        "unit": "count"}
    out["ops.refused"] = {"value": tally.refused / passes, "unit": "count"}
    out["ops.rejected"] = {"value": len(tally.rejected) / passes, "unit": "count"}
    traced = statistics.mean(m["traced_walls"])
    out["trace.wall_s"] = {"value": traced, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced - statistics.mean(m["walls"]), "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cyclonorm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            load_cli()
            workloads.build(args.workload, args.seed, args.setup_probe)
            print("ready", flush=True)
            return 0

        cli = load_cli()
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            setup = setup_times(args)
            ops = workloads.build(args.workload, args.seed, workdir)
            m = measure(cli, args, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    tally, samples = m["tally"], m["samples"]
    passes = len(m["walls"]) + len(m["traced_walls"])
    q = tail_q(len(samples))
    rejected = m["warm"].rejected + tally.rejected
    info = {
        "git_sha": git_sha(), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "workload": args.workload, "seed": args.seed,
        "ops_per_pass": len(ops), "timed_passes": passes, "op_samples": len(samples),
        "tail_percentile": round(100 * q, 1), "warmup_s": m["warmup_s"],
        "setup_samples_s": setup, "failed_frac": tally.failed / tally.attempted,
        "raised": dict(tally.raised), "refused": tally.refused, "rejected": rejected[:10],
        "records_per_pass": {k: v / passes for k, v in tally.records.items()},
        "host_loop_ms": m["host_loop_ms"],
    }
    print("# info " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = per_layer(m, passes)
    else:
        metrics = {
            "wall_s": {"value": statistics.mean(m["walls"]), "unit": "s"},
            "op_s.p50": {"value": quantile(samples, 0.5), "unit": "s"},
            "op_s.p90": {"value": quantile(samples, q), "unit": "s"},
            "setup_s": {"value": quantile(setup, 0.5), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not rejected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
