"""Smoke self-check of the benchmark at its smallest size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(monkeypatch, workload: str, keep, trace: int) -> dict:
    """One run over the ops `keep` picks out of the workload's op list."""
    build = workloads.build
    monkeypatch.setattr(run.workloads, "build", lambda w, s, d: keep(build(w, s, d)))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload,nops", [("identities", 1), ("pipeline", 2), ("siegel", 3)])
def test_smallest_run_reports_every_end_to_end_metric(monkeypatch, workload, nops):
    result = _main(monkeypatch, workload, lambda ops: ops[:nops], trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 * nops  # two timed passes
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _labelled(*parts):
    """Picks the first op whose label holds each of `parts`, in that order."""
    return lambda ops: [next(op for op in ops if part in op.label) for part in parts]


def test_pipeline_crash_is_counted_as_failed(monkeypatch):
    # (5, 13): y is a prime inert in Z[zeta_5], which raises ArithmeticError
    result = _main(monkeypatch, "pipeline", _labelled("p=5 x=", "y=13 "), trace=0)
    assert result["correct"]
    assert result["failed"] * 2 == result["attempted"] == 4


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    # one system on the box scan and one on LLL and enumeration
    result = _main(monkeypatch, "siegel", _labelled("1x4", "2x10"), trace=1)
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["lattice.siegel_solve.calls"] == 2
    assert metrics["linalg.enumerate_short_vectors.nodes"] > 0
    assert metrics["cyclotomic.CycloInt.mul.calls"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("siegel", 7, str(tmp_path))
    b = workloads.build("siegel", 7, str(tmp_path))
    c = workloads.build("siegel", 8, str(tmp_path))
    assert [op.rows for op in a] == [op.rows for op in b] != [op.rows for op in c]
    assert ([op.argv for op in workloads.build("pipeline", 7, str(tmp_path))]
            == [op.argv for op in workloads.build("pipeline", 7, str(tmp_path))])
    for op, (nrows, ambient, bound) in zip(a, workloads.interleave(workloads.SIEGEL_CLASSES)):
        assert len(op.rows) == nrows and len(op.rows[0]) == ambient
        assert checks.box_bound(op.rows) == bound


def test_witness_check():
    rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert checks.gram_det(rows) == 4 and checks.box_bound(rows) == 1
    assert checks.witness_problem(rows, "1 -1 0 0\n") is None
    assert checks.witness_problem(rows, "0 0 0 0\n") == "witness is zero"
    assert checks.witness_problem(rows, "1 0 0 0\n") == "A w != 0"
    assert "exceeds" in checks.witness_problem(rows, "2 -2 0 0\n")
    assert checks.witness_problem(rows, "1 -1\n") is not None
    assert checks.witness_problem(rows, "") is not None


def test_det_and_iroot():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        leibniz = sum(_sign(perm) * math.prod(m[i][perm[i]] for i in range(n))
                      for perm in itertools.permutations(range(n)))
        assert checks.det(m) == leibniz
    for n in range(200):
        for k in (1, 2, 3, 6):
            r = checks.iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def _sign(perm) -> int:
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def test_output_that_changes_between_passes_is_rejected():
    op = workloads.Op("siegel 2x4", ["siegel"], ["w"], [[1, 1, 0, 0], [0, 0, 1, 1]])
    tally = run.Tally()
    ref = run.check(op, 0, None, ["1 -1 0 0\n"], None, tally)
    run.check(op, 0, None, ["0 0 1 -1\n"], ref, tally)
    assert tally.attempted == 2 and tally.failed == 1
    assert "differs" in tally.rejected[0]


def test_identities_fail_record_is_rejected():
    op = workloads.Op("identities p=5", ["identities"], ["r.json"])
    report = json.dumps({"records": [{"status": "pass"}, {"status": "fail"}]})
    tally = run.Tally()
    run.check(op, 1, None, [report], None, tally)
    assert tally.records == {"pass": 1, "fail": 1, "waived": 0}
    assert tally.failed == 1


def test_tracer_covers_names_bound_by_import_and_restores_them():
    run.load_cli()
    from cyclonorm import cyclotomic, group_ring, linalg, semilocal
    original = group_ring.is_prime
    with tracing.Tracer() as tracer:
        assert cyclotomic.is_prime is semilocal.is_prime is group_ring.is_prime
        assert group_ring.is_prime is not original
        x = cyclotomic.CycloInt.zeta_power(5, 1)
        x * x
        short = list(linalg.enumerate_short_vectors([[1, 0], [0, 1]], 1))
    assert group_ring.is_prime is original and cyclotomic.is_prime is original
    spans = tracer.spans
    assert spans["group_ring.is_prime"].calls > 0
    assert spans["cyclotomic.CycloInt.mul"].calls == 1
    assert spans["linalg.enumerate_short_vectors"].calls == 1
    assert spans["linalg.enumerate_short_vectors"].nodes == len(short) > 0


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "siegel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_interleave_spreads_each_class_over_the_pass():
    order = workloads.interleave((("a",) * 4, ("b",) * 2, ("c",)))
    assert order == ["a", "b", "a", "c", "a", "b", "a"]
    cells = workloads.interleave(workloads.SIEGEL_CLASSES)
    scans = [i for i, cell in enumerate(cells) if cell == (1, 8, 1)]
    assert len(scans) == 12 and scans[0] < 5 and scans[-1] > 44


def test_percentile_ranks_of_the_workloads():
    # identities: 4 timed passes of 7 ops, so the tail rises above the median
    assert run.timed_passes("identities", 20) == 4 and run.timed_passes("siegel", 20) == 2
    assert run.tail_q(28) == 18 / 28


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_q(38) == 28 / 38
    assert run.tail_q(14) == 0.5
    assert run.tail_q(200) == 0.9


def test_quantile_is_a_smooth_weighted_mean_of_the_order_statistics():
    xs = [float(i) for i in range(101)]
    assert run.quantile(xs, 0.5) == pytest.approx(50.0)
    assert run.quantile(xs, 0.9) == pytest.approx(90.0, abs=0.5)
    assert run.quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    # half the samples twice as slow as the rest: when one sample changes side
    # of the median, the middle order statistic jumps from 1 to 2, but the
    # estimate moves by a small step
    fast, slow = [1.0] * 50, [2.0] * 50
    lower = run.quantile(fast + [1.0] + slow, 0.5)
    upper = run.quantile(fast + [2.0] + slow, 0.5)
    assert 1.4 < lower < upper < 1.6
