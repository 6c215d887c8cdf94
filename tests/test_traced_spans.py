"""The benchmark's traced run (`perfbench/run.py --trace 1`) fails when a
span it expects records no call.  One identities op and one pipeline op
reach every span of those two workloads; a change that stops calling one
shows here, before the benchmark runs.  The tracer is loaded read-only from
`perfbench/tracing.py`."""

import importlib.util
import pathlib

import pytest

from cyclonorm import cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the pipeline op is the (7, 3, 26) pin: a 6-dimensional box too large to
# scan, so the twist stage reaches LLL and enumeration
@pytest.mark.parametrize("workload,argv", [
    ("identities", ["identities", "--p", "5"]),
    ("pipeline", ["pipeline", "--p", "7", "--x", "3", "--y", "26"]),
])
def test_traced_op_reaches_every_expected_span(tmp_path, capsys, workload, argv):
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        cli.main(argv + ["--out", str(tmp_path / workload)])
    assert tracer.unreached(workload) == []
    assert tracer.spans["series.sl_eval"].calls > 0
