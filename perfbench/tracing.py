"""Outside-in tracing of cyclonorm's layers.

The tracer wraps named functions and methods of the package from outside it:
every module namespace that binds a function gets the wrapper (`harness`
imports `trace_coordinate_residues` by name, `cyclotomic` and `semilocal`
import `is_prime`), methods are replaced on their classes, and a generator is
timed on each resumption, not only when it is created.  Nothing under `src/`
is edited, and `uninstall` restores every binding.

Each span keeps calls, self time (its duration minus the spans it contains)
and total time (counted for the outermost active call only, so recursion and
nesting within one span do not count twice).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

PACKAGE = "cyclonorm"

# span key -> (fields it reports, [(module, attribute path)]); several targets
# may share one span.  Each field is the per-layer metric "<span key>.<field>",
# except the one renamed in RENAMED.
SPANS: Dict[str, Tuple[Tuple[str, ...], List[Tuple[str, str]]]] = {
    "cyclotomic.CycloInt.mul": (("calls", "self_s"), [("cyclotomic", "CycloInt.__mul__")]),
    "cyclotomic.CycloInt.trace": (("self_s",), [("cyclotomic", "CycloInt.trace")]),
    "cyclotomic.CycloIdeal.mul": (("calls", "total_s"), [("cyclotomic", "CycloIdeal.__mul__")]),
    "cyclotomic.CycloIdeal.from_generators":
        (("total_s",), [("cyclotomic", "CycloIdeal.from_generators")]),
    "cyclotomic.trace_coordinate_residues":
        (("self_s",), [("cyclotomic", "trace_coordinate_residues")]),
    "cyclotomic.embedding_abs": (("self_s",), [("cyclotomic", "embedding_abs")]),
    "group_ring.GroupRingElement.mul":
        (("calls", "self_s"), [("group_ring", "GroupRingElement.__mul__")]),
    "group_ring.is_prime": (("calls",), [("group_ring", "is_prime")]),
    "stickelberger.bernoulli_profile": (("total_s",), [("stickelberger", "bernoulli_profile")]),
    "stickelberger.construct_weight2_annihilator":
        (("total_s",), [("stickelberger", "construct_weight2_annihilator")]),
    "linalg.hermite_normal_form":
        (("calls", "rows_in", "self_s"), [("linalg", "hermite_normal_form")]),
    "linalg.lll_reduce": (("calls", "self_s"), [("linalg", "lll_reduce")]),
    "linalg.enumerate_short_vectors":
        (("nodes", "self_s"), [("linalg", "enumerate_short_vectors")]),
    "linalg.integer_kernel": (("self_s",), [("linalg", "integer_kernel")]),
    "lattice.siegel_solve": (("calls", "self_s"), [("lattice", "siegel_solve")]),
    "lattice.perturb_for_independence": (("total_s",), [("lattice", "perturb_for_independence")]),
    "lattice.inhomogeneous_select": (("total_s",), [("lattice", "inhomogeneous_select")]),
    "series.binom_coeffs": (("calls", "total_s"), [("series", "binom_coeffs")]),
    "series.normalized_coeffs": (("self_s",), [("series", "normalized_coeffs")]),
    "series.pth_power_check": (("total_s",), [("series", "pth_power_check")]),
    "series.sl_eval": (("total_s",), [("series", "sl_eval")]),
    "series.double_table": (("total_s",), [("series", "double_table")]),
    "semilocal.SemilocalElement.mul":
        (("calls", "self_s"), [("semilocal", "SemilocalElement.__mul__")]),
    "semilocal.synthetic_root_of_unity":
        (("total_s",), [("semilocal", "synthetic_root_of_unity")]),
    "semilocal.factor_phi": (("total_s",), [("semilocal", "factor_phi")]),
    "harness.cmd": (("self_s",), [("harness", "cmd_identities"), ("harness", "cmd_pipeline")]),
    "harness.report_io":
        (("total_s",), [("harness", "Report.to_json"), ("harness", "Report.to_tsv"),
                        ("harness", "write_report")]),
}
RENAMED = {"harness.report_io.total_s": "harness.report_io_s"}

# per-layer metric name -> (span key, field)
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    RENAMED.get(f"{key}.{field}", f"{key}.{field}"): (key, field)
    for key, (fields, _) in SPANS.items() for field in fields
}

# Spans each workload must reach; a traced run that records zero calls on one
# of them has lost a binding and fails.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "identities": (
        "cyclotomic.CycloInt.mul", "cyclotomic.CycloInt.trace", "cyclotomic.CycloIdeal.mul",
        "cyclotomic.CycloIdeal.from_generators", "cyclotomic.trace_coordinate_residues",
        "cyclotomic.embedding_abs", "group_ring.GroupRingElement.mul", "group_ring.is_prime",
        "stickelberger.bernoulli_profile", "stickelberger.construct_weight2_annihilator",
        "linalg.hermite_normal_form", "series.binom_coeffs", "series.normalized_coeffs",
        "series.pth_power_check", "series.sl_eval", "harness.cmd", "harness.report_io",
    ),
    "pipeline": (
        "cyclotomic.CycloInt.mul", "group_ring.GroupRingElement.mul", "group_ring.is_prime",
        "stickelberger.construct_weight2_annihilator", "linalg.lll_reduce",
        "linalg.enumerate_short_vectors", "linalg.integer_kernel", "lattice.siegel_solve",
        "lattice.perturb_for_independence", "lattice.inhomogeneous_select",
        "series.binom_coeffs", "series.normalized_coeffs", "series.pth_power_check",
        "series.sl_eval", "series.double_table", "semilocal.SemilocalElement.mul",
        "semilocal.synthetic_root_of_unity", "semilocal.factor_phi", "harness.cmd",
        "harness.report_io",
    ),
    "siegel": (
        "linalg.lll_reduce", "linalg.enumerate_short_vectors", "linalg.integer_kernel",
        "lattice.siegel_solve",
    ),
}


class Span:
    __slots__ = ("calls", "self_s", "total_s", "rows_in", "nodes", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.rows_in = 0
        self.nodes = 0
        self.depth = 0


class Tracer:
    """Install with `with Tracer() as t:`; read `t.spans` afterwards."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {key: Span() for key in SPANS}
        self._stack: List[list] = []          # [span, start, child time]
        self._restore: List[Tuple[object, str, object]] = []

    # -- span accounting ---------------------------------------------------------------

    def _enter(self, span: Span) -> None:
        span.depth += 1
        self._stack.append([span, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        span, start, child = self._stack.pop()
        dt = time.perf_counter() - start
        span.self_s += dt - child
        span.depth -= 1
        if span.depth == 0:
            span.total_s += dt
        if self._stack:
            self._stack[-1][2] += dt

    # -- wrappers ----------------------------------------------------------------------

    def _wrap(self, fn: Callable, span: Span, key: str) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, span)
        counts_rows = key == "linalg.hermite_normal_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            if counts_rows:
                span.rows_in += len(args[0] if args else kwargs["rows"])
            self._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _wrap_generator(self, fn: Callable, span: Span) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            return tracer._resumptions(fn(*args, **kwargs), span)
        return wrapper

    def _resumptions(self, gen, span: Span):
        try:
            while True:
                self._enter(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                span.nodes += 1
                yield item
        finally:
            gen.close()

    # -- installation ------------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        modules = self._modules()
        for key, (_, targets) in SPANS.items():
            span = self.spans[key]
            for module_name, path in targets:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in path:
                    self._wrap_method(module, path, span, key)
                else:
                    self._wrap_function(modules, module, path, span, key)
        return self

    def _wrap_function(self, modules, module, name: str, span: Span, key: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, span, key)
        bound = 0
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{module.__name__}.{name} is bound nowhere")

    def _wrap_method(self, module, path: str, span: Span, key: str) -> None:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span, key))
        else:
            wrapped = self._wrap(raw, span, key)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        return {name: getattr(self.spans[key], field)
                for name, (key, field) in LAYER_METRICS.items()}

    def unreached(self, workload: str) -> List[str]:
        return [key for key in EXPECTED[workload] if self.spans[key].calls == 0]

