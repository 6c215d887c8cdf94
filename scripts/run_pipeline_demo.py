#!/usr/bin/env python3
"""End-to-end pipeline demos.

A true solution at p = 3 exercises the characteristic-ideal and canonical
generator checks; a pseudo-solution at p = 5 drives the full semilocal
chain (series, digits, perturbation, twist selection, bound clash), with
size waivers printed for every stage the headline inequalities gate.  The
run at p = 31, y = 67 is the by-hand timing check for the series tables
at large p: it should finish in a few seconds.  Each run prints its wall
time.
"""

import sys
import time

from cyclonorm.harness import RunConfig, cmd_pipeline


def main() -> int:
    failures = 0
    for cfg in [
        RunConfig("pipeline", p=3, x=19, y=18),
        RunConfig("pipeline", p=3, x=2, y=1),
        RunConfig("pipeline", p=5, x=3, y=22, precision=6),
        RunConfig("pipeline", p=31, x=2, y=67),
    ]:
        start = time.perf_counter()
        report = cmd_pipeline(cfg)
        seconds = time.perf_counter() - start
        print(f"--- p={cfg.p}, x={cfg.x}, y={cfg.y}: {seconds:.2f} s ---")
        for rec in report.records:
            mark = {"pass": "ok ", "fail": "FAIL", "waived": "wvd"}[rec.status]
            note = f"  [{rec.note}]" if rec.note else ""
            print(f"  {mark} {rec.name}{note}")
        failures += report.counts["fail"]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
