#!/usr/bin/env python3
"""Run the exact identity suite over the default primes and store reports.

Prints one line per prime with its record counts, wall time and the
SHA-256 of the report JSON (the bytes written to identities_p<p>.json);
p = 101 takes about 5-6 s on a shared 2-vCPU host (Python 3.11).

Usage: python scripts/run_identity_suite.py [outdir]
"""

import hashlib
import pathlib
import sys
import time

from cyclonorm.harness import RunConfig, cmd_identities, write_report

PRIMES = [5, 7, 11, 13, 37, 61, 101]


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "reports")
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for p in PRIMES:
        start = time.perf_counter()
        report = cmd_identities(RunConfig("identities", p=p))
        seconds = time.perf_counter() - start
        base = outdir / f"identities_p{p}"
        write_report(report, str(base))
        c = report.counts
        digest = hashlib.sha256(report.to_json().encode("ascii")).hexdigest()
        print(f"p = {p:3d}: pass={c['pass']:3d} fail={c['fail']} waived={c['waived']}"
              f"  {seconds:7.2f} s  sha256={digest}  -> {base}.json", flush=True)
        worst = max(worst, c["fail"])
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
