#!/usr/bin/env python
"""Compare all four engines on the benchmark suite (Figure 10 preview).

Runs every suite program on the baseline interpreter, the call-threaded
interpreter (SFX-like), the method JIT (V8-like), and the tracing VM
(TraceMonkey), and prints the speedups over the baseline.

Usage: python examples/compare_vms.py [program-name ...]
"""

import sys

from repro.suite import PROGRAMS
from repro.suite.runner import figure10_table, format_figure10, run_suite


def main() -> None:
    names = set(sys.argv[1:])
    programs = [p for p in PROGRAMS if not names or p.name in names]
    results = run_suite(programs=programs)
    rows = [row for row in figure10_table(results) if not names or row["program"] in names]
    print(format_figure10(rows))
    print()
    fastest = max(rows, key=lambda row: row["tracing"])
    print(
        f"tracing is fastest on {sum(1 for r in rows if r['tracing'] >= max(r['threaded'], r['methodjit']))} "
        f"of {len(rows)} benchmarks; best tracing speedup: "
        f"{fastest['tracing']:.1f}x on {fastest['program']}"
    )


if __name__ == "__main__":
    main()
