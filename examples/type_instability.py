#!/usr/bin/env python
"""Type-unstable loops and the oracle (paper Section 3.2).

``x`` is an int at every loop header but a double halfway through each
iteration: the first recorded trace is inherently type-unstable (it
enters with an int and closes with a double).  With the oracle enabled, the mis-speculation is
noted and the immediately re-recorded trace imports ``x`` as a double,
forming a stable loop; the first trace's type-unstable exit then links
straight into it (Figure 6) instead of returning to the monitor.  With
the oracle disabled, the VM keeps re-recording unstable traces until it
runs out of peers.

Usage: python examples/type_instability.py
"""

from repro import BaselineVM, TracingVM, VMConfig

SOURCE = """
var x = 0;
var steps = 0;
for (var i = 0; i < 3000; i++) {
    x += 0.5;
    x += 0.5;
    steps++;
}
x * 100000 + steps;
"""


def run(config: VMConfig, label: str, baseline_cycles: int) -> None:
    vm = TracingVM(config)
    result = vm.run(SOURCE)
    tracing = vm.stats.tracing
    print(f"--- {label} ---")
    print(f"  result            : {result.payload}")
    print(f"  speedup           : {baseline_cycles / vm.stats.total_cycles:.2f}x")
    print(f"  trees formed      : {tracing.trees_formed} "
          f"({tracing.unstable_traces} type-unstable)")
    print(f"  oracle marks      : {tracing.oracle_marks}")
    print(f"  peer links        : {tracing.unstable_links}")
    print(f"  bytecodes on trace: {vm.stats.profile.fraction_native():.1%}")
    print()


def main() -> None:
    baseline = BaselineVM()
    baseline.run(SOURCE)
    base_cycles = baseline.stats.total_cycles
    print(f"baseline interpreter: {base_cycles:,} cycles\n")
    run(VMConfig(enable_oracle=True), "oracle enabled (the paper's design)", base_cycles)
    run(VMConfig(enable_oracle=False), "oracle disabled", base_cycles)


if __name__ == "__main__":
    main()
