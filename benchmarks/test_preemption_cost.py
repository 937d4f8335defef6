"""Section 6.4: the preemption guard at every loop edge costs < 1% on
most programs and is only detectable for very short loops."""

from conftest import write_result

from repro import costs
from repro.vm import TracingVM


def measure(source):
    vm = TracingVM()
    vm.run(source)
    total = vm.stats.total_cycles
    iterations = vm.stats.tracing.loop_iterations_native
    # The guard is one flag load + one branch per loop edge.
    guard_cycles = iterations * (costs.NATIVE_LOAD + costs.NATIVE_GUARD)
    return total, guard_cycles, guard_cycles / total


LONG_BODY = (
    "var s = 0;"
    "for (var i = 0; i < 3000; i++) {"
    "  s += (i * 3 + (i & 7)) % 1001 + Math.floor(i / 3);"
    "}"
    "s;"
)

SHORT_BODY = "var s = 0; for (var i = 0; i < 3000; i++) s++; s;"


def test_preemption_guard_cost(benchmark):
    (long_total, long_guard, long_frac), (short_total, short_guard, short_frac) = (
        benchmark.pedantic(
            lambda: (measure(LONG_BODY), measure(SHORT_BODY)), rounds=1, iterations=1
        )
    )

    lines = [
        "Preemption guard cost (Section 6.4)",
        f"  long-body loop : {long_guard:,} of {long_total:,} cycles "
        f"({long_frac:.2%})",
        f"  short-body loop: {short_guard:,} of {short_total:,} cycles "
        f"({short_frac:.2%})",
    ]
    write_result("preemption_cost.txt", "\n".join(lines))

    # "We measured less than a 1% increase in runtime on most benchmarks"
    assert long_frac < 0.02
    # "the cost is detectable only for programs with very short loops"
    assert short_frac > long_frac

    benchmark.extra_info["long_frac"] = round(long_frac, 4)
    benchmark.extra_info["short_frac"] = round(short_frac, 4)


def test_preemption_actually_interrupts_native_loops(benchmark):
    def run():
        vm = TracingVM()
        vm.run("var s = 0; for (var w = 0; w < 50; w++) s += w;")
        vm.request_preemption()
        vm.run("var t = 0; for (var i = 0; i < 200; i++) t += i;")
        return vm

    vm = benchmark.pedantic(run, rounds=1, iterations=1)
    assert vm.preemptions_serviced == 1
    assert not vm.preempt_flag
