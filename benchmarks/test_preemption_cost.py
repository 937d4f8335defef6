"""Section 6.4: "We measured less than a 1% increase in runtime on most
benchmarks for this extra guard. In practice, the cost is detectable only
for programs with very short loops."

The guard is one flag load and one branch per native loop edge.  Both
halves of the claim are measured over the benchmark suite, as the paper
measured them.  Only the second half reproduces: the suite's loop bodies
are short against the guard's 4 simulated cycles, so the guard costs
under 1% on a minority of the programs.  The table reports that rather
than asserting it.
"""

from conftest import write_result

from repro import costs
from repro.costs import Activity
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM

#: Simulated cycles of the guard at one native loop edge.
GUARD_CYCLES = costs.NATIVE_LOAD + costs.NATIVE_GUARD

#: The paper's "less than a 1% increase".
UNDETECTABLE = 0.01


def guard_cost(stats):
    """``(guard cycles, total cycles, native cycles per loop iteration)``."""
    iterations = stats.tracing.loop_iterations_native
    native = stats.ledger.by_activity[Activity.NATIVE]
    per_iteration = native / iterations if iterations else None
    return iterations * GUARD_CYCLES, stats.total_cycles, per_iteration


def measure(source):
    vm = TracingVM()
    vm.run(source)
    guard, total, _per_iteration = guard_cost(vm.stats)
    return total, guard, guard / total


LONG_BODY = (
    "var s = 0;"
    "for (var i = 0; i < 3000; i++) {"
    "  s += (i * 3 + (i & 7)) % 1001 + Math.floor(i / 3);"
    "}"
    "s;"
)

SHORT_BODY = "var s = 0; for (var i = 0; i < 3000; i++) s++; s;"


def suite_guard_costs(suite_results):
    """One row per suite program, the costliest guard share first."""
    rows = []
    for program in PROGRAMS:
        guard, total, per_iteration = guard_cost(
            suite_results[program.name]["tracing"].stats
        )
        rows.append(
            {
                "program": program.name,
                "guard": guard,
                "total": total,
                "share": guard / total,
                "per_iteration": per_iteration,
            }
        )
    rows.sort(key=lambda row: (-row["share"], row["program"]))
    return rows


def test_preemption_guard_cost(benchmark, suite_results):
    (long_total, long_guard, long_frac), (short_total, short_guard, short_frac) = (
        benchmark.pedantic(
            lambda: (measure(LONG_BODY), measure(SHORT_BODY)), rounds=1, iterations=1
        )
    )
    rows = suite_guard_costs(suite_results)
    undetectable = [row for row in rows if row["share"] < UNDETECTABLE]

    lines = [
        "Preemption guard cost (Section 6.4)",
        f"  long-body loop : {long_guard:,} of {long_total:,} cycles "
        f"({long_frac:.2%})",
        f"  short-body loop: {short_guard:,} of {short_total:,} cycles "
        f"({short_frac:.2%})",
        "",
        f"  {'program':<26} {'guard':>8} {'of cycles':>11} {'share':>7} "
        f"{'native cycles/iter':>19}",
    ]
    for row in rows:
        per_iteration = row["per_iteration"]
        length = "-" if per_iteration is None else f"{per_iteration:.1f}"
        lines.append(
            f"  {row['program']:<26} {row['guard']:>8,} {row['total']:>11,} "
            f"{row['share']:>7.2%} {length:>19}"
        )
    lines.append(
        f"  under 1% on {len(undetectable)} of {len(rows)} programs "
        f"({sum(row['guard'] == 0 for row in rows)} of them run no native "
        "loop): \"most benchmarks\" is not reproduced"
    )
    write_result("preemption_cost.txt", "\n".join(lines))

    # "the cost is detectable only for programs with very short loops":
    # the short-body loop pays a larger share than the long-body one ...
    assert short_frac > long_frac
    # ... and across the suite every program where the guard costs 1% or
    # more runs shorter native loop iterations than every program with
    # native loops where it costs less.
    detectable = [row for row in rows if row["share"] >= UNDETECTABLE]
    quiet = [row for row in undetectable if row["per_iteration"] is not None]
    assert detectable and quiet
    assert max(row["per_iteration"] for row in detectable) < min(
        row["per_iteration"] for row in quiet
    )

    benchmark.extra_info["long_frac"] = round(long_frac, 4)
    benchmark.extra_info["short_frac"] = round(short_frac, 4)
    benchmark.extra_info["suite_under_1pct"] = len(undetectable)


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
