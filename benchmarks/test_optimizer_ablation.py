"""Whole-trace optimizer ablation: what each compile-time pass buys.

Runs the full benchmark suite with each optimizer pass disabled in
turn and reports suite-geomean simulated cycles plus the per-pass
removal counters (instructions CSE'd, guards eliminated, ops hoisted).
The gating assertion — full optimization must beat all-passes-off on
the suite geomean — is what the CI ``optimizer-ablation`` job enforces.
"""

import math

from conftest import write_result

from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM, VMConfig

CONFIGS = [
    ("full opt", VMConfig()),
    ("no hoisting", VMConfig(enable_hoisting=False)),
    ("no tree CSE", VMConfig(enable_tree_cse=False)),
    ("passes off", VMConfig(enable_tree_cse=False, enable_hoisting=False)),
]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_all():
    rows = []
    results = {}
    for label, config in CONFIGS:
        cycles = []
        cse = guards = hoisted = 0
        for program in PROGRAMS:
            vm = TracingVM(config)
            result = vm.run(program.source, name=program.name)
            results.setdefault(program.name, {})[label] = repr(result)
            cycles.append(vm.stats.total_cycles)
            tracing = vm.stats.tracing
            cse += tracing.opt_cse_removed
            guards += tracing.opt_guards_eliminated
            hoisted += tracing.opt_hoisted
        rows.append(
            {
                "label": label,
                "geomean": geomean(cycles),
                "cse": cse,
                "guards": guards,
                "hoisted": hoisted,
            }
        )
    # Every configuration must compute identical results.
    for program, by_label in results.items():
        assert len(set(by_label.values())) == 1, (program, by_label)
    return rows


def test_optimizer_ablation(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    off = next(row for row in rows if row["label"] == "passes off")
    lines = [
        "whole-trace optimizer ablation (suite geomean, simulated cycles)",
        f"{'config':>12} {'geomean':>14} {'vs off':>8} {'CSE':>6} "
        f"{'guards':>7} {'hoisted':>8}",
        "-" * 60,
    ]
    for row in rows:
        lines.append(
            f"{row['label']:>12} {row['geomean']:14,.0f} "
            f"{off['geomean'] / row['geomean']:7.3f}x {row['cse']:6d} "
            f"{row['guards']:7d} {row['hoisted']:8d}"
        )
    write_result("optimizer_ablation.txt", "\n".join(lines))

    by_label = {row["label"]: row for row in rows}
    full = by_label["full opt"]

    # The CI gate: full optimization must not regress the suite.
    assert full["geomean"] < off["geomean"], (
        f"full opt regressed: {full['geomean']:,.0f} >= {off['geomean']:,.0f}"
    )

    # The passes actually fire on the suite.
    assert full["hoisted"] > 0
    assert by_label["no hoisting"]["hoisted"] == 0
    assert by_label["no tree CSE"]["cse"] == 0
    assert off["cse"] == off["guards"] == off["hoisted"] == 0

    # Disabling a pass never improves the geomean (each pays its way
    # or is free on this suite).
    for label in ("no hoisting", "no tree CSE", "passes off"):
        assert by_label[label]["geomean"] >= full["geomean"] * 0.999, label
