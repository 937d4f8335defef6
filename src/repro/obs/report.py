"""Human-readable profile reports: phase breakdown, hot loops, deopt sites.

Renders the data collected by :class:`repro.obs.profiler.PhaseProfiler`
(and, for the transition and optimizer totals, the VM's stats) into the
tables the paper's evaluation leans on:

* the **phase breakdown** is Figure 12 for one program (cycle fraction
  per VM phase, guaranteed to sum to 1);
* the **hot loop table** names each compiled trace tree by source line
  with its entry counts, native iterations, and cycles-on-trace;
* the **top deopt sites** table is the TraceVis-style hot-exit listing:
  the guards that most often threw execution back to the monitor, with
  their source lines, so type-instability and shape pathologies can be
  read straight off the report.
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.profiler import PHASES, PhaseProfiler


def phase_breakdown_lines(profiler: PhaseProfiler) -> List[str]:
    total = profiler.total_cycles
    fractions = profiler.phase_fractions()
    lines = [
        "phase breakdown (simulated cycles)",
        f"{'phase':<18} {'cycles':>14} {'frac':>7} {'wall ms':>9} {'enters':>8}",
        "-" * 60,
    ]
    for phase in PHASES:
        lines.append(
            f"{phase:<18} {profiler.phase_cycles[phase]:>14,} "
            f"{fractions[phase]:>6.1%} "
            f"{profiler.phase_wall[phase] * 1000:>9.2f} "
            f"{profiler.phase_enters[phase]:>8,}"
        )
    lines.append("-" * 60)
    lines.append(
        f"{'total':<18} {total:>14,} {sum(fractions.values()):>6.1%} "
        f"{profiler.total_wall * 1000:>9.2f}"
    )
    return lines


def hot_loops_lines(profiler: PhaseProfiler, limit: int = 20) -> List[str]:
    loops = sorted(profiler.loops, key=lambda loop: -loop.cycles)
    lines = [
        "hot loops (per-fragment profiles)",
        f"{'loop':<28} {'line':>5} {'entries':>8} {'iters':>10} "
        f"{'cycles-on-trace':>16} {'branches':>8} {'exits':>6} "
        f"{'backend':>7} {'c-wall-ms':>9} {'us/iter':>8}",
        "-" * 115,
    ]
    if not loops:
        lines.append("(no traces were compiled)")
        return lines
    for loop in loops[:limit]:
        name = f"{loop.code_name}@{loop.header_pc}"
        if len(name) > 28:
            name = name[:25] + "..."
        wall_per_iter_us = (
            loop.wall / loop.iterations * 1e6 if loop.iterations else 0.0
        )
        lines.append(
            f"{name:<28} {loop.line:>5} {loop.entries:>8,} {loop.iterations:>10,} "
            f"{loop.cycles:>16,} {loop.branches:>8} {loop.total_exits:>6,} "
            f"{loop.backend or '-':>7} {loop.compile_wall * 1000:>9.3f} "
            f"{wall_per_iter_us:>8.2f}"
        )
    if len(loops) > limit:
        lines.append(f"(+{len(loops) - limit} more loops)")
    return lines


def deopt_sites_lines(profiler: PhaseProfiler, limit: int = 10) -> List[str]:
    # Normal loop completion and preemption service are exits but not
    # deoptimizations; listing them would drown the real offenders.
    ranked = [
        pair
        for pair in profiler.guards_ranked()
        if pair[1].exits > 0 and pair[1].kind not in ("loop", "preempt")
    ]
    lines = [
        "top deopt sites (hot side exits)",
        f"{'#':>2} {'guard':<26} {'kind':<10} {'exits':>7} {'stitched':>9} "
        f"{'loop':<22}",
        "-" * 82,
    ]
    if not ranked:
        lines.append("(no side exits were taken)")
        return lines
    for rank, (loop, guard) in enumerate(ranked[:limit], start=1):
        site = f"{guard.code_name}:{guard.line} pc={guard.pc}"
        if len(site) > 26:
            site = site[:23] + "..."
        anchor = f"{loop.code_name}:{loop.line}"
        lines.append(
            f"{rank:>2} {site:<26} {guard.kind:<10} {guard.exits:>7,} "
            f"{guard.stitched:>9,} {anchor:<22}"
        )
    if len(ranked) > limit:
        lines.append(f"(+{len(ranked) - limit} more deopt sites)")
    return lines


def profile_report(vm, limit_loops: int = 20, limit_deopts: int = 10) -> str:
    """The full ``--profile`` report for one VM run."""
    profiler = vm.profiler
    if profiler is None:
        return "(profiling was not enabled)"
    sections = [
        "\n".join(phase_breakdown_lines(profiler)),
        "\n".join(hot_loops_lines(profiler, limit_loops)),
        "\n".join(deopt_sites_lines(profiler, limit_deopts)),
    ]
    tracing = vm.stats.tracing
    if tracing.stitched_transfers or tracing.side_exits_taken:
        sections.append(
            f"trace transitions: {tracing.direct_transfers:,} direct "
            f"(into branches inlined at a trunk's build, as in a warm "
            f"start), {tracing.driver_transfers:,} stitched through the "
            f"driver, {tracing.side_exits_taken:,} exits surfaced to the "
            f"interpreter"
        )
    if profiler.lir_emitted:
        kept = profiler.lir_retained / profiler.lir_emitted
        sections.append(
            f"forward pipeline: {profiler.lir_emitted:,} LIR emitted, "
            f"{profiler.lir_retained:,} retained ({kept:.1%})"
        )
    if (
        tracing.opt_cse_removed
        or tracing.opt_guards_eliminated
        or tracing.opt_hoisted
    ):
        sections.append(
            f"trace optimizer: {tracing.opt_cse_removed:,} instructions CSE'd, "
            f"{tracing.opt_guards_eliminated:,} guards eliminated, "
            f"{tracing.opt_hoisted:,} ops hoisted"
        )
    return "\n\n".join(sections)


def profile_json(vm, program: str = None) -> str:
    """The profile document as a JSON string (``--profile-json``)."""
    profiler = vm.profiler
    if profiler is None:
        raise ValueError("profiling was not enabled on this VM")
    return json.dumps(profiler.to_dict(program=program), indent=2)


def write_profile_json(vm, path: str, program: str = None) -> None:
    with open(path, "w") as handle:
        handle.write(profile_json(vm, program=program))
        handle.write("\n")
