"""Suite runner: produces the Figure 10 / 11 / 12 data.

* Figure 10 — speedup of TraceMonkey (our :class:`TracingVM`), SFX
  (:class:`ThreadedVM`) and V8 (:class:`MethodJITVM`) over the baseline
  interpreter, per benchmark.
* Figure 11 — fraction of dynamic bytecodes executed by the interpreter,
  on native traces, and while recording.
* Figure 12 — fraction of (simulated) time spent in each VM activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.baselines.method_jit import MethodJITVM
from repro.suite.programs import PROGRAMS, BenchmarkProgram
from repro.vm import BaselineVM, ThreadedVM, TracingVM, VMConfig


@dataclass
class SuiteResult:
    """One program run on one VM."""

    program: str
    vm_name: str
    result_repr: str
    cycles: int
    stats: object

    @property
    def profile(self):
        return self.stats.profile


#: Engine name -> VM class: the one table the CLI, the suite runner
#: and the batch supervisor all resolve ``--engine`` names through.
ENGINES = {
    "baseline": BaselineVM,
    "threaded": ThreadedVM,
    "methodjit": MethodJITVM,
    "tracing": TracingVM,
}


def run_program(
    program: BenchmarkProgram,
    engine: str = "tracing",
    config: Optional[VMConfig] = None,
    profile: bool = True,
) -> SuiteResult:
    """Run one suite program on one engine; returns its result + stats.

    Tracing runs carry a phase profiler by default (``profile=True``):
    it adds no simulated cycles, and the Figure 12 table is derived
    from its phase timeline rather than from raw ledger counters.
    """
    vm_class = ENGINES[engine]
    vm = vm_class(config) if config is not None else vm_class()
    if profile and engine == "tracing":
        vm.enable_profiling()
    result = vm.run(program.source, name=program.name)
    return SuiteResult(
        program=program.name,
        vm_name=engine,
        result_repr=repr(result),
        cycles=vm.stats.total_cycles,
        stats=vm.stats,
    )


def run_suite(
    engines=("baseline", "threaded", "methodjit", "tracing"),
    programs: Optional[List[BenchmarkProgram]] = None,
) -> Dict[str, Dict[str, SuiteResult]]:
    """Run every program on every engine.

    Returns ``{program name: {engine: SuiteResult}}``.
    """
    table: Dict[str, Dict[str, SuiteResult]] = {}
    for program in programs or PROGRAMS:
        row: Dict[str, SuiteResult] = {}
        for engine in engines:
            row[engine] = run_program(program, engine)
        table[program.name] = row
    return table


def figure10_table(results=None) -> List[dict]:
    """Speedup over the baseline interpreter, per program (Figure 10)."""
    results = results or run_suite()
    rows = []
    for program in PROGRAMS:
        row = results.get(program.name)
        if row is None:
            continue
        base = row["baseline"].cycles
        rows.append(
            {
                "program": program.name,
                "category": program.category,
                "tracing": base / row["tracing"].cycles,
                "threaded": base / row["threaded"].cycles,
                "methodjit": base / row["methodjit"].cycles,
                "expected_traceable": program.expected_traceable,
            }
        )
    return rows


def figure11_table(results=None) -> List[dict]:
    """Bytecode-execution-mode fractions for the tracing VM (Figure 11)."""
    results = results or run_suite(engines=("baseline", "tracing"))
    rows = []
    for program in PROGRAMS:
        row = results.get(program.name)
        if row is None:
            continue
        stats = row["tracing"].stats
        base = row.get("baseline")
        speedup = base.cycles / row["tracing"].cycles if base else float("nan")
        rows.append(
            {
                "program": program.name,
                "native": stats.profile.fraction_native(),
                "interpreted": stats.profile.fraction_interpreted(),
                "recorded": stats.profile.fraction_recorded(),
                "speedup": speedup,
            }
        )
    return rows


def figure12_table(results=None) -> List[dict]:
    """Per-activity time fractions for the tracing VM (Figure 12).

    The fractions come from each run's phase profiler when one is
    attached (the default for suite runs); ``source`` records which
    data source produced each row.
    """
    results = results or run_suite(engines=("tracing",))
    rows = []
    for program in PROGRAMS:
        row = results.get(program.name)
        if row is None:
            continue
        stats = row["tracing"].stats
        entry = {"program": program.name}
        entry.update(stats.time_breakdown())
        profiler = stats.profiler
        entry["source"] = (
            "profiler" if profiler is not None and profiler.total_cycles else "ledger"
        )
        rows.append(entry)
    return rows


def format_figure10(rows) -> str:
    lines = [
        f"{'benchmark':26s} {'TraceMonkey':>12s} {'SFX-like':>10s} {'V8-like':>10s}",
        "-" * 62,
    ]
    for row in rows:
        lines.append(
            f"{row['program']:26s} {row['tracing']:11.2f}x {row['threaded']:9.2f}x "
            f"{row['methodjit']:9.2f}x"
        )
    return "\n".join(lines)


def format_figure11(rows) -> str:
    lines = [
        f"{'benchmark':26s} {'native':>8s} {'interp':>8s} {'record':>8s} {'speedup':>9s}",
        "-" * 64,
    ]
    for row in rows:
        lines.append(
            f"{row['program']:26s} {row['native']:7.1%} {row['interpreted']:7.1%} "
            f"{row['recorded']:7.1%} {row['speedup']:8.2f}x"
        )
    return "\n".join(lines)


def format_figure12(rows) -> str:
    lines = [
        f"{'benchmark':26s} {'native':>8s} {'interp':>8s} {'monitor':>8s} "
        f"{'record':>8s} {'compile':>8s}",
        "-" * 72,
    ]
    for row in rows:
        lines.append(
            f"{row['program']:26s} {row['native']:7.1%} {row['interpret']:7.1%} "
            f"{row['monitor']:7.1%} {row['record']:7.1%} {row['compile']:7.1%}"
        )
    sources = {row.get("source", "ledger") for row in rows}
    lines.append("")
    lines.append(f"(fractions derived from: {', '.join(sorted(sources))})")
    return "\n".join(lines)
