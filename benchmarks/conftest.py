"""Shared fixtures for the benchmark harness.

The full four-engine suite sweep is expensive, so it runs once per
pytest session and is shared by the Figure 10/11/12 benchmarks.  Every
benchmark also writes its table to ``benchmarks/results/`` so
EXPERIMENTS.md can be regenerated from the recorded artifacts.
"""

from __future__ import annotations

import math
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Below this many native-phase wall seconds a measurement is timer
#: noise; :func:`backend_ratio` falls back to the total-wall ratio.
WALLCLOCK_EPSILON = 0.0005


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)


def measure_wallclock(source: str, backend: str, runs: int = 3,
                      name: str = "<bench>") -> dict:
    """Time one program on one trace-execution backend, best-of-``runs``.

    The shared timing loop for every wall-clock benchmark: a fresh
    TracingVM per run (cold caches each time, so backends see identical
    work), the phase profiler supplying the NATIVE-phase wall time
    (trace execution only), and the total wall as the fallback measure
    for programs that never stay on trace.
    """
    from repro.obs.profiler import PHASE_NATIVE
    from repro.vm import TracingVM, VMConfig

    samples = []
    result = None
    cycles = None
    compile_wall = 0.0
    for _ in range(runs):
        config = VMConfig()
        config.native_backend = backend
        vm = TracingVM(config)
        vm.enable_profiling()
        started = time.perf_counter()
        result = vm.run(source, name=name)
        total_wall = time.perf_counter() - started
        samples.append(
            {
                "native_wall_seconds": vm.profiler.phase_wall[PHASE_NATIVE],
                "total_wall_seconds": total_wall,
            }
        )
        cycles = vm.stats.total_cycles
        compile_wall = vm.profiler.pycompile_wall
        tracing = vm.stats.tracing
        transitions = {
            "direct_transfers": tracing.direct_transfers,
            "monitor_stitched": tracing.driver_transfers,
            "exit_surfacings": tracing.side_exits_taken,
        }
    return {
        "backend": backend,
        "runs": samples,
        "best_native_wall_seconds": min(
            run["native_wall_seconds"] for run in samples
        ),
        "best_total_wall_seconds": min(
            run["total_wall_seconds"] for run in samples
        ),
        "compile_wall_seconds": compile_wall,
        "simulated_cycles": cycles,
        "transitions": transitions,
        "result": repr(result),
    }


def backend_ratio(step: dict, py: dict,
                  epsilon: float = WALLCLOCK_EPSILON) -> tuple:
    """``(ratio, basis)`` of step-vs-py wall time for one program.

    Native-phase wall when both backends spent measurable time on
    traces; otherwise (untraceable or trace-starved programs) the
    total-wall ratio, which hovers near 1.0 because both backends
    interpret the same way.  Every program gets a numeric ratio, so
    the suite geomean is over the whole suite, not a traceable subset.
    """
    step_native = step["best_native_wall_seconds"]
    py_native = py["best_native_wall_seconds"]
    if step_native >= epsilon and py_native >= epsilon:
        return step_native / py_native, "native-phase-wall"
    return (
        step["best_total_wall_seconds"] / py["best_total_wall_seconds"],
        "total-wall",
    )


def geomean(values) -> float:
    values = list(values)
    assert values and all(value > 0 for value in values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


@pytest.fixture(scope="session")
def suite_results():
    """{program: {engine: SuiteResult}} for all engines, computed once."""
    from repro.suite.runner import run_suite

    return run_suite()
