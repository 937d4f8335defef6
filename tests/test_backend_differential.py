"""Differential tests: the generated-Python backend vs the step interpreter.

The ``py`` backend compiles each fragment's ``NativeInsn`` sequence to a
real Python function; the ``step`` backend walks the same instructions
one at a time.  The contract is that they are observationally identical
in the simulated world: same results, same cycle ledgers, same stats
summaries, and the same trace-lifecycle event stream, raw side-exit
ids included (each VM's monitor numbers its exits from 1).

Equal totals do not pin *when* the native cycle accumulator is flushed
to the ledger, so the suite also compares the ledger (and accumulator)
at every point where code outside a trace reads them mid-run: each loop
edge, nested-tree call, side-exit settlement and link of a type-unstable
exit into a peer tree.
"""

from __future__ import annotations

import contextlib
import json
import pathlib

import pytest

from repro.core import events as eventkind
from repro.jit.native import NativeMachine
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM, VMConfig

SIEVE_PATH = pathlib.Path(__file__).parent.parent / "examples" / "sieve.js"


def _run(source: str, backend: str, **overrides):
    config = VMConfig()
    config.native_backend = backend
    for name, value in overrides.items():
        setattr(config, name, value)
    vm = TracingVM(config)
    vm.events.capture = True
    result = vm.run(source)
    return result, vm


@contextlib.contextmanager
def _ledger_read_points():
    """Record the ledger at every ``NativeMachine`` hook that reads it:
    ``(ledger, cycles, executed)`` at loop edges (commit, budget,
    ``meter.poll``), the ledger at nested-tree calls, and ``(ledger,
    cycles)`` as a side exit is settled, through ``_finish_exit`` or,
    for a stitch that needs no event, ``_settle_stitch``, and the ledger
    before and after a type-unstable exit links into a peer tree."""
    points = []
    loop_edge = NativeMachine._loop_edge
    run_inner = NativeMachine._run_inner_tree
    finish_exit = NativeMachine._finish_exit
    settle_stitch = NativeMachine._settle_stitch
    enter_peer = NativeMachine.enter_peer

    def on_loop_edge(self, executed, cycles):
        points.append(("loop-edge", self.vm.stats.ledger.total, cycles, executed))
        return loop_edge(self, executed, cycles)

    def on_run_inner(self, site, profile):
        points.append(("calltree", self.vm.stats.ledger.total))
        return run_inner(self, site, profile)

    def on_finish_exit(self, event, fragment, cycles, profile):
        points.append(("exit", self.vm.stats.ledger.total, cycles))
        return finish_exit(self, event, fragment, cycles, profile)

    def on_settle_stitch(self, exit, cycles, profile):
        total = self.vm.stats.ledger.total
        settled = settle_stitch(self, exit, cycles, profile)
        if settled:
            points.append(("exit", total, cycles))
        return settled

    def on_enter_peer(self, link, widens):
        ledger = self.vm.stats.ledger
        before = ledger.total
        machine = enter_peer(self, link, widens)
        points.append(("link", before, ledger.total))
        return machine

    NativeMachine._loop_edge = on_loop_edge
    NativeMachine._run_inner_tree = on_run_inner
    NativeMachine._finish_exit = on_finish_exit
    NativeMachine._settle_stitch = on_settle_stitch
    NativeMachine.enter_peer = on_enter_peer
    try:
        yield points
    finally:
        NativeMachine._loop_edge = loop_edge
        NativeMachine._run_inner_tree = run_inner
        NativeMachine._finish_exit = finish_exit
        NativeMachine._settle_stitch = settle_stitch
        NativeMachine.enter_peer = enter_peer


def _first_difference(left, right):
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return f"point {index}: {a} != {b}"
    return f"lengths {len(left)} != {len(right)}"


def _normalized_events(vm):
    """(kind, payload-json) pairs."""
    return [
        (event.kind, json.dumps(event.payload, sort_keys=True, default=repr))
        for event in vm.events.events
    ]


def _side_exit_sequence(events):
    return [pair for pair in events if "exit" in pair[0]]


def _assert_runs_identical(source: str, name: str):
    with _ledger_read_points() as points_py:
        result_py, vm_py = _run(source, "py")
    with _ledger_read_points() as points_step:
        result_step, vm_step = _run(source, "step")

    assert repr(result_py) == repr(result_step), name
    assert vm_py.stats.total_cycles == vm_step.stats.total_cycles, name
    assert vm_py.stats.summary_lines() == vm_step.stats.summary_lines(), name
    assert vm_py.output == vm_step.output, name

    events_py = _normalized_events(vm_py)
    events_step = _normalized_events(vm_step)
    assert events_py == events_step, name
    assert _side_exit_sequence(events_py) == _side_exit_sequence(events_step)

    # The py backend coalesces cycle increments; wherever other code can
    # read the ledger it must hold exactly what the step machine's
    # per-instruction flushes put there.
    assert points_py == points_step, (
        f"{name}: ledger differs at a read point, "
        + _first_difference(points_py, points_step)
    )

    # The py backend must actually have compiled something on traceable
    # programs: a silent fallback to step would make this test vacuous.
    failures = vm_py.events.counts.get(eventkind.JIT_INTERNAL_FAILURE, 0)
    assert failures == 0, f"{name}: py backend fell back ({failures} failures)"
    return vm_py, vm_step


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_suite_program_identical_across_backends(program):
    _assert_runs_identical(program.source, program.name)


def test_sieve_identical_across_backends():
    _assert_runs_identical(SIEVE_PATH.read_text(), "sieve.js")


#: Loops whose type-unstable exits link into a peer tree (Figure 6):
#: the oracle ablation's loop, whose int tree links once into its double
#: peer, and a function whose ``s`` turns double on trace only (``-z``
#: of an int zero records ``negd``), so each of 1,000 calls links.
_UNSTABLE_LINKS = {
    "oracle loop": (
        "var x = 0;"
        "for (var i = 0; i < 2000; i++) { x += 0.5; x += 0.5; }"
        "x;",
        1,
    ),
    "negated zero": (
        "function f(z) { var s = 0;"
        " for (var i = 0; i < 10; i++) s += -z; return s; }"
        "var t = 0; for (var j = 0; j < 1000; j++) t += f(0); t;",
        1000,
    ),
}


@pytest.mark.parametrize("name", sorted(_UNSTABLE_LINKS))
def test_unstable_links_identical_across_backends(name):
    source, links = _UNSTABLE_LINKS[name]
    with _ledger_read_points() as points:
        vm_py, vm_step = _assert_runs_identical(source, name)
    for vm in (vm_py, vm_step):
        assert vm.stats.tracing.unstable_links == links, name
    # Every link of both runs passed a compared read point.
    assert sum(1 for point in points if point[0] == "link") == 2 * links


#: A loop whose exit guard sits mid-body.  At these break points the
#: cycle accumulator crosses the 4096 flush threshold earlier in the
#: exiting iteration, so the failing guard must settle the flushes the
#: step machine made before it; no suite program reaches that case.
_MID_RUN_EXIT = """
var s = 0;
for (var i = 0; i < 400; i++) {
    s = (s + i * 3) | 0;
    s = (s ^ (i << 2)) | 0;
    s = (s + (i & 7)) | 0;
    if (i == %d) break;
    s = (s - (i >> 1)) | 0;
}
s;
"""


@pytest.mark.parametrize("stop", [123, 304, 364])
def test_exit_after_mid_run_flush_identical_across_backends(stop, monkeypatch):
    from repro.jit import pycompile

    exit_flushes = []
    settle = pycompile._settle

    def counting_settle(charge, cycles, run, count=None, tail=0):
        settled = settle(charge, cycles, run, count, tail)
        if count is not None and settled != cycles:
            exit_flushes.append(cycles)
        return settled

    monkeypatch.setattr(pycompile, "_settle", counting_settle)
    _assert_runs_identical(_MID_RUN_EXIT % stop, f"break at {stop}")
    assert exit_flushes, "the exiting guard's run must have crossed 4096"


def _knob_matrix():
    """The execution-strategy matrix beyond the default: a plan that
    fails every fragment's Python build (the ``pycompile.emit`` fault
    site), so the py backend runs every fragment on the step machine.
    Every cold build passes that site, so the plan fires on every
    program that compiles a trace.  The step backend builds no Python,
    so the plan leaves it at its default, which the tests above already
    compare against py."""
    from repro.hardening import FaultPlan

    return [{"fault_plan": FaultPlan.parse(["pycompile.emit:*"])}]


#: Records and summary lines a fault plan adds on purpose.
_INJECTED_KINDS = (eventkind.FAULT_INJECTED, eventkind.JIT_INTERNAL_FAILURE)


def _observables(result, vm):
    return (
        repr(result),
        vm.stats.total_cycles,
        vm.stats.ledger.snapshot(),
        tuple(
            line for line in vm.stats.summary_lines()
            if not line.startswith("jit firewall")
        ),
        tuple(vm.output),
        [pair for pair in _normalized_events(vm)
         if pair[0] not in _INJECTED_KINDS],
    )


def _assert_identical_across_knob_matrix(source: str, name: str):
    """Every knob combination, on the py backend, is observationally
    identical to the default py-backend run: same result, cycles (total
    and per activity), summaries, output, and event stream, less what
    the fault plan itself reports."""
    baseline = _observables(*_run(source, "py"))
    for overrides in _knob_matrix():
        result, vm = _run(source, "py", **overrides)
        if vm.stats.tracing.traces_completed:
            # Every fragment's first run builds its Python.
            assert vm.stats.tracing.faults_injected > 0, name
        got = _observables(result, vm)
        assert got == baseline, f"{name}: {overrides}"


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_suite_program_identical_across_knob_matrix(program):
    _assert_identical_across_knob_matrix(program.source, program.name)


def test_sieve_identical_across_knob_matrix():
    _assert_identical_across_knob_matrix(SIEVE_PATH.read_text(), "sieve.js")


def _profiled_run(source: str, backend: str, **overrides):
    config = VMConfig()
    config.native_backend = backend
    for name, value in overrides.items():
        setattr(config, name, value)
    vm = TracingVM(config)
    vm.events.capture = True
    vm.enable_profiling()
    result = vm.run(source)
    return result, vm


def test_backend_used_reflects_config():
    source = "var s = 0; for (var i = 0; i < 500; i++) s += i; s;"
    _result, vm_py = _profiled_run(source, "py")
    _result, vm_step = _profiled_run(source, "step")
    assert vm_py.profiler.loops, "expected a compiled loop"
    assert all(loop.backend == "py" for loop in vm_py.profiler.loops)
    assert all(loop.backend == "step" for loop in vm_step.profiler.loops)
    # Compile wall time is only spent by the py backend.
    assert vm_py.stats.tracing.pycompile_fragments > 0
    assert vm_step.stats.tracing.pycompile_fragments == 0


def test_chaos_pycompile_fault_falls_back_to_step():
    """With the firewall up, an injected emission fault must be contained:
    the run completes on the step backend with an unchanged result."""
    from repro.hardening import FaultPlan

    source = SIEVE_PATH.read_text()
    clean_result, clean_vm = _run(source, "py")

    config = VMConfig()
    config.native_backend = "py"
    config.fault_plan = FaultPlan.parse(["pycompile.emit:*"])
    vm = TracingVM(config)
    vm.events.capture = True
    vm.enable_profiling()
    result = vm.run(source)

    assert repr(result) == repr(clean_result)
    assert vm.output == clean_vm.output
    # Every fragment emission failed, so execution fell back to step.
    assert vm.profiler.loops
    assert all(loop.backend == "step" for loop in vm.profiler.loops)
    failures = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert failures, "injected pycompile faults must be reported"
    assert all(e.payload["boundary"] == "pycompile" for e in failures)
    assert all(e.payload["injected"] for e in failures)
    # The fallback is a recovery, not a breaker strike: the firewall logs
    # the trip but does not advance toward safe mode.
    firewall = vm.firewall
    assert firewall is not None
    assert any(trip[0] == "pycompile" for trip in firewall.trips)
    assert firewall.failures == 0
    assert not vm.in_safe_mode


def test_chaos_pycompile_link_fault_falls_back_to_stitching(tmp_path):
    """An injected tree-build fault (``pycompile.link``) in a warm start
    must be contained: each trunk preloaded with links runs on the step
    machine, which stitches into its branches through the driver, and
    the run matches a clean warm start's result, output and cycles."""
    from repro.hardening import FaultPlan

    source = SIEVE_PATH.read_text()

    def warm_run(store, **overrides):
        _run(source, "py", trace_store=str(store))
        return _profiled_run(source, "py", trace_store=str(store),
                             **overrides)

    clean_result, clean_vm = warm_run(tmp_path / "clean")
    assert clean_vm.stats.tracing.direct_transfers > 0, "expected direct transfers"
    result, vm = warm_run(tmp_path / "faulted",
                          fault_plan=FaultPlan.parse(["pycompile.link:*"]))

    assert repr(result) == repr(clean_result)
    assert vm.output == clean_vm.output
    assert vm.stats.total_cycles == clean_vm.stats.total_cycles
    # Only the tree builds failed: the trees that had links ran stepped.
    assert vm.profiler.loops
    assert any(loop.backend == "step" for loop in vm.profiler.loops)
    assert vm.stats.tracing.pycompile_tree_builds == 0
    assert vm.stats.tracing.direct_transfers == 0
    assert vm.stats.tracing.driver_transfers > 0
    failures = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert failures, "injected pycompile.link faults must be reported"
    assert all(e.payload["boundary"] == "pycompile" for e in failures)
    assert all(e.payload["injected"] for e in failures)
    firewall = vm.firewall
    assert firewall is not None
    assert any(trip[0] == "pycompile" for trip in firewall.trips)
    assert firewall.failures == 0
    assert not vm.in_safe_mode
