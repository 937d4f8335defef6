"""Tests for the cycle ledger, execution profile, and VM stats."""

import sys

import pytest

from repro.core import events as eventkind
from repro.core.events import EventStream
from repro.costs import Activity, CycleLedger
from repro.stats import ExecutionProfile, TraceStats, VMStats


class TestCycleLedger:
    def test_charge_and_total(self):
        ledger = CycleLedger()
        ledger.charge(Activity.INTERPRET, 10)
        ledger.charge(Activity.NATIVE, 30)
        assert ledger.total == 40

    def test_fractions(self):
        ledger = CycleLedger()
        ledger.charge(Activity.NATIVE, 75)
        ledger.charge(Activity.MONITOR, 25)
        assert ledger.fraction(Activity.NATIVE) == 0.75
        assert ledger.fraction(Activity.RECORD) == 0.0

    def test_empty_ledger_fraction_zero(self):
        assert CycleLedger().fraction(Activity.NATIVE) == 0.0

    def test_snapshot_and_reset(self):
        ledger = CycleLedger()
        ledger.charge(Activity.COMPILE, 5)
        snap = ledger.snapshot()
        assert snap["compile"] == 5
        ledger.reset()
        assert ledger.total == 0

    def test_activities_hash_by_identity(self):
        for activity in Activity:
            assert hash(activity) == object.__hash__(activity)
            assert Activity(activity.value) is activity


class TestHotChargePath:
    """Per-bytecode charges are in-place adds to the ledger's buckets:
    on the interpreters and the method JIT, neither the number of
    ``CycleLedger.charge`` calls nor the number of Python ``__hash__``
    frames grows with the number of bytecodes executed."""

    LOOP = "var s = 0; for (var i = 0; i < %d; i++) { s = s + i; } s;"

    @staticmethod
    def _counts(vm_class, iterations):
        vm = vm_class()
        code = vm.compile(TestHotChargePath.LOOP % iterations)
        charges = []
        original = CycleLedger.charge

        def counting(self, activity, cycles):
            charges.append(cycles)
            original(self, activity, cycles)

        hashes = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                hashes.append(frame.f_code.co_filename)

        CycleLedger.charge = counting
        sys.setprofile(profile)
        try:
            result = vm.run_code(code)
        finally:
            sys.setprofile(None)
            CycleLedger.charge = original
        assert result.payload == iterations * (iterations - 1) // 2
        bytecodes = vm.stats.profile.interpreted + vm.stats.profile.native
        return len(charges), len(hashes), bytecodes

    @pytest.mark.parametrize("engine", ["baseline", "threaded", "methodjit"])
    def test_counts_do_not_grow_with_the_loop(self, engine):
        from tests.helpers import ALL_ENGINES

        short = self._counts(ALL_ENGINES[engine], 100)
        long = self._counts(ALL_ENGINES[engine], 1000)
        assert long[2] > short[2] + 5000  # the long run executes more
        assert long[:2] == short[:2]

    #: Interpreter charges that are not a handler's own work: the
    #: preemption check of a backward jump, the unwind, and a return's
    #: frame teardown.
    _CONTROL_CHARGES = frozenset({"_check_preemption", "_unwind", "_return"})

    @pytest.mark.parametrize("engine", ["baseline", "threaded"])
    def test_interpreter_handlers_charge_no_static_cost(self, engine, monkeypatch):
        """The drivers book each pc's static cost with the dispatch
        cost, so every charge call a handler makes is attributed to a
        bytecode (the executing frame's ``pc - 1``) whose static cost
        is 0: booking a cost the static list holds through a handler
        call again fails here."""
        from repro.interp.interpreter import Interpreter
        from repro.suite.programs import PROGRAMS
        from tests.helpers import ALL_ENGINES

        sites = []
        original = Interpreter._charge
        control = self._CONTROL_CHARGES

        def spying(interp, cycles):
            if sys._getframe(1).f_code.co_name not in control:
                frame = interp.frames[-1]
                sites.append((frame.code, frame.pc - 1))
            original(interp, cycles)

        monkeypatch.setattr(Interpreter, "_charge", spying)
        for program in PROGRAMS:
            ALL_ENGINES[engine]().run(program.source, name=program.name)
        assert len(sites) > 10_000
        static = sorted({
            (code.name, pc, code.insns[pc][0])
            for code, pc in sites if code.threaded_table[1][pc]
        })
        assert not static, f"handlers charged static costs at {static[:5]}"

    def test_method_jit_closures_make_no_charge_call(self, monkeypatch):
        """Compiled closures add their cost to the NATIVE bucket in
        place: over the suite, every ``MethodJITVM._charge`` call comes
        from an out-of-line helper, never from a closure
        ``_compile_method`` built."""
        from repro.baselines.method_jit import MethodJITVM
        from repro.suite.programs import PROGRAMS

        callers = []
        original = MethodJITVM._charge

        def spying(self, cycles):
            callers.append(sys._getframe(1).f_code)
            original(self, cycles)

        monkeypatch.setattr(MethodJITVM, "_charge", spying)
        compiled = set()
        for program in PROGRAMS:
            vm = MethodJITVM()
            vm.run(program.source, name=program.name)
            compiled.update(
                handler.__code__
                for method in vm._methods.values()
                for handler in method.handlers
            )
        assert len(callers) > 1_000
        assert len(compiled) > 20
        closures = sorted({
            (code.co_name, code.co_firstlineno)
            for code in compiled.intersection(callers)
        })
        assert not closures, f"compiled closures called _charge: {closures}"


class TestHotStitchPath:
    """A failed guard that stitches into a linked branch builds no
    ``ExitEvent`` on either native backend: in a loop whose guard fails
    into its branch every other iteration (through the driver's stitch
    in a cold run, on both backends), 2,000 iterations build as many
    events as 200."""

    LOOP = """
function f(n) {
    var s = 0;
    for (var i = 0; i < n; i++) {
        if (i %% 2) s = s + i; else s = s - 1;
    }
    return s;
}
f(%d);
"""

    @staticmethod
    def _counts(backend, iterations):
        from repro.core.exits import ExitEvent
        from repro.vm import TracingVM, VMConfig

        built = []
        original = ExitEvent.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        vm = TracingVM(VMConfig(native_backend=backend))
        ExitEvent.__init__ = counting
        try:
            result = vm.run(TestHotStitchPath.LOOP % iterations)
        finally:
            ExitEvent.__init__ = original
        odd = iterations // 2
        assert result.payload == odd * odd - (iterations - odd)
        return len(built), vm.stats.tracing

    @pytest.mark.parametrize("backend", ["py", "step"])
    def test_stitches_build_no_events(self, backend):
        short_events, short = self._counts(backend, 200)
        long_events, long = self._counts(backend, 2000)
        assert long.stitched_transfers >= short.stitched_transfers + 850
        assert long.driver_transfers >= short.driver_transfers + 850
        assert long.direct_transfers == short.direct_transfers == 0
        assert long_events == short_events
        assert long.side_exits_taken == short.side_exits_taken


class TestExecutionProfile:
    def test_fractions(self):
        profile = ExecutionProfile(interpreted=10, recorded=10, native=80)
        assert profile.fraction_native() == 0.8
        assert profile.fraction_interpreted() == 0.1
        assert profile.fraction_recorded() == 0.1

    def test_empty_profile(self):
        profile = ExecutionProfile()
        assert profile.fraction_native() == 0.0


class TestTraceStats:
    def test_abort_counting(self):
        stats = TraceStats()
        stream = EventStream()
        stats.attach(stream)
        for reason in ("reason-a", "reason-a", "reason-b"):
            stream.emit(eventkind.RECORD_ABORT, reason=reason)
        assert stats.traces_aborted == 3
        assert stats.abort_reasons == {"reason-a": 2, "reason-b": 1}


class TestVMStats:
    def test_summary_lines_render(self):
        stats = VMStats()
        stream = EventStream()
        stats.tracing.attach(stream)
        stats.ledger.charge(Activity.NATIVE, 100)
        stats.profile.native = 50
        for _ in range(2):
            stream.emit(eventkind.COMPILE, fragment="root")
        stream.emit(eventkind.RECORD_ABORT, reason="oops")
        lines = stats.summary_lines()
        text = "\n".join(lines)
        assert "total simulated cycles : 100" in text
        assert "trees formed           : 2" in text
        assert "oops" in text

    def test_time_breakdown_keys(self):
        stats = VMStats()
        breakdown = stats.time_breakdown()
        assert set(breakdown) == {"interpret", "monitor", "record", "compile", "native"}
