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
