"""Unit tests for the JIT firewall, fault plans, and safe mode."""

from __future__ import annotations

import pytest

from repro import BaselineVM, TracingVM, VMConfig
from repro.core import events
from repro.errors import VMInternalError
from repro.hardening import FAULT_SITES, FaultInjector, FaultPlan, InjectedFault

LOOP = "var s = 0; for (var i = 0; i < 300; ++i) s += i; s;"
LOOP_RESULT = "Box(int, 44850)"


def run_chaos(source: str, **config_kwargs):
    config = VMConfig(capture_events=True, **config_kwargs)
    vm = TracingVM(config)
    return vm.run(source), vm


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan({"no.such.site": 1})

    def test_parse_forms(self):
        plan = FaultPlan.parse(
            ["record.op", "compile.assemble:3", "native.loop-edge:*"]
        )
        assert plan.triggers("record.op", 1)
        assert not plan.triggers("record.op", 2)
        assert plan.triggers("compile.assemble", 3)
        assert plan.triggers("native.loop-edge", 999)
        assert not plan.triggers("native.entry", 1)

    def test_parse_rejects_garbage_count(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse(["record.op:soon"])

    def test_collection_trigger(self):
        plan = FaultPlan({"record.op": (2, 4)})
        assert [plan.triggers("record.op", n) for n in (1, 2, 3, 4)] == [
            False,
            True,
            False,
            True,
        ]

    def test_from_seed_is_deterministic(self):
        assert repr(FaultPlan.from_seed(42)) == repr(FaultPlan.from_seed(42))
        assert all(
            site in FAULT_SITES for site in FaultPlan.from_seed(7).spec
        )

    def test_injector_suspension(self):
        injector = FaultInjector(FaultPlan({"record.op": "*"}))
        injector.suspended += 1
        injector.fire("record.op")  # suppressed
        injector.suspended -= 1
        with pytest.raises(InjectedFault):
            injector.fire("record.op")
        assert injector.fired == ["record.op"]


class TestContainment:
    def test_contained_fault_preserves_result(self):
        result, vm = run_chaos(LOOP, fault_plan={"compile.assemble": 1})
        assert repr(result) == LOOP_RESULT
        tracing = vm.stats.tracing
        assert tracing.internal_failures == 1
        assert tracing.faults_injected == 1
        assert not tracing.safe_mode

    def test_failure_event_payload(self):
        _result, vm = run_chaos(LOOP, fault_plan={"compile.assemble": 1})
        failures = [
            event
            for event in vm.events.events
            if event.kind == events.JIT_INTERNAL_FAILURE
        ]
        assert len(failures) == 1
        payload = failures[0].payload
        assert payload["boundary"] == "compile"
        assert payload["error"] == "InjectedFault"
        assert payload["injected"] is True
        assert payload["site"] == "compile.assemble"
        assert payload["code"] and payload["pc"] is not None

    def test_firewall_off_lets_fault_escape(self):
        with pytest.raises(InjectedFault):
            run_chaos(
                LOOP,
                fault_plan={"compile.assemble": 1},
                enable_jit_firewall=False,
            )

    def test_fragment_retired_and_header_invalidated(self):
        _result, vm = run_chaos(LOOP, fault_plan={"native.entry": 1})
        # The faulting tree was pulled from the cache; a replacement may
        # have been compiled afterwards, but no tree still carries a
        # retired fragment.
        from repro.core.cache import FragmentState

        for tree in vm.monitor.cache.all_trees():
            assert tree.fragment.state is not FragmentState.RETIRED

    def test_stats_summary_mentions_firewall(self):
        _result, vm = run_chaos(LOOP, fault_plan={"record.op": 1})
        summary = "\n".join(vm.stats.summary_lines())
        assert "jit firewall" in summary
        assert "1 faults injected" in summary

    def test_profiler_records_trips(self):
        config = VMConfig(capture_events=True, fault_plan={"compile.assemble": 1})
        vm = TracingVM(config)
        vm.enable_profiling()
        vm.run(LOOP)
        profile = vm.profiler.to_dict()["firewall"]
        assert profile["trips"].get("compile") == 1


class TestNativeBudget:
    def test_budget_overrun_deopts_gracefully(self):
        result, vm = run_chaos(LOOP, native_insn_budget=50)
        assert repr(result) == LOOP_RESULT
        tracing = vm.stats.tracing
        assert tracing.internal_failures >= 1
        assert tracing.faults_injected == 0  # a real fault, not injected
        failures = [
            event
            for event in vm.events.events
            if event.kind == events.JIT_INTERNAL_FAILURE
        ]
        assert failures
        assert failures[0].payload["error"] == "NativeBudgetExceeded"
        assert failures[0].payload["injected"] is False

    def test_generous_budget_never_trips(self):
        result, vm = run_chaos(LOOP)
        assert repr(result) == LOOP_RESULT
        assert vm.stats.tracing.internal_failures == 0


class TestMidIterationRollback:
    """A helper raises a real (not injected) fault in the middle of an
    iteration, after the iteration wrote the global ``g`` and the entry
    local ``s``.  The firewall rolls the run back to the last loop
    edge's commit and the interpreter re-runs the iteration, so the
    result matches the interpreter's only if the commit copied the
    global area and the entry slots rather than aliasing the live ones.
    The ``native.loop-edge`` fault site cannot tell the two apart: it
    fires where the live state still equals the commit."""

    SOURCE = """
var g = 0;
function f(n) {
    var s = 0;
    var t = "";
    for (var i = 0; i < n; i++) {
        g = g + 1;
        s = s + i;
        t = "x" + i;
    }
    return s * 1000 + g + t.length;
}
f(40);
"""

    @pytest.mark.parametrize("backend", ["py", "step"])
    def test_helper_fault_rolls_back_to_the_loop_edge_commit(
        self, backend, monkeypatch
    ):
        from repro.core import helpers
        from repro.hardening.chaos import differential_check

        original = helpers.NUM_TO_STR_I.fn
        calls = []

        def failing(vm, value):
            # Only traces call helpers; the 12th call is mid-run.
            calls.append(value)
            if len(calls) == 12:
                raise RuntimeError("helper fault in mid-iteration")
            return original(vm, value)

        monkeypatch.setattr(helpers.NUM_TO_STR_I, "fn", failing)
        config = VMConfig(capture_events=True, native_backend=backend)
        vm = differential_check(self.SOURCE, config)
        assert len(calls) >= 12
        tracing = vm.stats.tracing
        assert tracing.internal_failures == 1
        assert tracing.faults_injected == 0
        assert tracing.loop_iterations_native >= 11
        [failure] = vm.events.of_kind(events.JIT_INTERNAL_FAILURE)
        assert failure.payload["boundary"] == "native"
        assert failure.payload["error"] == "RuntimeError"
        assert failure.payload["injected"] is False


class TestSafeMode:
    def test_breaker_trips_after_threshold(self):
        result, vm = run_chaos(
            "var t = 0;"
            "for (var i = 0; i < 60; ++i)"
            "  for (var j = 0; j < 60; ++j) t += j;"
            "t;",
            fault_plan={"compile.assemble": "*"},
            max_internal_failures=2,
        )
        assert repr(result) == "Box(int, 106200)"
        tracing = vm.stats.tracing
        assert tracing.safe_mode is True
        assert tracing.internal_failures >= 2
        assert vm.in_safe_mode is True
        assert vm.config.enable_tracing is False
        assert vm.monitor.disabled is True
        assert vm.events.counts.get(events.SAFE_MODE, 0) == 1
        # The breaker flushes the cache: nothing stays linked.
        assert vm.monitor.cache.tree_count == 0

    def test_safe_mode_stops_new_recordings(self):
        _result, vm = run_chaos(
            LOOP + " var u = 0; for (var k = 0; k < 300; ++k) u += k; u;",
            fault_plan={"compile.assemble": "*"},
            max_internal_failures=1,
        )
        assert vm.in_safe_mode
        # After the breaker trips no further compilations are attempted,
        # so the every-hit plan stops firing.
        last_failure = max(
            event.seq
            for event in vm.events.events
            if event.kind == events.JIT_INTERNAL_FAILURE
        )
        safe_mode_at = next(
            event.seq
            for event in vm.events.events
            if event.kind == events.SAFE_MODE
        )
        assert last_failure <= safe_mode_at


class TestHostEvalBoundary:
    SOURCE = 'hostEval("2.5 + 2.5");'

    def test_host_eval_still_swallows_user_errors(self):
        vm = BaselineVM()
        result = vm.run('hostEval("not ! valid @ python");')
        assert repr(result) == "Box(undefined, None)"

    def test_internal_error_propagates(self, monkeypatch):
        from repro.runtime import builtins as builtins_module

        def boom(text):
            raise VMInternalError("internal invariant violated")

        monkeypatch.setattr(builtins_module, "_host_eval_compute", boom)
        vm = BaselineVM()
        with pytest.raises(VMInternalError):
            vm.run(self.SOURCE)

    def test_normal_host_eval_works(self):
        vm = BaselineVM()
        assert repr(vm.run('hostEval("2.5 + 3");')) == "Box(double, 5.5)"
