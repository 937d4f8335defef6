"""Behavioral tests for the tracing machinery itself: trees, branch
traces, nesting, the oracle, blacklisting, stitching, preemption, deep
side exits, and FFI interactions (paper Sections 3, 4, 6)."""

from repro import BaselineVM, TracingVM, VMConfig
from repro.bytecode import opcodes as op
from repro.core import events as eventkind
from repro.core import exits as exitkind
from repro.core.typemap import TraceType
from tests.helpers import assert_engines_agree, run_baseline, run_tracing


class TestTraceTrees:
    def test_single_stable_loop_forms_one_tree(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 100; i++) s += i; s;")
        assert vm.stats.tracing.trees_formed == 1
        assert vm.stats.tracing.branch_traces == 0

    def test_branchy_loop_grows_branch_traces(self):
        _r, vm = run_tracing(
            "var a = 0, b = 0;"
            "for (var i = 0; i < 200; i++) { if (i % 2) a++; else b++; }"
            "a * 1000 + b;"
        )
        assert vm.stats.tracing.branch_traces >= 1
        assert vm.stats.tracing.stitched_transfers > 0

    def test_stitched_branch_avoids_monitor(self):
        _r, vm = run_tracing(
            "var a = 0;"
            "for (var i = 0; i < 400; i++) { if (i % 2) a += 1; else a += 2; }"
            "a;"
        )
        tracing = vm.stats.tracing
        # Once both paths are compiled, iterations alternate via
        # stitching without taking monitor-visible side exits.
        assert tracing.stitched_transfers > tracing.side_exits_taken

    def test_hotness_threshold_respected(self):
        config = VMConfig(hotness_threshold=50)
        _r, vm = run_tracing(
            "var s = 0; for (var i = 0; i < 20; i++) s += i; s;", config
        )
        assert vm.stats.tracing.recordings_started == 0


class TestNestedTrees:
    NESTED = (
        "var t = 0;"
        "for (var i = 0; i < 30; i++) { for (var j = 0; j < 30; j++) { t += i * j; } }"
        "t;"
    )

    def test_nesting_records_calltree(self):
        _r, vm = run_tracing(self.NESTED)
        tracing = vm.stats.tracing
        assert tracing.tree_calls_recorded >= 1
        assert tracing.tree_calls_executed > 20  # the outer loop calls it

    def test_trees_formed_stays_flat(self):
        # The point of Section 4: no O(n^k) duplication.
        _r, vm = run_tracing(self.NESTED)
        assert vm.stats.tracing.trees_formed <= 3

    def test_nesting_disabled_cannot_compile_outer(self):
        _r, vm = run_tracing(self.NESTED, VMConfig(enable_nesting=False))
        assert vm.stats.tracing.tree_calls_recorded == 0
        assert "nested-loop-nesting-disabled" in vm.stats.tracing.abort_reasons

    def test_triple_nesting(self):
        source = (
            "var t = 0;"
            "for (var i = 0; i < 8; i++)"
            "  for (var j = 0; j < 8; j++)"
            "    for (var k = 0; k < 8; k++) t += 1;"
            "t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        assert vms["tracing"].stats.tracing.tree_calls_recorded >= 2

    def test_inner_loop_in_called_function(self):
        source = (
            "function work(n) { var s = 0; for (var k = 0; k < 10; k++) s += n; return s; }"
            "var t = 0; for (var i = 0; i < 50; i++) t += work(i); t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        assert vms["tracing"].stats.profile.fraction_native() > 0.5

    def test_branchy_inner_loop(self):
        source = (
            "var t = 0;"
            "for (var i = 0; i < 20; i++)"
            "  for (var j = 0; j < 20; j++)"
            "    if ((i + j) % 2) t += 1; else t += 2;"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestOracle:
    # x is an int at every loop header (+0.5 twice per iteration) but
    # turns double *inside* the iteration: the trace speculates int at
    # entry and closes with a double — the paper's mis-speculation case.
    UNSTABLE = (
        "var x = 0;"
        "for (var i = 0; i < 300; i++) { x += 0.5; x += 0.5; }"
        "x;"
    )

    def test_mis_speculation_teaches_the_oracle(self):
        _r, vm = run_tracing(self.UNSTABLE)
        tracing = vm.stats.tracing
        assert tracing.oracle_marks >= 1
        assert tracing.unstable_traces >= 1
        oracle = vm.monitor.oracle
        assert oracle.should_demote(oracle.global_key("x"))

    def test_unstable_exit_links_to_peer_tree(self):
        # An oscillating variable (alternating int/double across
        # iterations) makes two peer trees whose unstable exits chain
        # directly into each other (Figure 6's linked groups): on both
        # native backends every UNSTABLE exit passes straight into the
        # peer, and none returns to the monitor.
        source = (
            "var x = 0; var t = 0;"
            "for (var i = 0; i < 200; i++) {"
            "  if (i % 2 == 0) x = 1; else x = 0.5;"
            "  t += x;"
            "}"
            "t;"
        )
        expected = repr(BaselineVM().run(source))
        for backend in ("py", "step"):
            vm = TracingVM(
                VMConfig(native_backend=backend, capture_events=True)
            )
            assert repr(vm.run(source)) == expected, backend
            tracing = vm.stats.tracing
            assert tracing.trees_formed == 2, backend
            assert tracing.unstable_links >= 2, backend
            exit_kinds = [
                event.payload["exit_kind"]
                for event in vm.events.of_kind(eventkind.SIDE_EXIT)
            ]
            assert exitkind.UNSTABLE not in exit_kinds, backend

    def test_oracle_loop_runs_its_double_tree(self):
        # The int tree's UNSTABLE exit carries a double ``x``; the
        # monitor used to re-box it as an int and re-enter the int tree
        # for one iteration at a time (1,997 side exits).  Linked by
        # the exit's own types, the double tree runs the rest.
        source = (
            "var x = 0;"
            "for (var i = 0; i < 2000; i++) { x += 0.5; x += 0.5; }"
            "x;"
        )
        expected = repr(BaselineVM().run(source))
        for backend in ("py", "step"):
            vm = TracingVM(
                VMConfig(native_backend=backend, capture_events=True)
            )
            assert repr(vm.run(source)) == expected, backend
            tracing = vm.stats.tracing
            assert tracing.trees_formed == 2, backend
            assert tracing.trace_entries == 1, backend
            assert tracing.unstable_links == 1, backend
            # The one side exit leaves the loop at its end.
            [side_exit] = vm.events.of_kind(eventkind.SIDE_EXIT)
            assert side_exit.payload["exit_kind"] != exitkind.UNSTABLE
            int_tree, double_tree = vm.monitor.cache.all_trees()
            assert int_tree.global_type_of("x") is TraceType.INT
            assert double_tree.global_type_of("x") is TraceType.DOUBLE
            assert double_tree.iterations > 1990, backend

    def test_type_flip_across_iterations_uses_peer_trees(self):
        # By contrast, a flip that happens *between* entries is handled
        # by a second peer tree, not the oracle (Figure 6).
        source = (
            "var x = 0;"
            "for (var i = 0; i < 300; i++) { if (i < 10) x += 1; else x += 0.5; }"
            "x;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        assert vms["tracing"].stats.tracing.trees_formed == 2

    def test_unstable_loop_converges(self):
        _r, vm = run_tracing(self.UNSTABLE)
        # After convergence the loop runs native.
        assert vm.stats.profile.fraction_native() > 0.7

    def test_oracle_result_matches_baseline(self):
        assert_engines_agree(self.UNSTABLE, ("baseline", "tracing"))

    def test_oracle_disabled_still_correct(self):
        source = self.UNSTABLE
        _r1, base = run_baseline(source)
        result = TracingVM(VMConfig(enable_oracle=False)).run(source)
        assert repr(result) == repr(base.run(source))

    def test_promotable_entry_avoids_peer_explosion(self):
        # x alternates int/double boxing across iterations; the double
        # tree accepts int entries by promotion, so one tree suffices.
        source = "var x = 0; for (var i = 0; i < 300; i++) x += 0.5; x;"
        _r, vm = run_tracing(source)
        assert vm.stats.tracing.trees_formed <= 2
        assert vm.stats.profile.fraction_native() > 0.9


class TestBlacklisting:
    ABORTING = "var t = 0; for (var i = 0; i < 100; i++) t += hostEval('2'); t;"

    def test_hot_aborting_loop_gets_blacklisted(self):
        _r, vm = run_tracing(self.ABORTING)
        assert vm.stats.tracing.blacklisted >= 1

    def test_blacklist_patches_loopheader_to_nop(self):
        vm = TracingVM()
        code = vm.compile(self.ABORTING)
        vm.run_code(code)
        assert code.blacklisted_headers
        for pc in code.blacklisted_headers:
            assert code.insns[pc][0] == op.NOP

    def test_backoff_limits_recording_attempts(self):
        _r, vm = run_tracing(self.ABORTING)
        # failures are capped at max_recording_failures, not one per
        # iteration.
        assert vm.stats.tracing.traces_aborted <= vm.config.max_recording_failures

    def test_blacklisting_disabled_keeps_trying(self):
        _r, vm = run_tracing(self.ABORTING, VMConfig(enable_blacklisting=False))
        assert vm.stats.tracing.traces_aborted > vm.config.max_recording_failures
        assert vm.stats.tracing.blacklisted == 0

    def test_nesting_forgiveness_when_inner_not_ready(self):
        # The inner loop is empty for the first outer iterations, so the
        # outer gets hot before any inner tree exists; the outer abort is
        # forgiven once the inner tree compiles.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 40; i++) {"
            "  var limit = (i < 2) ? 0 : 8;"
            "  for (var j = 0; j < limit; j++) { t += j; }"
            "}"
            "t;"
        )
        _r, vm = run_tracing(source)
        tracing = vm.stats.tracing
        assert "inner-tree-not-ready" in tracing.abort_reasons
        assert tracing.blacklisted == 0

    def test_nesting_forgiveness_when_inner_side_exits(self):
        # Inner tree exists but side-exits during outer recording: the
        # outer aborts (forgivably) and the outer tree still forms.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 40; i++) { for (var j = 0; j < 8; j++) { t += j; } }"
            "t;"
        )
        _r, vm = run_tracing(source)
        tracing = vm.stats.tracing
        assert tracing.tree_calls_recorded >= 1  # the outer compiled anyway
        assert tracing.blacklisted == 0
        # Forgiveness kept back-off from stalling the outer tree.
        assert tracing.backoffs <= 3


class TestDeepSideExits:
    def test_exit_inside_inlined_call_synthesizes_frame(self):
        # pick() is inlined; the branch inside it diverges on i == 60,
        # forcing a side exit at inline depth 1.
        source = (
            "function pick(n) { if (n < 60) return 1; return 1000; }"
            "var t = 0; for (var i = 0; i < 70; i++) t += pick(i); t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        assert vms["tracing"].stats.tracing.trees_formed >= 1

    def test_exit_two_frames_deep(self):
        source = (
            "function leaf(n) { if (n == 55) return 1000; return 1; }"
            "function mid(n) { return leaf(n) + 1; }"
            "var t = 0; for (var i = 0; i < 70; i++) t += mid(i); t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_inline_depth_limit_aborts(self):
        config = VMConfig(max_inline_depth=2)
        source = (
            "function a(n) { return b(n) + 1; }"
            "function b(n) { return c(n) + 1; }"
            "function c(n) { return d(n) + 1; }"
            "function d(n) { return n; }"
            "var t = 0; for (var i = 0; i < 50; i++) t += a(i); t;"
        )
        _r, vm = run_tracing(source, config)
        assert "inline-depth-exceeded" in vm.stats.tracing.abort_reasons


class TestPreemption:
    def test_preempt_flag_exits_trace(self):
        vm = TracingVM()
        # Let the loop compile first.
        vm.run("var warm = 0; for (var w = 0; w < 50; w++) warm += w;")
        vm.request_preemption()
        vm.run("var s = 0; for (var i = 0; i < 50; i++) s += i;")
        assert vm.preemptions_serviced >= 1
        assert not vm.preempt_flag

    def test_preemption_serviced_mid_native_loop(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 100; i++) s += i; s;")
        vm.request_preemption()
        result = vm.run("var t = 0; for (var j = 0; j < 100; j++) t += 2; t;")
        assert result.payload == 200
        assert vm.preemptions_serviced == 1


class TestFFIOnTrace:
    def test_typed_natives_stay_on_trace(self):
        _r, vm = run_tracing(
            "var t = 0; for (var i = 0; i < 100; i++) t += Math.sqrt(i); Math.floor(t);"
        )
        # sin/sqrt have typed signatures: no type-guard exits per call.
        assert vm.stats.profile.fraction_native() > 0.9

    def test_reentering_native_forces_exit(self):
        source = (
            "function cb() { return 3; }"
            "var t = 0; for (var i = 0; i < 60; i++) t += reenter(cb); t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        stats = vms["tracing"].stats.tracing
        assert stats.side_exits_taken > 20  # the reentry guard fires per pass

    def test_state_access_native_ends_trace(self):
        source = (
            "var g = 7; var t = 0;"
            "for (var i = 0; i < 60; i++) t += readGlobal('g'); t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_state_writes_visible_to_trace(self):
        source = (
            "var g = 0; var t = 0;"
            "for (var i = 0; i < 60; i++) { writeGlobal('g', i); t += readGlobal('g'); }"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_helper_exception_deep_bails(self):
        # Array method on a non-array mid-loop throws inside a native.
        source = (
            "var a = [1, 2, 3]; var bad = {};"
            "var t = 0; var r = '';"
            "for (var i = 0; i < 50; i++) {"
            "  var target = (i == 45) ? bad : a;"
            "  try { t += target.slice(0).length; } catch (e) { r = 'caught'; }"
            "}"
            "r + t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestTraceContents:
    def test_loop_trace_ends_with_loop_instruction(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i; s;")
        trees = vm.monitor.cache.all_trees()
        stable = [t for t in trees if t.fragment.lir and t.fragment.lir[-1].op == "loop"]
        assert stable

    def test_preempt_guard_at_loop_edge(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i; s;")
        tree = vm.monitor.cache.all_trees()[0]
        ops = [ins.op for ins in tree.fragment.lir]
        assert "ldpreempt" in ops

    def test_array_store_uses_helper_call_like_figure3(self):
        _r, vm = run_tracing(
            "var a = new Array(100); for (var i = 0; i < 100; i++) a[i] = i; a[5];"
        )
        tree = vm.monitor.cache.all_trees()[0]
        call_names = [
            ins.imm.name for ins in tree.fragment.lir if ins.op == "call"
        ]
        assert "js_Array_set" in call_names

    def test_shape_guard_for_property_access(self):
        _r, vm = run_tracing(
            "var o = {x: 1}; var t = 0; for (var i = 0; i < 60; i++) t += o.x; t;"
        )
        tree = vm.monitor.cache.all_trees()[0]
        ops = [ins.op for ins in tree.fragment.lir]
        assert "ldshape" in ops
        assert "ldslot" in ops

    def test_dead_stack_stores_eliminated(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i * 2 + 1; s;")
        tree = vm.monitor.cache.all_trees()[0]
        stats = tree.fragment.backward_stats
        assert stats.dead_stack_stores > 0
