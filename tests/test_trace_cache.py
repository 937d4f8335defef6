"""Tests for the TraceCache subsystem: fragment lifecycle, peer-tree
and branch capacity, code-size accounting, and budget-overflow flushes."""

import json

from repro import VMConfig
from repro.core import events as eventkind
from repro.core.cache import FragmentState, TraceCache
from repro.core.events import EventStream
from tests.helpers import run_baseline, run_tracing

# Two hot function loops driven repeatedly from a hot outer loop: the
# workload keeps re-entering both loops, so after a flush the VM must
# re-trace to stay fast (re-tracing convergence).
TWO_LOOP_DRIVER = """
function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }
function g(n) { var s = 0; for (var i = 0; i < n; i++) s += 2; return s; }
var t = 0;
for (var r = 0; r < 15; r++) { t = t + f(40) + g(40); }
t;
"""


def resident_code_size(cache: TraceCache) -> int:
    return sum(tree.code_size_total for tree in cache.all_trees())


class TestFragmentLifecycle:
    def test_linked_after_run(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 40; i++) s += i; s;")
        trees = vm.monitor.cache.all_trees()
        assert trees
        for tree in trees:
            assert tree.fragment.state is FragmentState.LINKED
            for branch in tree.branches:
                assert branch.state is FragmentState.LINKED

    def test_code_size_accounted(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 40; i++) s += i; s;")
        cache = vm.monitor.cache
        assert cache.code_size_used > 0
        assert cache.code_size_used == resident_code_size(cache)
        assert cache.code_size_high_water >= cache.code_size_used
        for tree in cache.all_trees():
            assert tree.fragment.code_size > 0

    def test_tree_retire_marks_all_fragments(self):
        _r, vm = run_tracing(
            "var t = 0;"
            "for (var i = 0; i < 60; i++) { if (i % 3 == 0) t += 1; else t += 2; }"
            "t;"
        )
        tree = vm.monitor.cache.all_trees()[0]
        count = 1 + len(tree.branches)
        assert tree.retire() == count
        assert tree.fragment.state is FragmentState.RETIRED
        assert tree.retire() == 0  # idempotent


class TestBudgetFlush:
    def test_budget_overflow_triggers_flush_and_retracing_converges(self):
        base_result, _bvm = run_baseline(TWO_LOOP_DRIVER)
        config = VMConfig(code_cache_budget=300, capture_events=True)
        result, vm = run_tracing(TWO_LOOP_DRIVER, config)
        assert repr(result) == repr(base_result)
        tracing = vm.stats.tracing
        assert tracing.cache_flushes >= 1
        assert tracing.fragments_retired >= 1
        # Re-tracing converged: compilation happened after the first
        # flush, and the cache holds live, linked trees at the end.
        flushes = [e for e in vm.events if e.kind == eventkind.FLUSH]
        compiles = [e for e in vm.events if e.kind == eventkind.COMPILE]
        assert compiles and flushes
        assert max(e.seq for e in compiles) > min(e.seq for e in flushes)
        cache = vm.monitor.cache
        assert cache.tree_count >= 1
        for tree in cache.all_trees():
            assert tree.fragment.state is FragmentState.LINKED

    def test_flush_visible_in_jsonl_event_stream(self):
        config = VMConfig(code_cache_budget=300, capture_events=True)
        _r, vm = run_tracing(TWO_LOOP_DRIVER, config)
        records = [json.loads(line) for line in vm.events.to_jsonl().splitlines()]
        flushes = [r for r in records if r["kind"] == "flush"]
        assert flushes
        assert flushes[0]["reason"] == "budget-overflow"
        assert flushes[0]["budget"] == 300
        assert flushes[0]["fragments"] >= 1

    def test_flush_keeps_triggering_tree(self):
        # The fragment whose registration overflowed the budget survives
        # (its compilation was just paid for).
        config = VMConfig(code_cache_budget=300, capture_events=True)
        _r, vm = run_tracing(TWO_LOOP_DRIVER, config)
        cache = vm.monitor.cache
        assert cache.code_size_used == resident_code_size(cache)
        for record in (
            json.loads(line) for line in vm.events.to_jsonl().splitlines()
        ):
            if record["kind"] == "flush":
                assert record["kept"] is True

    def test_flush_clears_hotness_counters(self):
        config = VMConfig(code_cache_budget=300)
        _r, vm = run_tracing(TWO_LOOP_DRIVER, config)
        assert vm.stats.tracing.cache_flushes >= 1
        assert list(vm.events.tally[eventkind.FLUSH]) == [("budget-overflow",)]
        # Every flush restarts the hotness counters from zero.
        cache = vm.monitor.cache
        cache.flush("explicit")
        assert cache._hot_counters == {}

    def test_unlimited_budget_never_flushes(self):
        _r, vm = run_tracing(TWO_LOOP_DRIVER, VMConfig(code_cache_budget=0))
        assert vm.stats.tracing.cache_flushes == 0

    def test_flush_disabled_overflows_without_flushing(self):
        # A budget of 0 disables flushing: the same code outgrows the
        # 300-byte budget the tests above use, and still runs correctly.
        base_result, _bvm = run_baseline(TWO_LOOP_DRIVER)
        result, vm = run_tracing(TWO_LOOP_DRIVER, VMConfig(code_cache_budget=0))
        assert repr(result) == repr(base_result)
        assert vm.stats.tracing.cache_flushes == 0
        assert vm.monitor.cache.code_size_used > 300

    def test_retired_stitch_target_not_entered(self):
        # A flush retires branch fragments; stale guards must fall back
        # to the monitor instead of jumping into retired code.
        branchy = (
            "function f(n) {"
            "  var t = 0;"
            "  for (var i = 0; i < n; i++) {"
            "    if (i % 3 == 0) t += 1; else t += 2;"
            "  }"
            "  return t;"
            "}"
            "function g(n) { var s = 0; for (var i = 0; i < n; i++) s += i; return s; }"
            "var t = 0;"
            "for (var r = 0; r < 12; r++) { t = t + f(50) + g(50); }"
            "t;"
        )
        base_result, _bvm = run_baseline(branchy)
        result, vm = run_tracing(branchy, VMConfig(code_cache_budget=500))
        assert repr(result) == repr(base_result)
        assert vm.stats.tracing.cache_flushes >= 1


class TestPeerOverflow:
    SOURCE = (
        "function sum(x) { var s = x; for (var i = 0; i < 40; i++) s += x; "
        "return s; }"
        "sum(1) + sum(0.5) + sum(2) + sum(1.5);"
    )

    def test_peer_overflow_emits_event_and_caps_trees(self):
        config = VMConfig(max_peer_trees=1, capture_events=True)
        _r, vm = run_tracing(self.SOURCE, config)
        assert vm.stats.tracing.peer_overflows >= 1
        assert vm.events.counts.get(eventkind.PEER_OVERFLOW, 0) >= 1
        assert vm.monitor.cache.tree_count <= 1

    def test_peer_overflow_leaks_no_fragments(self):
        config = VMConfig(max_peer_trees=1)
        _r, vm = run_tracing(self.SOURCE, config)
        cache = vm.monitor.cache
        # Accounting covers exactly the resident fragments, and each is
        # linked (refused recordings left nothing half-registered).
        assert cache.code_size_used == resident_code_size(cache)
        for tree in cache.all_trees():
            assert tree.fragment.state is FragmentState.LINKED


class TestBranchCap:
    SOURCE = (
        "var t = 0;"
        "for (var i = 0; i < 200; i++) {"
        "  if (i % 3 == 0) t += 1; else t += 2;"
        "  if (i % 5 == 0) t += 3; else t += 4;"
        "}"
        "t;"
    )

    def test_branch_cap_emits_event_and_respects_cap(self):
        config = VMConfig(max_branch_traces=1, capture_events=True)
        result, vm = run_tracing(self.SOURCE, config)
        base_result, _bvm = run_baseline(self.SOURCE)
        assert repr(result) == repr(base_result)
        assert vm.stats.tracing.branch_caps >= 1
        for tree in vm.monitor.cache.all_trees():
            assert len(tree.branches) <= 1

    def test_branch_cap_leaks_no_fragments(self):
        config = VMConfig(max_branch_traces=1)
        _r, vm = run_tracing(self.SOURCE, config)
        cache = vm.monitor.cache
        assert cache.code_size_used == resident_code_size(cache)
        for tree in cache.all_trees():
            for branch in tree.branches:
                assert branch.state is FragmentState.LINKED


class TestCacheUnit:
    def _cache(self, **overrides):
        config = VMConfig(**overrides)
        return TraceCache(config, EventStream(capture=True))

    def test_hotness_counting(self):
        cache = self._cache()

        class _Code:
            name = "c"

        code = _Code()
        assert cache.bump_hotness(code, 4) == 1
        assert cache.bump_hotness(code, 4) == 2
        assert cache.bump_hotness(code, 8) == 1
        assert cache.hotness(code, 4) == 2

    def test_empty_cache_shape(self):
        cache = self._cache()
        assert cache.tree_count == 0
        assert cache.fragment_count == 0
        assert cache.all_trees() == []
        assert cache.code_size_used == 0
