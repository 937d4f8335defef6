"""Side-exit restoration tests: deep operand stacks, frame synthesis,
boxed-result channels, and exit bookkeeping (paper Section 6.1)."""

from repro import VMConfig
from tests.helpers import assert_engines_agree, run_tracing


class TestMidExpressionExits:
    def test_type_guard_fails_deep_in_expression(self):
        # d[i] yields a string exactly once, mid-way through a nested
        # arithmetic expression: the exit must rebuild a 3-deep operand
        # stack and resume generically.
        source = (
            "var d = [1, 2, 3, 4];"
            "var out = '';"
            "for (var i = 0; i < 50; i++) {"
            "  if (i == 40) d[2] = 'S';"
            "  out = '' + (1 + (2 * (3 + d[i % 4])));"
            "}"
            "out;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_overflow_exit_mid_expression(self):
        source = (
            "var big = 2147483000;"
            "var t = 0;"
            "for (var i = 0; i < 50; i++) {"
            "  t = (big + i) - big + (t & 1023);"
            "}"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_shape_guard_fails_mid_loop(self):
        # The object's shape changes while the loop is running natively.
        source = (
            "var o = {x: 1};"
            "var t = 0;"
            "for (var i = 0; i < 60; i++) {"
            "  if (i == 40) o.fresh = 9;"  # shape transition
            "  t += o.x;"
            "}"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestFrameSynthesis:
    def test_exit_restores_callee_locals(self):
        # The guard failure happens inside an inlined callee whose
        # locals must be synthesized into a real interpreter frame.
        source = (
            "function work(n) {"
            "  var local1 = n * 2;"
            "  var local2 = n + 100;"
            "  if (n == 45) return local1 + local2;"  # divergence
            "  return local1;"
            "}"
            "var t = 0;"
            "for (var i = 0; i < 60; i++) t += work(i);"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_exit_restores_this_in_callee(self):
        source = (
            "function Holder(v) { this.v = v; }"
            "Holder.prototype.get = function () {"
            "  if (this.v == 37) return -1;"
            "  return this.v;"
            "};"
            "var objs = new Array(0);"
            "for (var s = 0; s < 60; s++) objs.push(new Holder(s));"
            "var t = 0;"
            "for (var i = 0; i < 60; i++) t += objs[i].get();"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_two_levels_of_synthesis(self):
        source = (
            "function inner(n) { if (n == 50) return 1000; return n; }"
            "function outer(n) { var pre = n + 1; return inner(n) + pre; }"
            "var t = 0;"
            "for (var i = 0; i < 60; i++) t += outer(i);"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestBoxedResultChannel:
    def test_result_type_changes_repeatedly(self):
        # a[i % 3] alternates int / double / string: the TYPE exit's
        # boxed channel delivers each odd value intact, and at most one
        # branch specializes per exit.
        source = (
            "var a = [1, 2.5, 'x'];"
            "var out = '';"
            "for (var i = 0; i < 90; i++) out = '' + a[i % 3];"
            "out;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))

    def test_property_value_type_changes(self):
        source = (
            "var o = {v: 1};"
            "var out = '';"
            "for (var i = 0; i < 60; i++) {"
            "  if (i == 30) o.v = 'str';"
            "  out = '' + o.v;"
            "}"
            "out;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestExitBookkeeping:
    def test_branch_recording_blocked_after_failed_attempt(self):
        # The divergent path contains an untraceable construct, so the
        # branch recording aborts and that exit is permanently blocked.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 80; i++) {"
            "  if (i % 2 == 0) t += 1;"
            "  else t += hostEval('1');"
            "}"
            "t;"
        )
        _r, vm = run_tracing(source)
        trees = vm.monitor.cache.all_trees()
        blocked = [
            exit
            for tree in trees
            for exit in tree.exits_by_id.values()
            if exit.recording_blocked
        ]
        assert blocked

    def test_max_branch_traces_respected(self):
        config = VMConfig(max_branch_traces=2)
        source = (
            "var t = 0;"
            "for (var i = 0; i < 300; i++) {"
            "  switch (i % 5) {"
            "    case 0: t += 1; break;"
            "    case 1: t += 2; break;"
            "    case 2: t += 3; break;"
            "    case 3: t += 4; break;"
            "    default: t += 5;"
            "  }"
            "}"
            "t;"
        )
        _r, vm = run_tracing(source, config)
        for tree in vm.monitor.cache.all_trees():
            assert len(tree.branches) <= 2

    def test_exit_hit_counts_accumulate(self):
        _r, vm = run_tracing(
            "var t = 0;"
            "for (var i = 0; i < 100; i++) { if (i % 10 == 0) t += 5; else t += 1; }"
            "t;",
            VMConfig(exit_hotness_threshold=1000),  # never grow branches
        )
        trees = vm.monitor.cache.all_trees()
        hits = [
            exit.hit_count
            for tree in trees
            for exit in tree.exits_by_id.values()
        ]
        assert max(hits) > 5
