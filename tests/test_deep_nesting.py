"""Edge cases of nested trace trees (paper Section 4.1): inner trees in
callees, unexpected inner exits at runtime, type promotion across the
call boundary, inner trees growing after the outer compiled, and
exceptions crossing a nested tree call."""

import pytest

from repro import BaselineVM, TracingVM, VMConfig
from tests.helpers import assert_engines_agree


class TestCalltreeInCallee:
    def test_inner_tree_anchored_in_function(self):
        source = (
            "function work(n) { var s = 0; for (var k = 0; k < 12; k++) s += n + k; return s; }"
            "var t = 0; for (var i = 0; i < 50; i++) t += work(i); t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        tracing = vms["tracing"].stats.tracing
        assert tracing.tree_calls_recorded >= 1
        assert tracing.tree_calls_executed > 10

    def test_two_callees_each_with_loops(self):
        source = (
            "function a(n) { var s = 0; for (var k = 0; k < 6; k++) s += n; return s; }"
            "function b(n) { var s = 1; for (var k = 0; k < 6; k++) s *= 1 + (n & 1); return s; }"
            "var t = 0; for (var i = 0; i < 50; i++) t += a(i) + b(i); t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestUnexpectedInnerExits:
    def test_inner_branch_changes_at_runtime(self):
        # The inner loop takes a different path for large i: the outer
        # trace's calltree guard fails and execution recovers through
        # the chained inner exit.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 60; i++) {"
            "  for (var j = 0; j < 10; j++) {"
            "    if (i < 40) t += 1; else t += 2;"
            "  }"
            "}"
            "t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        tracing = vms["tracing"].stats.tracing
        assert tracing.tree_calls_recorded >= 1

    def test_inner_loop_breaks_differently(self):
        source = (
            "var t = 0;"
            "for (var i = 0; i < 60; i++) {"
            "  for (var j = 0; j < 20; j++) {"
            "    if (j > (i & 7)) break;"
            "    t += 1;"
            "  }"
            "}"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_inner_type_instability_at_runtime(self):
        # The inner accumulator goes double only for later outer
        # iterations: inner guards fail mid-calltree.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 50; i++) {"
            "  var s = 0;"
            "  for (var j = 0; j < 8; j++) s += (i < 30) ? 1 : 0.5;"
            "  t += s;"
            "}"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    @pytest.mark.parametrize("backend", ["step", "py"])
    @pytest.mark.parametrize(
        "source",
        [
            # `i * 50000000` overflows int from i = 43 on: the inner
            # tree's overflow guard fails after `t = t + 1` ran.
            "var t = 0, a = 0;"
            "for (var i = 0; i < 60; i++) {"
            "  for (var j = 0; j < 3; j++) { t = t + 1; a = a + i * 50000000; }"
            "}"
            "t + '|' + a;",
            # Found by the nested-loop program generator.
            "var a = 0, b = 1, c = 2;"
            "for (var i = 0; i < 14; i++) {"
            "  for (var j = 0; j < i; j++) {"
            "    a = ((j + b) + (b << a)); { b = 1; a = a * 3 + 1; b = b * 65537 + 1; }"
            "  }"
            "  a = (-(-a));"
            "}"
            "'' + a + '|' + b + '|' + c;",
        ],
    )
    def test_fused_calltree_guard_resumes_at_the_inner_exit(self, source, backend):
        # The outer tree's check of the inner tree's exit id is fused
        # into one compare-and-exit (`gcmp`).  An unexpected inner exit
        # must resume the interpreter where the inner tree left, not at
        # the inner loop's header, which would re-run the writes the
        # inner iteration already made.
        expected = repr(BaselineVM().run(source))
        vm = TracingVM(VMConfig(native_backend=backend))
        assert repr(vm.run(source)) == expected
        assert vm.stats.tracing.tree_calls_executed > 0


class TestCallBoundaryTypes:
    def test_promotion_at_calltree_entry(self):
        # The inner tree is recorded with a double accumulator; later
        # outer iterations reach it with an int — entry promotion.
        source = (
            "function acc(start) {"
            "  var s = start;"
            "  for (var k = 0; k < 8; k++) s += 0.5;"
            "  return s;"
            "}"
            "var t = 0; for (var i = 0; i < 50; i++) t += acc(i); t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))

    def test_globals_shared_between_trees(self):
        source = (
            "var g = 0;"
            "var t = 0;"
            "for (var i = 0; i < 40; i++) {"
            "  for (var j = 0; j < 8; j++) g = g + 1;"
            "  t += g;"
            "}"
            "t;"
        )
        vms = assert_engines_agree(source, ("baseline", "tracing"))
        assert vms["tracing"].stats.tracing.tree_calls_recorded >= 1

    def test_global_written_by_outer_read_by_inner(self):
        # The regression behind the crc32 bug: the outer trace writes a
        # global that is in the inner tree's import list; the inner must
        # see the buffered write, not the stale vm.globals value.
        source = (
            "var table = new Array(64);"
            "var c = 0;"
            "var k = 0;"
            "for (var n = 0; n < 64; n++) {"
            "    c = n * 3;"
            "    k = 0;"
            "    for (k = 0; k < 5; k++) c = c + 1;"
            "    table[n] = c;"
            "}"
            "var sum = 0;"
            "for (var q = 0; q < 64; q++) sum += table[q];"
            "sum;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestInnerTreeGrowth:
    def test_inner_grows_new_global_after_outer_compiled(self):
        # Phase 1 compiles outer+inner; phase 2 makes the inner take a
        # new path touching a global the outer never imported.  The
        # runtime ensure-globals fallback in calltree covers it.
        source = (
            "var extra = 7;"
            "var t = 0;"
            "for (var i = 0; i < 80; i++) {"
            "  for (var j = 0; j < 8; j++) {"
            "    if (i > 50) t += extra; else t += 1;"
            "  }"
            "}"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestExceptionsThroughNesting:
    def test_exception_thrown_by_native_inside_inner_loop(self):
        source = (
            "var a = [1, 2, 3];"
            "var r = '';"
            "var t = 0;"
            "try {"
            "  for (var i = 0; i < 60; i++) {"
            "    for (var j = 0; j < 4; j++) {"
            "      var target = (i == 55 && j == 2) ? 0 : a;"
            "      t += target.slice(0).length;"
            "    }"
            "  }"
            "} catch (e) { r = 'caught'; }"
            "r + '|' + t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))


class TestRecursionRefused:
    def test_self_recursive_loop_aborts_cleanly(self):
        # A function whose loop calls itself: the recorder must not
        # treat the same header at depth > 0 as a loop closure.
        source = (
            "function weird(n) {"
            "  var s = 0;"
            "  for (var i = 0; i < 3; i++) {"
            "    s += n;"
            "    if (n > 0) s += weird(n - 1);"
            "  }"
            "  return s;"
            "}"
            "weird(4) + weird(4);"
        )
        assert_engines_agree(source, ("baseline", "tracing"))
