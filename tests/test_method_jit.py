"""Tests for the method-JIT baseline (the V8-like comparator)."""

import pytest

from repro import BaselineVM
from repro.baselines.method_jit import MethodJITVM
from repro.costs import Activity
from tests.helpers import assert_engines_agree

PROGRAMS = [
    "var s = 0; for (var i = 0; i < 100; i++) s += i; s;",
    "function sq(n) { return n * n; } var t = 0; for (var i = 0; i < 50; i++) t += sq(i); t;",
    "var o = {x: 1, y: 2}; var t = 0; for (var i = 0; i < 60; i++) t += o.x + o.y; t;",
    "var a = [1, 2, 3]; a.push(4); a.join('-');",
    "function C(v) { this.v = v; } new C(7).v;",
    "var x; try { throw 'e'; } catch (err) { x = err; } x;",
    "var t = 0; for (var i = 0; i < 40; i++) t += hostEval('3');  t;",
    "function fib(n) { if (n < 2) return n; return fib(n-1)+fib(n-2); } fib(12);",
    "'abc'.charCodeAt(1) + 'xy'.length;",
    "var b = -1; for (var i = 0; i < 100; i++) b = b & ~i; b;",
    "var s = ''; for (var i = 0; i < 20; i++) s += i; s;",
    # Computed keys reach the same non-slot properties as dotted ones.
    "var a=[1,2,3]; a[\"length\"];",
    "var a=[1,2,3]; a[\"length\"]=1; a.length;",
    "function F(){} typeof F[\"prototype\"];",
]


@pytest.mark.parametrize("source", PROGRAMS)
def test_methodjit_agrees_with_baseline(source):
    assert_engines_agree(source, ("baseline", "methodjit"))


class TestCompilation:
    def test_methods_compiled_once(self):
        vm = MethodJITVM()
        vm.run("function f() { return 1; } f(); f(); f();")
        fn_codes = [m for m in vm._methods.values()]
        assert len(fn_codes) == 2  # toplevel + f

    def test_compile_cost_charged(self):
        vm = MethodJITVM()
        vm.run("var x = 1;")
        assert vm.stats.ledger.by_activity[Activity.COMPILE] > 0

    def test_execution_charged_to_native(self):
        vm = MethodJITVM()
        vm.run("var s = 0; for (var i = 0; i < 50; i++) s += i;")
        ledger = vm.stats.ledger
        assert ledger.by_activity[Activity.NATIVE] > ledger.by_activity[Activity.COMPILE]


class TestInlineCaches:
    def test_monomorphic_getprop_hits(self):
        vm = MethodJITVM()
        vm.run(
            "function get(o) { return o.x; }"
            "var o = {x: 1}; var t = 0;"
            "for (var i = 0; i < 100; i++) t += get(o);"
        )
        method = next(
            m for m in vm._methods.values() if m.code.name == "get"
        )
        ic = method.ics[0]
        assert ic.hits > 90
        assert ic.misses == 1

    def test_polymorphic_getprop_misses(self):
        vm = MethodJITVM()
        vm.run(
            "function get(o) { return o.x; }"
            "var a = {x: 1}; var b = {y: 0, x: 2}; var t = 0;"
            "for (var i = 0; i < 40; i++) t += get(i % 2 ? a : b);"
        )
        method = next(m for m in vm._methods.values() if m.code.name == "get")
        ic = method.ics[0]
        assert ic.misses > 10  # shapes alternate: the cache keeps missing

    def test_setprop_ic(self):
        vm = MethodJITVM()
        vm.run(
            "var o = {n: 0};"
            "for (var i = 0; i < 100; i++) o.n = i;"
        )
        method = next(iter(vm._methods.values()))
        set_ics = [ic for ic in method.ics if ic.hits or ic.misses]
        assert any(ic.hits > 50 for ic in set_ics)


class TestPerformanceShape:
    def test_faster_than_interpreter_on_loops(self):
        source = "var s = 0; for (var i = 0; i < 2000; i++) s += i & 0xff; s;"
        base = BaselineVM()
        base.run(source)
        jit = MethodJITVM()
        jit.run(source)
        assert base.stats.total_cycles / jit.stats.total_cycles > 2.0

    def test_speeds_up_recursion_too(self):
        # Unlike tracing, a method JIT compiles recursive code.
        source = "function fib(n) { if (n < 2) return n; return fib(n-1)+fib(n-2); } fib(15);"
        base = BaselineVM()
        base.run(source)
        jit = MethodJITVM()
        jit.run(source)
        assert base.stats.total_cycles / jit.stats.total_cycles > 1.5

    def test_profile_counts_bytecodes_as_native(self):
        vm = MethodJITVM()
        vm.run("var s = 0; for (var i = 0; i < 50; i++) s += i;")
        assert vm.stats.profile.native > 0
        assert vm.stats.profile.interpreted == 0


class TestVMInterface:
    def test_output_and_reenter(self):
        vm = MethodJITVM()
        vm.run("print('a'); function f() { return 1; } reenter(f);")
        assert vm.output == ["a"]

    def test_preemption(self):
        vm = MethodJITVM()
        vm.request_preemption()
        vm.run("for (var i = 0; i < 10; i++) ;")
        assert vm.preemptions_serviced == 1
