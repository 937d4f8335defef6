"""Language-semantics tests for the baseline interpreter.

These define the reference behaviour every other engine (threaded,
method JIT, tracing) is differentially tested against.
"""

import math

import pytest

from repro import BaselineVM
from repro.bytecode import opcodes as op
from repro.errors import JSThrow, VMInternalError
from repro.interp import dispatch
from repro.runtime.values import TAG_DOUBLE, TAG_INT


def run(source):
    return BaselineVM().run(source)


def value(source):
    return run(source).payload


class TestArithmetic:
    def test_basics(self):
        assert value("1 + 2;") == 3
        assert value("10 - 4;") == 6
        assert value("6 * 7;") == 42
        assert value("7 / 2;") == 3.5
        assert value("7 % 3;") == 1

    def test_precedence(self):
        assert value("2 + 3 * 4;") == 14
        assert value("(2 + 3) * 4;") == 20

    def test_unary(self):
        assert value("-5;") == -5
        assert value("+'42';") == 42
        assert value("!0;") is True
        assert value("~5;") == -6

    def test_number_representation(self):
        assert run("1 + 2;").tag == TAG_INT
        assert run("0.5 + 0.5;").tag == TAG_INT  # narrows back
        assert run("0.5 + 0.25;").tag == TAG_DOUBLE

    def test_string_concat(self):
        assert value("'a' + 'b' + 'c';") == "abc"
        assert value("1 + '2';") == "12"
        assert value("'' + true;") == "true"
        assert value("'' + null;") == "null"

    def test_nan_propagation(self):
        assert math.isnan(value("undefined + 1;"))
        assert value("NaN == NaN;") is False


class TestVariablesAndScope:
    def test_globals(self):
        assert value("var x = 1; x = x + 2; x;") == 3

    def test_locals_shadow_globals(self):
        assert value("var x = 1; function f() { var x = 2; return x; } f() * 10 + x;") == 21

    def test_function_reads_globals(self):
        assert value("var g = 5; function f() { return g; } f();") == 5

    def test_function_writes_globals(self):
        assert value("var g = 1; function f() { g = 7; } f(); g;") == 7

    def test_undefined_global_throws(self):
        with pytest.raises(JSThrow, match="ReferenceError"):
            run("missing;")

    def test_undefined_is_usable(self):
        assert value("var x; x === undefined;") is True


class TestControlFlow:
    def test_if_else(self):
        assert value("var r; if (1 < 2) r = 'a'; else r = 'b'; r;") == "a"

    def test_while(self):
        assert value("var n = 0; while (n < 5) n++; n;") == 5

    def test_do_while_runs_once(self):
        assert value("var n = 10; do n++; while (false); n;") == 11

    def test_for_break_continue(self):
        assert value(
            "var t = 0; for (var i = 0; i < 10; i++) { if (i == 3) continue; if (i == 6) break; t += i; } t;"
        ) == 0 + 1 + 2 + 4 + 5

    def test_nested_break_only_inner(self):
        assert value(
            "var t = 0;"
            "for (var i = 0; i < 3; i++) { for (var j = 0; j < 10; j++) { if (j == 2) break; t++; } }"
            "t;"
        ) == 6

    def test_short_circuit(self):
        assert value("var n = 0; function bump() { n++; return true; } false && bump(); n;") == 0
        assert value("var n = 0; function bump() { n++; return true; } true || bump(); n;") == 0
        assert value("0 || 'default';") == "default"
        assert value("1 && 2;") == 2

    def test_ternary(self):
        assert value("1 ? 2 : 3;") == 2

    def test_comma(self):
        assert value("(1, 2, 3);") == 3


class TestFunctions:
    def test_return_value(self):
        assert value("function f() { return 42; } f();") == 42

    def test_implicit_undefined_return(self):
        assert value("function f() { } f() === undefined;") is True

    def test_missing_args_are_undefined(self):
        assert value("function f(a, b) { return b === undefined; } f(1);") is True

    def test_extra_args_dropped(self):
        assert value("function f(a) { return a; } f(1, 2, 3);") == 1

    def test_recursion(self):
        assert value("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(10);") == 55

    def test_mutual_recursion(self):
        assert value(
            "function isEven(n) { if (n == 0) return true; return isOdd(n - 1); }"
            "function isOdd(n) { if (n == 0) return false; return isEven(n - 1); }"
            "isEven(10);"
        ) is True

    def test_function_expression(self):
        assert value("var f = function (x) { return x + 1; }; f(4);") == 5

    def test_first_class_functions(self):
        assert value(
            "function apply(f, x) { return f(x); }"
            "function double(n) { return n * 2; }"
            "apply(double, 21);"
        ) == 42

    def test_call_non_function_throws(self):
        with pytest.raises(JSThrow, match="TypeError"):
            run("var x = 1; x();")


class TestObjects:
    def test_literal_and_access(self):
        assert value("var o = {a: 1, b: 2}; o.a + o.b;") == 3

    def test_missing_property_is_undefined(self):
        assert value("({}).missing === undefined;") is True

    def test_nested(self):
        assert value("var o = {inner: {x: 5}}; o.inner.x;") == 5

    def test_this_and_new(self):
        assert value(
            "function Point(x, y) { this.x = x; this.y = y; }"
            "var p = new Point(3, 4); p.x * 10 + p.y;"
        ) == 34

    def test_prototype_methods(self):
        assert value(
            "function Counter() { this.n = 0; }"
            "Counter.prototype.bump = function () { this.n = this.n + 1; return this.n; };"
            "var c = new Counter(); c.bump(); c.bump();"
        ) == 2

    def test_constructor_returning_object(self):
        assert value(
            "var other = {tag: 9};"
            "function F() { return other; }"
            "var got = new F(); got.tag;"
        ) == 9

    def test_delete(self):
        assert value("var o = {x: 1}; delete o.x; o.x === undefined;") is True

    def test_property_access_on_null_throws(self):
        with pytest.raises(JSThrow, match="TypeError"):
            run("null.x;")


class TestArrays:
    def test_literal_index_length(self):
        assert value("var a = [10, 20, 30]; a[1] + a.length;") == 23

    def test_write_and_grow(self):
        assert value("var a = []; a[0] = 1; a[5] = 2; a.length;") == 6

    def test_holes_are_undefined(self):
        assert value("var a = []; a[3] = 1; a[1] === undefined;") is True

    def test_computed_double_index(self):
        assert value("var a = [1, 2, 3]; a[1.0];") == 2

    def test_string_key_access(self):
        assert value("var o = {}; o['key'] = 7; o.key;") == 7

    def test_length_assignment_truncates(self):
        assert value("var a = [1,2,3,4]; a.length = 2; a[2] === undefined;") is True


class TestStrings:
    def test_indexing(self):
        assert value("'hello'[1];") == "e"
        assert value("'hi'[9] === undefined;") is True

    def test_methods(self):
        assert value("'hello'.charCodeAt(0);") == 104
        assert value("'hello'.charAt(4);") == "o"
        assert value("'hello'.indexOf('ll');") == 2
        assert value("'hello'.substring(1, 3);") == "el"
        assert value("'a-b-c'.split('-').length;") == 3
        assert value("'Hi'.toUpperCase();") == "HI"

    def test_comparison(self):
        assert value("'abc' < 'abd';") is True


class TestExceptions:
    def test_throw_catch(self):
        assert value("var r; try { throw 42; } catch (e) { r = e; } r;") == 42

    def test_uncaught_escapes(self):
        with pytest.raises(JSThrow):
            run("throw 'oops';")

    def test_finally_runs_on_both_paths(self):
        assert value(
            "var log = '';"
            "try { log += 'a'; } finally { log += 'f'; }"
            "try { try { throw 'x'; } finally { log += 'g'; } } catch (e) { log += e; }"
            "log;"
        ) == "afgx"

    def test_throw_across_frames(self):
        assert value(
            "function inner() { throw 'deep'; }"
            "function outer() { inner(); }"
            "var r; try { outer(); } catch (e) { r = e; } r;"
        ) == "deep"

    def test_native_typeerror_catchable(self):
        assert value("var r; try { null.x; } catch (e) { r = 'caught'; } r;") == "caught"


class TestUpdateExpressions:
    def test_prefix_vs_postfix_value(self):
        assert value("var x = 5; x++;") == 5
        assert value("var x = 5; ++x;") == 6
        assert value("var x = 5; x--; x;") == 4

    def test_member_update(self):
        assert value("var o = {n: 1}; o.n++; o.n;") == 2
        assert value("var a = [1]; ++a[0];") == 2
        assert value("var a = [5]; a[0]--;") == 5

    def test_update_coerces_to_number(self):
        assert value("var x = '5'; x++; x;") == 6


class TestPreemption:
    def test_preemption_serviced_on_backward_jump(self):
        vm = BaselineVM()
        vm.request_preemption()
        vm.run("for (var i = 0; i < 10; i++) ;")
        assert vm.preemptions_serviced == 1
        assert not vm.preempt_flag


class TestCompletionValue:
    def test_last_expression_wins(self):
        assert value("1; 2; 3;") == 3

    def test_statements_do_not_clobber(self):
        assert value("5; var x = 1;") == 5


class TestHandlerTable:
    def test_every_opcode_has_a_handler(self):
        assert sorted(dispatch._FACTORIES) == list(range(op.N_OPCODES))

    def test_unknown_opcode_is_an_internal_error(self, monkeypatch):
        monkeypatch.delitem(dispatch._FACTORIES, op.TYPEOF)
        with pytest.raises(VMInternalError, match="unhandled opcode TYPEOF"):
            run("var x = 1; typeof x;")
