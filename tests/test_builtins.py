"""Tests for the builtin library (Math, String, Array, globals)."""

import math

from repro import BaselineVM


def value(source):
    return BaselineVM().run(source).payload


class TestMath:
    def test_constants(self):
        assert abs(value("Math.PI;") - math.pi) < 1e-12
        assert abs(value("Math.E;") - math.e) < 1e-12

    def test_kernels(self):
        assert value("Math.sqrt(16);") == 4
        assert abs(value("Math.sin(0);")) == 0
        assert value("Math.abs(-3);") == 3
        assert value("Math.floor(3.9);") == 3
        assert value("Math.ceil(3.1);") == 4
        assert value("Math.round(2.5);") == 3
        assert value("Math.pow(2, 10);") == 1024

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(value("Math.sqrt(-1);"))

    def test_log_edge_cases(self):
        assert value("Math.log(0);") == -math.inf
        assert math.isnan(value("Math.log(-1);"))

    def test_min_max(self):
        assert value("Math.min(3, 1, 2);") == 1
        assert value("Math.max(3, 1, 2);") == 3
        assert math.isnan(value("Math.min(1, NaN);"))
        assert value("Math.max();") == -math.inf

    def test_random_deterministic_per_vm(self):
        first = BaselineVM().run("Math.random();").payload
        second = BaselineVM().run("Math.random();").payload
        assert first == second
        assert 0.0 <= first < 1.0

    def test_random_sequence_varies(self):
        values = BaselineVM().run(
            "var a = Math.random(); var b = Math.random(); a == b;"
        ).payload
        assert values is False


class TestStringBuiltins:
    def test_from_char_code(self):
        assert value("String.fromCharCode(72, 105);") == "Hi"

    def test_char_code_at_out_of_range_nan(self):
        assert math.isnan(value("'ab'.charCodeAt(5);"))

    def test_index_of_with_start(self):
        assert value("'abcabc'.indexOf('b', 2);") == 4
        assert value("'abc'.indexOf('z');") == -1

    def test_last_index_of(self):
        assert value("'abcabc'.lastIndexOf('b');") == 4

    def test_substring_swaps_and_clamps(self):
        assert value("'hello'.substring(3, 1);") == "el"
        assert value("'hello'.substring(-5, 99);") == "hello"

    def test_split_empty_separator(self):
        assert value("'abc'.split('').length;") == 3

    def test_replace_first_only(self):
        assert value("'aaa'.replace('a', 'b');") == "baa"

    def test_concat_method(self):
        assert value("'a'.concat('b', 'c');") == "abc"


class TestArrayBuiltins:
    def test_push_pop(self):
        assert value("var a = [1]; a.push(2, 3); a.pop() + a.length;") == 5

    def test_pop_empty(self):
        assert value("[].pop() === undefined;") is True

    def test_join(self):
        assert value("[1, 2, 3].join('+');") == "1+2+3"
        assert value("[1, 2].join();") == "1,2"

    def test_reverse_in_place(self):
        assert value("var a = [1, 2, 3]; a.reverse(); a[0];") == 3

    def test_slice(self):
        assert value("[1,2,3,4].slice(1, 3).join(',');") == "2,3"
        assert value("[1,2,3,4].slice(-2).join(',');") == "3,4"

    def test_array_constructor(self):
        assert value("new Array(5).length;") == 5
        assert value("Array(1, 2, 3).length;") == 3


class TestGlobalFunctions:
    def test_parse_int(self):
        assert value("parseInt('42');") == 42
        assert value("parseInt('  -17 ');") == -17
        assert value("parseInt('ff', 16);") == 255
        assert value("parseInt('0x1A', 16);") == 26
        assert value("parseInt('12abc');") == 12
        assert math.isnan(value("parseInt('zz');"))

    def test_parse_float(self):
        assert value("parseFloat('3.5xyz');") == 3.5
        assert math.isnan(value("parseFloat('no');"))

    def test_is_nan_is_finite(self):
        assert value("isNaN(NaN);") is True
        assert value("isNaN('12');") is False
        assert value("isFinite(Infinity);") is False
        assert value("isFinite(1);") is True

    def test_print_collects_output(self):
        vm = BaselineVM()
        vm.run("print('hello', 42);")
        assert vm.output == ["hello 42"]

    def test_host_eval(self):
        assert value("hostEval('6 * 7');") == 42

    def test_read_write_global(self):
        assert value("var g = 1; writeGlobal('g', 5); readGlobal('g');") == 5

    def test_reenter(self):
        assert value("function f(x) { return x * 2; } reenter(f, 21);") == 42
