"""Tests for the extended builtin set (array methods, sort-with-comparator
reentrancy, String/Number converters, trim)."""

from repro import BaselineVM
from tests.helpers import assert_engines_agree


def value(source):
    return BaselineVM().run(source).payload


class TestArrayMethods:
    def test_index_of(self):
        assert value("[5, 6, 7].indexOf(6);") == 1
        assert value("[5, 6, 7].indexOf(9);") == -1
        assert value("[1, 2, 1].indexOf(1, 1);") == 2
        assert value("['1'].indexOf(1);") == -1  # strict comparison

    def test_concat(self):
        assert value("[1, 2].concat([3, 4], 5).join(',');") == "1,2,3,4,5"
        assert value("[].concat([]).length;") == 0

    def test_shift_unshift(self):
        assert value("var a = [1, 2, 3]; a.shift();") == 1
        assert value("var a = [1, 2, 3]; a.shift(); a.length;") == 2
        assert value("[].shift() === undefined;") is True
        assert value("var a = [3]; a.unshift(1, 2); a.join(',');") == "1,2,3"

    def test_sort_default_is_string_order(self):
        assert value("[10, 9, 1].sort().join(',');") == "1,10,9"

    def test_sort_with_comparator(self):
        assert value(
            "function byNum(a, b) { return a - b; }"
            "[10, 9, 1].sort(byNum).join(',');"
        ) == "1,9,10"

    def test_sort_descending(self):
        assert value(
            "[3, 1, 2].sort(function (a, b) { return b - a; }).join(',');"
        ) == "3,2,1"

    def test_sort_returns_this(self):
        assert value("var a = [2, 1]; a.sort() === a;") is True


class TestConverters:
    def test_number_function(self):
        assert value("Number('42');") == 42
        assert value("Number(true);") == 1
        assert value("Number();") == 0

    def test_string_function(self):
        assert value("String(42);") == "42"
        assert value("String(true);") == "true"
        assert value("String();") == ""

    def test_string_from_char_code_still_works(self):
        assert value("String.fromCharCode(65);") == "A"

    def test_trim(self):
        assert value("'  hi  '.trim();") == "hi"
        assert value("'\\t\\nx\\t'.trim();") == "x"


class TestSortOnTrace:
    def test_sort_with_comparator_in_hot_loop(self):
        # The comparator reenters the interpreter from inside a native
        # call while a trace is running: the reentry flag must force an
        # exit and keep results identical.
        source = (
            "function byNum(a, b) { return a - b; }"
            "var t = 0;"
            "for (var i = 0; i < 30; i++) {"
            "  var a = [(i * 7) % 5, (i * 3) % 7, i % 3];"
            "  a.sort(byNum);"
            "  t += a[0] * 100 + a[1] * 10 + a[2];"
            "}"
            "t;"
        )
        assert_engines_agree(
            source, ("baseline", "threaded", "methodjit", "tracing")
        )

    def test_index_of_in_hot_loop(self):
        source = (
            "var words = ['alpha', 'beta', 'gamma', 'delta'];"
            "var t = 0;"
            "for (var i = 0; i < 60; i++) t += words.indexOf('gamma');"
            "t;"
        )
        assert_engines_agree(source, ("baseline", "tracing"))
