"""Unit + property tests for the generic boxed operations.

These are the single source of operator semantics shared by the
interpreter, the call-threaded baseline, and the method JIT, so they
get their own exhaustive coverage.
"""

import math

from hypothesis import given, strategies as st

from repro.runtime import operations
from repro.runtime.conversions import to_int32
from repro.runtime.values import (
    NULL,
    TRUE,
    UNDEFINED,
    INT_MAX,
    TAG_DOUBLE,
    TAG_INT,
    make_double,
    make_number,
    make_object,
    make_string,
)
from repro.runtime.objects import JSObject

small_ints = st.integers(min_value=-(2**20), max_value=2**20)
int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def num(value):
    return make_number(value)


class TestAdd:
    def test_int_add(self):
        box, _cost = operations.add(num(2), num(3))
        assert box.payload == 5

    def test_int_overflow_widens(self):
        box, _cost = operations.add(num(INT_MAX), num(1))
        assert box.tag == TAG_DOUBLE

    def test_string_concat(self):
        box, _cost = operations.add(make_string("a"), make_string("b"))
        assert box.payload == "ab"

    def test_number_plus_string(self):
        box, _cost = operations.add(num(1), make_string("x"))
        assert box.payload == "1x"

    def test_undefined_plus_number_is_nan(self):
        box, _cost = operations.add(UNDEFINED, num(1))
        assert math.isnan(box.payload)

    def test_bool_coerces(self):
        box, _cost = operations.add(TRUE, num(1))
        assert box.payload == 2


class TestDiv:
    def test_exact_int_division(self):
        box, _cost = operations.div(num(6), num(3))
        assert box.tag == TAG_INT
        assert box.payload == 2

    def test_fractional(self):
        box, _cost = operations.div(num(1), num(2))
        assert box.payload == 0.5

    def test_division_by_zero(self):
        assert operations.div(num(1), num(0))[0].payload == math.inf
        assert operations.div(num(-1), num(0))[0].payload == -math.inf
        assert math.isnan(operations.div(num(0), num(0))[0].payload)


class TestMod:
    def test_sign_follows_dividend(self):
        assert operations.mod(num(5), num(3))[0].payload == 2
        assert operations.mod(num(-5), num(3))[0].payload == -2
        assert operations.mod(num(5), num(-3))[0].payload == 2

    def test_mod_zero_is_nan(self):
        assert math.isnan(operations.mod(num(1), num(0))[0].payload)

    def test_negative_dividend_zero_result_is_minus_zero(self):
        # ECMA: -3 % 3 is -0 (a double), so 1 / (-3 % 3) is -Infinity.
        box, _cost = operations.mod(num(-3), num(3))
        assert box.tag == TAG_DOUBLE
        assert math.copysign(1.0, box.payload) == -1.0

    def test_positive_dividend_zero_result_stays_int(self):
        box, _cost = operations.mod(num(6), num(3))
        assert box.tag == TAG_INT

    def test_float_mod(self):
        assert operations.mod(num(5.5), num(2))[0].payload == 1.5


class TestNeg:
    def test_neg_int(self):
        assert operations.neg(num(5))[0].payload == -5

    def test_neg_zero_is_double(self):
        box, _cost = operations.neg(num(0))
        assert box.tag == TAG_DOUBLE
        assert math.copysign(1.0, box.payload) == -1.0


class TestBitwise:
    def test_basic(self):
        assert operations.bitand(num(12), num(10))[0].payload == 8
        assert operations.bitor(num(12), num(10))[0].payload == 14
        assert operations.bitxor(num(12), num(10))[0].payload == 6
        assert operations.bitnot(num(0))[0].payload == -1

    def test_shifts(self):
        assert operations.shl(num(1), num(4))[0].payload == 16
        assert operations.shr(num(-8), num(1))[0].payload == -4
        assert operations.ushr(num(-1), num(28))[0].payload == 15

    def test_shift_count_masked_to_5_bits(self):
        assert operations.shl(num(1), num(33))[0].payload == 2

    def test_double_operand_truncated(self):
        assert operations.bitand(make_double(5.9), num(3))[0].payload == 1

    def test_nan_operand_is_zero(self):
        assert operations.bitor(make_double(math.nan), num(5))[0].payload == 5


class TestCompare:
    def test_numeric(self):
        assert operations.compare(num(1), num(2), "<")[0].payload is True
        assert operations.compare(num(2), num(2), "<=")[0].payload is True
        assert operations.compare(num(3), num(2), ">")[0].payload is True

    def test_nan_always_false(self):
        nan = make_double(math.nan)
        for op in ("<", "<=", ">", ">="):
            assert operations.compare(nan, num(1), op)[0].payload is False

    def test_string_comparison(self):
        left, right = make_string("apple"), make_string("banana")
        assert operations.compare(left, right, "<")[0].payload is True


class TestEquality:
    def test_loose_null_undefined(self):
        assert operations.loose_equals(NULL, UNDEFINED)
        assert not operations.loose_equals(NULL, num(0))

    def test_loose_number_string(self):
        assert operations.loose_equals(num(5), make_string("5"))

    def test_loose_bool(self):
        assert operations.loose_equals(TRUE, num(1))

    def test_strict_type_sensitive(self):
        assert not operations.strict_equals(num(1), TRUE)
        assert not operations.strict_equals(NULL, UNDEFINED)
        assert operations.strict_equals(num(1), make_double(1.0))

    def test_nan_never_equals(self):
        nan = make_double(math.nan)
        assert not operations.strict_equals(nan, nan)
        assert not operations.loose_equals(nan, nan)

    def test_object_identity(self):
        obj = make_object(JSObject())
        assert operations.strict_equals(obj, obj)
        assert not operations.strict_equals(obj, make_object(JSObject()))


# -- property tests ---------------------------------------------------------


@given(small_ints, small_ints)
def test_int_arith_matches_python(a, b):
    assert operations.add(num(a), num(b))[0].payload == a + b
    assert operations.sub(num(a), num(b))[0].payload == a - b
    assert operations.mul(num(a), num(b))[0].payload == a * b


@given(int32s, int32s)
def test_bitand_matches_int32_semantics(a, b):
    assert operations.bitand(num(a), num(b))[0].payload == to_int32(a & b)
    assert operations.bitxor(num(a), num(b))[0].payload == to_int32(a ^ b)
    assert operations.bitor(num(a), num(b))[0].payload == to_int32(a | b)


@given(int32s, st.integers(min_value=0, max_value=31))
def test_shifts_stay_in_int32(a, k):
    assert -(2**31) <= operations.shl(num(a), num(k))[0].payload <= 2**31 - 1
    assert 0 <= operations.ushr(num(a), num(k))[0].payload < 2**32


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
def test_compare_is_consistent_with_python(a, b):
    assert operations.compare(num(a), num(b), "<")[0].payload == (a < b)


@given(small_ints, small_ints)
def test_equality_reflexive_and_symmetric(a, b):
    assert operations.strict_equals(num(a), num(a))
    assert operations.strict_equals(num(a), num(b)) == operations.strict_equals(
        num(b), num(a)
    )


@given(st.integers(min_value=-(2**35), max_value=2**35), st.integers(min_value=-(2**35), max_value=2**35))
def test_costs_are_positive(a, b):
    for operation in (operations.add, operations.sub, operations.mul,
                      operations.div, operations.mod, operations.bitand):
        _box, cost = operation(num(a), num(b))
        assert cost > 0
