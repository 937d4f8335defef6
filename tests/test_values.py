"""Unit + property tests for boxed values (paper Figure 9)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import VMInternalError
from repro.runtime.values import (
    FALSE,
    INT_MAX,
    INT_MIN,
    NULL,
    TAG_DOUBLE,
    TAG_INT,
    TRUE,
    UNDEFINED,
    make_bool,
    make_double,
    make_int,
    make_number,
    make_object,
    make_string,
    type_name,
)
from repro.runtime.objects import JSFunction, JSObject


class TestRepresentationChoice:
    def test_small_int_stays_int(self):
        assert make_number(42).tag == TAG_INT

    def test_integral_float_narrows_to_int(self):
        box = make_number(42.0)
        assert box.tag == TAG_INT
        assert box.payload == 42

    def test_fractional_stays_double(self):
        assert make_number(0.5).tag == TAG_DOUBLE

    def test_out_of_range_int_widens(self):
        assert make_number(INT_MAX + 1).tag == TAG_DOUBLE
        assert make_number(INT_MIN - 1).tag == TAG_DOUBLE

    def test_boundaries_stay_int(self):
        assert make_number(INT_MAX).tag == TAG_INT
        assert make_number(INT_MIN).tag == TAG_INT

    def test_negative_zero_stays_double(self):
        box = make_number(-0.0)
        assert box.tag == TAG_DOUBLE
        assert math.copysign(1.0, box.payload) == -1.0

    def test_positive_zero_narrows(self):
        assert make_number(0.0).tag == TAG_INT

    def test_nan_and_inf_are_double(self):
        assert make_number(math.nan).tag == TAG_DOUBLE
        assert make_number(math.inf).tag == TAG_DOUBLE

    def test_make_int_range_checked(self):
        with pytest.raises(VMInternalError):
            make_int(INT_MAX + 1)

    def test_make_number_rejects_bool(self):
        with pytest.raises(VMInternalError):
            make_number(True)


class TestSingletonsAndInterning:
    def test_singletons(self):
        assert make_bool(True) is TRUE
        assert make_bool(False) is FALSE

    def test_small_int_cache(self):
        assert make_number(0) is make_number(0)
        assert make_number(256) is make_number(256)
        assert make_number(-1) is make_number(-1)


class TestEquality:
    def test_int_vs_double_box_differ(self):
        assert make_int(3) != make_double(3.0)

    def test_object_identity(self):
        obj = JSObject()
        assert make_object(obj) == make_object(obj)
        assert make_object(obj) != make_object(JSObject())

    def test_hashable(self):
        assert len({make_number(1), make_number(1), make_string("a")}) == 2


class TestTypeof:
    def test_typeof_strings(self):
        assert type_name(make_number(1)) == "number"
        assert type_name(make_double(1.5)) == "number"
        assert type_name(make_string("x")) == "string"
        assert type_name(TRUE) == "boolean"
        assert type_name(UNDEFINED) == "undefined"
        assert type_name(NULL) == "object"  # the JS quirk
        assert type_name(make_object(JSObject())) == "object"

    def test_typeof_function(self):
        from repro.bytecode.compiler import compile_function

        code = compile_function("f", [], [])
        assert type_name(make_object(JSFunction("f", code))) == "function"


@given(st.integers(min_value=INT_MIN, max_value=INT_MAX))
def test_int_roundtrip(value):
    box = make_number(value)
    assert box.tag == TAG_INT
    assert box.payload == value


@given(st.floats(allow_nan=False))
def test_number_value_preserved(value):
    """Boxing never changes the numeric value (only the representation)."""
    box = make_number(value)
    assert float(box.payload) == value or (box.payload == value)


@given(st.floats())
def test_number_boxing_total(value):
    """make_number accepts every float without raising."""
    box = make_number(value)
    assert box.tag in (TAG_INT, TAG_DOUBLE)
