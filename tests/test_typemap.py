"""Unit tests for trace types, locations, and type maps."""

import pytest

from repro import BaselineVM
from repro.core.typemap import (
    TraceType,
    box_for_type,
    describe_typemap,
    entry_matches,
    read_location,
    type_of_box,
    unbox_for_type,
)
from repro.errors import VMInternalError
from repro.interp.frames import Frame
from repro.runtime.values import (
    NULL,
    TRUE,
    UNDEFINED,
    make_double,
    make_number,
    make_object,
    make_string,
)
from repro.runtime.objects import JSObject


def make_frame(n_locals=2):
    vm = BaselineVM()
    code = vm.compile("function f(a, b) { return a; }").consts[0].payload.code
    return vm, Frame(code, UNDEFINED, [make_number(1), make_double(2.5)])


class TestTypeOfBox:
    def test_all_types(self):
        assert type_of_box(make_number(1)) is TraceType.INT
        assert type_of_box(make_double(1.5)) is TraceType.DOUBLE
        assert type_of_box(make_string("x")) is TraceType.STRING
        assert type_of_box(TRUE) is TraceType.BOOLEAN
        assert type_of_box(NULL) is TraceType.NULL
        assert type_of_box(UNDEFINED) is TraceType.UNDEFINED
        assert type_of_box(make_object(JSObject())) is TraceType.OBJECT


class TestUnboxBox:
    def test_roundtrip_all_types(self):
        obj = JSObject()
        cases = [
            (make_number(7), TraceType.INT),
            (make_double(2.5), TraceType.DOUBLE),
            (make_string("hi"), TraceType.STRING),
            (TRUE, TraceType.BOOLEAN),
            (NULL, TraceType.NULL),
            (UNDEFINED, TraceType.UNDEFINED),
            (make_object(obj), TraceType.OBJECT),
        ]
        for box, trace_type in cases:
            raw = unbox_for_type(box, trace_type)
            rebox = box_for_type(raw, trace_type)
            assert repr(rebox) == repr(box)

    def test_int_promotes_into_double_slot(self):
        raw = unbox_for_type(make_number(3), TraceType.DOUBLE)
        assert raw == 3.0
        assert isinstance(raw, float)

    def test_double_does_not_fit_int_slot(self):
        with pytest.raises(VMInternalError):
            unbox_for_type(make_double(1.5), TraceType.INT)

    def test_exit_boxing_narrows_integral_doubles(self):
        # On-trace double 4.0 comes back as the interpreter's int 4.
        box = box_for_type(4.0, TraceType.DOUBLE)
        assert type_of_box(box) is TraceType.INT


class TestLocations:
    def test_read_write_local(self):
        vm, frame = make_frame()
        frames = [frame]
        frame.locals[0] = make_number(9)
        assert read_location(vm, frames, 0, ("local", 0, 0)).payload == 9

    def test_read_stack(self):
        vm, frame = make_frame()
        frame.stack.extend([make_number(4), make_number(5)])
        assert read_location(vm, [frame], 0, ("stack", 0, 1)).payload == 5

    def test_read_write_global(self):
        vm, frame = make_frame()
        vm.globals["gee"] = make_number(1)
        assert read_location(vm, [frame], 0, ("global", "gee")).payload == 1

    def test_missing_global_reads_undefined(self):
        vm, frame = make_frame()
        assert read_location(vm, [frame], 0, ("global", "nope")) is UNDEFINED

    def test_this_location(self):
        vm, frame = make_frame()
        frame.this_box = make_string("self")
        assert read_location(vm, [frame], 0, ("this", 0)).payload == "self"


class TestEntryMatching:
    def test_exact_match(self):
        vm, frame = make_frame()
        entries = [
            (("local", 0, 0), TraceType.INT),
            (("local", 0, 1), TraceType.DOUBLE),
            (("this", 0), TraceType.UNDEFINED),
        ]
        assert entry_matches(vm, [frame], 0, entries)

    def test_promotion_allowed(self):
        vm, frame = make_frame()
        entries = [(("local", 0, 0), TraceType.DOUBLE)]
        assert entry_matches(vm, [frame], 0, entries)  # int enters double

    def test_demotion_refused(self):
        vm, frame = make_frame()
        entries = [(("local", 0, 1), TraceType.INT)]  # local 1 is double
        assert not entry_matches(vm, [frame], 0, entries)

    def test_mismatched_kind_refused(self):
        vm, frame = make_frame()
        entries = [(("local", 0, 0), TraceType.STRING)]
        assert not entry_matches(vm, [frame], 0, entries)


class TestDescribe:
    def test_readable(self):
        text = describe_typemap(
            [
                (("local", 0, 0), TraceType.INT),
                (("global", "x"), TraceType.DOUBLE),
                (("this", 0), TraceType.OBJECT),
                (("stack", 1, 2), TraceType.STRING),
            ]
        )
        assert "l0:int" in text
        assert "g:x:double" in text
        assert "this:object" in text
        assert "f1.s2:string" in text
