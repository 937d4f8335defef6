"""Runtime helpers callable from traces.

These are the "C functions" recorded traces call for operations too
complex to inline as LIR — the paper's ``js_Array_set`` is the model
(Figure 3 records exactly such a call plus a guard on its status).

Each helper operates on raw (unboxed) values and is wrapped in a
:class:`repro.jit.native.CallSpec` with an explicit cycle cost.
"""

from __future__ import annotations

from repro import costs
from repro.exec.limits import string_cells
from repro.jit.native import CallSpec
from repro.runtime.conversions import number_to_string
from repro.runtime.objects import JSArray, JSObject

# Every helper takes ``vm`` first, which makes helpers the natural
# heap-metering sites for the *native* execution path: traces allocate
# only through here, so ``vm.meter`` sees on-trace allocation exactly
# like the interpreter's opcode sites see off-trace allocation.


def js_array_set(vm, arr: JSArray, index: int, value_box) -> bool:
    """Store an array element; False makes the trace side-exit (the
    paper's ``js_Array_set`` call on line 5 of the sieve)."""
    if not isinstance(arr, JSArray):
        return False
    growth = index + 1 - arr.length if index >= arr.length else 0
    if arr.set_element(index, value_box):
        if growth and vm.meter is not None:
            vm.meter.note_cells(growth, vm)
        return True
    return False


def js_add_property(vm, obj: JSObject, name: str, value_box) -> bool:
    """Create/update a property, including the shape transition."""
    if obj.in_dict_mode:
        return False
    if vm.meter is not None and obj.get_own(name) is None:
        vm.meter.note_cells(1, vm)
    obj.set_property(name, value_box)
    return True


def js_new_object(vm) -> JSObject:
    if vm.meter is not None:
        vm.meter.note_cells(1, vm)
    return JSObject()


def js_new_object_with_proto(vm, constructor) -> JSObject:
    """Allocate the ``this`` object for an inlined ``new F(...)``."""
    if vm.meter is not None:
        vm.meter.note_cells(1, vm)
    return JSObject(proto=constructor.ensure_prototype())


def js_new_array(vm, length: int) -> JSArray:
    if vm.meter is not None:
        vm.meter.note_cells(1 + int(length), vm)
    return JSArray(int(length), proto=vm.array_prototype)


def js_concat(vm, left: str, right: str) -> str:
    result = left + right
    if vm.meter is not None:
        vm.meter.note_cells(string_cells(len(result)), vm)
    return result


def js_num_to_str_i(vm, value: int) -> str:
    return number_to_string(value)


def js_num_to_str_d(vm, value: float) -> str:
    return number_to_string(value)


def js_char_at(vm, text: str, index: int) -> str:
    return text[index]


def js_bool_to_str(vm, value: bool) -> str:
    return "true" if value else "false"


ARRAY_SET = CallSpec(
    kind="helper",
    name="js_Array_set",
    fn=js_array_set,
    result_type="b",
    cost=costs.NATIVE_CALL + costs.DENSE_ELEM,
)

ADD_PROPERTY = CallSpec(
    kind="helper",
    name="js_AddProperty",
    fn=js_add_property,
    result_type="b",
    cost=costs.NATIVE_CALL + costs.SHAPE_TRANSITION,
)

NEW_OBJECT = CallSpec(
    kind="helper",
    name="js_NewObject",
    fn=js_new_object,
    result_type="o",
    cost=costs.NATIVE_CALL + costs.ALLOC,
)

NEW_OBJECT_WITH_PROTO = CallSpec(
    kind="helper",
    name="js_NewObjectWithProto",
    fn=js_new_object_with_proto,
    result_type="o",
    cost=costs.NATIVE_CALL + costs.ALLOC + costs.SLOT_ACCESS,
)

NEW_ARRAY = CallSpec(
    kind="helper",
    name="js_NewArray",
    fn=js_new_array,
    result_type="o",
    cost=costs.NATIVE_CALL + costs.ALLOC,
)

CONCAT = CallSpec(
    kind="helper",
    name="js_ConcatStrings",
    fn=js_concat,
    result_type="s",
    cost=costs.NATIVE_CALL + costs.STRING_OP + costs.ALLOC,
)

NUM_TO_STR_I = CallSpec(
    kind="helper",
    name="js_NumberToString_i",
    fn=js_num_to_str_i,
    result_type="s",
    cost=costs.NATIVE_CALL + costs.STRING_OP * 2,
)

NUM_TO_STR_D = CallSpec(
    kind="helper",
    name="js_NumberToString_d",
    fn=js_num_to_str_d,
    result_type="s",
    cost=costs.NATIVE_CALL + costs.STRING_OP * 4,
)

CHAR_AT = CallSpec(
    kind="helper",
    name="js_CharAt",
    fn=js_char_at,
    result_type="s",
    cost=costs.NATIVE_CALL + costs.STRING_OP,
)

BOOL_TO_STR = CallSpec(
    kind="helper",
    name="js_BooleanToString",
    fn=js_bool_to_str,
    result_type="s",
    cost=costs.NATIVE_CALL + costs.STRING_OP,
)
