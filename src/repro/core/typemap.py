"""Trace types, value locations, and type maps.

A *typed trace* (paper Section 3.1) is annotated with a type for every
variable; its **entry type map** is "much like the signature of a
function": the trace may only be entered when every mapped location
currently holds a value of the mapped type.

Locations name interpreter storage relative to the trace's anchor frame:

* ``('local', depth, index)`` — a local slot of the frame ``depth``
  activations above the anchor (0 = the anchor frame itself);
* ``('stack', depth, index)`` — an operand-stack slot of that frame;
* ``('this', depth)`` — that frame's ``this`` value;
* ``('global', name)`` — a global variable.

Every location a trace touches is assigned a slot in the tree's trace
activation record; identical type maps therefore yield identical
activation-record layouts (paper Section 6.2), which is what makes
trace stitching and branch-trace AR reuse work.
"""

from __future__ import annotations

import enum
from typing import Iterable, Tuple

from repro.errors import VMInternalError
from repro.runtime.values import (
    NULL,
    Box,
    TAG_BOOLEAN,
    TAG_DOUBLE,
    TAG_INT,
    TAG_NULL,
    TAG_OBJECT,
    TAG_STRING,
    TAG_UNDEFINED,
    UNDEFINED,
    make_bool,
    make_number,
    make_object,
    make_string,
)


class TraceType(enum.Enum):
    """The trace type system (finer than the boxing tags for numbers)."""

    INT = "int"
    DOUBLE = "double"
    OBJECT = "object"
    STRING = "string"
    BOOLEAN = "boolean"
    NULL = "null"
    UNDEFINED = "undefined"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Members read once: an enum member lookup costs about 0.13 µs on
# CPython 3.11, and boxing and unboxing run at every trace entry and exit.
_INT = TraceType.INT
_DOUBLE = TraceType.DOUBLE
_OBJECT = TraceType.OBJECT
_STRING = TraceType.STRING
_BOOLEAN = TraceType.BOOLEAN
_NULL = TraceType.NULL
_UNDEFINED = TraceType.UNDEFINED

_TAG_TO_TYPE = {
    TAG_INT: TraceType.INT,
    TAG_DOUBLE: TraceType.DOUBLE,
    TAG_OBJECT: TraceType.OBJECT,
    TAG_STRING: TraceType.STRING,
    TAG_BOOLEAN: TraceType.BOOLEAN,
    TAG_NULL: TraceType.NULL,
    TAG_UNDEFINED: TraceType.UNDEFINED,
}

#: Signature-type names (runtime FFI layer) to trace types.
SIGNATURE_TO_TYPE = {
    "int": TraceType.INT,
    "double": TraceType.DOUBLE,
    "string": TraceType.STRING,
    "bool": TraceType.BOOLEAN,
    "object": TraceType.OBJECT,
}


def type_of_box(box: Box) -> TraceType:
    """The trace type of a boxed value."""
    return _TAG_TO_TYPE[box.tag]


def unbox_for_type(box: Box, trace_type: TraceType):
    """Raw payload of ``box`` as required by ``trace_type``.

    Allows int-to-double promotion (entering a DOUBLE slot with an int
    value), which mirrors TraceMonkey's promotable entry check.
    """
    if trace_type is _DOUBLE:
        if box.tag == TAG_INT:
            return float(box.payload)
        if box.tag == TAG_DOUBLE:
            return box.payload
        raise VMInternalError(f"cannot import {box!r} as double")
    actual = _TAG_TO_TYPE[box.tag]
    if actual is not trace_type:
        raise VMInternalError(f"cannot import {box!r} as {trace_type!r}")
    if trace_type is _NULL or trace_type is _UNDEFINED:
        return None
    return box.payload


def box_for_type(raw, trace_type: TraceType) -> Box:
    """Re-box a raw trace value.

    Numeric values are re-boxed with the *narrowest* representation
    (``make_number``), so an on-trace double that happens to be integral
    converges back to the interpreter's int representation at exits.
    """
    if trace_type is _INT:
        return make_number(int(raw))
    if trace_type is _DOUBLE:
        return make_number(float(raw))
    if trace_type is _STRING:
        return make_string(raw)
    if trace_type is _BOOLEAN:
        return make_bool(bool(raw))
    if trace_type is _OBJECT:
        return make_object(raw)
    if trace_type is _NULL:
        return NULL
    return UNDEFINED


# A type map is an ordered tuple of (location, TraceType) pairs.
TypeMapEntry = Tuple[tuple, TraceType]


def read_location(vm, frames, base_index: int, loc: tuple) -> Box:
    """Read ``loc`` from live interpreter state.

    ``frames[base_index]`` is the anchor frame (depth 0).
    """
    kind = loc[0]
    if kind == "local":
        return frames[base_index + loc[1]].locals[loc[2]]
    if kind == "stack":
        return frames[base_index + loc[1]].stack[loc[2]]
    if kind == "this":
        return frames[base_index + loc[1]].this_box
    if kind == "global":
        return vm.globals.get(loc[1], UNDEFINED)
    raise VMInternalError(f"unknown location kind {loc!r}")


def entry_matches(
    vm, frames, base_index: int, entries: Iterable[TypeMapEntry]
) -> bool:
    """Can the current state enter a trace with this entry map?

    Exact type match per slot, except an INT value may enter a DOUBLE
    slot (promotion).  A DOUBLE value may *not* enter an INT slot.
    """
    for loc, trace_type in entries:
        actual = type_of_box(read_location(vm, frames, base_index, loc))
        if actual is trace_type:
            continue
        if trace_type is TraceType.DOUBLE and actual is TraceType.INT:
            continue
        return False
    return True


def describe_typemap(entries: Iterable[TypeMapEntry]) -> str:
    """Compact human-readable rendering, for debugging and examples."""
    parts = []
    for loc, trace_type in entries:
        if loc[0] == "local":
            name = f"l{loc[2]}" if loc[1] == 0 else f"f{loc[1]}.l{loc[2]}"
        elif loc[0] == "stack":
            name = f"s{loc[2]}" if loc[1] == 0 else f"f{loc[1]}.s{loc[2]}"
        elif loc[0] == "global":
            name = f"g:{loc[1]}"
        else:
            name = "this" if len(loc) < 2 or loc[1] == 0 else f"f{loc[1]}.this"
        parts.append(f"{name}:{trace_type.value}")
    return "(" + ", ".join(parts) + ")"
