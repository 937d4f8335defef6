"""ECMA-style conversions for the JSLite subset.

Pure semantic functions: no cost accounting here (the interpreter and
the generic-operation helpers charge cycles; see
:mod:`repro.runtime.operations`).
"""

from __future__ import annotations

import math

from repro.runtime.values import (
    Box,
    TAG_BOOLEAN,
    TAG_DOUBLE,
    TAG_INT,
    TAG_NULL,
    TAG_OBJECT,
    TAG_STRING,
    TAG_UNDEFINED,
)

_TWO32 = 2**32
_TWO31 = 2**31


def to_boolean(box: Box) -> bool:
    tag = box.tag
    if tag == TAG_BOOLEAN:
        return box.payload
    if tag == TAG_INT:
        return box.payload != 0
    if tag == TAG_DOUBLE:
        value = box.payload
        return value != 0.0 and not math.isnan(value)
    if tag == TAG_STRING:
        return len(box.payload) > 0
    if tag == TAG_OBJECT:
        return True
    return False  # null, undefined


def to_number(box: Box) -> float:
    """ToNumber, returning a Python float or int."""
    tag = box.tag
    if tag == TAG_INT:
        return box.payload
    if tag == TAG_DOUBLE:
        return box.payload
    if tag == TAG_BOOLEAN:
        return 1 if box.payload else 0
    if tag == TAG_NULL:
        return 0
    if tag == TAG_UNDEFINED:
        return math.nan
    if tag == TAG_STRING:
        return string_to_number(box.payload)
    # Objects: a full JS would call valueOf/toString; arrays of one
    # number convert like that number, everything else is NaN here.
    return math.nan


def string_to_number(text: str):
    """Numeric value of a string per (simplified) ECMA rules."""
    stripped = text.strip()
    if not stripped:
        return 0
    try:
        if stripped.startswith(("0x", "0X", "-0x", "-0X", "+0x", "+0X")):
            return int(stripped, 16)
        if "." in stripped or "e" in stripped or "E" in stripped:
            return float(stripped)
        if stripped in ("Infinity", "+Infinity"):
            return math.inf
        if stripped == "-Infinity":
            return -math.inf
        return int(stripped, 10)
    except ValueError:
        return math.nan


def to_int32(number) -> int:
    """ECMA ToInt32: wrap modulo 2**32 into a signed 32-bit value."""
    if isinstance(number, int):
        value = number
    else:
        if math.isnan(number) or math.isinf(number):
            return 0
        value = int(number)  # truncate toward zero
    value &= _TWO32 - 1
    if value >= _TWO31:
        value -= _TWO32
    return value


def to_uint32(number) -> int:
    """ECMA ToUint32."""
    if isinstance(number, int):
        value = number
    else:
        if math.isnan(number) or math.isinf(number):
            return 0
        value = int(number)
    return value & (_TWO32 - 1)


def number_to_string(number) -> str:
    """JS-style shortest string for a number."""
    if isinstance(number, int):
        return str(number)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "Infinity" if number > 0 else "-Infinity"
    if number.is_integer() and abs(number) < 1e21:
        return str(int(number))
    return repr(number)


def to_string(box: Box) -> str:
    tag = box.tag
    if tag == TAG_STRING:
        return box.payload
    if tag == TAG_INT or tag == TAG_DOUBLE:
        return number_to_string(box.payload)
    if tag == TAG_BOOLEAN:
        return "true" if box.payload else "false"
    if tag == TAG_NULL:
        return "null"
    if tag == TAG_UNDEFINED:
        return "undefined"
    obj = box.payload
    if getattr(obj, "class_name", "") == "Array":
        parts = []
        for i in range(obj.length):
            element = obj.get_element(i)
            if element is None or element.tag in (TAG_NULL, TAG_UNDEFINED):
                parts.append("")
            else:
                parts.append(to_string(element))
        return ",".join(parts)
    if obj.is_callable:
        name = getattr(obj, "name", "anonymous")
        return f"function {name}() {{ ... }}"
    return "[object Object]"


def to_property_key(box: Box) -> str:
    """The string key used for a computed property access.

    The paper's footnote 1 complains about exactly this path: "if the
    index value is a number, it must be converted from a double to a
    string for the property access operator".  The interpreter's generic
    GETELEM pays this; the dense-array fast path skips it.
    """
    return to_string(box)
