"""Generic (boxed) operations with cycle accounting.

Each function implements the JSLite semantics of one operator on boxed
values and returns ``(result_box, cycles)`` where ``cycles`` is the
simulated cost of performing the operation *generically*: tag tests,
unboxing, any numeric conversions, the raw ALU work, and reboxing the
result.

Three execution engines share these helpers so their semantics cannot
drift apart:

* the baseline interpreter (plus dispatch and stack costs),
* the call-threaded interpreter baseline (cheaper dispatch),
* the method-JIT baseline (no dispatch, same generic work unless an
  inline cache / fast path applies).

The tracing JIT does **not** use them on trace — the whole point of the
paper is that a recorded trace replaces this generic work with a few
type-specialized instructions.
"""

from __future__ import annotations

import math

from repro import costs
from repro.runtime import conversions
from repro.runtime.values import (
    Box,
    TAG_DOUBLE,
    TAG_INT,
    TAG_NULL,
    TAG_OBJECT,
    TAG_STRING,
    TAG_UNDEFINED,
    make_bool,
    make_double,
    make_number,
    make_string,
)

_UNBOX_NUM = costs.TAG_TEST + costs.UNBOX
_REBOX = costs.BOX


def _numeric_operand_cost(box: Box) -> int:
    """Cost of getting a raw number out of a boxed operand."""
    tag = box.tag
    if tag == TAG_INT or tag == TAG_DOUBLE:
        return _UNBOX_NUM
    if tag == TAG_STRING:
        return _UNBOX_NUM + costs.STRING_OP * (1 + len(box.payload) // 8)
    return _UNBOX_NUM + costs.TAG_TEST


def _string_cost(text: str) -> int:
    return costs.STRING_OP * (1 + len(text) // 16)


def add(left: Box, right: Box):
    """JS ``+``: string concatenation or numeric addition."""
    if left.tag == TAG_STRING or right.tag == TAG_STRING:
        left_text = conversions.to_string(left)
        right_text = conversions.to_string(right)
        result = left_text + right_text
        cycles = (
            2 * costs.TAG_TEST
            + _string_cost(result)
            + costs.BOX
            + costs.ALLOC
        )
        return make_string(result), cycles
    return _numeric_binop(left, right, "+")


def sub(left: Box, right: Box):
    return _numeric_binop(left, right, "-")


def mul(left: Box, right: Box):
    return _numeric_binop(left, right, "*")


def _numeric_binop(left: Box, right: Box, op: str):
    lnum = conversions.to_number(left)
    rnum = conversions.to_number(right)
    cycles = _numeric_operand_cost(left) + _numeric_operand_cost(right)
    both_int = isinstance(lnum, int) and isinstance(rnum, int)
    if both_int:
        cycles += costs.INT_ALU
    else:
        cycles += costs.FLOAT_ALU
        if isinstance(lnum, int) or isinstance(rnum, int):
            cycles += costs.I2D
        lnum = float(lnum)
        rnum = float(rnum)
    if op == "+":
        result = lnum + rnum
    elif op == "-":
        result = lnum - rnum
    else:
        result = lnum * rnum
    if both_int and not (-(2**53) < result < 2**53):
        result = float(result)
    return make_number(result), cycles + _REBOX


def div(left: Box, right: Box):
    """JS ``/``: always a (possibly fractional / infinite / NaN) number."""
    lnum = conversions.to_number(left)
    rnum = conversions.to_number(right)
    cycles = (
        _numeric_operand_cost(left)
        + _numeric_operand_cost(right)
        + costs.FLOAT_ALU * 2
        + _REBOX
    )
    result = _divide(lnum, rnum)
    return make_number(result), cycles


def _divide(lnum, rnum):
    if rnum == 0:
        lf = float(lnum)
        rf = float(rnum)
        if lf == 0.0 or math.isnan(lf):
            return math.nan
        sign = math.copysign(1.0, lf) * math.copysign(1.0, rf)
        return math.inf if sign > 0 else -math.inf
    if isinstance(lnum, int) and isinstance(rnum, int) and lnum % rnum == 0:
        return lnum // rnum
    return float(lnum) / float(rnum)


def mod(left: Box, right: Box):
    """JS ``%``: fmod semantics (result takes the dividend's sign)."""
    lnum = conversions.to_number(left)
    rnum = conversions.to_number(right)
    cycles = (
        _numeric_operand_cost(left)
        + _numeric_operand_cost(right)
        + costs.FLOAT_ALU * 3
        + _REBOX
    )
    result = js_mod(lnum, rnum)
    return make_number(result), cycles


def js_mod(lnum, rnum):
    """Raw ``%`` semantics shared with the trace helper.

    The result takes the dividend's sign — including zero results: ECMA
    says ``-3 % 3`` is ``-0``, so an integral zero result with a
    negative dividend must stay a (negative-zero) double.
    """
    if rnum == 0 or (isinstance(rnum, float) and math.isnan(rnum)):
        return math.nan
    if isinstance(lnum, float) and (math.isnan(lnum) or math.isinf(lnum)):
        return math.nan
    if isinstance(lnum, int) and isinstance(rnum, int):
        result = math.fmod(lnum, rnum)
        if result == 0.0:
            return result  # preserves the sign of zero
        return int(result)
    return math.fmod(float(lnum), float(rnum))


def neg(operand: Box):
    num = conversions.to_number(operand)
    cycles = _numeric_operand_cost(operand) + costs.INT_ALU + _REBOX
    if isinstance(num, int) and num != 0:
        return make_number(-num), cycles
    # -0 and float negation must stay double.
    return make_double(-float(num)), cycles + costs.FLOAT_ALU


def _int32_operand(box: Box):
    """(int32 value, cycles) for a bitwise operand."""
    tag = box.tag
    if tag == TAG_INT:
        return box.payload, _UNBOX_NUM
    num = conversions.to_number(box)
    return conversions.to_int32(num), _numeric_operand_cost(box) + costs.D2I32


def bitand(left: Box, right: Box):
    return _bitwise(left, right, "&")


def bitor(left: Box, right: Box):
    return _bitwise(left, right, "|")


def bitxor(left: Box, right: Box):
    return _bitwise(left, right, "^")


def _bitwise(left: Box, right: Box, op: str):
    lval, lcost = _int32_operand(left)
    rval, rcost = _int32_operand(right)
    if op == "&":
        result = lval & rval
    elif op == "|":
        result = lval | rval
    else:
        result = lval ^ rval
    result = conversions.to_int32(result)
    return make_number(result), lcost + rcost + costs.INT_ALU + _REBOX


def bitnot(operand: Box):
    value, cost = _int32_operand(operand)
    result = conversions.to_int32(~value)
    return make_number(result), cost + costs.INT_ALU + _REBOX


def shl(left: Box, right: Box):
    lval, lcost = _int32_operand(left)
    rval, rcost = _int32_operand(right)
    result = conversions.to_int32(lval << (rval & 31))
    return make_number(result), lcost + rcost + costs.INT_ALU + _REBOX


def shr(left: Box, right: Box):
    lval, lcost = _int32_operand(left)
    rval, rcost = _int32_operand(right)
    result = lval >> (rval & 31)
    return make_number(result), lcost + rcost + costs.INT_ALU + _REBOX


def ushr(left: Box, right: Box):
    lval, lcost = _int32_operand(left)
    rval, rcost = _int32_operand(right)
    result = conversions.to_uint32(lval) >> (rval & 31)
    return make_number(result), lcost + rcost + costs.INT_ALU + _REBOX


_RELOPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare(left: Box, right: Box, op: str):
    """JS relational operators (string or numeric comparison)."""
    relop = _RELOPS[op]
    if left.tag == TAG_STRING and right.tag == TAG_STRING:
        cycles = (
            2 * costs.TAG_TEST
            + costs.STRING_OP
            + _string_cost(left.payload[:8])
            + _REBOX
        )
        return make_bool(relop(left.payload, right.payload)), cycles
    lnum = conversions.to_number(left)
    rnum = conversions.to_number(right)
    cycles = _numeric_operand_cost(left) + _numeric_operand_cost(right)
    both_int = isinstance(lnum, int) and isinstance(rnum, int)
    cycles += costs.INT_ALU if both_int else costs.FLOAT_ALU
    if _is_nan(lnum) or _is_nan(rnum):
        return make_bool(False), cycles + _REBOX
    return make_bool(relop(lnum, rnum)), cycles + _REBOX


def _is_nan(number) -> bool:
    return isinstance(number, float) and math.isnan(number)


def strict_equals(left: Box, right: Box) -> bool:
    """Raw ``===`` semantics (no cost)."""
    ltag, rtag = left.tag, right.tag
    lnum = ltag in (TAG_INT, TAG_DOUBLE)
    rnum = rtag in (TAG_INT, TAG_DOUBLE)
    if lnum and rnum:
        lval, rval = left.payload, right.payload
        if _is_nan(lval) or _is_nan(rval):
            return False
        return lval == rval
    if ltag != rtag:
        return False
    if ltag == TAG_OBJECT:
        return left.payload is right.payload
    if ltag in (TAG_NULL, TAG_UNDEFINED):
        return True
    return left.payload == right.payload


def loose_equals(left: Box, right: Box) -> bool:
    """Raw ``==`` semantics for the JSLite subset (no cost).

    Simplifications vs. full ECMA: object-to-primitive comparison does
    not invoke ``valueOf``/``toString`` (it is simply false unless both
    operands are the same object).
    """
    ltag, rtag = left.tag, right.tag
    if ltag in (TAG_NULL, TAG_UNDEFINED) or rtag in (TAG_NULL, TAG_UNDEFINED):
        return ltag in (TAG_NULL, TAG_UNDEFINED) and rtag in (
            TAG_NULL,
            TAG_UNDEFINED,
        )
    if ltag == TAG_OBJECT or rtag == TAG_OBJECT:
        return ltag == rtag and left.payload is right.payload
    if ltag == TAG_STRING and rtag == TAG_STRING:
        return left.payload == right.payload
    lnum = conversions.to_number(left)
    rnum = conversions.to_number(right)
    if _is_nan(lnum) or _is_nan(rnum):
        return False
    return lnum == rnum


def equals(left: Box, right: Box, strict: bool, negate: bool):
    """Boxed ``==``/``!=``/``===``/``!==`` with cost."""
    if strict:
        outcome = strict_equals(left, right)
        cycles = 2 * costs.TAG_TEST + costs.INT_ALU + _REBOX
    else:
        outcome = loose_equals(left, right)
        cycles = (
            _numeric_operand_cost(left)
            + _numeric_operand_cost(right)
            + costs.INT_ALU
            + _REBOX
        )
    if negate:
        outcome = not outcome
    return make_bool(outcome), cycles


def logical_not(operand: Box):
    truth = conversions.to_boolean(operand)
    return make_bool(not truth), costs.TAG_TEST + costs.INT_ALU + _REBOX


def typeof_op(operand: Box):
    from repro.runtime.values import type_name

    return make_string(type_name(operand)), 2 * costs.TAG_TEST + _REBOX
