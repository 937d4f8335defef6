"""The interpreter's opcode semantics: one handler table per code.

This module precomputes, per :class:`Code`, a **handler table**: one
closure per pc, with the opcode decoded and the operand (const box,
local slot, property name, jump target) pre-resolved at build time.
These handlers are the only implementation of the opcodes in the
interpreter.  Beside the table it builds each pc's **static cost**:
what the opcode costs whatever its operands hold (a push's stack op, a
local's slot access, a branch's tag test, NEWARR's allocation for its
count), 0 for opcodes whose cost depends on the operands.  Both of the
interpreter's drivers walk the table; the plain one is::

    pc = frame.pc
    frame.pc = pc + 1
    interpreted += 1
    if vm.recorder is None:
        buckets[INTERPRET] += dispatch_cost + static[pc]
    else:
        buckets[RECORD] += dispatch_cost + static[pc]
    result = table[pc](interp, frame, stack, charge, pc)

where ``buckets`` is the ledger's ``by_activity`` dict and the local
``interpreted`` is added to ``profile.interpreted`` on every exit from
the driver; the recording one (:meth:`Interpreter._record_frame`) adds
``record_op`` before the call and ``record_result`` after it.

Invariants:

* **One ledger add per bytecode.**  The driver books the dispatch cost
  and the static cost in one in-place add; a handler whose cost is all
  static (the const and stack ops, locals and globals, the conditional
  jumps' test, try push/pop, NEWOBJ, NEWARR, INITPROP) makes no charge
  call.  Handlers charge only work that depends on the operands
  (binops, property and element access, calls) and DELPROP's, which
  throws on a non-object before it charges.
* **Dispatch-cost agnostic.**  Neither the handlers nor the static
  costs include dispatch; the driver adds its own ``dispatch_cost``.
  One table, cached on the shared ``Code``, therefore serves the
  baseline (``DISPATCH``) and the call-threaded baseline
  (``DISPATCH_THREADED``) alike, recording or not.
* **Activity follows the recorder.**  ``charge`` is
  ``Interpreter._charge``, one in-place add to the ledger's RECORD
  bucket while a recorder is attached and to its INTERPRET bucket
  otherwise, so the same handler is correct under either driver.  The
  drivers book their own per-bytecode charges (dispatch plus static
  cost, and the recording driver's ``RECORD_PER_BYTECODE``) as the
  same in-place adds, inline, with the same recorder test for the
  dispatch cost.  No handler attaches or detaches a recorder before its
  static cost is due, so booking that cost in the driver's add, after
  the same test, cannot move a cycle between INTERPRET and RECORD.
* **Blacklist patching stays live.**  ``LOOPHEADER`` is patched to
  ``NOP`` in place by blacklisting (and patched *back* by the trace
  store's load rollback).  Header entries capture the mutable insn and
  re-read the opcode on every execution, so a stale table can neither
  consult the monitor for a blacklisted header nor skip a restored one.
* **One bytecode per entry.**  The recording driver observes each
  bytecode between two table calls, so no entry may run two (fused
  superinstructions would; they also measured no wall-clock win).

The method-JIT baseline (:mod:`repro.baselines.method_jit`) compiles
its own per-pc closures: its charges differ from the interpreter's on
nearly every opcode, so sharing these handlers would make each one
branch on the engine calling it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import costs
from repro.bytecode import opcodes as op
from repro.errors import JSThrow, VMInternalError
from repro.exec.limits import string_cells
from repro.runtime import conversions, operations
from repro.runtime.objects import JSArray, JSObject, enumerable_keys
from repro.runtime.values import (
    FALSE,
    NULL,
    TAG_DOUBLE,
    TAG_INT,
    TAG_OBJECT,
    TAG_STRING,
    TRUE,
    UNDEFINED,
    make_bool,
    make_number,
    make_object,
    make_string,
)

#: Sentinel: the top frame changed, or a recorder attached or detached;
#: ``execute()`` picks the driver afresh and refreshes its state.
SWITCH_FRAME = object()
#: Sentinel: RETURN/RETUNDEF; the value is stashed in ``interp._ret``
#: (the driver owns the frames/base-depth bookkeeping).
DO_RETURN = object()

_ZERO_BOX = make_number(0)
_ONE_BOX = make_number(1)
_NUM_TAGS = (TAG_INT, TAG_DOUBLE)

STACK_OP = costs.STACK_OP
TAG_TEST = costs.TAG_TEST
_STACK2 = 2 * costs.STACK_OP
_STACK3 = 3 * costs.STACK_OP
_SLOT_PUSH = costs.SLOT_ACCESS + costs.STACK_OP
_GLOBAL_GET = costs.GLOBAL_LOOKUP + costs.STACK_OP
_COND = costs.STACK_OP + costs.TAG_TEST
_TONUM_SLOW = costs.TAG_TEST + costs.D2I32 + costs.BOX
_DELPROP = costs.PROPERTY_LOOKUP + costs.SHAPE_TRANSITION
_INITPROP = costs.SHAPE_TRANSITION + costs.SLOT_ACCESS
_NEWOBJ = costs.ALLOC + costs.STACK_OP


# -- shared (operand-free) handlers ------------------------------------------------
#
# Uniform signature: handler(interp, frame, stack, charge, pc) -> result
# where result is None (keep going), SWITCH_FRAME, DO_RETURN, or the
# final completion Box (END only).


def _h_nop(interp, frame, stack, charge, pc):
    return None


def _h_zero(interp, frame, stack, charge, pc):
    stack.append(_ZERO_BOX)


def _h_one(interp, frame, stack, charge, pc):
    stack.append(_ONE_BOX)


def _h_undef(interp, frame, stack, charge, pc):
    stack.append(UNDEFINED)


def _h_null(interp, frame, stack, charge, pc):
    stack.append(NULL)


def _h_true(interp, frame, stack, charge, pc):
    stack.append(TRUE)


def _h_false(interp, frame, stack, charge, pc):
    stack.append(FALSE)


def _h_pop(interp, frame, stack, charge, pc):
    stack.pop()


def _h_popv(interp, frame, stack, charge, pc):
    frame.completion = stack.pop()


def _h_dup(interp, frame, stack, charge, pc):
    stack.append(stack[-1])


def _h_swap(interp, frame, stack, charge, pc):
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _h_this(interp, frame, stack, charge, pc):
    stack.append(frame.this_box)


def _h_add(interp, frame, stack, charge, pc):
    right = stack.pop()
    left = stack.pop()
    value, cycles = operations.add(left, right)
    stack.append(value)
    charge(cycles + _STACK3)
    if value.tag == TAG_STRING:
        vm = interp.vm
        if vm.meter is not None:
            vm.meter.note_cells(string_cells(len(value.payload)), vm)


def _binop(fn):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = fn(left, right)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _unop(fn):
    def handler(interp, frame, stack, charge, pc):
        value, cycles = fn(stack.pop())
        stack.append(value)
        charge(cycles + _STACK2)

    return handler


def _relop(text):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = operations.compare(left, right, text)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _eqop(strict, negate):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = operations.equals(left, right, strict, negate)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _h_tonum(interp, frame, stack, charge, pc):
    operand = stack[-1]
    if operand.tag not in _NUM_TAGS:
        stack[-1] = make_number(conversions.to_number(operand))
        charge(_TONUM_SLOW)
    else:
        charge(TAG_TEST)


def _h_getelem(interp, frame, stack, charge, pc):
    index_box = stack.pop()
    obj_box = stack.pop()
    stack.append(interp._getelem(obj_box, index_box))


def _h_setelem(interp, frame, stack, charge, pc):
    value = stack.pop()
    index_box = stack.pop()
    obj_box = stack.pop()
    interp._setelem(obj_box, index_box, value)
    stack.append(value)


def _h_iterkeys(interp, frame, stack, charge, pc):
    obj_box = stack.pop()
    vm = interp.vm
    keys = enumerable_keys(obj_box, vm.array_prototype)
    stack.append(make_object(keys))
    charge(
        costs.ALLOC
        + costs.PROPERTY_LOOKUP
        + costs.SLOT_ACCESS * max(keys.length, 1)
        + _STACK2
    )
    if vm.meter is not None:
        vm.meter.note_cells(1 + keys.length, vm)


def _h_newobj(interp, frame, stack, charge, pc):
    stack.append(make_object(JSObject()))
    vm = interp.vm
    if vm.meter is not None:
        vm.meter.note_cells(1, vm)


def _h_return(interp, frame, stack, charge, pc):
    interp._ret = stack.pop()
    return DO_RETURN


def _h_retundef(interp, frame, stack, charge, pc):
    interp._ret = UNDEFINED
    return DO_RETURN


def _h_throw(interp, frame, stack, charge, pc):
    raise JSThrow(stack.pop())


def _h_trypop(interp, frame, stack, charge, pc):
    frame.try_stack.pop()


def _h_end(interp, frame, stack, charge, pc):
    interp.frames.pop()
    return frame.completion


# -- operand-capturing factories ---------------------------------------------------
#
# factory(code, arg, pc) -> handler.  Operands are resolved once at
# table-build time (const boxes, names, jump targets, argc).


def _f_const(code, arg, pc):
    box = code.consts[arg]

    def handler(interp, frame, stack, charge, pc):
        stack.append(box)

    return handler


def _f_getlocal(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        stack.append(frame.locals[arg])

    return handler


def _f_setlocal(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        frame.locals[arg] = stack[-1]

    return handler


def _f_getglobal(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        try:
            stack.append(interp.vm.globals[name])
        except KeyError:
            raise JSThrow(
                make_string(f"ReferenceError: {name} is not defined")
            ) from None

    return handler


def _f_setglobal(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        interp.vm.globals[name] = stack[-1]

    return handler


def _f_jump(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        if arg <= pc:
            interp._check_preemption()
        frame.pc = arg

    return handler


def _f_iffalse(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        condition = stack.pop()
        if not conversions.to_boolean(condition):
            if arg <= pc:
                interp._check_preemption()
            frame.pc = arg

    return handler


def _f_iftrue(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        condition = stack.pop()
        if conversions.to_boolean(condition):
            if arg <= pc:
                interp._check_preemption()
            frame.pc = arg

    return handler


def _f_andjmp(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        if not conversions.to_boolean(stack[-1]):
            frame.pc = arg
        else:
            stack.pop()

    return handler


def _f_orjmp(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        if conversions.to_boolean(stack[-1]):
            frame.pc = arg
        else:
            stack.pop()

    return handler


def _f_loopheader(code, arg, pc):
    # Capture the mutable insn, not the opcode: blacklisting patches
    # LOOPHEADER -> NOP in place (and the trace store's load rollback
    # patches it back), and the table must track the live state.
    insn = code.insns[pc]

    def handler(interp, frame, stack, charge, pc):
        if insn[0] != op.LOOPHEADER:
            return None
        vm = interp.vm
        monitor = vm.monitor
        if monitor is not None:
            monitor.on_loop_header(interp, frame, pc)
            if (
                vm.recorder is not None
                or interp.frames[-1] is not frame
                or frame.pc != pc + 1
            ):
                # A recorder is attached, a trace ran, or frames
                # changed: hand control back so ``execute`` picks the
                # driver afresh and refreshes its cached frame state.
                return SWITCH_FRAME
        return None

    return handler


def _f_getprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        obj_box = stack.pop()
        stack.append(interp._getprop(obj_box, name))

    return handler


def _f_setprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        value = stack.pop()
        obj_box = stack.pop()
        interp._setprop(obj_box, name, value)
        stack.append(value)

    return handler


def _f_delprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        obj_box = stack.pop()
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(make_string("TypeError: delete on non-object"))
        charge(_DELPROP)
        stack.append(make_bool(obj_box.payload.delete_property(name)))

    return handler


def _f_initprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        value = stack.pop()
        obj_box = stack[-1]
        obj_box.payload.set_property(name, value)

    return handler


def _f_newarr(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        vm = interp.vm
        arr = JSArray(proto=vm.array_prototype)
        if arg:
            elements = stack[len(stack) - arg :]
            del stack[len(stack) - arg :]
            for index, element in enumerate(elements):
                arr.set_element(index, element)
        stack.append(make_object(arr))
        if vm.meter is not None:
            vm.meter.note_cells(1 + arg, vm)

    return handler


def _f_call(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        if interp._do_call(interp.frames, frame, callee_box, UNDEFINED, args):
            return SWITCH_FRAME

    return handler


def _f_callmethod(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        this_box = stack.pop()
        if interp._do_call(interp.frames, frame, callee_box, this_box, args):
            return SWITCH_FRAME

    return handler


def _f_new(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        if interp._do_new(interp.frames, frame, callee_box, args):
            return SWITCH_FRAME

    return handler


def _f_trypush(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        frame.try_stack.append((arg, len(stack)))

    return handler


def _shared(handler):
    def factory(code, arg, pc):
        return handler

    return factory


_FACTORIES: Dict[int, object] = {
    op.NOP: _shared(_h_nop),
    op.LOOPHEADER: _f_loopheader,
    op.CONST: _f_const,
    op.UNDEF: _shared(_h_undef),
    op.NULL: _shared(_h_null),
    op.TRUE: _shared(_h_true),
    op.FALSE: _shared(_h_false),
    op.ZERO: _shared(_h_zero),
    op.ONE: _shared(_h_one),
    op.GETLOCAL: _f_getlocal,
    op.SETLOCAL: _f_setlocal,
    op.GETGLOBAL: _f_getglobal,
    op.SETGLOBAL: _f_setglobal,
    op.GETPROP: _f_getprop,
    op.SETPROP: _f_setprop,
    op.GETELEM: _shared(_h_getelem),
    op.SETELEM: _shared(_h_setelem),
    op.DELPROP: _f_delprop,
    op.ITERKEYS: _shared(_h_iterkeys),
    op.NEWOBJ: _shared(_h_newobj),
    op.NEWARR: _f_newarr,
    op.INITPROP: _f_initprop,
    op.ADD: _shared(_h_add),
    op.SUB: _shared(_binop(operations.sub)),
    op.MUL: _shared(_binop(operations.mul)),
    op.DIV: _shared(_binop(operations.div)),
    op.MOD: _shared(_binop(operations.mod)),
    op.NEG: _shared(_unop(operations.neg)),
    op.TONUM: _shared(_h_tonum),
    op.BITAND: _shared(_binop(operations.bitand)),
    op.BITOR: _shared(_binop(operations.bitor)),
    op.BITXOR: _shared(_binop(operations.bitxor)),
    op.BITNOT: _shared(_unop(operations.bitnot)),
    op.SHL: _shared(_binop(operations.shl)),
    op.SHR: _shared(_binop(operations.shr)),
    op.USHR: _shared(_binop(operations.ushr)),
    op.LT: _shared(_relop("<")),
    op.LE: _shared(_relop("<=")),
    op.GT: _shared(_relop(">")),
    op.GE: _shared(_relop(">=")),
    op.EQ: _shared(_eqop(False, False)),
    op.NE: _shared(_eqop(False, True)),
    op.STRICTEQ: _shared(_eqop(True, False)),
    op.STRICTNE: _shared(_eqop(True, True)),
    op.NOT: _shared(_unop(operations.logical_not)),
    op.TYPEOF: _shared(_unop(operations.typeof_op)),
    op.POP: _shared(_h_pop),
    op.POPV: _shared(_h_popv),
    op.DUP: _shared(_h_dup),
    op.SWAP: _shared(_h_swap),
    op.JUMP: _f_jump,
    op.IFFALSE: _f_iffalse,
    op.IFTRUE: _f_iftrue,
    op.ANDJMP: _f_andjmp,
    op.ORJMP: _f_orjmp,
    op.CALL: _f_call,
    op.CALLMETHOD: _f_callmethod,
    op.NEW: _f_new,
    op.RETURN: _shared(_h_return),
    op.RETUNDEF: _shared(_h_retundef),
    op.THIS: _shared(_h_this),
    op.THROW: _shared(_h_throw),
    op.TRYPUSH: _f_trypush,
    op.TRYPOP: _shared(_h_trypop),
    op.END: _shared(_h_end),
}


#: The cost of each opcode whose work does not depend on its operands'
#: values (NEWARR's depends on its count, see :func:`build_table`).
#: The drivers book it with the dispatch cost; these opcodes' handlers
#: charge nothing.
_STATIC_COSTS: Dict[int, int] = {
    op.CONST: STACK_OP,
    op.UNDEF: STACK_OP,
    op.NULL: STACK_OP,
    op.TRUE: STACK_OP,
    op.FALSE: STACK_OP,
    op.ZERO: STACK_OP,
    op.ONE: STACK_OP,
    op.THIS: STACK_OP,
    op.POP: STACK_OP,
    op.POPV: STACK_OP,
    op.DUP: STACK_OP,
    op.SWAP: STACK_OP,
    op.GETLOCAL: _SLOT_PUSH,
    op.SETLOCAL: costs.SLOT_ACCESS,
    op.GETGLOBAL: _GLOBAL_GET,
    op.SETGLOBAL: costs.GLOBAL_LOOKUP,
    op.IFFALSE: _COND,
    op.IFTRUE: _COND,
    op.ANDJMP: _COND,
    op.ORJMP: _COND,
    op.TRYPUSH: STACK_OP,
    op.TRYPOP: STACK_OP,
    op.NEWOBJ: _NEWOBJ,
    op.INITPROP: _INITPROP,
}


# -- table construction ------------------------------------------------------------


def build_table(code) -> Tuple[list, list]:
    """The handler table for ``code``, one handler per pc, and beside it
    each pc's static cost (what its handler would charge whatever the
    operands hold)."""
    blacklisted = code.blacklisted_headers
    table: List[object] = []
    static: List[int] = []
    for pc, (opcode, arg) in enumerate(code.insns):
        if pc in blacklisted:
            # A blacklisted header reads NOP today but may be patched
            # back by the store's load rollback; keep it live.
            factory = _f_loopheader
        else:
            factory = _FACTORIES.get(opcode)
            if factory is None:
                raise VMInternalError(f"unhandled opcode {op.opcode_name(opcode)}")
        table.append(factory(code, arg, pc))
        if opcode == op.NEWARR:
            static.append(costs.ALLOC + (arg + 1) * STACK_OP)
        else:
            static.append(_STATIC_COSTS.get(opcode, 0))
    return table, static
