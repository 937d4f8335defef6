"""A method-compiling JIT baseline (the V8-like comparator in Figure 10).

Whole functions are compiled on first invocation — each bytecode becomes
a specialized Python closure ("template JIT"), so there is no dispatch
cost at run time — but the code stays *generic*: values remain boxed,
every operation still tests tags, and property access goes through
per-site monomorphic **inline caches** rather than trace-specialized
loads.  This mirrors the essential difference the paper measures: a
method JIT removes interpretation overhead everywhere, while the
tracing JIT removes boxing/dispatch *and* type dispatch on hot loops.

Costs: compilation charges
:data:`repro.costs.METHODJIT_COMPILE_PER_BYTECODE` per bytecode to the
COMPILE activity at first call; executed code charges reduced per-op
costs (no ``DISPATCH``) to the NATIVE activity; IC hits cost
:data:`repro.costs.IC_HIT`, misses :data:`repro.costs.IC_MISS`.
Because those charges differ from the interpreter's on nearly every
opcode, the closures here are separate from the interpreter's handler
table (:mod:`repro.interp.dispatch`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import costs
from repro.bytecode import opcodes as op
from repro.bytecode.compiler import Code, compile_program
from repro.core.preempt import PreemptionMixin
from repro.costs import Activity
from repro.errors import GuestFault, JSThrow, VMInternalError
from repro.exec.limits import string_cells
from repro.interp.frames import Frame
from repro.runtime import conversions, operations
from repro.runtime.builtins import STRING_METHODS, install_globals
from repro.runtime.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    new_object_with_proto,
)
from repro.runtime.values import (
    Box,
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
from repro.stats import VMStats
from repro.vm import VMConfig

#: Cheaper frame setup than the interpreter's (no interpreter state).
JIT_FRAME_SETUP = 12

#: Residual per-instruction overhead of compiled generic code (operand
#: fetch; there is no decode/dispatch).
JIT_STEP = 1


class PropertyIC:
    """A monomorphic inline cache for one property-access site."""

    __slots__ = ("shape_id", "slot", "proto_depth", "hits", "misses")

    def __init__(self):
        self.shape_id = None
        self.slot = -1
        self.proto_depth = 0
        self.hits = 0
        self.misses = 0


class CompiledMethod:
    """The 'native code' for one function: a closure per bytecode."""

    __slots__ = ("code", "handlers", "ics")

    def __init__(self, code: Code):
        self.code = code
        self.handlers: List = []
        self.ics: List[PropertyIC] = []


class MethodJITVM(PreemptionMixin):
    """A VM that compiles every method on first call (no tracing).

    Preemption/cancellation plumbing comes from
    :class:`repro.core.preempt.PreemptionMixin` — the identical flag
    protocol as :class:`repro.vm.VM`, so the execution supervisor works
    uniformly across all four engines.
    """

    def __init__(self, config: Optional[VMConfig] = None):
        from repro.core.events import EventStream

        self.config = config or VMConfig()
        self.stats = VMStats()
        #: Present so the CLI's --events and the supervisor's guest-
        #: fault events work uniformly; the stats read its tally like
        #: on the tracing VM (it only ever sees supervisor kinds here).
        self.events = EventStream(capture=self.config.capture_events)
        self.stats.tracing.attach(self.events)
        self.globals: Dict[str, Box] = {}
        self.output: List[str] = []
        self._init_preemption()
        self.array_prototype = None
        self.rng = None
        install_globals(self)
        self.recorder = None
        self.monitor = None
        self.native_depth = 0
        self.trace_reentered = False
        self._methods: Dict[int, CompiledMethod] = {}
        self.frames: List[Frame] = []
        #: The ledger's buckets (``self.stats`` lives as long as the VM).
        self._buckets = self.stats.ledger.by_activity

    # -- public API (mirrors repro.vm.VM) ---------------------------------

    def compile(self, source: str, name: str = "<program>") -> Code:
        return compile_program(source, name)

    def run(self, source: str, name: str = "<program>") -> Box:
        return self.run_code(self.compile(source, name))

    def run_code(self, code: Code) -> Box:
        frame = Frame(code)
        try:
            return self.execute(frame)
        except GuestFault:
            # Guest faults unwind the whole job without popping frames
            # (guest try cannot catch them); drop them so the VM stays
            # reusable.
            del self.frames[:]
            raise

    def reenter_call(self, fn, this_box: Box, args: List[Box]) -> Box:
        return self.call_function(fn, this_box, args)

    def call_function(self, fn, this_box: Box, args: List[Box]) -> Box:
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this_box, args)
        frame = Frame(fn.code, this_box, args)
        return self.execute(frame)

    # -- engine ------------------------------------------------------------

    def _charge(self, cycles: int) -> None:
        # Every compiled bytecode's charge: one in-place add.
        self._buckets[NATIVE] += cycles

    def method_for(self, code: Code) -> CompiledMethod:
        method = self._methods.get(id(code))
        if method is None:
            method = _compile_method(self, code)
            self._methods[id(code)] = method
            self.stats.ledger.charge(
                Activity.COMPILE,
                costs.METHODJIT_COMPILE_PER_BYTECODE * len(code.insns),
            )
        return method

    def execute(self, frame: Frame) -> Box:
        frames = self.frames
        base_depth = len(frames)
        frames.append(frame)
        profile = self.stats.profile
        while len(frames) > base_depth:
            frame = frames[-1]
            method = self.method_for(frame.code)
            handlers = method.handlers
            try:
                while True:
                    pc = frame.pc
                    frame.pc = pc + 1
                    profile.native += 1
                    result = handlers[pc](frame)
                    if result is not None:
                        break
            except JSThrow as thrown:
                if not self._unwind(frames, base_depth, thrown.value):
                    raise
                continue
            if result is _FRAME_SWITCH:
                continue
            kind, value, returning_frame = result
            if kind == "end" or len(frames) == base_depth:
                return value
            caller = frames[-1]
            if caller.code.insns[caller.pc - 1][0] == op.NEW:
                if value.tag != TAG_OBJECT:
                    value = returning_frame.this_box
            caller.stack.append(value)
        raise VMInternalError("method-jit frame stack underflow")

    def _unwind(self, frames: List[Frame], base_depth: int, value: Box) -> bool:
        self._charge(costs.THROW_UNWIND)
        while len(frames) > base_depth:
            frame = frames[-1]
            if frame.try_stack:
                handler_pc, depth = frame.try_stack.pop()
                del frame.stack[depth:]
                frame.stack.append(value)
                frame.pc = handler_pc
                return True
            frames.pop()
        return False


NATIVE = Activity.NATIVE

#: Sentinel: the handler changed the current frame (call/return).
_FRAME_SWITCH = object()


def _compile_method(vm: MethodJITVM, code: Code) -> CompiledMethod:
    """Translate ``code`` into one specialized closure per bytecode."""
    method = CompiledMethod(code)
    handlers = method.handlers
    consts = code.consts
    names = code.names
    charge = vm._charge
    frames = vm.frames

    def generic_binop(operation, extra_cost=0):
        def handler(frame):
            stack = frame.stack
            right = stack.pop()
            left = stack.pop()
            value, cycles = operation(left, right)
            stack.append(value)
            charge(JIT_STEP + max(cycles - 4, 2) + extra_cost)

        return handler

    def make_handler(pc: int, opcode: int, arg):
        # --- constants / stack ------------------------------------------
        if opcode == op.CONST:
            box = consts[arg]

            def handler(frame):
                frame.stack.append(box)
                charge(JIT_STEP)

            return handler
        if opcode == op.ZERO:
            zero = make_number(0)
            return lambda frame: (frame.stack.append(zero), charge(JIT_STEP))[1]
        if opcode == op.ONE:
            one = make_number(1)
            return lambda frame: (frame.stack.append(one), charge(JIT_STEP))[1]
        if opcode == op.UNDEF:
            return lambda frame: (frame.stack.append(UNDEFINED), charge(JIT_STEP))[1]
        if opcode == op.NULL:
            return lambda frame: (frame.stack.append(NULL), charge(JIT_STEP))[1]
        if opcode == op.TRUE:
            return lambda frame: (frame.stack.append(TRUE), charge(JIT_STEP))[1]
        if opcode == op.FALSE:
            return lambda frame: (frame.stack.append(FALSE), charge(JIT_STEP))[1]
        if opcode == op.POP:
            return lambda frame: (frame.stack.pop(), charge(JIT_STEP))[1]
        if opcode == op.POPV:

            def handler(frame):
                frame.completion = frame.stack.pop()
                charge(JIT_STEP)

            return handler
        if opcode == op.DUP:
            return lambda frame: (frame.stack.append(frame.stack[-1]), charge(JIT_STEP))[1]
        if opcode == op.SWAP:

            def handler(frame):
                stack = frame.stack
                stack[-1], stack[-2] = stack[-2], stack[-1]
                charge(JIT_STEP)

            return handler
        if opcode == op.THIS:
            return lambda frame: (frame.stack.append(frame.this_box), charge(JIT_STEP))[1]

        # --- locals / globals ----------------------------------------------
        if opcode == op.GETLOCAL:
            index = arg

            def handler(frame):
                frame.stack.append(frame.locals[index])
                charge(JIT_STEP + 1)

            return handler
        if opcode == op.SETLOCAL:
            index = arg

            def handler(frame):
                frame.locals[index] = frame.stack[-1]
                charge(JIT_STEP + 1)

            return handler
        if opcode == op.GETGLOBAL:
            name = names[arg]
            globals_table = vm.globals

            def handler(frame):
                # Compiled code references the global cell directly
                # (IC-like: one guarded load instead of a hash lookup).
                charge(costs.IC_HIT)
                try:
                    frame.stack.append(globals_table[name])
                except KeyError:
                    raise JSThrow(
                        make_string(f"ReferenceError: {name} is not defined")
                    ) from None

            return handler
        if opcode == op.SETGLOBAL:
            name = names[arg]
            globals_table = vm.globals

            def handler(frame):
                globals_table[name] = frame.stack[-1]
                charge(costs.IC_HIT)

            return handler

        # --- arithmetic with int fast path -----------------------------------
        if opcode == op.ADD:

            def handler(frame):
                stack = frame.stack
                right = stack.pop()
                left = stack.pop()
                if left.tag == TAG_INT and right.tag == TAG_INT:
                    stack.append(make_number(left.payload + right.payload))
                    charge(JIT_STEP + 2 * costs.TAG_TEST + costs.INT_ALU + costs.BOX)
                    return
                value, cycles = operations.add(left, right)
                stack.append(value)
                charge(JIT_STEP + cycles)
                if value.tag == TAG_STRING and vm.meter is not None:
                    vm.meter.note_cells(string_cells(len(value.payload)), vm)

            return handler
        if opcode == op.SUB:

            def handler(frame):
                stack = frame.stack
                right = stack.pop()
                left = stack.pop()
                if left.tag == TAG_INT and right.tag == TAG_INT:
                    stack.append(make_number(left.payload - right.payload))
                    charge(JIT_STEP + 2 * costs.TAG_TEST + costs.INT_ALU + costs.BOX)
                    return
                value, cycles = operations.sub(left, right)
                stack.append(value)
                charge(JIT_STEP + cycles)

            return handler
        if opcode == op.MUL:
            return generic_binop(operations.mul)
        if opcode == op.DIV:
            return generic_binop(operations.div)
        if opcode == op.MOD:
            return generic_binop(operations.mod)
        if opcode == op.NEG:

            def handler(frame):
                value, cycles = operations.neg(frame.stack.pop())
                frame.stack.append(value)
                charge(JIT_STEP + cycles)

            return handler
        if opcode == op.TONUM:

            def handler(frame):
                operand = frame.stack[-1]
                if operand.tag not in (TAG_INT, TAG_DOUBLE):
                    frame.stack[-1] = make_number(conversions.to_number(operand))
                    charge(JIT_STEP + costs.D2I32)
                else:
                    charge(JIT_STEP)

            return handler
        if opcode == op.BITAND:
            return generic_binop(operations.bitand)
        if opcode == op.BITOR:
            return generic_binop(operations.bitor)
        if opcode == op.BITXOR:
            return generic_binop(operations.bitxor)
        if opcode == op.SHL:
            return generic_binop(operations.shl)
        if opcode == op.SHR:
            return generic_binop(operations.shr)
        if opcode == op.USHR:
            return generic_binop(operations.ushr)
        if opcode == op.BITNOT:

            def handler(frame):
                value, cycles = operations.bitnot(frame.stack.pop())
                frame.stack.append(value)
                charge(JIT_STEP + max(cycles - 4, 2))

            return handler

        if opcode in (op.LT, op.LE, op.GT, op.GE):
            relop = {op.LT: "<", op.LE: "<=", op.GT: ">", op.GE: ">="}[opcode]

            def handler(frame):
                stack = frame.stack
                right = stack.pop()
                left = stack.pop()
                if left.tag == TAG_INT and right.tag == TAG_INT:
                    outcome = _INT_RELOPS[relop](left.payload, right.payload)
                    stack.append(TRUE if outcome else FALSE)
                    charge(JIT_STEP + 2 * costs.TAG_TEST + costs.INT_ALU)
                    return
                value, cycles = operations.compare(left, right, relop)
                stack.append(value)
                charge(JIT_STEP + cycles)

            return handler
        if opcode in (op.EQ, op.NE, op.STRICTEQ, op.STRICTNE):
            strict = opcode in (op.STRICTEQ, op.STRICTNE)
            negate = opcode in (op.NE, op.STRICTNE)

            def handler(frame):
                stack = frame.stack
                right = stack.pop()
                left = stack.pop()
                value, cycles = operations.equals(left, right, strict, negate)
                stack.append(value)
                charge(JIT_STEP + max(cycles - 4, 2))

            return handler
        if opcode == op.NOT:

            def handler(frame):
                value, cycles = operations.logical_not(frame.stack.pop())
                frame.stack.append(value)
                charge(JIT_STEP + 2)

            return handler
        if opcode == op.TYPEOF:

            def handler(frame):
                value, cycles = operations.typeof_op(frame.stack.pop())
                frame.stack.append(value)
                charge(JIT_STEP + 2)

            return handler

        # --- control flow ------------------------------------------------------
        if opcode == op.JUMP:
            target = arg
            backward = target <= pc

            def handler(frame):
                charge(costs.NATIVE_JUMP + (costs.PREEMPT_CHECK if backward else 0))
                if backward:
                    if vm.meter is not None:
                        vm.meter.poll(vm)
                    if vm.preempt_flag:
                        vm.service_preemption()
                frame.pc = target

            return handler
        if opcode in (op.IFFALSE, op.IFTRUE):
            target = arg
            when_true = opcode == op.IFTRUE
            backward = target <= pc

            def handler(frame):
                condition = frame.stack.pop()
                charge(JIT_STEP + costs.TAG_TEST + costs.NATIVE_JUMP)
                if conversions.to_boolean(condition) == when_true:
                    if backward:
                        if vm.meter is not None:
                            vm.meter.poll(vm)
                        if vm.preempt_flag:
                            vm.service_preemption()
                    frame.pc = target

            return handler
        if opcode in (op.ANDJMP, op.ORJMP):
            target = arg
            jump_on = opcode == op.ORJMP

            def handler(frame):
                charge(JIT_STEP + costs.TAG_TEST)
                if conversions.to_boolean(frame.stack[-1]) == jump_on:
                    frame.pc = target
                else:
                    frame.stack.pop()

            return handler
        if opcode == op.LOOPHEADER or opcode == op.NOP:
            return lambda frame: charge(0)

        # --- property access through inline caches --------------------------------
        if opcode == op.GETPROP:
            name = names[arg]
            ic = PropertyIC()
            method.ics.append(ic)

            def handler(frame):
                stack = frame.stack
                obj_box = stack.pop()
                stack.append(_ic_getprop(vm, ic, obj_box, name))

            return handler
        if opcode == op.SETPROP:
            name = names[arg]
            ic = PropertyIC()
            method.ics.append(ic)

            def handler(frame):
                stack = frame.stack
                value = stack.pop()
                obj_box = stack.pop()
                _ic_setprop(vm, ic, obj_box, name, value)
                stack.append(value)

            return handler
        if opcode == op.GETELEM:

            def handler(frame):
                stack = frame.stack
                index_box = stack.pop()
                obj_box = stack.pop()
                stack.append(_jit_getelem(vm, obj_box, index_box))

            return handler
        if opcode == op.SETELEM:

            def handler(frame):
                stack = frame.stack
                value = stack.pop()
                index_box = stack.pop()
                obj_box = stack.pop()
                _jit_setelem(vm, obj_box, index_box, value)
                stack.append(value)

            return handler
        if opcode == op.ITERKEYS:
            from repro.runtime.objects import enumerable_keys

            def handler(frame):
                obj_box = frame.stack.pop()
                keys = enumerable_keys(obj_box, vm.array_prototype)
                frame.stack.append(make_object(keys))
                charge(costs.ALLOC + costs.IC_MISS + keys.length)
                if vm.meter is not None:
                    vm.meter.note_cells(1 + keys.length, vm)

            return handler
        if opcode == op.DELPROP:
            name = names[arg]

            def handler(frame):
                obj_box = frame.stack.pop()
                if obj_box.tag != TAG_OBJECT:
                    raise JSThrow(make_string("TypeError: delete on non-object"))
                charge(costs.PROPERTY_LOOKUP + costs.SHAPE_TRANSITION)
                frame.stack.append(make_bool(obj_box.payload.delete_property(name)))

            return handler
        if opcode == op.INITPROP:
            name = names[arg]

            def handler(frame):
                value = frame.stack.pop()
                frame.stack[-1].payload.set_property(name, value)
                charge(costs.SHAPE_TRANSITION + costs.SLOT_ACCESS)

            return handler

        # --- allocation ---------------------------------------------------------------
        if opcode == op.NEWOBJ:

            def handler(frame):
                frame.stack.append(make_object(JSObject()))
                charge(costs.ALLOC + JIT_STEP)
                if vm.meter is not None:
                    vm.meter.note_cells(1, vm)

            return handler
        if opcode == op.NEWARR:
            count = arg

            def handler(frame):
                stack = frame.stack
                arr = JSArray(proto=vm.array_prototype)
                if count:
                    elements = stack[len(stack) - count :]
                    del stack[len(stack) - count :]
                    for index, element in enumerate(elements):
                        arr.set_element(index, element)
                stack.append(make_object(arr))
                charge(costs.ALLOC + count + JIT_STEP)
                if vm.meter is not None:
                    vm.meter.note_cells(1 + count, vm)

            return handler

        # --- calls -----------------------------------------------------------------------
        if opcode in (op.CALL, op.CALLMETHOD):
            argc = arg
            has_this = opcode == op.CALLMETHOD

            def handler(frame):
                stack = frame.stack
                args = stack[len(stack) - argc :]
                del stack[len(stack) - argc :]
                callee_box = stack.pop()
                this_box = stack.pop() if has_this else UNDEFINED
                if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
                    raise JSThrow(make_string("TypeError: not a function"))
                callee = callee_box.payload
                if isinstance(callee, NativeFunction):
                    charge(costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args))
                    stack.append(callee.fn(vm, this_box, args))
                    return None
                charge(JIT_FRAME_SETUP)
                if vm.meter is not None:
                    vm.meter.note_frame_push(len(frames) + 1, vm)
                frames.append(Frame(callee.code, this_box, args))
                return _FRAME_SWITCH

            return handler
        if opcode == op.NEW:
            argc = arg

            def handler(frame):
                stack = frame.stack
                args = stack[len(stack) - argc :]
                del stack[len(stack) - argc :]
                callee_box = stack.pop()
                if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
                    raise JSThrow(make_string("TypeError: not a constructor"))
                callee = callee_box.payload
                charge(costs.ALLOC)
                if isinstance(callee, NativeFunction):
                    charge(costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args))
                    result = callee.fn(vm, UNDEFINED, args)
                    if result.tag != TAG_OBJECT:
                        result = make_object(JSObject())
                    stack.append(result)
                    return None
                this_obj = new_object_with_proto(callee)
                charge(JIT_FRAME_SETUP + costs.SHAPE_TRANSITION)
                if vm.meter is not None:
                    vm.meter.note_frame_push(len(frames) + 1, vm)
                frames.append(Frame(callee.code, make_object(this_obj), args))
                return _FRAME_SWITCH

            return handler
        if opcode in (op.RETURN, op.RETUNDEF):
            has_value = opcode == op.RETURN

            def handler(frame):
                value = frame.stack.pop() if has_value else UNDEFINED
                frames.pop()
                charge(costs.FRAME_TEARDOWN // 2)
                return ("ret", value, frame)

            return handler

        # --- exceptions --------------------------------------------------------------------
        if opcode == op.THROW:

            def handler(frame):
                raise JSThrow(frame.stack.pop())

            return handler
        if opcode == op.TRYPUSH:
            target = arg

            def handler(frame):
                frame.try_stack.append((target, len(frame.stack)))
                charge(JIT_STEP)

            return handler
        if opcode == op.TRYPOP:

            def handler(frame):
                frame.try_stack.pop()
                charge(JIT_STEP)

            return handler
        if opcode == op.END:

            def handler(frame):
                frames.pop()
                return ("end", frame.completion, frame)

            return handler

        raise VMInternalError(f"method-jit: unhandled opcode {op.opcode_name(opcode)}")

    for pc, (opcode, arg) in enumerate(code.insns):
        handlers.append(make_handler(pc, opcode, arg))
    return method


_INT_RELOPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _ic_getprop(vm: MethodJITVM, ic: PropertyIC, obj_box: Box, name: str) -> Box:
    if obj_box.tag == TAG_STRING:
        vm._charge(costs.TAG_TEST + costs.STRING_OP)
        if name == "length":
            return make_number(len(obj_box.payload))
        fn = STRING_METHODS.get(name)
        return make_object(fn) if fn is not None else UNDEFINED
    if obj_box.tag != TAG_OBJECT:
        raise JSThrow(
            make_string(f"TypeError: cannot read property '{name}' of non-object")
        )
    obj = obj_box.payload
    special = _get_special(vm, obj, name)
    if special is not None:
        return special
    # IC fast path: own-property, shape-matched.
    if ic.shape_id == obj.shape_id and ic.proto_depth == 0:
        ic.hits += 1
        vm._charge(costs.IC_HIT)
        return obj.slots[ic.slot]
    # Miss: full lookup, then cache own-property results.
    ic.misses += 1
    vm._charge(costs.IC_MISS)
    found = obj.lookup_chain(name)
    if found is None:
        return UNDEFINED
    holder, value = found
    if holder is obj and not obj.in_dict_mode:
        ic.shape_id = obj.shape_id
        ic.slot = obj.shape.lookup(name)
        ic.proto_depth = 0
    return value


def _ic_setprop(vm: MethodJITVM, ic: PropertyIC, obj_box: Box, name: str, value: Box):
    if obj_box.tag != TAG_OBJECT:
        raise JSThrow(
            make_string(f"TypeError: cannot set property '{name}' of non-object")
        )
    obj = obj_box.payload
    if isinstance(obj, JSArray) and name == "length":
        _set_array_length(vm, obj, value)
        return
    if ic.shape_id == obj.shape_id and not obj.in_dict_mode:
        ic.hits += 1
        vm._charge(costs.IC_HIT)
        obj.slots[ic.slot] = value
        return
    ic.misses += 1
    existing = None if obj.in_dict_mode else obj.shape.lookup(name)
    vm._charge(costs.IC_MISS + (costs.SHAPE_TRANSITION if existing is None else 0))
    if existing is None and vm.meter is not None:
        vm.meter.note_cells(1, vm)
    obj.set_property(name, value)
    if not obj.in_dict_mode:
        slot = obj.shape.lookup(name)
        if slot is not None:
            ic.shape_id = obj.shape_id
            ic.slot = slot


def _get_special(vm: MethodJITVM, obj, name: str) -> Optional[Box]:
    """An array's ``length`` or a function's ``prototype`` (properties
    with no slot to cache), or None for every other read."""
    if isinstance(obj, JSArray) and name == "length":
        vm._charge(costs.TAG_TEST + costs.SLOT_ACCESS)
        return make_number(obj.length)
    if isinstance(obj, JSFunction) and name == "prototype":
        vm._charge(costs.TAG_TEST + costs.SLOT_ACCESS)
        return make_object(obj.ensure_prototype())
    return None


def _set_array_length(vm: MethodJITVM, obj: JSArray, value: Box) -> None:
    vm._charge(costs.TAG_TEST + costs.SLOT_ACCESS)
    new_length = int(conversions.to_number(value))
    if new_length < len(obj.elements):
        del obj.elements[new_length:]
    obj.length = max(new_length, 0)


def _index_of(index_box: Box):
    if index_box.tag == TAG_INT:
        return index_box.payload
    if index_box.tag == TAG_DOUBLE and index_box.payload.is_integer():
        return int(index_box.payload)
    return None


def _jit_getelem(vm: MethodJITVM, obj_box: Box, index_box: Box) -> Box:
    if obj_box.tag == TAG_OBJECT:
        obj = obj_box.payload
        index = _index_of(index_box)
        if isinstance(obj, JSArray) and index is not None:
            vm._charge(costs.TAG_TEST + costs.DENSE_ELEM)
            element = obj.get_element(index)
            return element if element is not None else UNDEFINED
        key = conversions.to_property_key(index_box)
        vm._charge(costs.STRING_OP * 2 + costs.PROPERTY_LOOKUP)
        special = _get_special(vm, obj, key)
        if special is not None:
            return special
        found = obj.lookup_chain(key)
        return found[1] if found is not None else UNDEFINED
    if obj_box.tag == TAG_STRING:
        index = _index_of(index_box)
        vm._charge(costs.TAG_TEST + costs.STRING_OP)
        if index is not None and 0 <= index < len(obj_box.payload):
            return make_string(obj_box.payload[index])
        return UNDEFINED
    raise JSThrow(make_string("TypeError: cannot index non-object"))


def _jit_setelem(vm: MethodJITVM, obj_box: Box, index_box: Box, value: Box) -> None:
    if obj_box.tag != TAG_OBJECT:
        raise JSThrow(make_string("TypeError: cannot index non-object"))
    obj = obj_box.payload
    index = _index_of(index_box)
    if isinstance(obj, JSArray) and index is not None:
        vm._charge(costs.TAG_TEST + costs.DENSE_ELEM)
        growth = index + 1 - obj.length if index >= obj.length else 0
        if obj.set_element(index, value):
            if growth and vm.meter is not None:
                vm.meter.note_cells(growth, vm)
            return
    key = conversions.to_property_key(index_box)
    vm._charge(costs.STRING_OP * 2 + costs.PROPERTY_LOOKUP)
    if isinstance(obj, JSArray) and key == "length":
        _set_array_length(vm, obj, value)
        return
    if vm.meter is not None and obj.get_own(key) is None:
        vm.meter.note_cells(1, vm)
    obj.set_property(key, value)
