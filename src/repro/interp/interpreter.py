"""The boxed-value bytecode interpreter.

Every opcode charges simulated cycles (see :mod:`repro.costs`) for
dispatch, tag tests, un/boxing, and the semantic work — these charges
are exactly what the tracing JIT later eliminates, so the cost model
*is* the experiment.

Each opcode has one implementation: its handler in the per-code table
built by :mod:`repro.interp.dispatch`.  Two short drivers walk that
table:

* the **plain** driver (:meth:`Interpreter._run_frame`) while no
  recorder is attached;
* the **recording** driver (:meth:`Interpreter._record_frame`), which
  hands each bytecode to ``Recorder.record_op`` before its handler runs
  and the value it produced to ``Recorder.record_result`` after — the
  paper's recorder observing the interpreter as it executes.

:meth:`Interpreter.execute` picks the driver each time it (re)enters a
frame, by whether ``vm.recorder`` is set.
"""

from __future__ import annotations

from typing import List, Optional

from repro import costs
from repro.bytecode import opcodes as op
from repro.bytecode.compiler import Code
from repro.costs import Activity
from repro.errors import GuestFault, JSThrow, TraceAbort, VMInternalError
from repro.interp import dispatch
from repro.interp.frames import Frame
from repro.runtime import conversions
from repro.runtime.builtins import STRING_METHODS
from repro.runtime.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    new_object_with_proto,
)
from repro.runtime.values import (
    Box,
    TAG_DOUBLE,
    TAG_INT,
    TAG_OBJECT,
    TAG_STRING,
    UNDEFINED,
    make_number,
    make_object,
    make_string,
)


class Interpreter:
    """Executes bytecode against a VM (globals, ledger, monitor, recorder).

    ``dispatch_cost`` parameterizes the baseline: ``costs.DISPATCH`` (8
    cycles) for the switch-threaded SpiderMonkey-like interpreter,
    ``costs.DISPATCH_THREADED`` (3) for the call-threaded
    SquirrelFish-like baseline.
    """

    def __init__(self, vm, dispatch_cost: int = costs.DISPATCH):
        self.vm = vm
        self.dispatch_cost = dispatch_cost
        #: The ledger's buckets (``vm.stats`` lives as long as the VM):
        #: every per-bytecode charge is one in-place add to one of them.
        self._buckets = vm.stats.ledger.by_activity
        self.frames: List[Frame] = []
        # RETURN/RETUNDEF value handoff from the handlers (the driver
        # owns the frames/base-depth bookkeeping).
        self._ret: Optional[Box] = None

    # -- cost / profile helpers ---------------------------------------------

    def _charge(self, cycles: int) -> None:
        # The handlers' ``charge``, for work whose cost depends on the
        # operands (the drivers book each bytecode's static cost): the
        # activity follows the recorder.
        if self.vm.recorder is None:
            self._buckets[INTERPRET] += cycles
        else:
            self._buckets[RECORD] += cycles

    # -- entry points ----------------------------------------------------------

    def run_toplevel(self, code: Code) -> Box:
        """Run a compiled program; returns the completion value."""
        frame = Frame(code)
        profiler = self.vm.profiler
        if profiler is None:
            return self._execute_toplevel(frame)
        # The phase timeline brackets the whole top-level run; phase
        # switches inside come from the monitor / recorder / compiler
        # hook sites, never from the per-bytecode dispatch loop.
        profiler.start()
        try:
            return self._execute_toplevel(frame)
        finally:
            profiler.finish()

    def _execute_toplevel(self, frame: Frame) -> Box:
        try:
            return self.execute(frame)
        except GuestFault:
            # Guest faults unwind the whole job without popping frames
            # (guest ``try`` cannot catch them); drop them here so the
            # VM stays reusable for the next job.
            del self.frames[:]
            raise

    def call_function(self, fn, this_box: Box, args: List[Box]) -> Box:
        """Call a JSLite or native function from the host."""
        if isinstance(fn, NativeFunction):
            return fn.fn(self.vm, this_box, args)
        if not isinstance(fn, JSFunction):
            raise JSThrow(make_string("TypeError: not a function"))
        frame = Frame(fn.code, this_box, args)
        return self.execute(frame)

    # -- throw handling -----------------------------------------------------------

    def _unwind(self, frames: List[Frame], base_depth: int, value: Box) -> bool:
        """Unwind ``frames`` (down to ``base_depth``) looking for a handler.

        Returns True if a handler was found (the frame is positioned at
        it with the exception pushed); otherwise frames are popped to
        ``base_depth`` and the caller re-raises.
        """
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
            self._charge(costs.FRAME_TEARDOWN)
        return False

    # -- the drivers -----------------------------------------------------------

    def execute(self, frame: Frame) -> Box:
        """Run ``frame`` (and everything it calls) to completion."""
        vm = self.vm
        frames = self.frames
        base_depth = len(frames)
        frames.append(frame)

        while len(frames) > base_depth:
            frame = frames[-1]
            drive = self._run_frame if vm.recorder is None else self._record_frame
            try:
                result = drive(frame, frames, base_depth)
            except JSThrow as thrown:
                if vm.recorder is not None:
                    vm.monitor.abort_recording("exception-thrown")
                if not self._unwind(frames, base_depth, thrown.value):
                    raise
                continue
            if result is not _SWITCH_FRAME:
                return result
        raise VMInternalError("interpreter frame stack underflow")

    @staticmethod
    def _tables(code: Code):
        """``code``'s handler table and static costs, built on first use."""
        tables = code.threaded_table
        if tables is None:
            tables = code.threaded_table = dispatch.build_table(code)
        return tables

    def _run_frame(self, frame: Frame, frames: List[Frame], base_depth: int):
        """The plain driver: one table call per bytecode.

        Runs until the top frame changes, a recorder attaches (the
        loop-header handler then returns ``_SWITCH_FRAME``), or
        execution completes.  Returns ``_SWITCH_FRAME`` or the final
        completion/return Box.
        """
        vm = self.vm
        table, static = self._tables(frame.code)
        buckets = self._buckets
        stack = frame.stack
        charge = self._charge
        dispatch_cost = self.dispatch_cost
        # ``profile.interpreted``'s share of this call, added on every
        # exit (return, frame switch, exception); nothing reads the
        # counter while a frame runs.
        interpreted = 0

        try:
            while True:
                pc = frame.pc
                frame.pc = pc + 1
                interpreted += 1
                # ``charge(dispatch_cost + static[pc])`` in place, with
                # its recorder test.
                if vm.recorder is None:
                    buckets[INTERPRET] += dispatch_cost + static[pc]
                else:
                    buckets[RECORD] += dispatch_cost + static[pc]
                result = table[pc](self, frame, stack, charge, pc)
                if result is None:
                    continue
                if result is _DO_RETURN:
                    return self._return(frame, frames, base_depth)
                # _SWITCH_FRAME, or END's completion Box.
                return result
        finally:
            vm.stats.profile.interpreted += interpreted

    def _record_frame(self, frame: Frame, frames: List[Frame], base_depth: int):
        """The recording driver: the plain driver with the recorder's
        hooks around each handler.  Hands back to the plain driver
        (``_SWITCH_FRAME``) at the first bytecode after recording ends."""
        vm = self.vm
        monitor = vm.monitor
        profile = vm.stats.profile
        buckets = self._buckets
        insns = frame.code.insns
        table, static = self._tables(frame.code)
        stack = frame.stack
        charge = self._charge
        dispatch_cost = self.dispatch_cost
        RECORD_PER_BYTECODE = costs.RECORD_PER_BYTECODE

        while True:
            recorder = vm.recorder
            if recorder is None:
                return _SWITCH_FRAME
            pc = frame.pc
            opcode, arg = insns[pc]
            frame.pc = pc + 1
            profile.recorded += 1
            buckets[RECORD] += RECORD_PER_BYTECODE
            try:
                wants_result = recorder.record_op(self, frame, pc, opcode, arg)
            except TraceAbort as abort:
                monitor.abort_recording(abort.reason)
                wants_result = False
            except (JSThrow, GuestFault):
                raise
            except Exception as error:
                # The record firewall boundary: recording is passive
                # (the bytecode has not executed yet), so containing the
                # failure and dropping the recorder resumes
                # interpretation with no state repair needed.
                if not monitor.contain_internal_failure("record", error):
                    raise
                wants_result = False
            # In place, as in the plain driver: ``record_op`` may have
            # ended the recording.
            if vm.recorder is None:
                buckets[INTERPRET] += dispatch_cost + static[pc]
            else:
                buckets[RECORD] += dispatch_cost + static[pc]
            result = table[pc](self, frame, stack, charge, pc)
            if result is None:
                if wants_result:
                    recorder.record_result(stack[-1])
                continue
            if result is _DO_RETURN:
                return self._return(frame, frames, base_depth)
            return result

    def _return(self, frame: Frame, frames: List[Frame], base_depth: int):
        """RETURN/RETUNDEF bookkeeping for both drivers: pop ``frame``
        and hand the handler's stashed value to the caller (or return
        it, when ``frame`` was this activation's base)."""
        value = self._ret
        self._ret = None
        frames.pop()
        self._charge(costs.FRAME_TEARDOWN)
        if len(frames) == base_depth:
            return value
        caller = frames[-1]
        if caller.code.insns[caller.pc - 1][0] == op.NEW:
            # `new F()`: a non-object return is replaced by `this`.
            if value.tag != TAG_OBJECT:
                value = frame.this_box
        caller.stack.append(value)
        return _SWITCH_FRAME

    # -- preemption (Section 6.4) ---------------------------------------------

    def _check_preemption(self) -> None:
        self._charge(costs.PREEMPT_CHECK)
        vm = self.vm
        meter = vm.meter
        if meter is not None:
            # Ledger-based limit checks (deadline / compile quota /
            # cancellation); a breach sets the preemption flag so the
            # fault below is delivered at this loop-edge safe point.
            meter.poll(vm)
        if vm.preempt_flag:
            vm.service_preemption()

    # -- property access helpers -----------------------------------------------

    def _getprop(self, obj_box: Box, name: str) -> Box:
        tag = obj_box.tag
        if tag == TAG_STRING:
            self._charge(costs.TAG_TEST + costs.STRING_OP + costs.STACK_OP)
            if name == "length":
                return make_number(len(obj_box.payload))
            method = STRING_METHODS.get(name)
            if method is not None:
                return make_object(method)
            return UNDEFINED
        if tag != TAG_OBJECT:
            raise JSThrow(
                make_string(f"TypeError: cannot read property '{name}' of non-object")
            )
        obj = obj_box.payload
        if isinstance(obj, JSArray) and name == "length":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS + costs.STACK_OP)
            return make_number(obj.length)
        if isinstance(obj, JSFunction) and name == "prototype":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS + costs.STACK_OP)
            return make_object(obj.ensure_prototype())
        depth = obj.chain_depth_of(name)
        self._charge(
            costs.TAG_TEST
            + depth * costs.PROPERTY_LOOKUP
            + costs.SLOT_ACCESS
            + costs.STACK_OP
        )
        found = obj.lookup_chain(name)
        if found is None:
            return UNDEFINED
        return found[1]

    def _setprop(self, obj_box: Box, name: str, value: Box) -> None:
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(
                make_string(f"TypeError: cannot set property '{name}' of non-object")
            )
        obj = obj_box.payload
        if isinstance(obj, JSArray) and name == "length":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS)
            new_length = int(conversions.to_number(value))
            if new_length < len(obj.elements):
                del obj.elements[new_length:]
            obj.length = max(new_length, 0)
            return
        is_new = obj.get_own(name) is None
        self._charge(
            costs.TAG_TEST
            + costs.PROPERTY_LOOKUP
            + costs.SLOT_ACCESS
            + (costs.SHAPE_TRANSITION if is_new else 0)
        )
        if is_new and self.vm.meter is not None:
            self.vm.meter.note_cells(1, self.vm)
        obj.set_property(name, value)

    @staticmethod
    def _index_of(index_box: Box):
        """Integer index of a numeric box, or None."""
        if index_box.tag == TAG_INT:
            return index_box.payload
        if index_box.tag == TAG_DOUBLE and index_box.payload.is_integer():
            return int(index_box.payload)
        return None

    def _getelem(self, obj_box: Box, index_box: Box) -> Box:
        if obj_box.tag == TAG_OBJECT:
            obj = obj_box.payload
            index = self._index_of(index_box)
            if isinstance(obj, JSArray) and index is not None:
                self._charge(costs.TAG_TEST * 2 + costs.DENSE_ELEM + costs.STACK_OP)
                if index_box.tag == TAG_DOUBLE:
                    self._charge(costs.D2I)
                element = obj.get_element(index)
                return element if element is not None else UNDEFINED
            # Generic path: number -> string key conversion (paper, fn. 1).
            key = conversions.to_property_key(index_box)
            self._charge(
                costs.TAG_TEST * 2
                + costs.STRING_OP * 2
                + costs.PROPERTY_LOOKUP
                + costs.STACK_OP
            )
            return self._getprop(obj_box, key)
        if obj_box.tag == TAG_STRING:
            index = self._index_of(index_box)
            self._charge(costs.TAG_TEST * 2 + costs.STRING_OP + costs.STACK_OP)
            if index is not None and 0 <= index < len(obj_box.payload):
                return make_string(obj_box.payload[index])
            return UNDEFINED
        raise JSThrow(make_string("TypeError: cannot index non-object"))

    def _setelem(self, obj_box: Box, index_box: Box, value: Box) -> None:
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(make_string("TypeError: cannot index non-object"))
        obj = obj_box.payload
        index = self._index_of(index_box)
        if isinstance(obj, JSArray) and index is not None:
            self._charge(costs.TAG_TEST * 2 + costs.DENSE_ELEM)
            if index_box.tag == TAG_DOUBLE:
                self._charge(costs.D2I)
            growth = index + 1 - obj.length if index >= obj.length else 0
            if obj.set_element(index, value):
                if growth and self.vm.meter is not None:
                    self.vm.meter.note_cells(growth, self.vm)
                return
        key = conversions.to_property_key(index_box)
        self._charge(costs.TAG_TEST * 2 + costs.STRING_OP * 2)
        self._setprop(obj_box, key, value)

    # -- call helpers ---------------------------------------------------------------

    def _do_call(
        self,
        frames: List[Frame],
        frame: Frame,
        callee_box: Box,
        this_box: Box,
        args: List[Box],
    ) -> bool:
        """Returns True if a new interpreter frame was pushed."""
        if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
            raise JSThrow(make_string("TypeError: not a function"))
        callee = callee_box.payload
        if isinstance(callee, NativeFunction):
            self._charge(
                costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args) + costs.STACK_OP
            )
            frame.stack.append(callee.fn(self.vm, this_box, args))
            return False
        self._charge(costs.FRAME_SETUP)
        vm = self.vm
        if vm.meter is not None:
            # Pure recursion never crosses a loop edge, so the call
            # boundary doubles as a stack-quota/deadline safe point.
            vm.meter.note_frame_push(len(frames) + 1, vm)
        new_frame = Frame(callee.code, this_box, args)
        frames.append(new_frame)
        return True

    def _do_new(
        self,
        frames: List[Frame],
        frame: Frame,
        callee_box: Box,
        args: List[Box],
    ) -> bool:
        if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
            raise JSThrow(make_string("TypeError: not a constructor"))
        callee = callee_box.payload
        self._charge(costs.ALLOC)
        if isinstance(callee, NativeFunction):
            self._charge(costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args))
            result = callee.fn(self.vm, UNDEFINED, args)
            if result.tag != TAG_OBJECT:
                result = make_object(JSObject())
            frame.stack.append(result)
            return False
        this_obj = new_object_with_proto(callee)
        self._charge(costs.FRAME_SETUP + costs.SHAPE_TRANSITION)
        vm = self.vm
        if vm.meter is not None:
            vm.meter.note_cells(1, vm)
            vm.meter.note_frame_push(len(frames) + 1, vm)
        new_frame = Frame(callee.code, make_object(this_obj), args)
        frames.append(new_frame)
        return True


INTERPRET = Activity.INTERPRET
RECORD = Activity.RECORD

#: Sentinel: the top frame changed, or the driver must be picked
#: afresh; refresh cached state.  Shared with the handler table.
_SWITCH_FRAME = dispatch.SWITCH_FRAME
#: Sentinel: a RETURN/RETUNDEF handler stashed its value in
#: ``interp._ret``.
_DO_RETURN = dispatch.DO_RETURN
