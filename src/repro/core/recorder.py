"""The trace recorder (paper Sections 3 and 6.3).

The interpreter forwards every bytecode to :meth:`Recorder.record_op`
*before* executing it; the recorder mirrors the interpreter's stack and
locals with an abstract state mapping each storage location to the LIR
value (SSA instruction) that currently holds it, and emits
type-specialized LIR with guards through the forward filter pipeline.

Operations whose result type is unpredictable (property reads, element
reads, legacy-FFI native calls — the paper's ``String.charCodeAt``
example) make the interpreter call back :meth:`Recorder.record_result`
after execution, at which point a type guard on the observed result is
emitted (Section 3.1, "Type specialization").

The recorder also emits a store to the trace activation record for
every interpreter-visible write (Figure 3 stores every stack slot);
dead stores are removed later by the backward filters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import costs
from repro.bytecode import opcodes as op
from repro.core import exits as exitkind
from repro.core.exits import FrameSnapshot, SideExit
from repro.core.lir import LIR_TO_TRACETYPE, LIns, TRACETYPE_TO_LIR
from repro.core.tree import Fragment
from repro.core.typemap import TraceType, type_of_box
from repro.errors import TraceAbort, VMInternalError
from repro.hardening import faults as fault_sites
from repro.jit.native import CallSpec
from repro.jit.pipeline import ForwardPipeline
from repro.core import helpers
from repro.runtime import operations
from repro.runtime.builtins import STRING_METHODS
from repro.runtime.objects import JSArray, JSFunction, NativeFunction
from repro.runtime.values import (
    Box,
    TAG_BOOLEAN,
    TAG_DOUBLE,
    TAG_INT,
    TAG_NULL,
    TAG_OBJECT,
    TAG_STRING,
    UNDEFINED,
)


class AbsFrame:
    """Abstract mirror of one interpreter frame during recording."""

    __slots__ = (
        "code",
        "depth",
        "stack",
        "locals",
        "this_ins",
        "resume_pc",
        "is_constructor",
    )

    def __init__(self, code, depth: int):
        self.code = code
        self.depth = depth
        self.stack: List[LIns] = []
        self.locals: List[LIns] = []
        self.this_ins: Optional[LIns] = None
        self.resume_pc = -1
        #: entered via ``new``: a non-object return yields ``this``.
        self.is_constructor = False


_RELOPS_I = {op.LT: "lti", op.LE: "lei", op.GT: "gti", op.GE: "gei"}
_RELOPS_D = {op.LT: "ltd", op.LE: "led", op.GT: "gtd", op.GE: "ged"}
_RELOPS_S = {op.LT: "lts", op.LE: "les", op.GT: "gts", op.GE: "ges"}
_ARITH_I = {op.ADD: "addi", op.SUB: "subi", op.MUL: "muli"}
_ARITH_D = {op.ADD: "addd", op.SUB: "subd", op.MUL: "muld"}
_ARITH_GENERIC = {
    op.ADD: operations.add,
    op.SUB: operations.sub,
    op.MUL: operations.mul,
}
_BITOPS = {
    op.BITAND: "andi",
    op.BITOR: "ori",
    op.BITXOR: "xori",
    op.SHL: "shli",
    op.SHR: "shri",
}


class Recorder:
    """Records one trace (root or branch) for one trace tree."""

    def __init__(self, vm, monitor, tree, is_branch: bool = False, anchor_exit=None):
        self.vm = vm
        self.monitor = monitor
        self.tree = tree
        self.config = vm.config
        self.is_branch = is_branch
        self.anchor_exit = anchor_exit
        #: The fragment this recording fills (in the RECORDED lifecycle
        #: state until compilation): the tree's root trunk, or a fresh
        #: branch fragment hanging off the anchor exit.
        if is_branch:
            self.fragment = Fragment(tree, "branch")
            self.fragment.anchor_exit = anchor_exit
        else:
            self.fragment = tree.fragment
        self.pipe = ForwardPipeline(vm.config, faults=vm.faults)
        # Hoisted record_op hot-path lookups (one record_op call per
        # recorded bytecode walks these otherwise).
        self._faults = vm.faults
        self._max_trace_length = vm.config.max_trace_length
        self.frames_abs: List[AbsFrame] = []
        self.globals_abs: Dict[str, LIns] = {}
        self.bytecodes_recorded = 0
        self.pending = None
        self.finished = False
        #: >0 while a native has re-entered the interpreter (recording
        #: is paused; the nested execution is part of the recorded call).
        self.suspended = 0
        self.status = None  # 'stable' | 'unstable' | 'loop-exit' | 'forced'

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------

    def init_root(self, frame) -> None:
        """Start recording at the tree's loop header from live state."""
        code = frame.code
        oracle = self.monitor.oracle
        abs_frame = AbsFrame(code, 0)
        for index, box in enumerate(frame.locals):
            trace_type = type_of_box(box)
            if trace_type is TraceType.INT and oracle.should_demote(
                oracle.local_key(code, index)
            ):
                trace_type = TraceType.DOUBLE
            slot = self.tree.add_entry_location(("local", 0, index), trace_type)
            abs_frame.locals.append(self._param(slot, trace_type))
        if not code.is_toplevel:
            trace_type = type_of_box(frame.this_box)
            slot = self.tree.add_entry_location(("this", 0), trace_type)
            abs_frame.this_ins = self._param(slot, trace_type)
        else:
            abs_frame.this_ins = self.emit("const", imm=None, type="u")
        self.frames_abs.append(abs_frame)
        # Snapshot the loop-header state once: the optimizer retargets
        # guards it hoists into the trunk prologue at this exit (the
        # stack is empty and no globals have been touched yet, so the
        # snapshot is valid on every entry to the tree).
        self.tree.entry_exit = self.make_exit(exitkind.ENTRY, pc=self.tree.header_pc)

    def init_branch(self) -> None:
        """Start recording at a side exit, reusing the tree's AR layout."""
        exit = self.anchor_exit
        codes = [self.tree.code] + [snapshot.code for snapshot in exit.frames]
        for depth, code in enumerate(codes):
            abs_frame = AbsFrame(code, depth)
            abs_frame.locals = [None] * code.n_locals
            abs_frame.this_ins = self.emit("const", imm=None, type="u")
            if depth == 0:
                abs_frame.resume_pc = exit.anchor_resume_pc
            else:
                abs_frame.resume_pc = exit.frames[depth - 1].resume_pc
            self.frames_abs.append(abs_frame)
        stack_depths = [exit.stack_depth0] + [
            snapshot.stack_depth for snapshot in exit.frames
        ]
        for depth, abs_frame in enumerate(self.frames_abs):
            abs_frame.stack = [None] * stack_depths[depth]
        for loc, trace_type, slot in exit.livemap:
            if loc == exit.result_loc and exit.branch_result_type is not None:
                # The type guard fired: the branch specializes for the
                # actual type, not the expectation the guard tested.
                trace_type = exit.branch_result_type
            value = self._param(slot, trace_type)
            kind = loc[0]
            if kind == "local":
                self.frames_abs[loc[1]].locals[loc[2]] = value
            elif kind == "stack":
                self.frames_abs[loc[1]].stack[loc[2]] = value
            elif kind == "this":
                self.frames_abs[loc[1]].this_ins = value
            else:  # global
                self.globals_abs[loc[1]] = value
        for abs_frame in self.frames_abs:
            for index, value in enumerate(abs_frame.locals):
                if value is None:
                    abs_frame.locals[index] = self.emit("const", imm=None, type="u")
            for index, value in enumerate(abs_frame.stack):
                if value is None:
                    raise VMInternalError("branch entry stack slot missing from livemap")

    def _param(self, slot: int, trace_type: TraceType) -> LIns:
        return self.emit(
            "param", slot=slot, type=TRACETYPE_TO_LIR[trace_type]
        )

    # ------------------------------------------------------------------
    # Emission utilities
    # ------------------------------------------------------------------

    def emit(self, opname, args=(), imm=None, type="v", exit=None, slot=None, aux=None):
        return self.pipe.emit(
            LIns(opname, tuple(args), imm=imm, type=type, exit=exit, slot=slot, aux=aux)
        )

    def const_for_box(self, box: Box) -> LIns:
        tag = box.tag
        if tag == TAG_INT:
            return self.emit("const", imm=box.payload, type="i")
        if tag == TAG_DOUBLE:
            return self.emit("const", imm=box.payload, type="d")
        if tag == TAG_STRING:
            return self.emit("const", imm=box.payload, type="s")
        if tag == TAG_BOOLEAN:
            return self.emit("const", imm=box.payload, type="b")
        if tag == TAG_OBJECT:
            return self.emit("const", imm=box.payload, type="o")
        if tag == TAG_NULL:
            return self.emit("const", imm=None, type="n")
        return self.emit("const", imm=None, type="u")

    def const_i(self, value: int) -> LIns:
        return self.emit("const", imm=value, type="i")

    @property
    def depth(self) -> int:
        return len(self.frames_abs) - 1

    @property
    def top(self) -> AbsFrame:
        return self.frames_abs[-1]

    def _stack_slot(self, frame: AbsFrame, index: int) -> int:
        return self.tree.slot_for(("stack", frame.depth, index))

    def push(self, value: LIns) -> None:
        frame = self.top
        frame.stack.append(value)
        self.emit(
            "star", (value,), slot=self._stack_slot(frame, len(frame.stack) - 1)
        )

    def pop(self) -> LIns:
        return self.top.stack.pop()

    def set_local(self, index: int, value: LIns) -> None:
        frame = self.top
        frame.locals[index] = value
        slot = self.tree.slot_for(("local", frame.depth, index))
        self.emit("star", (value,), slot=slot)

    def set_global(self, name: str, value: LIns) -> None:
        gslot = self.monitor.global_slot(name)
        self.globals_abs[name] = value
        self.tree.written_globals.add(name)
        trace_type = LIR_TO_TRACETYPE[value.type]
        self.emit("star", (value,), slot=-(gslot + 1), aux=trace_type)

    # ------------------------------------------------------------------
    # Exit snapshots
    # ------------------------------------------------------------------

    def make_exit(
        self,
        kind: str,
        pc: int,
        pops: int = 0,
        extra_types=(),
        result_loc=None,
    ) -> SideExit:
        """Snapshot the abstract state as a side exit.

        ``pops`` drops that many entries off the top frame's stack for
        the snapshot (e.g. a branch guard's exit resumes after the
        condition was consumed).  ``extra_types`` appends synthetic
        stack entries (for exits *after* an instruction whose result the
        trace has not pushed yet).
        """
        livemap = []
        for abs_frame in self.frames_abs:
            depth = abs_frame.depth
            for index, value in enumerate(abs_frame.locals):
                livemap.append(self._live_entry(("local", depth, index), value))
            is_top = abs_frame is self.frames_abs[-1]
            stack = abs_frame.stack[: len(abs_frame.stack) - pops] if is_top else abs_frame.stack
            for index, value in enumerate(stack):
                livemap.append(self._live_entry(("stack", depth, index), value))
            if is_top:
                for offset, trace_type in enumerate(extra_types):
                    loc = ("stack", depth, len(stack) + offset)
                    slot = self.tree.slot_for(loc)
                    livemap.append((loc, trace_type, slot))
            if depth > 0 or not abs_frame.code.is_toplevel:
                livemap.append(self._live_entry(("this", depth), abs_frame.this_ins))
        for name, value in self.globals_abs.items():
            gslot = self.monitor.global_slot(name)
            livemap.append(
                (("global", name), LIR_TO_TRACETYPE[value.type], -(gslot + 1))
            )
        frames = []
        for abs_frame in self.frames_abs[1:]:
            is_top = abs_frame is self.frames_abs[-1]
            resume = pc if is_top else abs_frame.resume_pc
            stack_depth = len(abs_frame.stack) - (pops if is_top else 0)
            if is_top:
                stack_depth += len(extra_types)
            frames.append(FrameSnapshot(abs_frame.code, resume, stack_depth))
        anchor = self.frames_abs[0]
        is_anchor_top = len(self.frames_abs) == 1
        stack_depth0 = len(anchor.stack) - (pops if is_anchor_top else 0)
        if is_anchor_top:
            stack_depth0 += len(extra_types)
        exit = SideExit(
            kind=kind,
            pc=pc,
            frames=tuple(frames),
            stack_depth0=stack_depth0,
            livemap=tuple(livemap),
            bytecode_progress=self.bytecodes_recorded,
            result_loc=result_loc,
            anchor_resume_pc=(pc if is_anchor_top else anchor.resume_pc),
            exit_id=next(self.monitor.exit_ids),
        )
        return exit

    def _live_entry(self, loc: tuple, value: LIns):
        if value.type == "x":
            raise TraceAbort("boxed-value-live-at-exit")
        slot = self.tree.slot_for(loc)
        return (loc, LIR_TO_TRACETYPE[value.type], slot)

    def guard_true(self, condition: LIns, exit: SideExit, boxed: Optional[LIns] = None):
        """Exit if ``condition`` is false."""
        self.emit("xf", (condition,), exit=exit, aux=boxed)

    def guard_false(self, condition: LIns, exit: SideExit, boxed: Optional[LIns] = None):
        """Exit if ``condition`` is true."""
        self.emit("xt", (condition,), exit=exit, aux=boxed)

    # ------------------------------------------------------------------
    # Type coercions on trace
    # ------------------------------------------------------------------

    def ensure_d(self, value: LIns) -> LIns:
        if value.type == "d":
            return value
        if value.type in ("i", "b"):
            return self.emit("i2d", (value,), type="d")
        raise TraceAbort(f"cannot promote {value.type!r} to double")

    def ensure_i32(self, value: LIns) -> LIns:
        if value.type in ("i", "b"):
            return value
        if value.type == "d":
            return self.emit("d2i32", (value,), type="i")
        raise TraceAbort(f"cannot convert {value.type!r} to int32")

    def to_bool(self, value: LIns) -> LIns:
        t = value.type
        if t == "b":
            return value
        if t == "i":
            return self.emit("tobooli", (value,), type="b")
        if t == "d":
            return self.emit("toboold", (value,), type="b")
        if t == "s":
            return self.emit("tobools", (value,), type="b")
        if t == "o":
            return self.emit("const", imm=True, type="b")
        if t in ("n", "u"):
            return self.emit("const", imm=False, type="b")
        raise TraceAbort("tobool-on-boxed")

    # ------------------------------------------------------------------
    # The main dispatch
    # ------------------------------------------------------------------

    def record_op(self, interp, frame, pc: int, opcode: int, arg) -> bool:
        """Record one bytecode.  Returns True if the interpreter must
        call :meth:`record_result` after executing it.

        Dispatch is a per-opcode method table (:data:`_RECORD`), not an
        opcode chain — one list index per recorded bytecode.  The
        handlers run the exact same emission calls in the same order,
        so the recorded LIR is unchanged.
        """
        if self.finished or self.suspended:
            return False
        faults = self._faults
        if faults is not None:
            faults.fire(fault_sites.RECORD_OP)
        if len(self.pipe.lir) > self._max_trace_length:
            raise TraceAbort("trace-too-long")
        self.bytecodes_recorded += 1

        # Leaving the anchor loop (in the anchor frame) ends the trace
        # with a normal loop exit — including reaching an outer loop's
        # header (Section 3.2: do not extend along paths that leave).
        if len(self.frames_abs) == 1 and not self.tree.loop_info.contains_pc(pc):
            self.bytecodes_recorded -= 1
            self.end_with_loop_exit(pc)
            return False

        handler = _RECORD[opcode]
        if handler is None:
            raise TraceAbort(f"unrecordable-opcode-{op.opcode_name(opcode)}")
        return handler(self, frame, pc, opcode, arg)

    # -- per-opcode record handlers (uniform signature, see _RECORD) --------

    def _rec_nop(self, frame, pc, opcode, arg) -> bool:
        return False

    def _rec_const(self, frame, pc, opcode, arg) -> bool:
        self.push(self.const_for_box(frame.code.consts[arg]))
        return False

    def _rec_zero(self, frame, pc, opcode, arg) -> bool:
        self.push(self.const_i(0))
        return False

    def _rec_one(self, frame, pc, opcode, arg) -> bool:
        self.push(self.const_i(1))
        return False

    def _rec_undef(self, frame, pc, opcode, arg) -> bool:
        self.push(self.emit("const", imm=None, type="u"))
        return False

    def _rec_null(self, frame, pc, opcode, arg) -> bool:
        self.push(self.emit("const", imm=None, type="n"))
        return False

    def _rec_true(self, frame, pc, opcode, arg) -> bool:
        self.push(self.emit("const", imm=True, type="b"))
        return False

    def _rec_false(self, frame, pc, opcode, arg) -> bool:
        self.push(self.emit("const", imm=False, type="b"))
        return False

    def _rec_this(self, frame, pc, opcode, arg) -> bool:
        self.push(self.top.this_ins)
        return False

    def _rec_getlocal(self, frame, pc, opcode, arg) -> bool:
        self.push(self.top.locals[arg])
        return False

    def _rec_setlocal(self, frame, pc, opcode, arg) -> bool:
        self.set_local(arg, self.top.stack[-1])
        return False

    def _rec_getglobal(self, frame, pc, opcode, arg) -> bool:
        self.record_getglobal(frame.code.names[arg])
        return False

    def _rec_setglobal(self, frame, pc, opcode, arg) -> bool:
        self.set_global(frame.code.names[arg], self.top.stack[-1])
        return False

    def _rec_pop(self, frame, pc, opcode, arg) -> bool:
        # POPV too: top-level completion values are not tracked on
        # trace (the benchmark programs read their result after all
        # loops).
        self.pop()
        return False

    def _rec_dup(self, frame, pc, opcode, arg) -> bool:
        self.push(self.top.stack[-1])
        return False

    def _rec_swap(self, frame, pc, opcode, arg) -> bool:
        frame_abs = self.top
        frame_abs.stack[-1], frame_abs.stack[-2] = (
            frame_abs.stack[-2],
            frame_abs.stack[-1],
        )
        top_index = len(frame_abs.stack) - 1
        self.emit(
            "star",
            (frame_abs.stack[-1],),
            slot=self._stack_slot(frame_abs, top_index),
        )
        self.emit(
            "star",
            (frame_abs.stack[-2],),
            slot=self._stack_slot(frame_abs, top_index - 1),
        )
        return False

    def _rec_arith(self, frame, pc, opcode, arg) -> bool:
        self.record_arith(frame, pc, opcode)
        return False

    def _rec_div(self, frame, pc, opcode, arg) -> bool:
        self.record_div(frame, pc)
        return False

    def _rec_mod(self, frame, pc, opcode, arg) -> bool:
        self.record_mod(frame, pc)
        return False

    def _rec_neg(self, frame, pc, opcode, arg) -> bool:
        self.record_neg(frame, pc)
        return False

    def _rec_tonum(self, frame, pc, opcode, arg) -> bool:
        operand = frame.stack[-1]
        if operand.tag not in (TAG_INT, TAG_DOUBLE):
            raise TraceAbort("tonum-on-non-number")
        return False

    def _rec_bitop(self, frame, pc, opcode, arg) -> bool:
        self.record_bitop(frame, pc, opcode)
        return False

    def _rec_relop(self, frame, pc, opcode, arg) -> bool:
        self.record_relop(frame, pc, opcode)
        return False

    def _rec_equality(self, frame, pc, opcode, arg) -> bool:
        self.record_equality(frame, pc, opcode)
        return False

    def _rec_not(self, frame, pc, opcode, arg) -> bool:
        value = self.pop()
        self.push(self.emit("notb", (self.to_bool(value),), type="b"))
        return False

    def _rec_typeof(self, frame, pc, opcode, arg) -> bool:
        self.record_typeof(frame)
        return False

    def _rec_jump(self, frame, pc, opcode, arg) -> bool:
        # Straight-line on trace; the loop edge closes at the header.
        return False

    def _rec_branch(self, frame, pc, opcode, arg) -> bool:
        self.record_branch(frame, pc, opcode, arg)
        return False

    def _rec_shortcircuit(self, frame, pc, opcode, arg) -> bool:
        self.record_shortcircuit(frame, pc, opcode, arg)
        return False

    def _rec_getprop(self, frame, pc, opcode, arg) -> bool:
        return self.record_getprop(frame, pc, frame.code.names[arg])

    def _rec_setprop(self, frame, pc, opcode, arg) -> bool:
        self.record_setprop(frame, pc, frame.code.names[arg])
        return False

    def _rec_getelem(self, frame, pc, opcode, arg) -> bool:
        return self.record_getelem(frame, pc)

    def _rec_setelem(self, frame, pc, opcode, arg) -> bool:
        self.record_setelem(frame, pc)
        return False

    def _rec_initprop(self, frame, pc, opcode, arg) -> bool:
        self.record_initprop(frame, pc, frame.code.names[arg])
        return False

    def _rec_delprop(self, frame, pc, opcode, arg) -> bool:
        raise TraceAbort("delete-on-trace")

    def _rec_iterkeys(self, frame, pc, opcode, arg) -> bool:
        # Property enumeration order is not shape-guardable; like 2009
        # TraceMonkey, for..in setup stays in the interpreter.
        raise TraceAbort("iterkeys-on-trace")

    def _rec_newobj(self, frame, pc, opcode, arg) -> bool:
        self.push(self.emit("call", (), imm=helpers.NEW_OBJECT, type="o"))
        return False

    def _rec_newarr(self, frame, pc, opcode, arg) -> bool:
        self.record_newarr(frame, pc, arg)
        return False

    def _rec_call(self, frame, pc, opcode, arg) -> bool:
        return self.record_call(frame, pc, opcode, arg)

    def _rec_return(self, frame, pc, opcode, arg) -> bool:
        self.record_return(opcode)
        return False

    def _rec_throw(self, frame, pc, opcode, arg) -> bool:
        raise TraceAbort("throw-on-trace")

    def _rec_tryblock(self, frame, pc, opcode, arg) -> bool:
        raise TraceAbort("try-block-on-trace")

    def _rec_end(self, frame, pc, opcode, arg) -> bool:
        raise TraceAbort("end-of-program-on-trace")

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def record_getglobal(self, name: str) -> None:
        existing = self.globals_abs.get(name)
        if existing is not None:
            self.push(existing)
            return
        box = self.vm.globals.get(name)
        if box is None:
            raise TraceAbort("undefined-global")
        oracle = self.monitor.oracle
        trace_type = type_of_box(box)
        already = self.tree.global_type_of(name)
        if already is not None:
            if already is trace_type or (
                already is TraceType.DOUBLE and trace_type is TraceType.INT
            ):
                trace_type = already
            else:
                raise TraceAbort("global-type-changed")
        elif trace_type is TraceType.INT and oracle.should_demote(
            oracle.global_key(name)
        ):
            trace_type = TraceType.DOUBLE
        gslot = self.monitor.global_slot(name)
        try:
            self.tree.add_global_import(name, gslot, trace_type)
        except VMInternalError as error:
            raise TraceAbort("global-type-conflict") from error
        value = self.emit(
            "ldar", slot=-(gslot + 1), type=TRACETYPE_TO_LIR[trace_type]
        )
        self.globals_abs[name] = value
        self.push(value)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def record_arith(self, frame, pc: int, opcode: int) -> None:
        right_box, left_box = frame.stack[-1], frame.stack[-2]
        right, left = self.top.stack[-1], self.top.stack[-2]
        if opcode == op.ADD and (
            left_box.tag == TAG_STRING or right_box.tag == TAG_STRING
        ):
            self.record_string_add(left, right)
            return
        if not _is_numeric(left_box) or not _is_numeric(right_box):
            raise TraceAbort("arith-on-non-number")
        # Specialize to int only what the interpreter is about to
        # produce as an int: an int op recorded on a result that
        # overflows would fail its guard on the very path it was
        # recorded from.  Overflow exits re-execute the operation
        # generically, so the snapshot must still hold both operands.
        exit = None
        if left.type in ("i", "b") and right.type in ("i", "b"):
            expected, _cost = _ARITH_GENERIC[opcode](left_box, right_box)
            if expected.tag == TAG_INT:
                exit = self.make_exit(exitkind.OVERFLOW, pc)
        self.pop()
        self.pop()
        if exit is not None:
            result = self.emit(
                _ARITH_I[opcode], (left, right), type="i", exit=exit
            )
        else:
            result = self.emit(
                _ARITH_D[opcode],
                (self.ensure_d(left), self.ensure_d(right)),
                type="d",
            )
        self.push(result)

    def record_string_add(self, left: LIns, right: LIns) -> None:
        self.pop()
        self.pop()
        left_str = self._stringify(left)
        right_str = self._stringify(right)
        result = self.emit("call", (left_str, right_str), imm=helpers.CONCAT, type="s")
        self.push(result)

    def _stringify(self, value: LIns) -> LIns:
        t = value.type
        if t == "s":
            return value
        if t == "i":
            return self.emit("call", (value,), imm=helpers.NUM_TO_STR_I, type="s")
        if t == "d":
            return self.emit("call", (value,), imm=helpers.NUM_TO_STR_D, type="s")
        if t == "b":
            return self.emit("call", (value,), imm=helpers.BOOL_TO_STR, type="s")
        if t == "u":
            return self.emit("const", imm="undefined", type="s")
        if t == "n":
            return self.emit("const", imm="null", type="s")
        raise TraceAbort("stringify-object")

    def record_div(self, frame, pc: int) -> None:
        right_box, left_box = frame.stack[-1], frame.stack[-2]
        if not _is_numeric(left_box) or not _is_numeric(right_box):
            raise TraceAbort("div-on-non-number")
        right = self.pop()
        left = self.pop()
        result = self.emit(
            "divd", (self.ensure_d(left), self.ensure_d(right)), type="d"
        )
        self.push(result)

    def record_mod(self, frame, pc: int) -> None:
        right_box, left_box = frame.stack[-1], frame.stack[-2]
        if not _is_numeric(left_box) or not _is_numeric(right_box):
            raise TraceAbort("mod-on-non-number")
        right = self.pop()
        left = self.pop()
        result = self.emit(
            "modd", (self.ensure_d(left), self.ensure_d(right)), type="d"
        )
        self.push(result)

    def record_neg(self, frame, pc: int) -> None:
        operand_box = frame.stack[-1]
        if not _is_numeric(operand_box):
            raise TraceAbort("neg-on-non-number")
        exit = self.make_exit(exitkind.OVERFLOW, pc)
        operand = self.pop()
        expected, _cost = operations.neg(operand_box)
        if operand.type in ("i", "b") and expected.tag == TAG_INT:
            # -0 must become a double and INT_MIN overflows: guard both.
            nonzero = self.emit("nei", (operand, self.const_i(0)), type="b")
            self.guard_true(nonzero, exit)
            result = self.emit(
                "subi", (self.const_i(0), operand), type="i", exit=exit
            )
        else:
            # A double, or an observed 0 or INT_MIN, negates to a double.
            result = self.emit("negd", (self.ensure_d(operand),), type="d")
        self.push(result)

    def record_bitop(self, frame, pc: int, opcode: int) -> None:
        # The fits-31-bit exit re-executes the operation generically, so
        # snapshot before consuming the operands.
        exit = self.make_exit(exitkind.OVERFLOW, pc)
        if opcode == op.BITNOT:
            operand_box = frame.stack[-1]
            if not _is_numeric(operand_box):
                raise TraceAbort("bitop-on-non-number")
            expected, _cost = operations.bitnot(operand_box)
            operand = self.ensure_i32(self.pop())
            result = self.emit("noti", (operand,), type="i")
        else:
            right_box, left_box = frame.stack[-1], frame.stack[-2]
            if not _is_numeric(left_box) or not _is_numeric(right_box):
                raise TraceAbort("bitop-on-non-number")
            if opcode == op.USHR:
                expected, _cost = operations.ushr(left_box, right_box)
            else:
                generic = {
                    op.BITAND: operations.bitand,
                    op.BITOR: operations.bitor,
                    op.BITXOR: operations.bitxor,
                    op.SHL: operations.shl,
                    op.SHR: operations.shr,
                }[opcode]
                expected, _cost = generic(left_box, right_box)
            right = self.ensure_i32(self.pop())
            left = self.ensure_i32(self.pop())
            lir_op = "ushri" if opcode == op.USHR else _BITOPS[opcode]
            result = self.emit(lir_op, (left, right), type="i")
        if opcode != op.USHR:
            # int32 results always fit the inline int representation.
            self.push(result)
            return
        # ``>>>`` yields a uint32, which may exceed the inline range:
        # specialize on the observed outcome and guard the speculation.
        if expected.tag == TAG_INT:
            self.emit("gi31", (result,), exit=exit)
            self.push(result)
        else:
            self.emit("gni31", (result,), exit=exit)
            self.push(self.emit("i2d", (result,), type="d"))

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def record_relop(self, frame, pc: int, opcode: int) -> None:
        right_box, left_box = frame.stack[-1], frame.stack[-2]
        right, left = self.top.stack[-1], self.top.stack[-2]
        if left_box.tag == TAG_STRING and right_box.tag == TAG_STRING:
            self.pop()
            self.pop()
            self.push(self.emit(_RELOPS_S[opcode], (left, right), type="b"))
            return
        if not _is_numeric(left_box) or not _is_numeric(right_box):
            raise TraceAbort("relop-on-mixed-types")
        self.pop()
        self.pop()
        if left.type in ("i", "b") and right.type in ("i", "b"):
            self.push(self.emit(_RELOPS_I[opcode], (left, right), type="b"))
        else:
            self.push(
                self.emit(
                    _RELOPS_D[opcode],
                    (self.ensure_d(left), self.ensure_d(right)),
                    type="b",
                )
            )

    def record_equality(self, frame, pc: int, opcode: int) -> None:
        right_box, left_box = frame.stack[-1], frame.stack[-2]
        right, left = self.top.stack[-1], self.top.stack[-2]
        strict = opcode in (op.STRICTEQ, op.STRICTNE)
        negate = opcode in (op.NE, op.STRICTNE)
        self.pop()
        self.pop()
        lt, rt = left.type, right.type
        numeric = ("i", "d", "b") if not strict else ("i", "d")
        if lt in numeric and rt in numeric:
            if lt in ("i", "b") and rt in ("i", "b"):
                result = self.emit("nei" if negate else "eqi", (left, right), type="b")
            else:
                result = self.emit(
                    "ned" if negate else "eqd",
                    (self.ensure_d(left), self.ensure_d(right)),
                    type="b",
                )
        elif lt == "s" and rt == "s":
            result = self.emit("eqs", (left, right), type="b")
            if negate:
                result = self.emit("notb", (result,), type="b")
        elif lt == "o" and rt == "o":
            result = self.emit("eqp", (left, right), type="b")
            if negate:
                result = self.emit("notb", (result,), type="b")
        else:
            # Statically-typed operands: the answer is a constant.
            if strict:
                outcome = operations.strict_equals(left_box, right_box)
            else:
                if (lt == "s" and rt in ("i", "d", "b")) or (
                    rt == "s" and lt in ("i", "d", "b")
                ):
                    raise TraceAbort("loose-eq-string-number")
                outcome = operations.loose_equals(left_box, right_box)
            if negate:
                outcome = not outcome
            result = self.emit("const", imm=outcome, type="b")
        self.push(result)

    def record_typeof(self, frame) -> None:
        operand_box = frame.stack[-1]
        operand = self.pop()
        if operand.type == "o":
            # 'object' vs 'function' depends on identity, not type.
            raise TraceAbort("typeof-object")
        from repro.runtime.values import type_name

        self.push(self.emit("const", imm=type_name(operand_box), type="s"))

    # ------------------------------------------------------------------
    # Branches
    # ------------------------------------------------------------------

    def record_branch(self, frame, pc: int, opcode: int, target: int) -> None:
        from repro.runtime.conversions import to_boolean

        condition_box = frame.stack[-1]
        truthy = to_boolean(condition_box)
        condition = self.to_bool(self.pop())
        jumps = truthy == (opcode == op.IFTRUE)
        taken_pc = target if jumps else pc + 1
        other_pc = pc + 1 if jumps else target
        exit = self.make_exit(exitkind.BRANCH, other_pc, pops=0)
        # The recorded path continues at taken_pc; exit on divergence.
        if truthy:
            self.guard_true(condition, exit)
        else:
            self.guard_false(condition, exit)

    def record_shortcircuit(self, frame, pc: int, opcode: int, target: int) -> None:
        from repro.runtime.conversions import to_boolean

        condition_box = frame.stack[-1]
        truthy = to_boolean(condition_box)
        value = self.top.stack[-1]
        condition = self.to_bool(value)
        jumps = truthy == (opcode == op.ORJMP)
        if jumps:
            # Keeps the value and jumps; divergence pops it and falls
            # through.
            exit = self.make_exit(exitkind.BRANCH, pc + 1, pops=1)
        else:
            exit = self.make_exit(exitkind.BRANCH, target, pops=0)
            self.pop()
        if truthy:
            self.guard_true(condition, exit)
        else:
            self.guard_false(condition, exit)

    # ------------------------------------------------------------------
    # Property access
    # ------------------------------------------------------------------

    def record_getprop(self, frame, pc: int, name: str) -> bool:
        obj_box = frame.stack[-1]
        if obj_box.tag == TAG_STRING:
            obj = self.pop()
            if name == "length":
                self.push(self.emit("strlen", (obj,), type="i"))
                return False
            method = STRING_METHODS.get(name)
            if method is not None:
                self.push(self.emit("const", imm=method, type="o"))
                return False
            self.push(self.emit("const", imm=None, type="u"))
            return False
        if obj_box.tag != TAG_OBJECT:
            raise TraceAbort("getprop-on-primitive")
        payload = obj_box.payload
        exit = self.make_exit(exitkind.SHAPE, pc)
        obj = self.pop()
        if isinstance(payload, JSArray) and name == "length":
            self.emit("gclass", (obj,), imm=JSArray, exit=exit)
            self.push(self.emit("arraylen", (obj,), type="i"))
            return False
        if isinstance(payload, JSFunction) and name == "prototype":
            # Reading F.prototype may lazily create it (a side effect);
            # this happens in setup code, not hot loops — don't trace it.
            raise TraceAbort("function-prototype-on-trace")
        # Walk the prototype chain at record time, guarding each shape.
        current_box_obj = payload
        current_ins = obj
        while True:
            if current_box_obj.in_dict_mode:
                raise TraceAbort("dict-mode-object")
            self._guard_shape(current_ins, current_box_obj, exit)
            found = current_box_obj.lookup_own(name)
            if found is not None:
                slot_index, _value = found
                box_ins = self.emit("ldslot", (current_ins,), imm=slot_index, type="x")
                self.pending = ("load", box_ins, pc)
                return True
            proto = current_box_obj.proto
            if proto is None:
                # Property absent along the whole (shape-guarded) chain.
                self.push(self.emit("const", imm=None, type="u"))
                return False
            current_ins = self.emit("ldproto", (current_ins,), type="o")
            current_box_obj = proto

    def _guard_shape(self, obj_ins: LIns, obj, exit: SideExit) -> None:
        shape = self.emit("ldshape", (obj_ins,), type="i")
        same = self.emit("eqi", (shape, self.const_i(obj.shape_id)), type="b")
        self.guard_true(same, exit)

    def record_setprop(self, frame, pc: int, name: str) -> None:
        value_box, obj_box = frame.stack[-1], frame.stack[-2]
        if obj_box.tag != TAG_OBJECT:
            raise TraceAbort("setprop-on-primitive")
        payload = obj_box.payload
        if payload.in_dict_mode:
            raise TraceAbort("dict-mode-object")
        if isinstance(payload, JSArray) and name == "length":
            raise TraceAbort("array-length-write")
        exit = self.make_exit(exitkind.SHAPE, pc)
        value = self.pop()
        obj = self.pop()
        if value.type == "x":
            raise TraceAbort("boxed-store")
        boxed = self.emit("boxv", (value,), imm=LIR_TO_TRACETYPE[value.type], type="x")
        self._guard_shape(obj, payload, exit)
        existing_slot = None if payload.shape is None else payload.shape.lookup(name)
        if existing_slot is not None:
            self.emit("stslot", (obj, boxed), imm=existing_slot)
        else:
            name_ins = self.emit("const", imm=name, type="s")
            status = self.emit(
                "call", (obj, name_ins, boxed), imm=helpers.ADD_PROPERTY, type="b"
            )
            self.guard_true(status, exit)
        self.push(value)

    def record_getelem(self, frame, pc: int) -> bool:
        index_box, obj_box = frame.stack[-1], frame.stack[-2]
        exit = self.make_exit(exitkind.OOB, pc)
        if obj_box.tag == TAG_OBJECT and isinstance(obj_box.payload, JSArray):
            index = self.pop()
            obj = self.pop()
            index = self._int_index(index, exit)
            self.emit("gclass", (obj,), imm=JSArray, exit=exit)
            arr = obj_box.payload
            concrete_index = _concrete_index(index_box)
            if concrete_index is None or not arr.dense_in_range(concrete_index):
                raise TraceAbort("sparse-element-read")
            nonneg = self.emit("gei", (index, self.const_i(0)), type="b")
            self.guard_true(nonneg, exit)
            in_range = self.emit(
                "lti", (index, self.emit("denselen", (obj,), type="i")), type="b"
            )
            self.guard_true(in_range, exit)
            box_ins = self.emit("ldelem", (obj, index), type="x")
            self.pending = ("load", box_ins, pc)
            return True
        if obj_box.tag == TAG_STRING:
            index = self.pop()
            obj = self.pop()
            index = self._int_index(index, exit)
            concrete_index = _concrete_index(index_box)
            if concrete_index is None or not (
                0 <= concrete_index < len(obj_box.payload)
            ):
                raise TraceAbort("string-index-oob")
            nonneg = self.emit("gei", (index, self.const_i(0)), type="b")
            self.guard_true(nonneg, exit)
            in_range = self.emit(
                "lti", (index, self.emit("strlen", (obj,), type="i")), type="b"
            )
            self.guard_true(in_range, exit)
            result = self.emit("call", (obj, index), imm=helpers.CHAR_AT, type="s")
            self.push(result)
            return False
        raise TraceAbort("generic-getelem")

    def _int_index(self, index: LIns, exit: SideExit) -> LIns:
        if index.type == "i":
            return index
        if index.type == "d":
            return self.emit("d2i", (index,), type="i", exit=exit)
        raise TraceAbort("non-numeric-index")

    def record_setelem(self, frame, pc: int) -> None:
        value_box = frame.stack[-1]
        index_box = frame.stack[-2]
        obj_box = frame.stack[-3]
        if obj_box.tag != TAG_OBJECT or not isinstance(obj_box.payload, JSArray):
            raise TraceAbort("generic-setelem")
        exit = self.make_exit(exitkind.OOB, pc)
        value = self.pop()
        index = self.pop()
        obj = self.pop()
        if value.type == "x":
            raise TraceAbort("boxed-store")
        index = self._int_index(index, exit)
        self.emit("gclass", (obj,), imm=JSArray, exit=exit)
        boxed = self.emit("boxv", (value,), imm=LIR_TO_TRACETYPE[value.type], type="x")
        # The paper's Figure 3: call js_Array_set and side-exit if it
        # reports failure.
        status = self.emit(
            "call", (obj, index, boxed), imm=helpers.ARRAY_SET, type="b"
        )
        self.guard_true(status, exit)
        self.push(value)

    def record_initprop(self, frame, pc: int, name: str) -> None:
        value_abs = self.top.stack[-1]
        if value_abs.type == "x":
            raise TraceAbort("boxed-store")
        exit = self.make_exit(exitkind.SHAPE, pc)
        value = self.pop()
        obj = self.top.stack[-1]
        boxed = self.emit("boxv", (value,), imm=LIR_TO_TRACETYPE[value.type], type="x")
        name_ins = self.emit("const", imm=name, type="s")
        status = self.emit(
            "call", (obj, name_ins, boxed), imm=helpers.ADD_PROPERTY, type="b"
        )
        self.guard_true(status, exit)

    def record_newarr(self, frame, pc: int, count: int) -> None:
        elements = []
        for _ in range(count):
            elements.append(self.pop())
        elements.reverse()
        arr = self.emit(
            "call", (self.const_i(0),), imm=helpers.NEW_ARRAY, type="o"
        )
        for index, element in enumerate(elements):
            if element.type == "x":
                raise TraceAbort("boxed-store")
            boxed = self.emit(
                "boxv", (element,), imm=LIR_TO_TRACETYPE[element.type], type="x"
            )
            self.emit(
                "call",
                (arr, self.const_i(index), boxed),
                imm=helpers.ARRAY_SET,
                type="b",
            )
        self.push(arr)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def record_call(self, frame, pc: int, opcode: int, argc: int) -> bool:
        stack = frame.stack
        abs_stack = self.top.stack
        has_this = opcode == op.CALLMETHOD
        callee_index = -argc - 1
        callee_box = stack[callee_index]
        if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
            raise TraceAbort("call-non-function")
        callee = callee_box.payload
        callee_ins = abs_stack[callee_index]
        arg_ins = list(abs_stack[len(abs_stack) - argc :]) if argc else []
        arg_boxes = list(stack[len(stack) - argc :]) if argc else []
        this_ins = abs_stack[callee_index - 1] if has_this else None
        this_box = stack[callee_index - 1] if has_this else UNDEFINED

        exit = self.make_exit(exitkind.CALLEE, pc)
        if callee_ins.op != "const" or callee_ins.imm is not callee:
            same = self.emit("eqp", (callee_ins, self.const_for_box(callee_box)), type="b")
            self.guard_true(same, exit)

        if isinstance(callee, NativeFunction):
            return self.record_native_call(
                frame, pc, opcode, argc, callee, arg_ins, arg_boxes, this_ins, exit
            )

        # Interpreted callee: inline (paper Section 3.1, Function inlining).
        if len(self.frames_abs) > self.config.max_inline_depth:
            raise TraceAbort("inline-depth-exceeded")
        assert isinstance(callee, JSFunction)
        if any(frame_abs.code is callee.code for frame_abs in self.frames_abs):
            # Recursion is future work in the paper (Section 10); naive
            # inlining of a recursive call would also blow the trace up
            # exponentially.
            raise TraceAbort("recursive-call-on-trace")
        is_constructor = opcode == op.NEW
        if is_constructor:
            # Allocate `this` with the constructor's prototype, exactly
            # like the interpreter's NEW (the prototype exists by now —
            # the interpreter materialized it on the recording pass).
            this_ins = self.emit(
                "call",
                (self.const_for_box(callee_box),),
                imm=helpers.NEW_OBJECT_WITH_PROTO,
                type="o",
            )
        for _ in range(argc + 1 + (1 if has_this else 0)):
            self.pop()
        self.top.resume_pc = pc + 1
        callee_frame = AbsFrame(callee.code, len(self.frames_abs))
        callee_frame.is_constructor = is_constructor
        undefined_ins = self.emit("const", imm=None, type="u")
        n_params = len(callee.code.params)
        for index in range(callee.code.n_locals):
            if index < n_params and index < argc:
                callee_frame.locals.append(arg_ins[index])
            else:
                callee_frame.locals.append(undefined_ins)
        callee_frame.this_ins = this_ins if this_ins is not None else undefined_ins
        self.frames_abs.append(callee_frame)
        # Frame-entry bookkeeping stores (Section 3.1): arguments and
        # `this` become AR-resident so deep exits can synthesize frames.
        depth = callee_frame.depth
        for index in range(min(n_params, argc)):
            self.emit(
                "star",
                (arg_ins[index],),
                slot=self.tree.slot_for(("local", depth, index)),
            )
        self.emit(
            "star",
            (callee_frame.this_ins,),
            slot=self.tree.slot_for(("this", depth)),
        )
        return False

    def record_native_call(
        self, frame, pc, opcode, argc, callee, arg_ins, arg_boxes, this_ins, exit
    ) -> bool:
        if not callee.traceable:
            raise TraceAbort("untraceable-native")
        has_this = opcode == op.CALLMETHOD
        n_pop = argc + 1 + (1 if has_this else 0)

        signature = callee.signature
        if signature is not None:
            converted = []
            for position, type_name in enumerate(signature.param_types):
                if position < argc:
                    converted.append(self._convert_ffi_arg(arg_ins[position], type_name))
                else:
                    converted.append(self._ffi_default(type_name))
            for _ in range(n_pop):
                self.pop()
            spec = CallSpec(
                kind="typed",
                name=callee.name,
                fn=signature.raw_fn,
                result_type=_SIGNATURE_CHAR[signature.result_type],
                cost=costs.NATIVE_CALL,
            )
            result = self.emit(
                "call",
                tuple(converted),
                imm=spec,
                type=_SIGNATURE_CHAR[signature.result_type],
                exit=exit,
            )
            self.push(result)
            return False

        # Legacy boxed FFI (Section 6.5): box every argument, call, then
        # guard the unpredictable result type.
        srcs = []
        arg_types = []
        if has_this:
            this_value = this_ins
            if this_value.type == "x":
                raise TraceAbort("boxed-this")
            srcs.append(this_value)
            this_type = LIR_TO_TRACETYPE[this_value.type]
        else:
            this_type = None
        for value in arg_ins:
            if value.type == "x":
                raise TraceAbort("boxed-argument")
            srcs.append(value)
            arg_types.append(LIR_TO_TRACETYPE[value.type])
        if this_type is not None:
            arg_types.insert(0, this_type)
        for _ in range(n_pop):
            self.pop()
        spec = CallSpec(
            kind="boxed",
            name=callee.name,
            fn=callee.fn,
            arg_types=tuple(arg_types),
            this_type=this_type,
            result_type="x",
            cost=costs.NATIVE_CALL,
            accesses_state=callee.accesses_state,
        )
        call_ins = self.emit("call", tuple(srcs), imm=spec, type="x", exit=exit)
        self.pending = (
            "native",
            call_ins,
            pc,
            callee.may_reenter,
            callee.accesses_state,
        )
        return True

    def _convert_ffi_arg(self, value: LIns, type_name: str) -> LIns:
        if type_name == "double":
            return self.ensure_d(value)
        if type_name == "int":
            if value.type == "i":
                return value
            raise TraceAbort("ffi-arg-type-mismatch")
        expected = _SIGNATURE_CHAR[type_name]
        if value.type != expected:
            raise TraceAbort("ffi-arg-type-mismatch")
        return value

    def _ffi_default(self, type_name: str) -> LIns:
        if type_name == "double":
            return self.emit("const", imm=float("nan"), type="d")
        if type_name == "int":
            return self.const_i(0)
        if type_name == "string":
            return self.emit("const", imm="undefined", type="s")
        if type_name == "bool":
            return self.emit("const", imm=False, type="b")
        raise TraceAbort("ffi-missing-object-arg")

    def record_return(self, opcode: int) -> None:
        if self.depth == 0:
            raise TraceAbort("return-from-anchor-frame")
        if opcode == op.RETURN:
            value = self.pop()
        else:
            value = self.emit("const", imm=None, type="u")
        frame = self.frames_abs.pop()
        if frame.is_constructor and value.type != "o":
            # `new F()` yields `this` unless the body returned an object;
            # the choice is type-static on trace.
            value = frame.this_ins
        self.push(value)

    # ------------------------------------------------------------------
    # Nested trace trees (paper Section 4.1)
    # ------------------------------------------------------------------

    def record_calltree(self, inner_tree, event, header_pc: int) -> None:
        """Record a call to an inner tree that was just executed live.

        ``event`` is the inner tree's exit event from that execution; its
        exit becomes the expected exit the compiled call guards on.
        """
        from repro.core.exits import CallTreeSite

        depth = self.depth
        mapping = []
        for loc, entry_type in inner_tree.entry_typemap:
            if loc[0] == "local":
                outer_loc = ("local", depth, loc[2])
                value = self.frames_abs[depth].locals[loc[2]]
            elif loc[0] == "this":
                outer_loc = ("this", depth)
                value = self.frames_abs[depth].this_ins
            else:
                raise TraceAbort("inner-entry-location-unsupported")
            current = LIR_TO_TRACETYPE[value.type]
            if current is not entry_type:
                if entry_type is TraceType.DOUBLE and current is TraceType.INT:
                    widened = self.emit("i2d", (value,), type="d")
                    self._write_back_at_depth(outer_loc, widened)
                else:
                    raise TraceAbort("inner-typemap-mismatch")
            mapping.append(
                (inner_tree.slot_of_loc[loc], self.tree.slot_for(outer_loc))
            )
        # The inner tree's global requirements become outer entry
        # requirements unless the outer trace already tracks the global.
        for name, gslot, trace_type in inner_tree.global_imports:
            if name in self.globals_abs:
                continue
            existing = self.tree.global_type_of(name)
            if existing is None:
                try:
                    self.tree.add_global_import(name, gslot, trace_type)
                except VMInternalError as error:
                    raise TraceAbort("inner-global-conflict") from error
            elif existing is not trace_type and not (
                trace_type is TraceType.DOUBLE and existing is TraceType.INT
            ):
                raise TraceAbort("inner-global-conflict")

        inner_exit = event.exit
        site = CallTreeSite(
            tree=inner_tree,
            depth=depth,
            local_mapping=tuple(mapping),
            expected_exit_id=inner_exit.exit_id,
        )
        exit = self.make_exit(exitkind.INNER, header_pc)
        call = self.emit("calltree", imm=site, type="i")
        same = self.emit("eqi", (call, self.const_i(inner_exit.exit_id)), type="b")
        self.guard_true(same, exit)
        self.vm.stats.tracing.tree_calls_recorded += 1

        # Refresh the abstract state for everything the inner tree may
        # have changed: the mapped frame-d locals/this (with the types
        # the expected exit reports) and every global it knows about.
        exit_types = {loc: t for loc, t, _slot in inner_exit.livemap}
        for loc, entry_type in inner_tree.entry_typemap:
            exit_type = exit_types.get(loc, entry_type)
            if loc[0] == "local":
                outer_loc = ("local", depth, loc[2])
            else:
                outer_loc = ("this", depth)
            fresh = self.emit(
                "ldar",
                slot=self.tree.slot_for(outer_loc),
                type=TRACETYPE_TO_LIR[exit_type],
            )
            if loc[0] == "local":
                self.frames_abs[depth].locals[loc[2]] = fresh
            else:
                self.frames_abs[depth].this_ins = fresh
        # Every cached global dies across the call, not just the names
        # the inner tree imports today: the set of globals a tree
        # touches stays open until it is retired, and a branch recorded
        # onto the inner tree *after* this call site was compiled may
        # write globals the root fragment never mentioned.  Keeping a
        # pre-call constant alive across the call bakes that stale
        # value into the outer trace (global stores are write-through
        # stars into the shared global area, so re-reading is always
        # sound; it just costs a reload).
        self.globals_abs.clear()

    def _write_back_at_depth(self, loc: tuple, value: LIns) -> None:
        if loc[0] == "local":
            self.frames_abs[loc[1]].locals[loc[2]] = value
        else:
            self.frames_abs[loc[1]].this_ins = value
        self.emit("star", (value,), slot=self.tree.slot_for(loc))

    # ------------------------------------------------------------------
    # Result hooks
    # ------------------------------------------------------------------

    def record_result(self, box: Box) -> None:
        if self.finished or self.pending is None:
            return
        pending = self.pending
        self.pending = None
        kind = pending[0]
        if kind == "load":
            _kind, box_ins, pc = pending
            self._finish_boxed_result(box_ins, box, pc)
        elif kind == "native":
            _kind, call_ins, pc, may_reenter, accesses_state = pending
            self._finish_boxed_result(call_ins, box, pc)
            if may_reenter:
                flag = self.emit("ldreentry", type="b")
                reentry_exit = self.make_exit(exitkind.REENTRY, pc + 1)
                self.guard_false(flag, reentry_exit)
            if accesses_state:
                state_exit = self.make_exit(exitkind.STATE, pc + 1)
                self.emit("x", exit=state_exit)
                self.monitor.finish_recording("forced")

    def _finish_boxed_result(self, box_ins: LIns, box: Box, pc: int) -> None:
        trace_type = type_of_box(box)
        depth = self.top.depth
        result_loc = ("stack", depth, len(self.top.stack))
        exit = self.make_exit(
            exitkind.TYPE,
            pc + 1,
            extra_types=(trace_type,),
            result_loc=result_loc,
        )
        self.emit("gtag", (box_ins,), imm=trace_type, exit=exit)
        unboxed = self.emit(
            "unbox", (box_ins,), type=TRACETYPE_TO_LIR[trace_type]
        )
        self.push(unboxed)

    # ------------------------------------------------------------------
    # Trace termination
    # ------------------------------------------------------------------

    def end_with_loop_exit(self, pc: int) -> None:
        """The recording left the loop: end with an exit to the monitor."""
        exit = self.make_exit(exitkind.LOOP, pc)
        self.emit("x", exit=exit)
        self.status = "loop-exit"
        self.monitor.finish_recording("loop-exit")

    def close_loop(self) -> None:
        """Recording reached the anchor loop header again: try to close.

        Type-stable iterations loop back (or jump to the tree anchor for
        branch traces); type-unstable ones end with an always-failing
        exit and teach the oracle (paper Section 3.2).
        """
        unstable = []
        oracle = self.monitor.oracle
        anchor = self.frames_abs[0]
        for loc, entry_type in self.tree.entry_typemap:
            value = self._value_at(loc)
            current = LIR_TO_TRACETYPE[value.type]
            if current is entry_type:
                continue
            if entry_type is TraceType.DOUBLE and current is TraceType.INT:
                # Promote: widen the int to a double at the loop edge.
                widened = self.emit("i2d", (value,), type="d")
                self._write_back(loc, widened)
                continue
            unstable.append((loc, entry_type, current))
        for name, _gslot, entry_type in self.tree.global_imports:
            value = self.globals_abs.get(name)
            if value is None:
                continue
            current = LIR_TO_TRACETYPE[value.type]
            if current is entry_type:
                continue
            if entry_type is TraceType.DOUBLE and current is TraceType.INT:
                widened = self.emit("i2d", (value,), type="d")
                self.set_global(name, widened)
                continue
            unstable.append((("global", name), entry_type, current))

        if unstable:
            for loc, entry_type, current in unstable:
                if entry_type is TraceType.INT and current is TraceType.DOUBLE:
                    if loc[0] == "local":
                        oracle.mark_double(oracle.local_key(anchor.code, loc[2]))
                    elif loc[0] == "global":
                        oracle.mark_double(oracle.global_key(loc[1]))
                    self.vm.stats.tracing.oracle_marks += 1
            exit = self.make_exit(exitkind.UNSTABLE, self.tree.header_pc)
            self.emit("x", exit=exit)
            self.status = "unstable"
            self.monitor.finish_recording("unstable")
            return

        # Stable: guard preemption at the loop edge (Section 6.4), then
        # loop back / jump to the tree anchor.
        preempt = self.emit("ldpreempt", type="b")
        preempt_exit = self.make_exit(exitkind.PREEMPT, self.tree.header_pc)
        self.guard_false(preempt, preempt_exit)
        observed = self.tree.import_slot_set
        if self.is_branch:
            self.emit("jtree", aux=(self.tree, observed))
        else:
            self.emit("loop", aux=observed)
        self.status = "stable"
        self.monitor.finish_recording("stable")

    def _value_at(self, loc: tuple) -> LIns:
        kind = loc[0]
        if kind == "local":
            return self.frames_abs[loc[1]].locals[loc[2]]
        if kind == "this":
            return self.frames_abs[loc[1]].this_ins
        if kind == "stack":
            return self.frames_abs[loc[1]].stack[loc[2]]
        raise VMInternalError(f"unexpected location {loc!r}")

    def _write_back(self, loc: tuple, value: LIns) -> None:
        kind = loc[0]
        if kind == "local":
            frame = self.frames_abs[loc[1]]
            frame.locals[loc[2]] = value
            self.emit("star", (value,), slot=self.tree.slot_for(loc))
        elif kind == "this":
            self.frames_abs[loc[1]].this_ins = value
            self.emit("star", (value,), slot=self.tree.slot_for(loc))
        else:
            raise VMInternalError(f"cannot write back {loc!r}")


def _build_record_table():
    """The opcode -> record-handler table (None = unrecordable)."""
    table = [None] * op.N_OPCODES
    table[op.NOP] = Recorder._rec_nop
    table[op.LOOPHEADER] = Recorder._rec_nop
    table[op.CONST] = Recorder._rec_const
    table[op.ZERO] = Recorder._rec_zero
    table[op.ONE] = Recorder._rec_one
    table[op.UNDEF] = Recorder._rec_undef
    table[op.NULL] = Recorder._rec_null
    table[op.TRUE] = Recorder._rec_true
    table[op.FALSE] = Recorder._rec_false
    table[op.THIS] = Recorder._rec_this
    table[op.GETLOCAL] = Recorder._rec_getlocal
    table[op.SETLOCAL] = Recorder._rec_setlocal
    table[op.GETGLOBAL] = Recorder._rec_getglobal
    table[op.SETGLOBAL] = Recorder._rec_setglobal
    table[op.POP] = Recorder._rec_pop
    table[op.POPV] = Recorder._rec_pop
    table[op.DUP] = Recorder._rec_dup
    table[op.SWAP] = Recorder._rec_swap
    for opcode in (op.ADD, op.SUB, op.MUL):
        table[opcode] = Recorder._rec_arith
    table[op.DIV] = Recorder._rec_div
    table[op.MOD] = Recorder._rec_mod
    table[op.NEG] = Recorder._rec_neg
    table[op.TONUM] = Recorder._rec_tonum
    for opcode in (op.BITAND, op.BITOR, op.BITXOR, op.SHL, op.SHR, op.USHR, op.BITNOT):
        table[opcode] = Recorder._rec_bitop
    for opcode in (op.LT, op.LE, op.GT, op.GE):
        table[opcode] = Recorder._rec_relop
    for opcode in (op.EQ, op.NE, op.STRICTEQ, op.STRICTNE):
        table[opcode] = Recorder._rec_equality
    table[op.NOT] = Recorder._rec_not
    table[op.TYPEOF] = Recorder._rec_typeof
    table[op.JUMP] = Recorder._rec_jump
    for opcode in (op.IFFALSE, op.IFTRUE):
        table[opcode] = Recorder._rec_branch
    for opcode in (op.ANDJMP, op.ORJMP):
        table[opcode] = Recorder._rec_shortcircuit
    table[op.GETPROP] = Recorder._rec_getprop
    table[op.SETPROP] = Recorder._rec_setprop
    table[op.GETELEM] = Recorder._rec_getelem
    table[op.SETELEM] = Recorder._rec_setelem
    table[op.INITPROP] = Recorder._rec_initprop
    table[op.DELPROP] = Recorder._rec_delprop
    table[op.ITERKEYS] = Recorder._rec_iterkeys
    table[op.NEWOBJ] = Recorder._rec_newobj
    table[op.NEWARR] = Recorder._rec_newarr
    for opcode in (op.CALL, op.CALLMETHOD, op.NEW):
        table[opcode] = Recorder._rec_call
    for opcode in (op.RETURN, op.RETUNDEF):
        table[opcode] = Recorder._rec_return
    table[op.THROW] = Recorder._rec_throw
    for opcode in (op.TRYPUSH, op.TRYPOP):
        table[opcode] = Recorder._rec_tryblock
    table[op.END] = Recorder._rec_end
    return table


_RECORD = _build_record_table()


_SIGNATURE_CHAR = {
    "int": "i",
    "double": "d",
    "string": "s",
    "bool": "b",
    "object": "o",
}


def _is_numeric(box: Box) -> bool:
    return box.tag == TAG_INT or box.tag == TAG_DOUBLE or box.tag == TAG_BOOLEAN


def _concrete_index(box: Box):
    if box.tag == TAG_INT:
        return box.payload
    if box.tag == TAG_DOUBLE and box.payload.is_integer():
        return int(box.payload)
    return None
