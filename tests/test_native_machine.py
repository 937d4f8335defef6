"""Unit tests for the simulated native machine (ISA semantics)."""

import math

import pytest

from repro import BaselineVM
from repro.core.exits import LOOP, OVERFLOW, SideExit
from repro.core.typemap import TraceType
from repro.errors import NativeMachineError
from repro.jit.native import (
    ActivationRecord,
    CallSpec,
    GlobalArea,
    NativeInsn,
    NativeMachine,
)
from repro.runtime.values import TAG_INT, make_number


class _Tree:
    header_pc = 0
    iterations = 0
    fragment = None
    entry_typemap = ()  # no state to snapshot at commit points


class _Fragment:
    kind = "root"
    bytecount = 1

    def __init__(self, native):
        self.native = native


def run(insns, slots=(), vm=None):
    vm = vm or BaselineVM()
    ar = ActivationRecord(max(len(slots), 8) + 8, GlobalArea())
    ar.slots[: len(slots)] = list(slots)
    machine = NativeMachine(vm, _Tree(), ar)
    event = machine.run(_Fragment(list(insns)))
    return machine, ar, event


def exit_insn(kind=LOOP):
    return NativeInsn("x", exit=SideExit(kind=kind, pc=0, frames=(), stack_depth0=0, livemap=()))


class TestIntOps:
    def test_alu(self):
        machine, ar, _ = run(
            [
                NativeInsn("movi", dst=0, imm=6),
                NativeInsn("movi", dst=1, imm=7),
                NativeInsn("muli", dst=2, a=0, b=1),
                NativeInsn("star", a=2, imm=0),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == 42

    def test_overflow_flag_and_guard(self):
        exit = SideExit(kind=OVERFLOW, pc=3, frames=(), stack_depth0=0, livemap=())
        machine, _ar, event = run(
            [
                NativeInsn("movi", dst=0, imm=2**31 - 1),
                NativeInsn("movi", dst=1, imm=1),
                NativeInsn("addi", dst=2, a=0, b=1),
                NativeInsn("govf", exit=exit),
                exit_insn(),
            ]
        )
        assert event.exit is exit

    def test_int32_wrapping_ops(self):
        machine, ar, _ = run(
            [
                NativeInsn("movi", dst=0, imm=1),
                NativeInsn("movi", dst=1, imm=31),
                NativeInsn("shli", dst=2, a=0, b=1),
                NativeInsn("star", a=2, imm=0),
                NativeInsn("movi", dst=3, imm=-1),
                NativeInsn("movi", dst=4, imm=28),
                NativeInsn("ushri", dst=5, a=3, b=4),
                NativeInsn("star", a=5, imm=1),
                NativeInsn("noti", dst=6, a=0),
                NativeInsn("star", a=6, imm=2),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == -(2**31)
        assert ar.slots[1] == 15
        assert ar.slots[2] == -2


class TestFloatOps:
    def test_divd_by_zero_semantics(self):
        machine, ar, _ = run(
            [
                NativeInsn("movi", dst=8, imm=1.0),
                NativeInsn("movi", dst=9, imm=0.0),
                NativeInsn("divd", dst=10, a=8, b=9),
                NativeInsn("star", a=10, imm=0),
                NativeInsn("divd", dst=11, a=9, b=9),
                NativeInsn("star", a=11, imm=1),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == math.inf
        assert math.isnan(ar.slots[1])

    def test_nan_comparisons(self):
        machine, ar, _ = run(
            [
                NativeInsn("movi", dst=8, imm=math.nan),
                NativeInsn("movi", dst=9, imm=1.0),
                NativeInsn("ltd", dst=0, a=8, b=9),
                NativeInsn("star", a=0, imm=0),
                NativeInsn("ned", dst=1, a=8, b=9),
                NativeInsn("star", a=1, imm=1),
                exit_insn(),
            ]
        )
        assert ar.slots[0] is False
        assert ar.slots[1] is True

    def test_conversions(self):
        machine, ar, _ = run(
            [
                NativeInsn("movi", dst=0, imm=3),
                NativeInsn("i2d", dst=8, a=0),
                NativeInsn("star", a=8, imm=0),
                NativeInsn("movi", dst=9, imm=2.0**32 + 7),
                NativeInsn("d2i32", dst=1, a=9),
                NativeInsn("star", a=1, imm=1),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == 3.0
        assert ar.slots[1] == 7


class TestGuards:
    def test_gtag_pass_and_fail(self):
        box = make_number(5)
        exit = SideExit(kind="type", pc=0, frames=(), stack_depth0=0, livemap=())
        machine, _ar, event = run(
            [
                NativeInsn("movi", dst=0, imm=box),
                NativeInsn("gtag", a=0, imm=TraceType.INT, exit=exit),
                NativeInsn("gtag", a=0, imm=TraceType.DOUBLE, exit=exit),
                exit_insn(),
            ]
        )
        assert event.exit is exit  # the second gtag fails
        assert event.boxed_result is box

    def test_gtag_hole_matches_undefined(self):
        exit = SideExit(kind="type", pc=0, frames=(), stack_depth0=0, livemap=())
        _m, _ar, event = run(
            [
                NativeInsn("movi", dst=0, imm=None),
                NativeInsn("gtag", a=0, imm=TraceType.UNDEFINED, exit=exit),
                exit_insn(LOOP),
            ]
        )
        assert event.exit.kind == LOOP

    def test_gclass(self):
        from repro.runtime.objects import JSArray, JSObject

        exit = SideExit(kind="shape", pc=0, frames=(), stack_depth0=0, livemap=())
        _m, _ar, event = run(
            [
                NativeInsn("movi", dst=0, imm=JSArray()),
                NativeInsn("gclass", a=0, imm=JSArray, exit=exit),
                NativeInsn("movi", dst=1, imm=JSObject()),
                NativeInsn("gclass", a=1, imm=JSArray, exit=exit),
                exit_insn(),
            ]
        )
        assert event.exit is exit

    def test_xt_xf(self):
        exit = SideExit(kind="branch", pc=0, frames=(), stack_depth0=0, livemap=())
        _m, _ar, event = run(
            [
                NativeInsn("movi", dst=0, imm=True),
                NativeInsn("xf", a=0, exit=exit),  # passes
                NativeInsn("xt", a=0, exit=exit),  # fires
                exit_insn(),
            ]
        )
        assert event.exit is exit


class TestCalls:
    def test_helper_call(self):
        spec = CallSpec(kind="helper", name="h", fn=lambda vm, a, b: a * b, result_type="i")
        _m, ar, _e = run(
            [
                NativeInsn("movi", dst=0, imm=6),
                NativeInsn("movi", dst=1, imm=7),
                NativeInsn("call", dst=2, srcs=[0, 1], aux=spec),
                NativeInsn("star", a=2, imm=0),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == 42

    def test_typed_call(self):
        spec = CallSpec(kind="typed", name="sqrt", fn=math.sqrt, result_type="d")
        _m, ar, _e = run(
            [
                NativeInsn("movi", dst=8, imm=16.0),
                NativeInsn("call", dst=9, srcs=[8], aux=spec),
                NativeInsn("star", a=9, imm=0),
                exit_insn(),
            ]
        )
        assert ar.slots[0] == 4.0

    def test_boxed_call_boxes_arguments(self):
        seen = {}

        def native(vm, this_box, args):
            seen["this"] = this_box
            seen["args"] = args
            return make_number(1)

        spec = CallSpec(
            kind="boxed",
            name="n",
            fn=native,
            arg_types=(TraceType.STRING, TraceType.INT),
            this_type=TraceType.STRING,
            result_type="x",
        )
        _m, _ar, _e = run(
            [
                NativeInsn("movi", dst=0, imm="hi"),
                NativeInsn("movi", dst=1, imm=5),
                NativeInsn("call", dst=2, srcs=[0, 1], aux=spec),
                exit_insn(),
            ]
        )
        assert seen["this"].payload == "hi"
        assert seen["args"][0].tag == TAG_INT

    def test_call_exception_becomes_exit_event(self):
        from repro.errors import JSThrow
        from repro.runtime.values import make_string

        def thrower(vm):
            raise JSThrow(make_string("boom"))

        spec = CallSpec(kind="helper", name="t", fn=thrower, result_type="v")
        call_exit = SideExit(kind="error", pc=9, frames=(), stack_depth0=0, livemap=())
        _m, _ar, event = run(
            [NativeInsn("call", srcs=[], aux=spec, exit=call_exit), exit_insn()]
        )
        assert event.exit is call_exit
        assert event.exception is not None


class TestRuntimeSafety:
    def test_infinite_loop_budget(self):
        from repro import VMConfig

        vm = BaselineVM(VMConfig(native_insn_budget=1000))
        with pytest.raises(NativeMachineError):
            run([NativeInsn("movi", dst=0, imm=1), NativeInsn("loopjmp")], vm=vm)

    def test_unknown_op_rejected(self):
        with pytest.raises(NativeMachineError):
            run([NativeInsn("frobnicate"), exit_insn()])


class TestGlobalArea:
    def test_write_marks_dirty(self):
        area = GlobalArea()
        area.write(0, 42, TraceType.INT)
        assert 0 in area.dirty
        assert area.read(0) == 42

    def test_negative_slot_encoding(self):
        ar = ActivationRecord(4, GlobalArea())
        ar.write(-1, 7)
        assert ar.globals.read(0) == 7
        assert ar.read(-1) == 7
        ar.write(2, 9)
        assert ar.read(2) == 9
