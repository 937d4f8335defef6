"""Tests for code generation and register allocation (paper Section 5.2).

Includes a differential property test: random LIR DAGs are executed by
the native machine (through the register allocator, with only 8+8
registers, forcing spills) and compared against a direct evaluation of
the LIR with unlimited storage.
"""

import pathlib
import re

from hypothesis import given, settings, strategies as st

from repro.core.lir import LIns
from repro.jit.codegen import format_native, generate
from repro.jit.native import (
    ActivationRecord,
    GlobalArea,
    N_INT_REGS,
    NativeInsn,
    NativeMachine,
)
from repro.core.exits import LOOP, SideExit
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM
from tests.helpers import generated_fragments, register_invariant_violations

SIEVE_PATH = pathlib.Path(__file__).parent.parent / "examples" / "sieve.js"


class _FakeTree:
    header_pc = 0
    iterations = 0

    class fragment:
        native = []
        bytecount = 0


class _Fragment:
    def __init__(self, native):
        self.native = native
        self.kind = "root"
        self.bytecount = 0


def run_native(lir, slots, n_location_slots=8):
    """Compile ``lir`` and run it on the machine; returns final AR slots."""
    from repro.vm import BaselineVM

    vm = BaselineVM()  # provides stats/ledger
    native, n_spills, _ = generate(lir, spill_base=n_location_slots)
    ar = ActivationRecord(n_location_slots + n_spills, GlobalArea())
    ar.slots[: len(slots)] = slots
    machine = NativeMachine(vm, _FakeTree(), ar)
    event = machine.run(_Fragment(native))
    return ar.slots, event


def final_exit(slot_count=8):
    return SideExit(kind=LOOP, pc=0, frames=(), stack_depth0=0, livemap=tuple())


class TestBasicCodegen:
    def test_one_native_insn_per_simple_lir(self):
        # Figure 4: "Most LIR instructions compile to a single x86
        # instruction."
        a = LIns("param", slot=0, type="i")
        b = LIns("param", slot=1, type="i")
        add = LIns("addi", (a, b), type="i")
        store = LIns("star", (add,), slot=2)
        exit_ins = LIns("x", exit=final_exit())
        native, n_spills, _ = generate([a, b, add, store, exit_ins], spill_base=8)
        assert len(native) == 5
        assert n_spills == 0

    def test_execution_computes(self):
        a = LIns("param", slot=0, type="i")
        b = LIns("param", slot=1, type="i")
        add = LIns("addi", (a, b), type="i")
        store = LIns("star", (add,), slot=2)
        exit_ins = LIns("x", exit=final_exit())
        slots, _event = run_native([a, b, add, store, exit_ins], [20, 22, None])
        assert slots[2] == 42

    def test_guard_fuses_overflow(self):
        a = LIns("param", slot=0, type="i")
        add = LIns("addi", (a, a), type="i", exit=final_exit())
        native, _, _ = generate([a, add], spill_base=8)
        assert [insn.op for insn in native] == ["ldar", "addi", "govf"]

    def test_compare_fuses_into_guard(self):
        # Figure 4's ``cmp eax, Array / jne side_exit`` shape: a
        # single-use compare and its guard become one instruction.
        a = LIns("param", slot=0, type="i")
        b = LIns("param", slot=1, type="i")
        cmp_ins = LIns("lti", (a, b), type="b")
        guard = LIns("xf", (cmp_ins,), exit=final_exit())
        end = LIns("x", exit=final_exit())
        native, _, _ = generate([a, b, cmp_ins, guard, end], spill_base=8)
        assert [insn.op for insn in native] == ["ldar", "ldar", "gcmp", "x"]

    def test_multi_use_compare_not_fused(self):
        a = LIns("param", slot=0, type="i")
        b = LIns("param", slot=1, type="i")
        cmp_ins = LIns("lti", (a, b), type="b")
        guard = LIns("xf", (cmp_ins,), exit=final_exit())
        keep = LIns("star", (cmp_ins,), slot=2)  # second use
        end = LIns("x", exit=final_exit())
        native, _, _ = generate([a, b, cmp_ins, guard, keep, end], spill_base=8)
        ops = [insn.op for insn in native]
        assert "gcmp" not in ops
        assert "lti" in ops and "xf" in ops

    def test_fused_guard_execution(self):
        a = LIns("param", slot=0, type="i")
        b = LIns("param", slot=1, type="i")
        cmp_ins = LIns("lti", (a, b), type="b")
        exit_taken = final_exit()
        guard = LIns("xf", (cmp_ins,), exit=exit_taken)
        store = LIns("star", (a,), slot=2)
        end = LIns("x", exit=final_exit())
        lir = [a, b, cmp_ins, guard, store, end]
        # a < b: guard passes, store runs.
        slots, event = run_native(lir, [1, 2, None])
        assert slots[2] == 1
        assert event.exit is not exit_taken
        # a >= b: guard fires.
        slots, event = run_native(lir, [5, 2, None])
        assert slots[2] is None
        assert event.exit is exit_taken

    def test_unused_const_skipped(self):
        unused = LIns("const", imm=5, type="i")
        exit_ins = LIns("x", exit=final_exit())
        native, _, _ = generate([unused, exit_ins], spill_base=8)
        assert [insn.op for insn in native] == ["x"]

    def test_format_native_is_readable(self):
        a = LIns("param", slot=0, type="i")
        exit_ins = LIns("x", exit=final_exit())
        native, _, _ = generate([a, LIns("star", (a,), slot=1), exit_ins], spill_base=8)
        text = format_native(native)
        assert "ldar" in text and "star" in text


class TestRegisterPressure:
    def test_spills_when_pressure_exceeds_registers(self):
        """Keep N_INT_REGS+4 values live simultaneously -> must spill."""
        live = [LIns("param", slot=index, type="i") for index in range(N_INT_REGS + 4)]
        lir = list(live)
        total = live[0]
        for value in live[1:]:
            total = LIns("addi", (total, value), type="i")
            lir.append(total)
        lir.append(LIns("star", (total,), slot=20))
        lir.append(LIns("x", exit=final_exit()))
        native, n_spills, _ = generate(lir, spill_base=32)
        assert n_spills > 0
        slots, _event = run_native(lir, list(range(1, N_INT_REGS + 5)), 32)
        assert slots[20] == sum(range(1, N_INT_REGS + 5))

    def test_float_and_int_files_independent(self):
        ints = [LIns("param", slot=index, type="i") for index in range(N_INT_REGS)]
        floats = [
            LIns("param", slot=N_INT_REGS + index, type="d") for index in range(4)
        ]
        lir = ints + floats
        isum = ints[0]
        for value in ints[1:]:
            isum = LIns("addi", (isum, value), type="i")
            lir.append(isum)
        fsum = floats[0]
        for value in floats[1:]:
            fsum = LIns("addd", (fsum, value), type="d")
            lir.append(fsum)
        lir.append(LIns("star", (isum,), slot=20))
        lir.append(LIns("star", (fsum,), slot=21))
        lir.append(LIns("x", exit=final_exit()))
        native, n_spills, _ = generate(lir, spill_base=32)
        assert n_spills == 0  # separate files: no pressure
        values = list(range(N_INT_REGS)) + [0.5 * i for i in range(4)]
        slots, _event = run_native(lir, values, 32)
        assert slots[20] == sum(range(N_INT_REGS))
        assert slots[21] == sum(0.5 * i for i in range(4))


# -- differential property test ---------------------------------------------


def eval_lir(lir, slots):
    """Reference evaluator: unlimited virtual registers."""
    env = {}
    memory = list(slots) + [None] * 64
    for ins in lir:
        op = ins.op
        if op == "param":
            env[ins.ins_id] = memory[ins.slot]
        elif op == "const":
            env[ins.ins_id] = ins.imm
        elif op == "addi":
            env[ins.ins_id] = env[ins.args[0].ins_id] + env[ins.args[1].ins_id]
        elif op == "subi":
            env[ins.ins_id] = env[ins.args[0].ins_id] - env[ins.args[1].ins_id]
        elif op == "muli":
            env[ins.ins_id] = env[ins.args[0].ins_id] * env[ins.args[1].ins_id]
        elif op == "negi":
            env[ins.ins_id] = -env[ins.args[0].ins_id]
        elif op == "star":
            memory[ins.slot] = env[ins.args[0].ins_id]
        elif op == "x":
            break
        else:
            raise AssertionError(f"unhandled {op}")
    return memory


@st.composite
def lir_programs(draw):
    """Random straight-line int LIR with enough live values to spill."""
    n_params = draw(st.integers(min_value=1, max_value=6))
    params = [LIns("param", slot=index, type="i") for index in range(n_params)]
    values = list(params)
    lir = list(params)
    n_ops = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["addi", "subi", "muli", "negi", "const", "star"]))
        if kind == "const":
            ins = LIns("const", imm=draw(st.integers(-100, 100)), type="i")
            values.append(ins)
        elif kind == "negi":
            ins = LIns("negi", (draw(st.sampled_from(values)),), type="i")
            values.append(ins)
        elif kind == "star":
            source = draw(st.sampled_from(values))
            ins = LIns("star", (source,), slot=draw(st.integers(8, 20)))
        else:
            left = draw(st.sampled_from(values))
            right = draw(st.sampled_from(values))
            ins = LIns(kind, (left, right), type="i")
            values.append(ins)
        lir.append(ins)
    # Store every live value so results are observable.
    for offset, value in enumerate(values[-8:]):
        lir.append(LIns("star", (value,), slot=21 + offset))
    lir.append(LIns("x", exit=final_exit()))
    inputs = draw(
        st.lists(
            st.integers(-50, 50), min_size=n_params, max_size=n_params
        )
    )
    return lir, inputs


@given(lir_programs())
@settings(max_examples=120, deadline=None)
def test_regalloc_matches_reference_evaluator(program):
    """The machine (8 registers, spilling) computes exactly what an
    unlimited-register evaluation of the same LIR computes."""
    lir, inputs = program
    expected = eval_lir(lir, inputs)
    slots, _event = run_native(lir, inputs, n_location_slots=32)
    assert slots[21:29] == expected[21:29]
    assert slots[8:21] == expected[8:21]


class TestRegisterInvariant:
    """No fragment reads a register it did not write itself.

    The py backend depends on it (``repro.jit.pycompile``): registers
    are locals of the generated function, so nothing is loaded from
    ``machine.regs`` at entry and a failed guard abandons them.
    """

    def test_checker_flags_a_read_before_its_write(self):
        native = [
            NativeInsn("movi", dst=0, imm=1),
            NativeInsn("addi", dst=2, a=0, b=1),
            NativeInsn("govf", exit=final_exit()),
            NativeInsn("star", a=2, imm=0),
        ]
        assert register_invariant_violations(native) == [
            (1, repr(native[1]), 1)
        ]
        call = NativeInsn("call", srcs=[3], exit=final_exit())
        assert register_invariant_violations([call]) == [(0, repr(call), 3)]

    def test_checker_flags_govf_without_an_overflowing_op(self):
        native = [NativeInsn("govf", exit=final_exit())]
        assert register_invariant_violations(native) == [
            (0, repr(native[0]), "ovf")
        ]

    def test_every_suite_fragment_keeps_the_invariant(self):
        with generated_fragments() as natives:
            for program in PROGRAMS:
                TracingVM().run(program.source)
            TracingVM().run(SIEVE_PATH.read_text())
        # 189 fragments when this test was written: a collapse in the
        # count would make the check vacuous.
        assert len(natives) > 150
        violations = [
            (number, violation)
            for number, native in enumerate(natives)
            for violation in register_invariant_violations(native)
        ]
        assert not violations, violations


class TestInt32Wraps:
    """Codegen keeps a bitop's operand LIR types on its native
    instruction, and the py backend wraps an operand in ``to_int32``
    only when it may not be an int32 ``int``: a Python bool, which the
    bitop recording passes through.  An ``i`` operand is already an
    int32 (an overflow guard, ``d2i``/``d2i32`` or a 32-bit inline int
    made it), so of an int-only loop only the ``shli`` results, which
    can leave the range, keep a wrap."""

    LOOP = """
var x = 12345;
for (var i = 0; i < 300; i++) {
    x = (x << 3) ^ (x >> 5) ^ ~i;
    x = (x & 65535) | (i & 7);
}
x;
"""

    def test_bitops_record_their_operand_types(self):
        with generated_fragments() as natives:
            TracingVM().run(self.LOOP)
        bitops = [
            insn for native in natives for insn in native
            if insn.op in ("andi", "ori", "xori", "shli", "shri", "noti")
        ]
        assert {insn.op for insn in bitops} == {
            "andi", "ori", "xori", "shli", "shri", "noti"
        }
        assert all(set(insn.aux) == {"i"} for insn in bitops)

    def test_only_shift_left_results_are_wrapped(self, monkeypatch):
        from repro.jit import pycompile
        from repro.vm import BaselineVM, VMConfig

        sources = []
        emit = pycompile.emit_fragment

        def capturing(fragment):
            source, consts = emit(fragment)
            sources.append(source)
            return source, consts

        monkeypatch.setattr(pycompile, "emit_fragment", capturing)
        vm = TracingVM(VMConfig(native_backend="py"))
        assert repr(vm.run(self.LOOP)) == repr(BaselineVM().run(self.LOOP))
        wrapped = [
            line.strip() for source in sources
            for line in source.splitlines()
            if "to_int32(" in line  # not the constants unpack
        ]
        shifts = [
            line.strip() for source in sources
            for line in source.splitlines() if "<<" in line
        ]
        assert wrapped and wrapped == shifts
        assert all(
            re.fullmatch(r"r\d+ = to_int32\(r\d+ << \(r\d+ & 31\)\)", line)
            for line in wrapped
        ), wrapped

    def test_boolean_operands_keep_their_wrap(self):
        from repro.jit.pycompile import emit_fragment

        fragment = _Fragment([
            NativeInsn("movi", dst=0, imm=True),
            NativeInsn("movi", dst=1, imm=6),
            NativeInsn("andi", dst=2, a=0, b=0, aux="bb"),
            NativeInsn("xori", dst=3, a=0, b=1, aux="bi"),
            NativeInsn("noti", dst=4, a=0, aux="b"),
            NativeInsn("x", exit=final_exit()),
        ])
        source, _consts = emit_fragment(fragment)
        assert "r2 = to_int32(r0) & to_int32(r0)" in source
        assert "r3 = to_int32(r0) ^ r1" in source
        assert "r4 = ~to_int32(r0)" in source

    # The inner loop writes the global ``c`` as a double; the outer tree
    # was recorded from the re-boxed (int) value, so it reads ``c`` as
    # an ``i`` and masks it after the nested call.
    NESTED_INTEGRAL = """
var a = 0, b = 1, c = 2;
for (var i = 0; i < 6; i++) {
    for (var j = 0; j < 3; j++) { a = -a + j; c = -a + -a; }
    b = -c & a;
    a = -b;
}
'' + a + '|' + b + '|' + c;
"""

    # As above, but from the eighth outer iteration on the inner loop
    # leaves ``c`` non-integral, which no int import can read.
    NESTED_FRACTIONAL = """
var c = 0, s = 0, k = 0;
for (var i = 0; i < 12; i++) {
    for (var j = 0; j < 3; j++) { c = k * 0.5; }
    k = k + 2;
    if (i > 6) k = k + 1;
    s = (s + c) | 0;
}
s;
"""

    def _run_both(self, source):
        from repro.vm import BaselineVM, VMConfig

        expected = repr(BaselineVM().run(source))
        runs = {}
        for backend in ("step", "py"):
            vm = TracingVM(VMConfig(native_backend=backend, capture_events=True))
            assert repr(vm.run(source)) == expected, backend
            assert vm.stats.tracing.internal_failures == 0, backend
            runs[backend] = vm
        assert runs["py"].stats.total_cycles == runs["step"].stats.total_cycles
        return runs

    def test_nested_call_leaves_int_imports_ints(self):
        for vm in self._run_both(self.NESTED_INTEGRAL).values():
            assert vm.stats.tracing.tree_calls_executed >= 1
            assert not [
                event for event in vm.events.of_kind("side-exit")
                if event.payload["exit_kind"] == "inner"
            ]

    def test_nested_call_leaving_a_fraction_fails_its_guard(self):
        for vm in self._run_both(self.NESTED_FRACTIONAL).values():
            assert [
                event for event in vm.events.of_kind("side-exit")
                if event.payload["exit_kind"] == "inner"
            ]
