"""Code generator with greedy register allocation (paper Section 5.2).

Translates filtered LIR to the simulated native ISA, mostly one
instruction per LIR instruction (Figure 4).  Register allocation is the
paper's greedy scheme: when the allocator runs out of registers it
spills the register-carried value whose most recent use is oldest
("selects v with minimum v_m ... this frees up a register for as long
as possible given a single spill").

Spill slots live in the activation record above the location slots.
Because every value live at a side exit is already AR-resident (the
recorder stores every interpreter-visible write, and dead-store
elimination only removes stores no exit observes), exits need no
register shuffling: a failed guard simply abandons the register file.

Every register an instruction reads was written earlier in the same
fragment's linear code (an operand is either defined there or reloaded
from its spill slot), and every ``govf`` follows the ``addi``/``subi``/
``muli`` it checks.  The py backend (:mod:`repro.jit.pycompile`) relies
on this: its registers are locals of the generated function, never
loaded from or written back to ``machine.regs``.
``tests/test_codegen.py`` checks it on every suite fragment, and the
property tests on every generated program.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lir import LIns
from repro.errors import VMInternalError
from repro.jit.native import N_INT_REGS, N_FLOAT_REGS, NativeInsn

_INT_FILE = 0
_FLOAT_FILE = 1

#: LIR ops that map 1:1 onto a same-named native instruction with
#: (dst, a[, b[, c]]) register operands.
_DIRECT_BINOPS = frozenset(
    """
    addi subi muli andi ori xori shli shri ushri
    addd subd muld divd modd
    eqi nei lti lei gti gei eqd ned ltd led gtd ged eqp eqs
    lts les gts ges eqb
    """.split()
)

_DIRECT_UNOPS = frozenset(
    """
    negi noti negd i2d d2i32 tobooli toboold tobools notb
    ldshape ldproto arraylen denselen strlen unbox
    """.split()
)

#: Int32 bitops whose native instruction keeps its operands' LIR types
#: in ``aux`` (``"ib"``: an int and a bool).  An ``i`` value is already
#: an int32: it came through an overflow guard, ``d2i``/``d2i32`` or a
#: 32-bit inline int, or is a global a nested call settled at its int
#: import (``native._settle_global``).  A ``b`` one is a Python bool,
#: which the bitop recording passes through, so the py backend wraps
#: only those.
_INT32_OPS = frozenset(("andi", "ori", "xori", "shli", "shri", "noti"))


class RegisterAllocator:
    """Greedy forward allocator with LRU ("oldest last use") spilling."""

    def __init__(self, spill_base: int):
        self.free = {
            _INT_FILE: list(range(N_INT_REGS - 1, -1, -1)),
            _FLOAT_FILE: list(range(N_INT_REGS + N_FLOAT_REGS - 1, N_INT_REGS - 1, -1)),
        }
        self.reg_of: Dict[int, int] = {}  # ins_id -> register
        self.value_in: Dict[int, int] = {}  # register -> ins_id
        self.last_touch: Dict[int, int] = {}  # register -> position
        self.spill_slot: Dict[int, int] = {}  # ins_id -> AR slot
        self.spill_base = spill_base
        self.n_spills = 0
        self.out: List[NativeInsn] = []
        self.position = 0
        self.pinned: set = set()
        #: Registers permanently reserved for loop-invariant values that
        #: live across the back edge (never evicted: an eviction store
        #: emitted inside the loop body would rerun every iteration and
        #: clobber the spill slot once the register is reused).
        self.sticky: set = set()

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def file_of(ins: LIns) -> int:
        return _FLOAT_FILE if ins.type == "d" else _INT_FILE

    def _alloc_spill(self, ins_id: int) -> int:
        slot = self.spill_slot.get(ins_id)
        if slot is None:
            slot = self.spill_base + self.n_spills
            self.n_spills += 1
            self.spill_slot[ins_id] = slot
        return slot

    def _take_register(self, file_id: int) -> int:
        free = self.free[file_id]
        if free:
            return free.pop()
        # Spill the LRU-touched unpinned register in this file.
        candidates = [
            reg
            for reg, _value in self.value_in.items()
            if _file_of_reg(reg) == file_id
            and reg not in self.pinned
            and reg not in self.sticky
        ]
        if not candidates:
            raise VMInternalError("register pressure with every register pinned")
        victim = min(candidates, key=lambda reg: self.last_touch.get(reg, -1))
        value_id = self.value_in.pop(victim)
        del self.reg_of[value_id]
        slot = self._alloc_spill(value_id)
        self.out.append(NativeInsn("star", a=victim, imm=slot))
        return victim

    def define(self, ins: LIns) -> int:
        """Allocate the destination register for a new value."""
        reg = self._take_register(self.file_of(ins))
        self.reg_of[ins.ins_id] = reg
        self.value_in[reg] = ins.ins_id
        self.last_touch[reg] = self.position
        return reg

    def use(self, ins: LIns) -> int:
        """Register holding ``ins``, reloading from a spill if needed."""
        reg = self.reg_of.get(ins.ins_id)
        if reg is None:
            slot = self.spill_slot.get(ins.ins_id)
            if slot is None:
                raise VMInternalError(f"use of unmaterialized value {ins!r}")
            reg = self._take_register(self.file_of(ins))
            self.out.append(NativeInsn("ldar", dst=reg, imm=slot))
            self.reg_of[ins.ins_id] = reg
            self.value_in[reg] = ins.ins_id
        self.last_touch[reg] = self.position
        self.pinned.add(reg)
        return reg

    def release_dead(self, ins: LIns, last_use: Dict[int, int]) -> None:
        """Free registers of operands whose last use is this position."""
        for arg in ins.args:
            if last_use.get(arg.ins_id) == self.position:
                self._free_value(arg.ins_id)
        if isinstance(ins.aux, LIns) and last_use.get(ins.aux.ins_id) == self.position:
            self._free_value(ins.aux.ins_id)

    def _free_value(self, ins_id: int) -> None:
        reg = self.reg_of.pop(ins_id, None)
        if reg is not None:
            del self.value_in[reg]
            self.free[_file_of_reg(reg)].append(reg)

    def unpin_all(self) -> None:
        self.pinned.clear()

    #: Registers per file kept sticky across the loop back edge; the
    #: rest stay available so body register pressure cannot exceed the
    #: file (sticky + per-instruction pins < file size).
    _STICKY_PER_FILE = 4

    def cross_loop_boundary(self, last_use, use_counts, loop_start: int) -> None:
        """Close the entry prologue at ``loop_start``.

        Every register-resident prologue value either becomes *sticky*
        (its register is reserved for the whole loop) or is spilled
        here, once per entry.  Without this, the allocator could emit
        an eviction store for a prologue value inside the body: on the
        second iteration the register no longer holds that value, and
        the rerun store would clobber the spill slot.
        """
        bound = sorted(
            self.value_in.items(),
            key=lambda item: (-use_counts.get(item[1], 0), item[1]),
        )
        sticky_count = {_INT_FILE: 0, _FLOAT_FILE: 0}
        for reg, value_id in bound:
            last = last_use.get(value_id)
            if last is None or last < loop_start:
                self._free_value(value_id)
                continue
            file_id = _file_of_reg(reg)
            if sticky_count[file_id] < self._STICKY_PER_FILE:
                self.sticky.add(reg)
                sticky_count[file_id] += 1
                # The register must survive every iteration: releasing
                # it at the value's textual last use would let the body
                # reuse it, clobbering later iterations' reads.
                last_use[value_id] = 1 << 30
            else:
                slot = self._alloc_spill(value_id)
                self.out.append(NativeInsn("star", a=reg, imm=slot))
                self._free_value(value_id)


def _file_of_reg(reg: int) -> int:
    return _INT_FILE if reg < N_INT_REGS else _FLOAT_FILE


def compute_last_uses(lir: List[LIns]) -> Dict[int, int]:
    last_use: Dict[int, int] = {}
    for index, ins in enumerate(lir):
        for arg in ins.args:
            last_use[arg.ins_id] = index
        if isinstance(ins.aux, LIns):
            last_use[ins.aux.ins_id] = index
    return last_use


def compute_use_counts(lir: List[LIns]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for ins in lir:
        for arg in ins.args:
            counts[arg.ins_id] = counts.get(arg.ins_id, 0) + 1
        if isinstance(ins.aux, LIns):
            counts[ins.aux.ins_id] = counts.get(ins.aux.ins_id, 0) + 1
    return counts


#: Comparisons fusable into a single compare-and-exit guard (Figure 4's
#: ``cmp eax, Array / jne side_exit`` pattern).
_FUSABLE_COMPARES = frozenset(
    """
    eqi nei lti lei gti gei eqd ned ltd led gtd ged eqp eqs
    lts les gts ges eqb
    """.split()
)


def generate(lir: List[LIns], spill_base: int, loop_start: int = 0):
    """Compile LIR to native code.

    ``loop_start`` is the LIR index the loop back edge re-enters at:
    instructions before it form a hoisted once-per-entry prologue
    (0 means the whole trace reruns every iteration, the legacy
    layout).  Returns ``(native_insns, n_spill_slots,
    native_loop_start)`` with the boundary's *native* index.
    """
    last_use = compute_last_uses(lir)
    use_counts = compute_use_counts(lir)
    alloc = RegisterAllocator(spill_base)
    out = alloc.out
    native_loop_start = 0

    for index, ins in enumerate(lir):
        if loop_start and index == loop_start:
            alloc.cross_loop_boundary(last_use, use_counts, loop_start)
            native_loop_start = len(out)
        alloc.position = index
        alloc.unpin_all()
        op = ins.op

        # Fuse a single-use comparison into the following guard: one
        # compare-and-branch instruction instead of a setcc + test.
        # Never fuse across the loop boundary: the compare would sit in
        # the prologue while the guard reruns every iteration.
        if (
            op in ("xt", "xf")
            and ins.aux is None
            and ins.args[0].op in _FUSABLE_COMPARES
            and use_counts.get(ins.args[0].ins_id) == 1
            and index > 0
            and index != loop_start
            and lir[index - 1] is ins.args[0]
        ):
            cmp_ins = ins.args[0]
            a = alloc.use(cmp_ins.args[0])
            b = alloc.use(cmp_ins.args[1])
            # Free operands that died at the (skipped) compare.
            alloc.position = index - 1
            alloc.release_dead(cmp_ins, last_use)
            alloc.position = index
            native_op = "eqp" if cmp_ins.op == "eqb" else cmp_ins.op
            out.append(
                NativeInsn(
                    "gcmp",
                    a=a,
                    b=b,
                    imm=(native_op, op == "xt"),
                    exit=ins.exit,
                )
            )
            continue
        if (
            op in _FUSABLE_COMPARES
            and use_counts.get(ins.ins_id) == 1
            and index + 1 < len(lir)
            and index + 1 != loop_start
            and lir[index + 1].op in ("xt", "xf")
            and lir[index + 1].aux is None
            and lir[index + 1].args[0] is ins
        ):
            continue  # emitted fused by the guard that follows

        if op == "const":
            if ins.ins_id in last_use:
                dst = alloc.define(ins)
                out.append(NativeInsn("movi", dst=dst, imm=ins.imm))
        elif op in ("param", "ldar"):
            if ins.ins_id in last_use:
                dst = alloc.define(ins)
                out.append(NativeInsn("ldar", dst=dst, imm=ins.slot))
        elif op == "star":
            src = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            # For global slots, aux carries the TraceType for re-boxing
            # at the dirty-global flush.
            aux = ins.aux if not isinstance(ins.aux, LIns) else None
            out.append(NativeInsn("star", a=src, imm=ins.slot, aux=aux))
        elif op in _DIRECT_BINOPS:
            a = alloc.use(ins.args[0])
            b = alloc.use(ins.args[1])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            native_op = "eqp" if op == "eqb" else op
            aux = None
            if op in _INT32_OPS:
                aux = ins.args[0].type + ins.args[1].type
            out.append(NativeInsn(native_op, dst=dst, a=a, b=b, aux=aux))
            if ins.exit is not None and op in ("addi", "subi", "muli"):
                out.append(NativeInsn("govf", exit=ins.exit))
        elif op in _DIRECT_UNOPS:
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            aux = ins.args[0].type if op in _INT32_OPS else None
            out.append(NativeInsn(op, dst=dst, a=a, aux=aux))
        elif op == "d2i":
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            out.append(NativeInsn("d2i", dst=dst, a=a, exit=ins.exit))
        elif op in ("gi31", "gni31"):
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn(op, a=a, exit=ins.exit))
        elif op == "gclass":
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn("gclass", a=a, imm=ins.imm, exit=ins.exit))
        elif op == "boxv":
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            out.append(NativeInsn("boxv", dst=dst, a=a, imm=ins.imm))
        elif op == "gtag":
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn("gtag", a=a, imm=ins.imm, exit=ins.exit))
        elif op in ("xt", "xf"):
            a = alloc.use(ins.args[0])
            boxed_reg = None
            if isinstance(ins.aux, LIns):
                boxed_reg = alloc.use(ins.aux)
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn(op, a=a, b=boxed_reg, exit=ins.exit))
        elif op == "x":
            boxed_reg = None
            if isinstance(ins.aux, LIns):
                boxed_reg = alloc.use(ins.aux)
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn("x", b=boxed_reg, exit=ins.exit))
        elif op == "ldslot":
            a = alloc.use(ins.args[0])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            out.append(NativeInsn("ldslot", dst=dst, a=a, imm=ins.imm))
        elif op == "stslot":
            a = alloc.use(ins.args[0])
            b = alloc.use(ins.args[1])
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn("stslot", a=a, b=b, imm=ins.imm))
        elif op == "ldelem":
            a = alloc.use(ins.args[0])
            b = alloc.use(ins.args[1])
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            out.append(NativeInsn("ldelem", dst=dst, a=a, b=b))
        elif op == "stelem":
            a = alloc.use(ins.args[0])
            b = alloc.use(ins.args[1])
            c = alloc.use(ins.args[2])
            alloc.release_dead(ins, last_use)
            out.append(NativeInsn("stelem", a=a, b=b, c=c))
        elif op == "call":
            srcs = [alloc.use(arg) for arg in ins.args]
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins) if ins.type != "v" else None
            out.append(
                NativeInsn("call", dst=dst, srcs=srcs, aux=ins.imm, exit=ins.exit)
            )
        elif op == "calltree":
            alloc.release_dead(ins, last_use)
            dst = alloc.define(ins)
            out.append(NativeInsn("calltree", dst=dst, aux=ins.imm))
        elif op in ("ldreentry", "ldpreempt"):
            dst = alloc.define(ins)
            out.append(NativeInsn(op, dst=dst))
        elif op == "loop":
            out.append(NativeInsn("loopjmp"))
        elif op == "jtree":
            out.append(NativeInsn("jtree", aux=ins.aux[0]))
        else:
            raise VMInternalError(f"codegen: unhandled LIR op {op!r}")

    return out, alloc.n_spills, native_loop_start


def format_native(insns: List[NativeInsn]) -> str:
    """Disassembly-style rendering of native code."""
    return "\n".join(f"  {index:4d}  {insn!r}" for index, insn in enumerate(insns))


#: Simulated encoded size (bytes) per native instruction, for the trace
#: cache's code budget.  Plain register ops assemble to one word; guards
#: additionally embed a pointer to their side-exit record; calls carry a
#: call spec, argument moves, and the VM-state handshake.
_INSN_BYTES_DEFAULT = 4
_INSN_BYTES = {
    "gcmp": 8,
    "gtag": 8,
    "govf": 8,
    "gi31": 8,
    "gni31": 8,
    "gclass": 8,
    "xt": 8,
    "xf": 8,
    "x": 8,
    "d2i": 8,  # carries an exit like a guard
    "call": 16,
    "calltree": 16,
}


def code_size(insns: List[NativeInsn]) -> int:
    """Simulated native code size of a compiled fragment, in bytes."""
    return sum(_INSN_BYTES.get(insn.op, _INSN_BYTES_DEFAULT) for insn in insns)
