"""The Python-emitting trace backend (``--native-backend=py``).

The step machine in :mod:`repro.jit.native` interprets one
:class:`~repro.jit.native.NativeInsn` at a time — faithful, but it pays
dispatch-loop wall-clock cost on every simulated instruction.  This
module is the second backend: each COMPILED fragment's straight-line
``NativeInsn`` sequence is translated once into real Python source (one
function per fragment), assembled with ``compile()``/``exec()``, cached
on the fragment, and re-entered on every subsequent trace invocation.

Emission strategy (see docs/INTERNALS.md section 12):

* registers become Python locals (``r0`` .. ``r15``), loaded from
  ``machine.regs`` in the prologue and written back at every exit so
  register state flows across stitched transfers exactly as it does in
  the step machine;
* guards become ``if`` branches that build the same
  :class:`~repro.core.exits.ExitEvent`, route it through the machine's
  ``_finish_exit``, and either return the event or hand the stitched
  ``SideExit`` back to the driver;
* helper/FFI calls, ``calltree`` sites, side exits, trace types, and
  non-trivial immediates dispatch through a preloaded **constants
  tuple** unpacked into locals at function entry;
* a root fragment's ``loopjmp`` becomes ``continue`` on a ``while``
  loop around the body; ``jtree`` returns a transfer request.

**Direct fragment linking** (``enable_direct_link``, the default): once
a tree has stitched branch fragments, the whole tree is compiled again
as one "megafunction" (:class:`_TreeEmitter`) with every LINKED branch
body inlined at its guard site, so hot trunk<->branch transitions stay
inside a single Python frame instead of surfacing an exit tuple to the
driver on every transfer.  The megafunction is cached on the tree and
rebuilt only once the tree's link count (``link_version``) has at
least doubled since the last build, so a tree that grows n links is
compiled O(log n) times.  A megafunction that lacks the newest links
stays correct: exits it did not inline keep the driver's stitch path,
which follows ``exit.target`` at run time.  Retirement drops it with
the fragments it inlines.

**Cycle-accounting contract**: the generated function charges *exactly*
the same simulated cycles as the step machine, and the ledger and the
``cycles`` accumulator agree with the step machine's wherever other
code can read them.  Costs are summed per straight-line *run* (the
instructions between two hand-off points): one coalesced ``cycles +=``
precedes each guard or exit.  Before a helper/FFI ``call``, a
``calltree`` or a loop edge, at the prologue/loop boundary, and on a
failing guard's way into ``_finish_exit``, :func:`_settle` replays the
step machine's per-instruction ``>= 4096`` flush checks over the run's
static costs.
Loop edges call the same ``machine._loop_edge`` (commit snapshot,
insn budget, supervisor ``meter.poll``, fault site), so every table,
event stream, and chaos sweep is byte-identical across backends.  Only
wall-clock time differs.

Failures anywhere in emission/compile/exec fall back to the step
machine through a dedicated firewall boundary (``pycompile``): the
fragment is marked, a ``jit-internal-failure`` event is emitted, and the
trace keeps running stepped.  Losing the fast backend is a performance
event, not a correctness event, so the safe-mode breaker is *not*
advanced.  The ``pycompile.emit`` fault site makes this path testable.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

from repro import costs
from repro.core import events as eventkind
from repro.core import exits as exitmod
from repro.core.cache import FragmentState
from repro.core.exits import ExitEvent
from repro.core.typemap import TraceType, box_for_type
from repro.costs import Activity
from repro.errors import JSThrow, NativeMachineError
from repro.hardening import faults as sites
from repro.obs.profiler import PHASE_COMPILE
from repro.runtime.conversions import to_int32, to_uint32
from repro.runtime.operations import js_mod
from repro.runtime.values import (
    INT_MAX,
    INT_MIN,
    TAG_BOOLEAN,
    TAG_DOUBLE,
    TAG_INT,
    TAG_NULL,
    TAG_OBJECT,
    TAG_STRING,
    TAG_UNDEFINED,
    UNDEFINED,
)

#: Driver protocol: the generated function returns a 4-tuple
#: ``(status, payload, cycles, executed)``.
RESULT = 0  # payload = the ExitEvent to hand to the monitor
STITCH = 1  # payload = the SideExit whose branch target to stitch into
TRANSFER = 2  # jtree: re-enter the tree's root trunk (cycles carry over)

#: The ledger-flush threshold mirrored from the step machine's run loop.
_FLUSH_AT = 4096


def _settle(charge, cycles, run, count=None, tail=0):
    """Charge the ledger flushes the step machine made during a run.

    ``cycles`` is the accumulator after the run's coalesced increments.
    The step machine checks ``>= 4096`` after each of the first
    ``count`` instructions of ``run`` (their static costs; all of them
    when ``count`` is None); ``tail`` was added after the last check, by
    a failing guard that never reaches its own.  Returns the accumulator
    the step machine holds at the same point.
    """
    steps = run if count is None else run[:count]
    acc = cycles - tail - sum(steps)
    for cost in steps:
        acc += cost
        if acc >= _FLUSH_AT:
            charge(Activity.NATIVE, acc)
            acc = 0
    return acc + tail

_TAG_OF_TYPE = {
    TraceType.INT: TAG_INT,
    TraceType.DOUBLE: TAG_DOUBLE,
    TraceType.OBJECT: TAG_OBJECT,
    TraceType.STRING: TAG_STRING,
    TraceType.BOOLEAN: TAG_BOOLEAN,
    TraceType.NULL: TAG_NULL,
    TraceType.UNDEFINED: TAG_UNDEFINED,
}

_CMP_PYOP = {
    "eqi": "==", "eqd": "==", "eqs": "==",
    "nei": "!=", "ned": "!=",
    "lti": "<", "ltd": "<", "lts": "<",
    "lei": "<=", "led": "<=", "les": "<=",
    "gti": ">", "gtd": ">", "gts": ">",
    "gei": ">=", "ged": ">=", "ges": ">=",
    "eqp": "is",
}


class PyEmitError(NativeMachineError):
    """The emitter met an instruction it cannot translate."""


class _ConstPool:
    """Names objects for the generated function's constants tuple."""

    def __init__(self):
        self.values: List[object] = []
        self.names: List[str] = []
        self._by_id = {}
        self._named = {}

    def add(self, value, name: Optional[str] = None) -> str:
        if name is not None:
            existing = self._named.get(name)
            if existing is not None:
                return name
            self._named[name] = value
        else:
            key = id(value)
            cached = self._by_id.get(key)
            if cached is not None:
                return cached
            name = f"K{len(self.values)}"
            self._by_id[key] = name
        self.values.append(value)
        self.names.append(name)
        return name

    def tuple(self) -> tuple:
        return tuple(self.values)


class _Emitter:
    """Translates one fragment's NativeInsn list into Python source."""

    def __init__(self, fragment):
        self.fragment = fragment
        self.pool = _ConstPool()
        self.lines: List[str] = []
        self.indent = 1
        self.used_regs = set()
        self.uses_ovf = False
        #: Native index of the loop boundary: instructions before it are
        #: the hoisted entry prologue, emitted once outside ``while 1:``.
        self.loop_start = getattr(fragment, "loop_start", 0) or 0
        self._scan_fragment(fragment)
        #: Pooled name of the fragment currently being emitted (the
        #: tree emitter swaps it while inlining branch fragments).
        self.frag_ref = self.pool.add(fragment, "frag")
        self.begin_run()

    def _executed_offset(self, index: int) -> int:
        """Instructions executed past the last ``executed`` update.

        Inside the loop body the local ``executed`` counter was advanced
        by ``loop_start`` after the prologue ran (and by the body length
        at each back edge), so body positions count from the boundary.
        """
        if self.loop_start and index >= self.loop_start:
            return index + 1 - self.loop_start
        return index + 1

    def _scan_fragment(self, fragment) -> None:
        """Collect register/ovf usage over one whole fragment up front.

        Exit writebacks must cover every register the fragment touches:
        a looping fragment can fail an *early* guard on iteration N
        after instructions *past* that guard already ran on iteration
        N-1, so a suffix-blind writeback would hand stale registers to
        a stitched branch.  (The tree emitter scans every inlined
        fragment, so its writebacks cover the union.)
        """
        for insn in fragment.native:
            for reg in (insn.dst, insn.a, insn.b, insn.c):
                if reg is not None:
                    self.used_regs.add(reg)
            for reg in insn.srcs or ():
                self.used_regs.add(reg)
            if insn.op in ("addi", "subi", "muli", "govf"):
                self.uses_ovf = True

    # -- low-level helpers -------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def const(self, value, name: Optional[str] = None) -> str:
        return self.pool.add(value, name)

    def imm(self, value) -> str:
        """An immediate as a literal when exact, else a pooled constant."""
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) is int:
            return repr(value)
        return self.const(value)

    def reg(self, index: int) -> str:
        self.used_regs.add(index)
        return f"r{index}"

    def flush_check(self) -> None:
        """The per-instruction ledger-flush check from the step loop."""
        native = self.const(Activity.NATIVE, "NATIVE")
        self.emit(f"if cycles >= {_FLUSH_AT}:")
        self.emit(f"    charge({native}, cycles); cycles = 0")

    def writeback(self) -> str:
        """Store live locals back into the machine (one statement)."""
        parts = [f"regs[{i}] = r{i}" for i in sorted(self.used_regs)]
        if self.uses_ovf:
            parts.append("machine.ovf = ovf")
        return "; ".join(parts) if parts else "pass"

    # -- straight-line runs ------------------------------------------------

    def begin_run(self) -> None:
        """Open a straight-line run of instructions.

        The accumulator is below the flush threshold on every path into
        a run: function entry, a hand-off's own flush check, a settled
        prologue, or a direct transfer's ``cycles = 0``.
        """
        #: Static cost of each instruction of the run emitted so far.
        self.run: List[int] = []
        self._run_ref: Optional[str] = None
        #: Cost of the run's instructions since the last ``cycles +=``.
        self.pending = 0

    def run_ref(self) -> str:
        """Pooled name of the run's cost list (complete once emitted)."""
        if self._run_ref is None:
            self._run_ref = self.const(self.run)
        return self._run_ref

    def add_cost(self, cost: int) -> None:
        """One run instruction's cost, charged at the next guard or
        settle point."""
        self.pending += cost
        self.run.append(cost)

    def charge_pending(self) -> None:
        """The coalesced ``cycles +=`` for the run since the last one."""
        if self.pending:
            self.emit(f"cycles += {self.pending}")
            self.pending = 0

    def settle(self) -> None:
        """End the run where control hands off (a call, a calltree, a
        loop edge) or paths join (the prologue/loop boundary): charge
        its pending cost and replay the flush checks the step machine
        made in it, then open the next run."""
        if self.run:
            self.charge_pending()
            settle = self.const(_settle, "settle")
            self.emit(f"if cycles >= {_FLUSH_AT}:")
            self.emit(f"    cycles = {settle}(charge, cycles, {self.run_ref()})")
        self.begin_run()

    def exit_cycles(self) -> str:
        """The accumulator a failing guard hands ``_finish_exit``.

        The guard's cost is the run's last; the total is already exact,
        and when it reached 4096 the flush checks due before the guard
        are replayed.
        """
        count = len(self.run) - 1
        if count == 0:
            return "cycles"
        settle = self.const(_settle, "settle")
        return (
            f"cycles if cycles < {_FLUSH_AT} else {settle}(charge, cycles, "
            f"{self.run_ref()}, {count}, {self.run[-1]})"
        )

    # -- exit sequences ----------------------------------------------------

    def _inline_target(self, exit):
        """The branch fragment to inline at this exit (tree emitter
        only); None means surface the exit through the driver."""
        return None

    def exit_body(self, insn, index: int, boxed: Optional[str] = None) -> None:
        """The guard-failure suite: build the event, finish or stitch.

        Emitted at the current indent; ``boxed`` optionally assigns
        ``event.boxed_result``.  When the exit's target is inlined (the
        tree emitter's direct linking), the stitch is replaced by the
        driver's exact bookkeeping followed by the branch body itself.
        """
        exit = insn.exit
        branch = self._inline_target(exit)
        ex = self.const(exit)
        self.emit(f"event = ExitEvent({ex}, ar)")
        if boxed is not None:
            self.emit(f"event.boxed_result = {boxed}")
        if insn.op in ("xt", "xf") and exit.kind == exitmod.INNER:
            self.emit("event.inner = machine.last_inner_event")
            self.emit("if event.inner is not None:")
            self.emit("    event.exception = event.inner.exception")
        if branch is None:
            self.emit(self.writeback())
        self.emit(
            f"result = finish_exit(event, {self.frag_ref}, "
            f"{self.exit_cycles()}, profile)"
        )
        self.emit("if result is not None:")
        self.emit(f"    return ({RESULT}, result, 0, 0)")
        if branch is None:
            self.emit(
                f"return ({STITCH}, {ex}, 0, "
                f"executed + {self._executed_offset(index)})"
            )
            return
        # Direct transfer: NativeMachine._stitch's bookkeeping, inlined,
        # then the branch body itself — registers stay Python locals, so
        # no writeback/reload round-trip through machine.regs is needed
        # (every un-inlined exit inside the branch writes back the union
        # of registers before surfacing).
        native = self.const(Activity.NATIVE, "NATIVE")
        self.emit("tracing.stitched_transfers += 1")
        self.emit(f"charge({native}, {costs.STITCH_PENALTY})")
        self.emit("if profiler is not None:")
        self.emit(f"    profiler.record_stitch({ex}, direct=True)")
        self.emit("if metrics is not None:")
        self.emit("    metrics.fragment_transfers.inc(1, mode='direct')")
        self.emit(f"executed += {self._executed_offset(index)}")
        self.emit("cycles = 0")
        self._emit_inline(branch)

    def guard(self, insn, index: int, fail: str, cost: int,
              boxed: Optional[str] = None) -> None:
        """A conditional guard: charge the run so far, test, exit on
        ``fail``."""
        self.add_cost(cost)
        self.charge_pending()
        self.emit(f"if {fail}:")
        self.indent += 1
        self.exit_body(insn, index, boxed=boxed)
        self.indent -= 1

    # -- per-instruction emission -----------------------------------------

    def emit_insn(self, insn, index: int) -> None:
        op = insn.op
        method = getattr(self, f"_op_{op}", None)
        if method is None:
            raise PyEmitError(f"pycompile: unhandled native op {op!r}")
        method(insn, index)

    def _alu(self, insn, expr: str, cost: int) -> None:
        self.emit(f"{self.reg(insn.dst)} = {expr}")
        self.add_cost(cost)

    # moves and AR access

    def _op_ldar(self, insn, index):
        slot = insn.imm
        if slot >= 0:
            expr = f"ar_slots[{slot}]"
        else:
            expr = f"area_values[{-slot - 1}]"
        self._alu(insn, expr, costs.NATIVE_LOAD)

    def _op_star(self, insn, index):
        slot = insn.imm
        src = self.reg(insn.a)
        if slot >= 0:
            self.emit(f"ar_slots[{slot}] = {src}")
        else:
            gslot = -slot - 1
            self.emit(f"area_values[{gslot}] = {src}")
            if insn.aux is not None:
                self.emit(f"area_types[{gslot}] = {self.const(insn.aux)}")
            self.emit(f"area_dirty.add({gslot})")
        self.add_cost(costs.NATIVE_STORE)

    def _op_movi(self, insn, index):
        self._alu(insn, self.imm(insn.imm), costs.NATIVE_MOV)

    def _op_mov(self, insn, index):
        self._alu(insn, self.reg(insn.a), costs.NATIVE_MOV)

    # integer ALU

    def _ovf_arith(self, insn, pyop: str) -> None:
        self.uses_ovf = True
        a, b = self.reg(insn.a), self.reg(insn.b)
        dst = self.reg(insn.dst)
        self.emit(f"{dst} = {a} {pyop} {b}")
        self.emit(f"ovf = not ({INT_MIN} <= {dst} <= {INT_MAX})")
        self.add_cost(costs.NATIVE_ALU)

    def _op_addi(self, insn, index):
        self._ovf_arith(insn, "+")

    def _op_subi(self, insn, index):
        self._ovf_arith(insn, "-")

    def _op_muli(self, insn, index):
        self._ovf_arith(insn, "*")

    def _bitop(self, insn, pyop: str) -> None:
        f = self.const(to_int32, "to_int32")
        a, b = self.reg(insn.a), self.reg(insn.b)
        self._alu(insn, f"{f}({a}) {pyop} {f}({b})", costs.NATIVE_ALU)

    def _op_andi(self, insn, index):
        self._bitop(insn, "&")

    def _op_ori(self, insn, index):
        self._bitop(insn, "|")

    def _op_xori(self, insn, index):
        self._bitop(insn, "^")

    def _op_noti(self, insn, index):
        f = self.const(to_int32, "to_int32")
        self._alu(insn, f"{f}(~{f}({self.reg(insn.a)}))", costs.NATIVE_ALU)

    def _op_negi(self, insn, index):
        self._alu(insn, f"-{self.reg(insn.a)}", costs.NATIVE_ALU)

    def _op_shli(self, insn, index):
        f = self.const(to_int32, "to_int32")
        a, b = self.reg(insn.a), self.reg(insn.b)
        self._alu(insn, f"{f}({f}({a}) << ({b} & 31))", costs.NATIVE_ALU)

    def _op_shri(self, insn, index):
        f = self.const(to_int32, "to_int32")
        a, b = self.reg(insn.a), self.reg(insn.b)
        self._alu(insn, f"{f}({a}) >> ({b} & 31)", costs.NATIVE_ALU)

    def _op_ushri(self, insn, index):
        f = self.const(to_uint32, "to_uint32")
        a, b = self.reg(insn.a), self.reg(insn.b)
        self._alu(insn, f"{f}({a}) >> ({b} & 31)", costs.NATIVE_ALU)

    # floating point

    def _op_addd(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)} + {self.reg(insn.b)}",
                  costs.NATIVE_FALU)

    def _op_subd(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)} - {self.reg(insn.b)}",
                  costs.NATIVE_FALU)

    def _op_muld(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)} * {self.reg(insn.b)}",
                  costs.NATIVE_FALU)

    def _op_divd(self, insn, index):
        isnan = self.const(math.isnan, "isnan")
        copysign = self.const(math.copysign, "copysign")
        nan = self.const(math.nan, "NAN")
        inf = self.const(math.inf, "INF")
        a, b = self.reg(insn.a), self.reg(insn.b)
        dst = self.reg(insn.dst)
        self.emit(f"if {b} == 0.0:")
        self.emit(f"    if {a} == 0.0 or {isnan}({a}):")
        self.emit(f"        {dst} = {nan}")
        self.emit(f"    elif {copysign}(1.0, {a}) * {copysign}(1.0, {b}) > 0:")
        self.emit(f"        {dst} = {inf}")
        self.emit("    else:")
        self.emit(f"        {dst} = -{inf}")
        self.emit("else:")
        self.emit(f"    {dst} = {a} / {b}")
        self.add_cost(costs.NATIVE_FALU * 2)

    def _op_modd(self, insn, index):
        f = self.const(js_mod, "js_mod")
        self._alu(insn, f"float({f}({self.reg(insn.a)}, {self.reg(insn.b)}))",
                  costs.NATIVE_FALU * 3)

    def _op_negd(self, insn, index):
        self._alu(insn, f"-float({self.reg(insn.a)})", costs.NATIVE_FALU)

    # conversions

    def _op_i2d(self, insn, index):
        self._alu(insn, f"float({self.reg(insn.a)})", costs.NATIVE_I2D)

    def _op_d2i(self, insn, index):
        a = self.reg(insn.a)
        dst = self.reg(insn.dst)
        self.add_cost(costs.NATIVE_D2I)
        self.charge_pending()
        self.emit(
            f"if isinstance({a}, float) and {a}.is_integer() "
            f"and {INT_MIN} <= {a} <= {INT_MAX}:"
        )
        self.emit(f"    {dst} = int({a})")
        self.emit("else:")
        self.indent += 1
        self.exit_body(insn, index)
        self.indent -= 1

    def _op_d2i32(self, insn, index):
        f = self.const(to_int32, "to_int32")
        self._alu(insn, f"{f}({self.reg(insn.a)})", costs.NATIVE_D2I32)

    def _op_tobooli(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)} != 0", costs.NATIVE_ALU)

    def _op_toboold(self, insn, index):
        isnan = self.const(math.isnan, "isnan")
        a = self.reg(insn.a)
        self._alu(insn, f"{a} != 0.0 and not {isnan}({a})", costs.NATIVE_FALU)

    def _op_tobools(self, insn, index):
        self._alu(insn, f"len({self.reg(insn.a)}) > 0", costs.NATIVE_ALU)

    def _op_notb(self, insn, index):
        self._alu(insn, f"not {self.reg(insn.a)}", costs.NATIVE_ALU)

    # comparisons — Python's operators natively implement the machine's
    # NaN semantics (NaN compares false except !=), so doubles inline.

    def _cmp(self, insn, op: str) -> None:
        expr = f"{self.reg(insn.a)} {_CMP_PYOP[op]} {self.reg(insn.b)}"
        if op in ("eqd", "ned", "ltd", "led", "gtd", "ged"):
            cost = costs.NATIVE_FALU
        elif op in ("eqs", "lts", "les", "gts", "ges"):
            cost = costs.NATIVE_ALU + costs.STRING_OP
        else:
            cost = costs.NATIVE_ALU
        self._alu(insn, expr, cost)

    def _op_eqi(self, insn, index):
        self._cmp(insn, "eqi")

    def _op_nei(self, insn, index):
        self._cmp(insn, "nei")

    def _op_lti(self, insn, index):
        self._cmp(insn, "lti")

    def _op_lei(self, insn, index):
        self._cmp(insn, "lei")

    def _op_gti(self, insn, index):
        self._cmp(insn, "gti")

    def _op_gei(self, insn, index):
        self._cmp(insn, "gei")

    def _op_eqd(self, insn, index):
        self._cmp(insn, "eqd")

    def _op_ned(self, insn, index):
        self._cmp(insn, "ned")

    def _op_ltd(self, insn, index):
        self._cmp(insn, "ltd")

    def _op_led(self, insn, index):
        self._cmp(insn, "led")

    def _op_gtd(self, insn, index):
        self._cmp(insn, "gtd")

    def _op_ged(self, insn, index):
        self._cmp(insn, "ged")

    def _op_eqp(self, insn, index):
        self._cmp(insn, "eqp")

    def _op_eqs(self, insn, index):
        self._cmp(insn, "eqs")

    def _op_lts(self, insn, index):
        self._cmp(insn, "lts")

    def _op_les(self, insn, index):
        self._cmp(insn, "les")

    def _op_gts(self, insn, index):
        self._cmp(insn, "gts")

    def _op_ges(self, insn, index):
        self._cmp(insn, "ges")

    # object / array primitives

    def _op_ldshape(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)}.shape_id", costs.NATIVE_LOAD)

    def _op_ldproto(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)}.proto", costs.NATIVE_LOAD)

    def _op_ldslot(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)}.slots[{insn.imm}]",
                  costs.NATIVE_LOAD)

    def _op_stslot(self, insn, index):
        self.emit(f"{self.reg(insn.a)}.slots[{insn.imm}] = {self.reg(insn.b)}")
        self.add_cost(costs.NATIVE_STORE)

    def _op_arraylen(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)}.length", costs.NATIVE_LOAD)

    def _op_denselen(self, insn, index):
        self._alu(insn, f"len({self.reg(insn.a)}.elements)", costs.NATIVE_LOAD)

    def _op_ldelem(self, insn, index):
        self._alu(insn, f"{self.reg(insn.a)}.elements[{self.reg(insn.b)}]",
                  costs.NATIVE_LOAD)

    def _op_stelem(self, insn, index):
        a, b, c = self.reg(insn.a), self.reg(insn.b), self.reg(insn.c)
        self.emit(f"_t = {a}")
        self.emit(f"_t.elements[{b}] = {c}")
        self.emit(f"if {b} >= _t.length:")
        self.emit(f"    _t.length = {b} + 1")
        self.add_cost(costs.NATIVE_STORE)

    def _op_strlen(self, insn, index):
        self._alu(insn, f"len({self.reg(insn.a)})", costs.NATIVE_LOAD)

    # boxing

    def _op_boxv(self, insn, index):
        f = self.const(box_for_type, "box_for_type")
        self._alu(insn, f"{f}({self.reg(insn.a)}, {self.const(insn.imm)})",
                  costs.BOX)

    def _op_unbox(self, insn, index):
        a = self.reg(insn.a)
        dst = self.reg(insn.dst)
        self.emit(
            f"if {a} is None or {a}.tag == {TAG_NULL} "
            f"or {a}.tag == {TAG_UNDEFINED}:"
        )
        self.emit(f"    {dst} = None")
        self.emit("else:")
        self.emit(f"    {dst} = {a}.payload")
        self.add_cost(costs.NATIVE_ALU)

    def _op_gtag(self, insn, index):
        a = self.reg(insn.a)
        trace_type = insn.imm
        if trace_type is TraceType.UNDEFINED:
            fail = f"{a} is not None and {a}.tag != {TAG_UNDEFINED}"
        else:
            fail = f"{a} is None or {a}.tag != {_TAG_OF_TYPE[trace_type]}"
        undef = self.const(UNDEFINED, "UNDEF")
        self.guard(insn, index, fail, costs.NATIVE_GUARD,
                   boxed=f"{a} if {a} is not None else {undef}")

    # guards

    def _op_gcmp(self, insn, index):
        cmp_op, exit_if_true = insn.imm
        expr = f"{self.reg(insn.a)} {_CMP_PYOP[cmp_op]} {self.reg(insn.b)}"
        # ``not`` (rather than operator inversion) keeps NaN semantics.
        fail = f"({expr})" if exit_if_true else f"not ({expr})"
        self.guard(insn, index, fail, costs.NATIVE_GUARD)

    def _op_xt(self, insn, index):
        self._xtf(insn, index, fires_when_true=True)

    def _op_xf(self, insn, index):
        self._xtf(insn, index, fires_when_true=False)

    def _xtf(self, insn, index, fires_when_true: bool) -> None:
        a = self.reg(insn.a)
        fail = f"{a}" if fires_when_true else f"not {a}"
        boxed = self.reg(insn.b) if insn.b is not None else None
        self.guard(insn, index, fail, costs.NATIVE_GUARD, boxed=boxed)

    def _op_govf(self, insn, index):
        self.uses_ovf = True
        self.guard(insn, index, "ovf", costs.NATIVE_GUARD)

    def _op_gi31(self, insn, index):
        a = self.reg(insn.a)
        self.guard(insn, index, f"not ({INT_MIN} <= {a} <= {INT_MAX})",
                   costs.NATIVE_GUARD)

    def _op_gni31(self, insn, index):
        a = self.reg(insn.a)
        self.guard(insn, index, f"{INT_MIN} <= {a} <= {INT_MAX}",
                   costs.NATIVE_GUARD)

    def _op_gclass(self, insn, index):
        a = self.reg(insn.a)
        cls = self.const(insn.imm)
        self.guard(insn, index, f"not isinstance({a}, {cls})",
                   costs.NATIVE_GUARD)

    def _op_x(self, insn, index):
        self.add_cost(costs.NATIVE_JUMP)
        self.charge_pending()
        boxed = self.reg(insn.b) if insn.b is not None else None
        self.exit_body(insn, index, boxed=boxed)

    # VM flags

    def _op_ldreentry(self, insn, index):
        self._alu(insn, "vm.trace_reentered", costs.NATIVE_LOAD)

    def _op_ldpreempt(self, insn, index):
        self._alu(insn, "vm.preempt_flag", costs.NATIVE_LOAD)

    # calls

    def _op_call(self, insn, index):
        spec = insn.aux
        srcs = [self.reg(r) for r in (insn.srcs or ())]
        self.settle()
        self.emit(f"cycles += {spec.cost}")
        if spec.accesses_state:
            self.emit("cycles += flush_globals()")
        if spec.kind == "helper":
            fn = self.const(spec.fn)
            call = f"{fn}(vm" + "".join(f", {s}" for s in srcs) + ")"
        elif spec.kind == "typed":
            fn = self.const(spec.fn)
            call = f"{fn}({', '.join(srcs)})"
        else:  # boxed legacy FFI
            self.emit(f"cycles += {costs.FFI_BOX_PER_ARG * len(srcs)}")
            fn = self.const(spec.fn)
            bft = self.const(box_for_type, "box_for_type")
            boxes = [
                f"{bft}({src}, {self.const(trace_type)})"
                for src, trace_type in zip(srcs, spec.arg_types)
            ]
            if spec.this_type is not None and boxes:
                this = boxes[0]
                rest = boxes[1:]
            else:
                this = self.const(UNDEFINED, "UNDEF")
                rest = boxes
            call = f"{fn}(vm, {this}, [{', '.join(rest)}])"
        if insn.exit is not None:
            jsthrow = self.const(JSThrow, "JSThrow_")
            nme = self.const(NativeMachineError, "NativeMachineError_")
            ex = self.const(insn.exit)
            self.emit("try:")
            self.emit(f"    _t = {call}")
            self.emit(f"except {jsthrow} as _thrown:")
            self.indent += 1
            self.emit(f"event = ExitEvent({ex}, ar)")
            self.emit("event.exception = _thrown")
            self.emit(self.writeback())
            self.emit(
                f"result = finish_exit(event, {self.frag_ref}, cycles, profile)"
            )
            self.emit("if result is not None:")
            self.emit(f"    return ({RESULT}, result, 0, 0)")
            self.emit(
                f"raise {nme}('exception exit must not be stitched') "
                "from _thrown"
            )
            self.indent -= 1
        else:
            self.emit(f"_t = {call}")
        if insn.dst is not None:
            self.emit(f"{self.reg(insn.dst)} = _t")
        self.flush_check()

    def _op_calltree(self, insn, index):
        site = self.const(insn.aux)
        self.settle()
        self.emit(f"cycles += {costs.CALLTREE_CALL}")
        self.emit(f"{self.reg(insn.dst)} = run_inner({site}, profile)")
        self.flush_check()

    # back edges

    def _edge(self, insn, index: int, is_loopjmp: bool) -> None:
        self.settle()
        self.emit(f"cycles += {costs.NATIVE_JUMP}")
        self.emit(f"profile.native += {self.fragment.bytecount}")
        if is_loopjmp:
            self.emit("tree.iterations += 1")
        self.emit("tracing.loop_iterations_native += 1")
        self.emit(f"executed += {self._executed_offset(index)}")
        self.emit("cycles = loop_edge(executed, cycles)")
        self.flush_check()

    def _op_loopjmp(self, insn, index):
        self._edge(insn, index, is_loopjmp=True)
        self.emit("continue")

    def _op_jtree(self, insn, index):
        self._edge(insn, index, is_loopjmp=False)
        self.emit(self.writeback())
        self.emit(f"return ({TRANSFER}, None, cycles, executed)")

    # -- assembly ----------------------------------------------------------

    def source(self) -> str:
        insns = self.fragment.native
        if not insns:
            raise PyEmitError("pycompile: empty fragment")
        loops = insns[-1].op == "loopjmp"
        loop_start = self.loop_start if loops else 0
        self.loop_start = loop_start
        if loops and loop_start:
            # Hoisted entry prologue: runs once per tree entry, then the
            # executed counter advances past it and the loop body takes
            # over (the back edge re-enters at the ``while 1:``).
            for index in range(loop_start):
                self.emit_insn(insns[index], index)
            self.settle()
            self.emit(f"executed += {loop_start}")
            self.emit("while 1:")
            self.indent = 2
            for index in range(loop_start, len(insns)):
                self.emit_insn(insns[index], index)
        else:
            if loops:
                self.indent = 2
            for index, insn in enumerate(insns):
                self.emit_insn(insn, index)
        # The step machine would fault on a fragment without a terminal;
        # mirror its IndexError rather than silently returning None.
        terminal = insns[-1].op
        if terminal not in ("loopjmp", "jtree", "x"):
            self.emit("raise IndexError('list index out of range')")
        body = self.lines
        header = self.header_lines("_fragment_fn")
        if loops and not self.loop_start:
            header.append("    while 1:")
        return "\n".join(header + body) + "\n"

    def _hoist_extras(self, hoist) -> None:
        """Extra header hoists (the tree emitter adds its own)."""

    def header_lines(self, fn_name: str) -> List[str]:
        """The function header: consts unpack + machine-state hoists."""
        header: List[str] = [f"def {fn_name}(machine, executed, cycles):"]

        def hoist(text: str) -> None:
            header.append("    " + text)

        if self.pool.names:
            hoist(f"({', '.join(self.pool.names)},) = _consts")
        hoist("vm = machine.vm")
        hoist("stats = vm.stats")
        hoist("charge = stats.ledger.charge")
        hoist("profile = stats.profile")
        hoist("tracing = stats.tracing")
        hoist("tree = machine.tree")
        hoist("ar = machine.ar")
        hoist("ar_slots = ar.slots")
        hoist("area = ar.globals")
        hoist("area_values = area.values")
        hoist("area_types = area.types")
        hoist("area_dirty = area.dirty")
        hoist("regs = machine.regs")
        hoist("loop_edge = machine._loop_edge")
        hoist("finish_exit = machine._finish_exit")
        hoist("flush_globals = machine._flush_globals")
        hoist("run_inner = machine._run_inner_tree")
        self._hoist_extras(hoist)
        if self.uses_ovf:
            hoist("ovf = machine.ovf")
        for index in sorted(self.used_regs):
            hoist(f"r{index} = regs[{index}]")
        return header


class _TreeEmitter(_Emitter):
    """Emits one direct-linked "megafunction" for a whole trace tree.

    Layout: an outer ``while 1:`` is the tree entry (and every ``jtree``
    re-entry), running the trunk's hoisted prologue; an inner ``while
    1:`` is the trunk loop body.  Every side exit whose target is a
    LINKED branch fragment gets that branch's body inlined at the guard
    site (recursively — the link graph is a tree), preceded by the exact
    bookkeeping ``NativeMachine._stitch`` performs, so hot trunk<->branch
    transitions never surface an exit tuple to the driver.  Registers
    stay Python locals across transitions; entry loads and every exit
    writeback cover the *union* of registers across all inlined
    fragments, so an un-inlined exit always hands the step machine a
    complete register file.

    Exits whose targets are not linked, or were linked after this
    build, keep the plain STITCH path; the driver handles them and
    re-enters the megafunction at the next trunk ``jtree``.  Simulated cycles, events, and stats are
    byte-identical to per-fragment dispatch by construction.
    """

    def __init__(self, tree):
        self.tree = tree
        #: id(SideExit) -> branch Fragment inlined at that guard.
        self._inline_map = {}
        self._inline_fragments: List[object] = []
        self._collect_links(tree.fragment, {id(tree.fragment)})
        super().__init__(tree.fragment)
        for fragment in self._inline_fragments:
            self._scan_fragment(fragment)

    def _collect_links(self, fragment, seen) -> None:
        """Map every inlinable exit of ``fragment``, transitively."""
        for insn in fragment.native:
            exit = insn.exit
            if exit is None or insn.op == "call":
                continue  # exception exits never stitch
            target = exit.target
            if (
                target is None
                or target.state is not FragmentState.LINKED
                or exit.kind == exitmod.INNER
                or not target.native
                or (getattr(target, "loop_start", 0) or 0) != 0
                or target.native[-1].op not in ("jtree", "x")
                or id(target) in seen
            ):
                continue  # un-inlinable: keep the driver's STITCH path
            seen.add(id(target))
            self._inline_map[id(exit)] = target
            self._inline_fragments.append(target)
            self._collect_links(target, seen)

    def _inline_target(self, exit):
        return self._inline_map.get(id(exit))

    def _emit_inline(self, branch) -> None:
        """The branch body, emitted in place at its guard site."""
        saved = (self.fragment, self.loop_start, self.frag_ref,
                 self.run, self._run_ref, self.pending)
        self.fragment = branch
        self.loop_start = 0
        self.frag_ref = self.const(branch)
        self.begin_run()
        for index, insn in enumerate(branch.native):
            self.emit_insn(insn, index)
        if branch.native[-1].op not in ("jtree", "x"):
            self.emit("raise IndexError('list index out of range')")
        (self.fragment, self.loop_start, self.frag_ref,
         self.run, self._run_ref, self.pending) = saved

    def _op_loopjmp(self, insn, index):
        if self.fragment is not self.tree.fragment:
            raise PyEmitError("pycompile: loopjmp inside an inlined branch")
        self._edge(insn, index, is_loopjmp=True)
        self.emit("continue")

    def _op_jtree(self, insn, index):
        # Re-enter the tree: break out of the trunk loop to the outer
        # ``while 1:``, which re-runs the hoisted prologue — exactly the
        # driver's TRANSFER re-call, minus the tuple round-trip (cycles
        # and registers simply stay in their locals).
        self._edge(insn, index, is_loopjmp=False)
        self.emit("break")

    def _hoist_extras(self, hoist) -> None:
        hoist("profiler = vm.profiler")
        hoist("metrics = vm.metrics")

    def source(self) -> str:
        trunk = self.fragment
        insns = trunk.native
        if not insns:
            raise PyEmitError("pycompile: empty fragment")
        loops = insns[-1].op == "loopjmp"
        loop_start = self.loop_start if loops else 0
        self.loop_start = loop_start
        self.indent = 2
        for index in range(loop_start):
            self.emit_insn(insns[index], index)
        if loop_start:
            self.settle()
            self.emit(f"executed += {loop_start}")
        self.emit("while 1:")
        self.indent = 3
        for index in range(loop_start, len(insns)):
            self.emit_insn(insns[index], index)
        terminal = insns[-1].op
        if terminal not in ("loopjmp", "jtree", "x"):
            self.emit("raise IndexError('list index out of range')")
        body = self.lines
        header = self.header_lines("_tree_fn")
        header.append("    while 1:")
        return "\n".join(header + body) + "\n"


def emit_fragment(fragment) -> Tuple[str, tuple]:
    """Translate ``fragment.native`` to ``(python source, consts tuple)``.

    ``ExitEvent`` is injected by name (it is the only helper the body
    always needs regardless of the constant pool).
    """
    emitter = _Emitter(fragment)
    source = emitter.source()
    return source, emitter.pool.tuple()


def emit_tree(tree) -> Tuple[str, tuple]:
    """Translate a whole tree to its megafunction's source + consts."""
    emitter = _TreeEmitter(tree)
    source = emitter.source()
    return source, emitter.pool.tuple()


def _contain_pycompile_failure(vm, fragment, error: BaseException) -> None:
    """The ``pycompile`` firewall boundary.

    A codegen/compile/exec failure costs only performance — the step
    machine still runs the fragment — so containment here is lighter
    than :meth:`repro.hardening.firewall.JITFirewall.contain`: emit the
    typed event, record the trip, and do *not* advance the safe-mode
    breaker or retire anything.  Re-raises when the firewall is
    disabled (``--no-jit-firewall``), so injected faults escape exactly
    like at every other site.
    """
    firewall = vm.firewall
    if firewall is not None and not firewall.enabled:
        raise error
    tree = getattr(fragment, "tree", None)
    code = getattr(tree, "code", None)
    pc = getattr(tree, "header_pc", None)
    faults = vm.faults
    if faults is not None:
        faults.suspended += 1
    try:
        site = getattr(error, "site", None)
        if firewall is not None:
            firewall.trips.append(("pycompile", type(error).__name__, site))
        vm.events.emit(
            eventkind.JIT_INTERNAL_FAILURE,
            boundary="pycompile",
            error=type(error).__name__,
            detail=str(error)[:200],
            code=code.name if code is not None else None,
            pc=pc,
            injected=site is not None,
            site=site,
        )
        if vm.profiler is not None:
            vm.profiler.note_firewall_trip("pycompile")
    finally:
        if faults is not None:
            faults.suspended -= 1


def compile_fragment_py(vm, fragment):
    """Compile ``fragment`` to a Python callable; None on failure.

    The callable and its constants tuple are cached on the fragment
    (``py_func`` / ``py_consts``); :meth:`repro.core.tree.Fragment
    .retire` drops them, so a RETIRED fragment can never run compiled.
    Failures are contained through the ``pycompile`` firewall boundary
    and latched in ``py_failed`` so a broken fragment is not recompiled
    on every invocation.
    """
    started = time.perf_counter()
    profiler = vm.profiler
    if profiler is not None:
        # Lazy compilation runs inside the monitor's PHASE_NATIVE
        # bracket; without this push the one-time emission wall would
        # bill to the native phase the wall-clock frontier measures.
        profiler.enter(PHASE_COMPILE)
    try:
        try:
            if vm.faults is not None:
                vm.faults.fire(sites.PYCOMPILE_EMIT)
            source, consts = emit_fragment(fragment)
            namespace = {"_consts": consts, "ExitEvent": ExitEvent}
            code_obj = compile(source, f"<pycompile:{fragment!r}>", "exec")
            exec(code_obj, namespace)
            fn = namespace["_fragment_fn"]
        except Exception as error:
            try:
                fragment.py_failed = True
            except AttributeError:
                pass  # a stub without the latch still falls back correctly
            _contain_pycompile_failure(vm, fragment, error)
            if vm.metrics is not None:
                vm.metrics.pycompile_failures.inc()
            return None
        fragment.py_func = fn
        fragment.py_consts = consts
    finally:
        if profiler is not None:
            profiler.exit()
    elapsed = time.perf_counter() - started
    if profiler is not None:
        tree = getattr(fragment, "tree", None)
        if tree is not None and hasattr(tree, "code"):
            profiler.note_pycompile(tree, elapsed)
    metrics = vm.metrics
    if metrics is not None:
        metrics.pycompile_fragments.inc()
        metrics.pycompile_wall.observe(elapsed)
    return fn


def compile_tree_py(vm, tree):
    """Compile ``tree``'s direct-linked megafunction; None on failure.

    Cached on the tree (``direct_fn`` / ``direct_consts``) together
    with the link count it was built at (``direct_link_version``), which
    :func:`direct_fn_for` uses to decide when a rebuild pays off;
    :meth:`repro.core.tree.TraceTree.retire` drops it with the
    fragments it inlines.  Failures are contained through the same
    ``pycompile`` firewall boundary as per-fragment emission and
    latched in ``direct_failed`` — losing direct linking only costs
    performance; per-fragment dispatch still runs the tree.
    """
    started = time.perf_counter()
    profiler = vm.profiler
    if profiler is not None:
        profiler.enter(PHASE_COMPILE)
    try:
        try:
            if vm.faults is not None:
                vm.faults.fire(sites.PYCOMPILE_LINK)
            source, consts = emit_tree(tree)
            namespace = {"_consts": consts, "ExitEvent": ExitEvent}
            code_obj = compile(
                source, f"<pycompile:tree@{tree.header_pc}>", "exec"
            )
            exec(code_obj, namespace)
            fn = namespace["_tree_fn"]
        except Exception as error:
            tree.direct_failed = True
            _contain_pycompile_failure(vm, tree.fragment, error)
            if vm.metrics is not None:
                vm.metrics.pycompile_failures.inc()
            return None
        tree.direct_fn = fn
        tree.direct_consts = consts
        tree.direct_link_version = tree.link_version
    finally:
        if profiler is not None:
            profiler.exit()
    elapsed = time.perf_counter() - started
    if profiler is not None:
        profiler.note_pycompile(tree, elapsed, tree_build=True)
    metrics = vm.metrics
    if metrics is not None:
        metrics.pycompile_fragments.inc()
        metrics.pycompile_wall.observe(elapsed)
    return fn


def _tree_has_links(tree) -> bool:
    """Whether any branch is stitched (a megafunction would help)."""
    for branch in tree.branches:
        if branch.state is FragmentState.LINKED:
            exit = branch.anchor_exit
            if exit is not None and exit.target is branch:
                return True
    return False


def direct_fn_for(vm, tree):
    """The tree's megafunction; None = use per-fragment dispatch
    (unlinked tree, failure latch, retired trunk).

    The first build happens at the first stitched link, and the next
    only once the tree's link count (``link_version``) has at least
    doubled since the last build, so a tree that grows n links is built
    at most floor(log2 n) + 1 times and emits about twice its final
    megafunction's source in total.  Until then the megafunction lacks
    the newest links, which is safe: an exit's target is set only once,
    so every exit it inlined still leads to the same LINKED branch, and
    every exit it did not inline goes through ``_finish_exit``, which
    follows ``exit.target`` at run time and hands the driver a STITCH.
    """
    if tree.direct_failed or tree.fragment.py_failed:
        # A trunk whose own emission failed would fail inside the
        # megafunction too; keep the whole tree on the fallback path.
        return None
    fn = tree.direct_fn
    if fn is not None and tree.link_version < 2 * tree.direct_link_version:
        return fn
    if tree.fragment.state is FragmentState.RETIRED:
        return None
    if not _tree_has_links(tree):
        # A single-fragment tree gains nothing over its trunk callable;
        # leave the version stale so the first stitched branch builds.
        return None
    return compile_tree_py(vm, tree)


def compiled_fn_for(vm, fragment):
    """The fragment's cached callable, compiling lazily; None = step."""
    fn = getattr(fragment, "py_func", None)
    if fn is not None:
        return fn
    if getattr(fragment, "py_failed", False):
        return None
    if getattr(fragment, "state", None) is FragmentState.RETIRED:
        # A flush may retire fragments an in-flight machine still
        # reaches by stitch/jtree; they run stepped, never re-compiled.
        return None
    return compile_fragment_py(vm, fragment)


def run_compiled(machine, fragment):
    """Drive a trace run through compiled fragment functions.

    Follows the same stitched transfers and ``jtree`` re-entries as
    :meth:`repro.jit.native.NativeMachine.run_step`, carrying the
    instruction counter and cycle accumulator across fragments.  Any
    fragment without a usable callable (compile failure, retirement)
    drops the rest of the run into the step machine with the counters
    intact — observable state is identical either way.
    """
    machine.backend_used = "py"
    executed = 0
    cycles = 0
    vm = machine.vm
    tree = machine.tree
    direct = vm.config.enable_direct_link
    while True:
        fn = None
        if direct and fragment is tree.fragment:
            fn = direct_fn_for(vm, tree)
        if fn is None:
            fn = compiled_fn_for(vm, fragment)
        if fn is None:
            machine.backend_used = "step"
            return machine.run_step(fragment, executed=executed, cycles=cycles)
        status, payload, cycles, executed = fn(machine, executed, cycles)
        if status == RESULT:
            return payload
        if status == STITCH:
            fragment, _insns, _pc, cycles = machine._stitch(payload)
        else:  # TRANSFER: a branch fragment jumped back into the trunk
            fragment = machine.tree.fragment
