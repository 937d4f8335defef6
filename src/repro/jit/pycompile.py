"""The Python-emitting trace backend (``--native-backend=py``).

The step machine in :mod:`repro.jit.native` interprets one
:class:`~repro.jit.native.NativeInsn` at a time — faithful, but it pays
dispatch-loop wall-clock cost on every simulated instruction.  This
module is the second backend: each COMPILED fragment's straight-line
``NativeInsn`` sequence is translated into real Python source (one
function per fragment), assembled with ``compile()``/``exec()`` once,
cached on the fragment, and re-entered on every subsequent trace
invocation.

Emission strategy (see docs/INTERNALS.md section 12):

* registers become Python locals (``r0`` .. ``r15``).  Codegen never
  reads a register its fragment did not write earlier in its own
  linear code, so nothing is loaded from ``machine.regs`` at entry and
  a failed guard simply abandons the locals;
* guards become ``if`` branches whose failure arm is one statement: a
  call to the shared exit helper :func:`_leave` with the guard's
  pooled :class:`ExitRecord`.  It settles the accumulator and then the
  exit through ``NativeMachine._guard_exit``, the step machine's own
  exit path: an exit that stitches into a LINKED branch and has no
  result slot settles through ``_settle_stitch`` with no event, and
  every other exit builds its event through ``_exit_event`` and goes
  through ``_finish_exit``.  It returns the RESULT tuple, or counts the
  stitch through ``NativeMachine._stitch`` and returns the STITCH tuple
  with the branch;
* helper/FFI calls, ``calltree`` sites, exit records, trace types, and
  non-trivial immediates are **closure cells**: the emitted source is a
  factory ``_make(K0, ...)``, called once per build, that returns
  ``_fragment_fn``.  Each call hoists into locals only the machine and
  VM names its body reads;
* a trunk's ``loopjmp`` becomes ``continue`` on a ``while`` loop
  around the body; ``jtree`` returns a transfer request.

**Build schedule and fragment linking** (the paper's trace stitching):
every fragment's function is built exactly once, at its first run, and
never rebuilt.  A trunk built before its branches exist (every trunk
of a cold run) reaches each of them through the driver's stitch: its
exit helper :func:`_leave` follows ``exit.target`` at run time and
hands :func:`run_compiled` the branch, whose own function is built the
first time it is stitched into.  A function built when LINKED branches
already hang below its fragment (a trunk preloaded from the trace
store, built by :func:`compile_tree_py`) inlines their bodies at their
guards, transitively, so those trunk<->branch transitions stay inside
one Python frame.  An inlined ``jtree`` in a trunk's function breaks
out of the loop to an outer ``while 1:`` that re-runs the prologue
(emitted only when something is inlined); in a branch's function it
returns the transfer request.  Retirement drops a fragment's function.
A failed build (the ``pycompile.emit`` and ``pycompile.link`` fault
sites) leaves the fragment on the step machine.

**Cycle-accounting contract**: the generated function charges *exactly*
the same simulated cycles as the step machine, and the ledger and the
``cycles`` accumulator agree with the step machine's wherever other
code can read them.  Costs are summed per straight-line *run* (the
instructions between two hand-off points): one coalesced ``cycles +=``
precedes each guard or exit.  Before a helper/FFI ``call``, a
``calltree`` or a loop edge, at the prologue/loop boundary, and inside
the exit helper on a failing guard's way into ``_settle_stitch`` or
``_finish_exit``, :func:`_settle` replays the step machine's
per-instruction ``>= 4096`` flush checks over the run's static costs.
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
from repro.core import exits as exitmod
from repro.core.cache import FragmentState
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
    TRUE,
    FALSE,
    UNDEFINED,
    _SMALL_INTS,
    make_number,
)

#: Driver protocol: the generated function returns a 4-tuple
#: ``(status, payload, cycles, executed)``.
RESULT = 0  # payload = the ExitEvent to hand to the monitor
STITCH = 1  # payload = the branch Fragment the exit stitched into
TRANSFER = 2  # jtree: re-enter the tree's root trunk (cycles carry over)

#: The ledger-flush threshold mirrored from the step machine's run loop.
_FLUSH_AT = 4096

# Read once: an enum member lookup costs about 0.2 µs on CPython 3.11,
# and the exit helper and the per-entry lookups below run per crossing.
_NATIVE = Activity.NATIVE
_LINKED = FragmentState.LINKED
_RETIRED = FragmentState.RETIRED


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
            charge(_NATIVE, acc)
            acc = 0
    return acc + tail


class ExitRecord:
    """What one guard's failure arm hands the exit helper :func:`_leave`.

    ``fragment`` owns the guard (an inlined branch rather than the
    fragment whose function it is).  ``run`` is the guard's run cost
    list: the step machine made its flush checks after the first
    ``count`` of them, and the guard's own cost ``tail`` was added after
    the last.  ``offset`` is how far the guard sits past the function's
    last ``executed`` update.  ``hole`` marks a ``gtag`` exit, whose
    boxed result reads an array hole (None) as undefined.  ``inlined``
    marks an exit whose branch the function inlines at the guard.
    """

    __slots__ = ("exit", "fragment", "run", "count", "tail", "offset",
                 "hole", "inlined")

    def __init__(self, exit, fragment, run=None, count=0, tail=0, offset=0,
                 hole=False, inlined=False):
        self.exit = exit
        self.fragment = fragment
        self.run = run
        self.count = count
        self.tail = tail
        self.offset = offset
        self.hole = hole
        self.inlined = inlined


def _leave(machine, record, cycles, executed, value=None):
    """A failed guard: the step machine's exit steps, in its order.

    ``value`` is the guard's boxed result, None when it carries none.
    After the flushes the step machine made, the exit settles through
    ``NativeMachine._guard_exit`` and a stitch through
    ``NativeMachine._stitch``, as on the step machine.  Returns the
    generated function's RESULT tuple, or the STITCH tuple that hands
    the driver the branch; for an inlined exit that stitches, returns
    None, and the generated code falls into the branch.
    """
    exit = record.exit
    stats = machine.vm.stats
    if record.count and cycles >= _FLUSH_AT:
        # Looked up at call time: the differential suite wraps _settle.
        cycles = _settle(stats.ledger.charge, cycles, record.run,
                         record.count, record.tail)
    if value is None and record.hole:
        value = UNDEFINED
    result = machine._guard_exit(exit, record.fragment, cycles,
                                 stats.profile, value)
    if result is not None:
        return (RESULT, result, 0, 0)
    if record.inlined:
        machine._stitch(exit, True)
        return None
    return (STITCH, machine._stitch(exit), 0, executed + record.offset)


def _throw(machine, record, cycles, thrown):
    """A helper call raised ``thrown``: finish its exception exit."""
    event = machine._exit_event(record.exit)
    event.exception = thrown
    stats = machine.vm.stats
    result = machine._finish_exit(event, record.fragment, cycles, stats.profile)
    if result is not None:
        return (RESULT, result, 0, 0)
    raise NativeMachineError("exception exit must not be stitched") from thrown


_TAG_OF_TYPE = {
    TraceType.INT: TAG_INT,
    TraceType.DOUBLE: TAG_DOUBLE,
    TraceType.OBJECT: TAG_OBJECT,
    TraceType.STRING: TAG_STRING,
    TraceType.BOOLEAN: TAG_BOOLEAN,
    TraceType.NULL: TAG_NULL,
    TraceType.UNDEFINED: TAG_UNDEFINED,
}

#: The machine and VM names a generated function may read, in
#: dependency order.  A function hoists one into a local at entry only
#: when its body (see :meth:`_Emitter.hoist`), or a later hoist it
#: keeps, reads the name.
_HOISTS = (
    ("vm", "machine.vm"),
    ("stats", "vm.stats"),
    ("profile", "stats.profile"),
    ("tracing", "stats.tracing"),
    ("tree", "machine.tree"),
    ("ar", "machine.ar"),
    ("ar_slots", "ar.slots"),
    ("area", "ar.globals"),
    ("area_values", "area.values"),
    ("area_types", "area.types"),
    ("area_dirty", "area.dirty"),
    ("loop_edge", "machine._loop_edge"),
    ("run_inner", "machine._run_inner_tree"),
)

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
    """Names objects for the generated function's closure cells."""

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
    """Translates one fragment's NativeInsn list into one Python function,
    with the LINKED branches below it inlined at their guards."""

    def __init__(self, fragment):
        self.fragment = fragment
        self.pool = _ConstPool()
        self.lines: List[str] = []
        self.indent = 1
        #: Native index of the loop boundary: instructions before it are
        #: the hoisted entry prologue, emitted once outside ``while 1:``.
        self.loop_start = getattr(fragment, "loop_start", 0) or 0
        #: id(SideExit) -> branch Fragment inlined at that guard.
        self._inline_map = {}
        self._collect_links(fragment, {id(fragment)})
        #: Whether an inlined ``jtree`` breaks out to an outer loop.
        self.reenters = False
        #: The :data:`_HOISTS` names the emitted body reads.
        self.reads = set()
        self.begin_run()

    def _collect_links(self, fragment, seen) -> None:
        """Map every inlinable exit of ``fragment``, transitively."""
        for insn in fragment.native:
            exit = insn.exit
            if exit is None or insn.op == "call":
                continue  # exception exits never stitch
            target = exit.target
            if (
                target is None
                or target.state is not _LINKED
                or exit.kind == exitmod.INNER
                or not target.native
                or target.loop_start
                or target.native[-1].op not in ("jtree", "x")
                or id(target) in seen
            ):
                continue  # un-inlinable: keep the driver's STITCH path
            seen.add(id(target))
            self._inline_map[id(exit)] = target
            self._collect_links(target, seen)

    def _executed_offset(self, index: int) -> int:
        """Instructions executed past the last ``executed`` update.

        Inside the loop body the local ``executed`` counter was advanced
        by ``loop_start`` after the prologue ran (and by the body length
        at each back edge), so body positions count from the boundary.
        """
        if self.loop_start and index >= self.loop_start:
            return index + 1 - self.loop_start
        return index + 1

    # -- low-level helpers -------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def hoist(self, *names: str) -> None:
        """Note :data:`_HOISTS` names the code emitted next reads, so
        the function hoists them at entry."""
        self.reads.update(names)

    def const(self, value, name: Optional[str] = None) -> str:
        return self.pool.add(value, name)

    def imm(self, value) -> str:
        """An immediate as a literal when exact, else a pooled constant."""
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) is int:
            return repr(value)
        return self.const(value)

    @staticmethod
    def reg(index: int) -> str:
        return f"r{index}"

    def flush_check(self) -> None:
        """The per-instruction ledger-flush check from the step loop."""
        native = self.const(Activity.NATIVE, "NATIVE")
        self.hoist("stats")
        self.emit(f"if cycles >= {_FLUSH_AT}:")
        self.emit(f"    stats.ledger.charge({native}, cycles); cycles = 0")

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
            self.hoist("stats")
            self.emit(f"if cycles >= {_FLUSH_AT}:")
            self.emit(f"    cycles = {settle}(stats.ledger.charge, cycles, "
                      f"{self.run_ref()})")
        self.begin_run()

    # -- exit sequences ----------------------------------------------------

    def exit_body(self, insn, index: int, value: Optional[str] = None,
                  hole: bool = False) -> None:
        """The guard-failure suite, emitted at the current indent.

        ``value`` names the register holding the event's
        ``boxed_result``, if any; ``hole`` is as in :class:`ExitRecord`.
        A plain exit is one ``return`` through :func:`_leave`.  When the
        exit's target is inlined, the branch body follows in place
        unless :func:`_leave` returned a result; registers stay locals,
        which the branch does not read before writing.
        """
        branch = self._inline_map.get(id(insn.exit))
        # The guard's cost is the run's last: the step machine checked
        # for a flush after each instruction before it.
        count = len(self.run) - 1
        record = self.const(ExitRecord(
            insn.exit, self.fragment, self.run, count, self.run[-1],
            self._executed_offset(index), hole, branch is not None,
        ))
        leave = self.const(_leave, "leave")
        call = f"{leave}(machine, {record}, cycles, executed"
        call += ")" if value is None else f", {value})"
        if branch is None:
            self.emit(f"return {call}")
            return
        self.emit(f"out = {call}")
        self.emit("if out is not None:")
        self.emit("    return out")
        self.emit(f"executed += {self._executed_offset(index)}")
        self.emit("cycles = 0")
        self._emit_inline(branch)

    def guard(self, insn, index: int, fail: str, cost: int,
              value: Optional[str] = None, hole: bool = False) -> None:
        """A conditional guard: charge the run so far, test, exit on
        ``fail``."""
        self.add_cost(cost)
        self.charge_pending()
        self.emit(f"if {fail}:")
        self.indent += 1
        self.exit_body(insn, index, value, hole)
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
            self.hoist("ar_slots")
            expr = f"ar_slots[{slot}]"
        else:
            self.hoist("area_values")
            expr = f"area_values[{-slot - 1}]"
        self._alu(insn, expr, costs.NATIVE_LOAD)

    def _op_star(self, insn, index):
        slot = insn.imm
        src = self.reg(insn.a)
        if slot >= 0:
            self.hoist("ar_slots")
            self.emit(f"ar_slots[{slot}] = {src}")
        else:
            gslot = -slot - 1
            self.hoist("area_values", "area_dirty")
            self.emit(f"area_values[{gslot}] = {src}")
            if insn.aux is not None:
                self.hoist("area_types")
                self.emit(f"area_types[{gslot}] = {self.const(insn.aux)}")
            self.emit(f"area_dirty.add({gslot})")
        self.add_cost(costs.NATIVE_STORE)

    def _op_movi(self, insn, index):
        self._alu(insn, self.imm(insn.imm), costs.NATIVE_MOV)

    def _op_mov(self, insn, index):
        self._alu(insn, self.reg(insn.a), costs.NATIVE_MOV)

    # integer ALU

    def _ovf_arith(self, insn, pyop: str) -> None:
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

    def _int32(self, insn, position: int) -> str:
        """Operand ``position`` (0 = ``a``, 1 = ``b``) as an int32.

        Codegen keeps a bitop's operand LIR types in ``insn.aux``; an
        ``i`` operand is an int32 already and goes in bare.  Any other
        (a ``b``, a Python bool, or no types at all) keeps the step
        machine's ``to_int32`` wrap.
        """
        reg = self.reg(insn.b if position else insn.a)
        types = insn.aux
        if types is not None and types[position] == "i":
            return reg
        return f"{self.const(to_int32, 'to_int32')}({reg})"

    def _bitop(self, insn, pyop: str) -> None:
        a, b = self._int32(insn, 0), self._int32(insn, 1)
        self._alu(insn, f"{a} {pyop} {b}", costs.NATIVE_ALU)

    def _op_andi(self, insn, index):
        self._bitop(insn, "&")

    def _op_ori(self, insn, index):
        self._bitop(insn, "|")

    def _op_xori(self, insn, index):
        self._bitop(insn, "^")

    def _op_noti(self, insn, index):
        # The complement of an int32 is an int32.
        self._alu(insn, f"~{self._int32(insn, 0)}", costs.NATIVE_ALU)

    def _op_negi(self, insn, index):
        self._alu(insn, f"-{self.reg(insn.a)}", costs.NATIVE_ALU)

    def _op_shli(self, insn, index):
        # The shift can leave the int32 range, so its result is wrapped.
        f = self.const(to_int32, "to_int32")
        a, b = self._int32(insn, 0), self.reg(insn.b)
        self._alu(insn, f"{f}({a} << ({b} & 31))", costs.NATIVE_ALU)

    def _op_shri(self, insn, index):
        a, b = self._int32(insn, 0), self.reg(insn.b)
        self._alu(insn, f"{a} >> ({b} & 31)", costs.NATIVE_ALU)

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
        # The boxes ``box_for_type`` returns, without its type dispatch:
        # the pooled booleans, the small-int cache for ints.
        a = self.reg(insn.a)
        trace_type = insn.imm
        if trace_type is TraceType.BOOLEAN:
            true = self.const(TRUE, "TRUE")
            false = self.const(FALSE, "FALSE")
            expr = f"{true} if {a} else {false}"
        elif trace_type is TraceType.INT:
            small = self.const(_SMALL_INTS, "SMALL_INTS")
            make_num = self.const(make_number, "make_number")
            expr = f"{small}[{a} + 1] if -1 <= {a} <= 256 else {make_num}({a})"
        else:
            f = self.const(box_for_type, "box_for_type")
            expr = f"{f}({a}, {self.const(trace_type)})"
        self._alu(insn, expr, costs.BOX)

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
        self.guard(insn, index, fail, costs.NATIVE_GUARD, value=a, hole=True)

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
        value = self.reg(insn.b) if insn.b is not None else None
        self.guard(insn, index, fail, costs.NATIVE_GUARD, value=value)

    def _op_govf(self, insn, index):
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
        value = self.reg(insn.b) if insn.b is not None else None
        self.exit_body(insn, index, value)

    # VM flags

    def _op_ldreentry(self, insn, index):
        self.hoist("vm")
        self._alu(insn, "vm.trace_reentered", costs.NATIVE_LOAD)

    def _op_ldpreempt(self, insn, index):
        self.hoist("vm")
        self._alu(insn, "vm.preempt_flag", costs.NATIVE_LOAD)

    # calls

    def _op_call(self, insn, index):
        spec = insn.aux
        srcs = [self.reg(r) for r in (insn.srcs or ())]
        self.settle()
        self.emit(f"cycles += {spec.cost}")
        if spec.accesses_state:
            self.hoist("area", "vm")
            self.emit("cycles += area.flush(vm)")
        if spec.kind == "helper":
            fn = self.const(spec.fn)
            self.hoist("vm")
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
            self.hoist("vm")
            call = f"{fn}(vm, {this}, [{', '.join(rest)}])"
        if insn.exit is not None:
            jsthrow = self.const(JSThrow, "JSThrow_")
            throw = self.const(_throw, "throw")
            # The run was settled above, so the record replays nothing.
            record = self.const(ExitRecord(insn.exit, self.fragment))
            self.emit("try:")
            self.emit(f"    _t = {call}")
            self.emit(f"except {jsthrow} as _thrown:")
            self.emit(f"    return {throw}(machine, {record}, cycles, _thrown)")
        else:
            self.emit(f"_t = {call}")
        if insn.dst is not None:
            self.emit(f"{self.reg(insn.dst)} = _t")
        self.flush_check()

    def _op_calltree(self, insn, index):
        site = self.const(insn.aux)
        self.settle()
        self.emit(f"cycles += {costs.CALLTREE_CALL}")
        self.hoist("run_inner", "profile")
        self.emit(f"{self.reg(insn.dst)} = run_inner({site}, profile)")
        self.flush_check()

    # back edges

    def _edge(self, insn, index: int, is_loopjmp: bool) -> None:
        self.settle()
        self.hoist("profile", "tracing", "loop_edge")
        self.emit(f"cycles += {costs.NATIVE_JUMP}")
        self.emit(f"profile.native += {self.fragment.bytecount}")
        if is_loopjmp:
            self.hoist("tree")
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
        if self.reenters:
            # Re-enter the tree: break out of the loop to the outer
            # ``while 1:``, which re-runs the hoisted prologue, exactly
            # the driver's TRANSFER re-call minus the tuple round-trip
            # (cycles simply stay in their local).
            self.emit("break")
        else:
            self.emit(f"return ({TRANSFER}, None, cycles, executed)")

    # -- assembly ----------------------------------------------------------

    def _emit_inline(self, branch) -> None:
        """The branch body, emitted in place at its guard site."""
        saved = (self.fragment, self.loop_start,
                 self.run, self._run_ref, self.pending)
        self.fragment = branch
        self.loop_start = 0
        self.begin_run()
        for index, insn in enumerate(branch.native):
            self.emit_insn(insn, index)
        (self.fragment, self.loop_start,
         self.run, self._run_ref, self.pending) = saved

    def source(self) -> str:
        insns = self.fragment.native
        if not insns:
            raise PyEmitError("pycompile: empty fragment")
        loops = insns[-1].op == "loopjmp"
        if not loops:
            self.loop_start = 0
        # Only a looping function with something inlined needs the
        # outer loop that an inlined ``jtree`` breaks to.
        self.reenters = loops and bool(self._inline_map)
        self.indent = 2 + self.reenters
        # Hoisted entry prologue: runs once per tree entry, then the
        # executed counter advances past it and the loop body takes
        # over (the back edge re-enters at the inner ``while 1:``).
        for index in range(self.loop_start):
            self.emit_insn(insns[index], index)
        if self.loop_start:
            self.settle()
            self.emit(f"executed += {self.loop_start}")
        if loops:
            self.emit("while 1:")
            self.indent += 1
        for index in range(self.loop_start, len(insns)):
            self.emit_insn(insns[index], index)
        # The step machine would fault on a fragment without a terminal;
        # mirror its IndexError rather than silently returning None.
        if insns[-1].op not in ("loopjmp", "jtree", "x"):
            self.emit("raise IndexError('list index out of range')")
        header = self.header_lines()
        if self.reenters:
            header.append("        while 1:")
        return "\n".join(
            header + self.lines + ["    return _fragment_fn"]
        ) + "\n"

    def header_lines(self) -> List[str]:
        """The factory that binds the constants as closure cells, and
        the function's header: the hoists its body reads."""
        read = set(self.reads)
        hoists = []
        for name, expr in reversed(_HOISTS):
            if name in read:
                hoists.append(f"        {name} = {expr}")
                read.add(expr.split(".", 1)[0])
        return [
            f"def _make({', '.join(self.pool.names)}):",
            "    def _fragment_fn(machine, executed, cycles):",
            *reversed(hoists),
        ]


def _emit(fragment) -> Tuple[str, tuple]:
    emitter = _Emitter(fragment)
    source = emitter.source()
    return source, emitter.pool.tuple()


def emit_fragment(fragment) -> Tuple[str, tuple]:
    """``fragment``'s function, with the LINKED branches below it
    inlined: ``(python source of its factory, the factory's
    arguments)``."""
    return _emit(fragment)


def emit_tree(tree) -> Tuple[str, tuple]:
    """The trunk's function of ``tree``, with the links it already has
    inlined, as :func:`emit_fragment`."""
    return _emit(tree.fragment)


def _contain_pycompile_failure(vm, fragment, error: BaseException) -> None:
    """The ``pycompile`` firewall boundary.

    A codegen/compile/exec failure costs only performance — the step
    machine still runs the fragment — so containment here is lighter
    than :meth:`repro.hardening.firewall.JITFirewall.contain`: only its
    report step (:meth:`~repro.hardening.firewall.JITFirewall.report`),
    with no safe-mode strike and nothing retired.  Re-raises when the
    firewall is disabled (``--no-jit-firewall``), so injected faults
    escape exactly like at every other site, and on a VM without one.
    """
    firewall = vm.firewall
    if firewall is None or not firewall.enabled:
        raise error
    tree = getattr(fragment, "tree", None)
    code = getattr(tree, "code", None)
    firewall.report(
        "pycompile",
        error,
        code.name if code is not None else None,
        getattr(tree, "header_pc", None),
    )


def _build_py(vm, fragment, site: str, emit, label: str):
    """Emit, compile and exec ``fragment``'s factory, call it once to
    bind the constants, and cache the function it returns on the
    fragment; returns the function, or None after latching
    ``py_failed`` and containing the failure.

    Lazy compilation runs inside the monitor's PHASE_NATIVE bracket, so
    the build pushes PHASE_COMPILE: without it the one-time emission
    wall would bill to the native phase the wall-clock frontier
    measures.  The wall is attributed to the tree's loop profile and
    observed by the pycompile wall histogram.
    """
    tree = getattr(fragment, "tree", None)
    started = time.perf_counter()
    profiler = vm.profiler
    if profiler is not None:
        profiler.enter(PHASE_COMPILE)
    try:
        if vm.faults is not None:
            vm.faults.fire(site)
        source, consts = emit()
        namespace = {}
        exec(compile(source, f"<pycompile:{label}>", "exec"), namespace)
        fn = namespace["_make"](*consts)
    except Exception as error:
        fragment.py_failed = True
        _contain_pycompile_failure(vm, fragment, error)
        return None
    finally:
        if profiler is not None:
            profiler.exit()
    elapsed = time.perf_counter() - started
    if profiler is not None and tree is not None and hasattr(tree, "code"):
        profiler.note_pycompile(tree, elapsed)
    if vm.metrics is not None:
        vm.metrics.pycompile_wall.observe(elapsed)
    fragment.py_func = fn
    return fn


def compile_fragment_py(vm, fragment):
    """Build ``fragment``'s function, its only build; None on failure.

    The function, whose closure holds its constants, is cached on the
    fragment (``py_func``); :meth:`repro.core.tree.Fragment.retire`
    drops it, so a RETIRED fragment can never run compiled.
    Failures are contained through the ``pycompile`` firewall boundary
    and latched in ``py_failed`` so a broken fragment is not recompiled
    on every invocation.
    """
    fn = _build_py(vm, fragment, sites.PYCOMPILE_EMIT,
                   lambda: emit_fragment(fragment), repr(fragment))
    if fn is not None:
        vm.stats.tracing.pycompile_fragments += 1
    return fn


def compile_tree_py(vm, tree):
    """Build the trunk's function of ``tree`` when the tree already has
    links (a store preload), with those branches inlined; None on
    failure.

    It is the trunk's only build, cached like
    :func:`compile_fragment_py`'s; a failure latches the trunk's
    ``py_failed``, and the tree runs on the step machine.
    """
    fn = _build_py(vm, tree.fragment, sites.PYCOMPILE_LINK,
                   lambda: emit_tree(tree), f"tree@{tree.header_pc}")
    if fn is not None:
        vm.stats.tracing.pycompile_tree_builds += 1
    return fn


def function_for(vm, fragment):
    """The fragment's function, built at its first run; None = run
    stepped.

    A built function is returned unchanged: each fragment is built
    exactly once.  A trunk whose tree has no links yet (``link_version``
    0, every trunk of a cold run) and every branch are built by
    :func:`compile_fragment_py`; branches linked later are reached
    through :func:`_leave`, which follows ``exit.target`` at run time
    and hands the driver a STITCH.  A trunk whose tree already has links
    (a store preload) is built by :func:`compile_tree_py`, with them
    inlined.  After a failed build, and for a RETIRED fragment, the
    fragment runs stepped.
    """
    fn = getattr(fragment, "py_func", None)
    if fn is not None:
        return fn
    if getattr(fragment, "py_failed", False):
        return None
    if getattr(fragment, "state", None) is _RETIRED:
        # A flush may retire fragments an in-flight machine still
        # reaches by stitch/jtree; they run stepped, never re-compiled.
        return None
    tree = getattr(fragment, "tree", None)
    if tree is not None and fragment is tree.fragment and tree.link_version:
        return compile_tree_py(vm, tree)
    return compile_fragment_py(vm, fragment)


def run_compiled(machine, fragment):
    """Drive a trace run through compiled fragment functions.

    Follows the same stitched transfers and ``jtree`` re-entries as
    :meth:`repro.jit.native.NativeMachine.run_step`, carrying the
    instruction counter and cycle accumulator across fragments.  Any
    fragment without a usable function (compile failure, retirement)
    drops the rest of the run into the step machine with the counters
    intact — observable state is identical either way.
    """
    machine.backend_used = "py"
    executed = 0
    cycles = 0
    vm = machine.vm
    fn = function_for(vm, fragment)
    while fn is not None:
        status, payload, cycles, executed = fn(machine, executed, cycles)
        if status == STITCH:
            fragment = payload
        elif status == RESULT:
            return payload
        else:  # TRANSFER: a branch fragment jumped back into the trunk
            fragment = machine.tree.fragment
        fn = fragment.py_func
        if fn is None:
            fn = function_for(vm, fragment)
    machine.backend_used = "step"
    return machine.run_step(fragment, executed=executed, cycles=cycles)
