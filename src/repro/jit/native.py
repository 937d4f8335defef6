"""The simulated native ISA and its machine.

This stands in for the x86 code nanojit emits in the paper (the
substitution is documented in DESIGN.md).  The ISA is a conventional
load/store register machine:

* 8 integer/pointer registers (``r0``-``r7``, indexes 0-7) holding ints,
  booleans, object/string references, and boxed values;
* 8 floating-point registers (``f0``-``f7``, indexes 8-15);
* loads/stores against the **trace activation record** (a flat slot
  array) and a VM-wide **global area**;
* fused compare-and-exit guards, overflow guards, tagged-box guards;
* calls to runtime helpers and FFI natives; and
* nested-tree calls (``calltree``), which run another tree's machine.

Every instruction charges simulated cycles (:mod:`repro.costs`), which
is how "native time" is measured for the Figure 10/12 reproductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional

from repro import costs
from repro.costs import Activity
from repro.core.cache import FragmentState
from repro.core.exits import INNER, ExitEvent, SideExit
from repro.core.typemap import TraceType, box_for_type, type_of_box, unbox_for_type
from repro.errors import JSThrow, NativeBudgetExceeded, NativeMachineError
from repro.hardening import faults as sites
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

N_INT_REGS = 8
N_FLOAT_REGS = 8
N_REGS = N_INT_REGS + N_FLOAT_REGS

# Enum members read once: ``Activity.NATIVE`` and friends cost about
# 0.2 µs per lookup on CPython 3.11, and the trace-boundary crossings
# below (loop edges, exits, stitches, nested calls) run per iteration.
_NATIVE = Activity.NATIVE
_LINKED = FragmentState.LINKED
_RETIRED = FragmentState.RETIRED
_INT = TraceType.INT
_DOUBLE = TraceType.DOUBLE


class NativeInsn:
    """One simulated machine instruction.

    ``dst``/``a``/``b``/``c`` are register indexes (or None); ``imm`` is
    an immediate (constant, AR slot, object-slot index, or TraceType);
    ``exit`` is a :class:`SideExit` for guards; ``aux`` carries call
    specs / calltree sites; ``srcs`` is the argument register list for
    calls.
    """

    __slots__ = ("op", "dst", "a", "b", "c", "imm", "exit", "aux", "srcs")

    def __init__(self, op, dst=None, a=None, b=None, c=None, imm=None, exit=None,
                 aux=None, srcs=None):
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.c = c
        self.imm = imm
        self.exit = exit
        self.aux = aux
        self.srcs = srcs

    def __setstate__(self, state: tuple) -> None:
        # The trace store's state: the slot values in ``__slots__`` order
        # (see repro.core.store).
        (self.op, self.dst, self.a, self.b, self.c, self.imm, self.exit,
         self.aux, self.srcs) = state

    def __repr__(self) -> str:
        parts = [self.op]
        if self.dst is not None:
            parts.append(f"{_reg_name(self.dst)} <-")
        for reg in (self.a, self.b, self.c):
            if reg is not None:
                parts.append(_reg_name(reg))
        if self.srcs:
            parts.append("(" + ", ".join(_reg_name(r) for r in self.srcs) + ")")
        if self.imm is not None:
            text = repr(self.imm)
            if len(text) > 32:
                text = text[:29] + "..."
            parts.append(f"#{text}")
        if self.exit is not None:
            parts.append(f"-> exit{self.exit.exit_id}")
        return " ".join(parts)


def _reg_name(index: int) -> str:
    if index < N_INT_REGS:
        return f"r{index}"
    return f"f{index - N_INT_REGS}"


@dataclass(slots=True)
class CallSpec:
    """How a ``call`` instruction invokes its target.

    kind:
    * ``helper`` — a runtime helper ``fn(vm, *raw_args)``;
    * ``typed`` — a typed-FFI native ``raw_fn(*raw_args)`` (Section 6.5
      "new FFI": no boxing);
    * ``boxed`` — a legacy-FFI native ``fn(vm, this_box, arg_boxes)``;
      the machine boxes arguments (cost per argument) and the result
      stays boxed pending a tag guard.
    """

    kind: str
    name: str
    fn: object
    arg_types: tuple = ()
    this_type: Optional[TraceType] = None
    result_type: str = "v"
    cost: int = costs.NATIVE_CALL
    pure: bool = False
    #: Section 6.5: natives that read/write interpreter state get the
    #: dirty globals flushed before the call (the trace is forced to
    #: exit right after it returns).
    accesses_state: bool = False

    def __setstate__(self, state: tuple) -> None:
        # The trace store's state: the slot values in ``__slots__`` order.
        (self.kind, self.name, self.fn, self.arg_types, self.this_type,
         self.result_type, self.cost, self.pure, self.accesses_state) = state


class GlobalArea:
    """Per-trace-invocation unboxed global variables, shared by nested
    trees (all trees address globals through the VM-wide slot registry
    kept by the monitor)."""

    __slots__ = ("values", "types", "dirty")

    def __init__(self):
        self.values = {}
        self.types = {}
        self.dirty = set()

    def load(self, index: int, raw, trace_type: TraceType) -> None:
        self.values[index] = raw
        self.types[index] = trace_type

    def read(self, index: int):
        return self.values[index]

    def write(self, index: int, raw, trace_type: Optional[TraceType] = None) -> None:
        self.values[index] = raw
        if trace_type is not None:
            self.types[index] = trace_type
        self.dirty.add(index)

    def flush(self, vm) -> int:
        """Write the dirty globals back to ``vm.globals``, re-boxed, and
        return the cycles spent; the caller charges them to its own
        activity (a state-accessing native call, or exit restoration)."""
        if not self.dirty:
            return 0
        names = vm.monitor.global_names
        for index in self.dirty:
            vm.globals[names[index]] = box_for_type(
                self.values[index], self.types[index]
            )
        cycles = costs.AR_EXPORT_PER_SLOT * len(self.dirty)
        self.dirty.clear()
        return cycles


def _settle_global(area: GlobalArea, gslot: int, trace_type, vm) -> bool:
    """Make area slot ``gslot`` readable at a tree's import type.

    Nested trees share the area, so one may have written the slot at a
    type the other does not import, and an ``i`` value must be a Python
    int.  The import's own type, or an int under a double import (the
    promotion tree entry allows), stays.  A float under an int import
    that re-boxing would make an int (an int32, not -0) becomes that
    int, for one ``d2i``.  Anything else refuses.
    """
    actual = area.types.get(gslot)
    if actual is trace_type or (trace_type is _DOUBLE and actual is _INT):
        return True
    if trace_type is not _INT or actual is not _DOUBLE:
        return False
    box = box_for_type(area.values[gslot], _DOUBLE)
    if box.tag != TAG_INT:
        return False
    area.values[gslot] = box.payload
    area.types[gslot] = _INT
    vm.stats.ledger.charge(_NATIVE, costs.NATIVE_D2I)
    return True


class ActivationRecord:
    """The trace activation record: a flat array of unboxed slots plus a
    reference to the shared global area.

    Slot encoding (see codegen): slot >= 0 addresses ``slots``; slot
    ``-(g+1)`` addresses global-area index ``g``.
    """

    __slots__ = ("slots", "globals")

    def __init__(self, size: int, global_area: GlobalArea):
        self.slots = [None] * size
        self.globals = global_area

    def read(self, slot: int):
        if slot >= 0:
            return self.slots[slot]
        return self.globals.read(-slot - 1)

    def write(self, slot: int, raw) -> None:
        if slot >= 0:
            self.slots[slot] = raw
        else:
            self.globals.write(-slot - 1, raw)


def _compare(op: str, left, right) -> bool:
    """Semantics of a fused comparison (mirrors the standalone ops)."""
    if op in ("eqd", "ned", "ltd", "led", "gtd", "ged"):
        if math.isnan(left) or math.isnan(right):
            return op == "ned"
    if op in ("eqi", "eqd", "eqs"):
        return left == right
    if op in ("nei", "ned"):
        return left != right
    if op == "eqp":
        return left is right
    if op in ("lti", "ltd", "lts"):
        return left < right
    if op in ("lei", "led", "les"):
        return left <= right
    if op in ("gti", "gtd", "gts"):
        return left > right
    return left >= right  # gei / ged / ges


def _tag_matches(box, trace_type: TraceType) -> bool:
    """Does a boxed value satisfy a trace-type guard?

    ``box`` may be ``None`` (an array hole), which reads as undefined.
    """
    if box is None:
        return trace_type is TraceType.UNDEFINED
    tag = box.tag
    if trace_type is TraceType.INT:
        return tag == TAG_INT
    if trace_type is TraceType.DOUBLE:
        return tag == TAG_DOUBLE
    if trace_type is TraceType.OBJECT:
        return tag == TAG_OBJECT
    if trace_type is TraceType.STRING:
        return tag == TAG_STRING
    if trace_type is TraceType.BOOLEAN:
        return tag == TAG_BOOLEAN
    if trace_type is TraceType.NULL:
        return tag == TAG_NULL
    return tag == TAG_UNDEFINED


#: Safety valve: a single trace invocation may not exceed this many
#: simulated native instructions (catches runaway loops in the VM itself,
#: not in user programs — user infinite loops still make progress through
#: preemption exits).  The default for ``VMConfig.native_insn_budget``;
#: the check fires at loop back-edges (commit points), so overrunning it
#: is a graceful deopt through the JIT firewall, not a crash.
MAX_INSNS_PER_RUN = 200_000_000


def _run_compiled(machine, fragment) -> ExitEvent:
    """The py backend's driver, :func:`repro.jit.pycompile.run_compiled`.

    Imported at the first py-backend run rather than with this module:
    importing the backend, and ``repro.obs`` with it, at start-up raised
    the peak RSS of perfbench's interp-bound workload by about 0.8 MB
    (allocation order, not more allocation).  The import rebinds this
    name, so every later run calls the driver directly.
    """
    global _run_compiled
    from repro.jit.pycompile import run_compiled

    _run_compiled = run_compiled
    return run_compiled(machine, fragment)


def _slot_reader(slots: List[int]):
    """A C-level callable that reads ``slots`` out of a list, in order.

    ``itemgetter`` returns a bare item for one index and refuses none,
    so those cases read a slice instead: the result is a tuple for two
    or more slots and a list otherwise, and commits only iterate it.
    """
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(slice(0, 0))


class NativeMachine:
    """Executes compiled fragments of one trace tree."""

    __slots__ = (
        "vm",
        "tree",
        "ar",
        "regs",
        "last_inner_event",
        "ovf",
        "commit",
        "_commit_get",
        "_commit_enabled",
        "_faults",
        "_insn_budget",
        "_backend_py",
        "backend_used",
    )

    def __init__(self, vm, tree, ar: ActivationRecord,
                 outer: Optional["NativeMachine"] = None):
        self.vm = vm
        self.tree = tree
        self.ar = ar
        self.regs: List[object] = [None] * N_REGS
        self.last_inner_event: Optional[ExitEvent] = None
        self.ovf = False
        #: (entry-typemap slot values, copies of the global area's
        #: values, types and dirty set) at the last commit point (trace
        #: entry / loop back-edge); None = none yet.
        self.commit = None
        #: Reads the entry-typemap slots out of ``ar.slots``; made at the
        #: first commit, so None until then and on a nested machine.
        self._commit_get = None
        if outer is None:
            config = vm.config
            self._commit_enabled = config.enable_jit_firewall
            self._faults = vm.faults
            self._insn_budget = config.native_insn_budget
            self._backend_py = config.native_backend == "py"
        else:
            # A ``calltree`` machine takes the outer machine's resolved
            # settings.  It skips commit snapshots (the outermost
            # machine's commit is the rollback point the firewall uses)
            # and the loop-edge fault site.
            self._commit_enabled = False
            self._faults = None
            self._insn_budget = outer._insn_budget
            self._backend_py = outer._backend_py
        #: Which backend actually executed the last ``run`` ("py" or
        #: "step"); a compiled run that deopts mid-flight reads "step".
        self.backend_used = "step"

    # -- global-area management (shared with the monitor) ---------------------

    def ensure_globals(self, tree) -> bool:
        """Load ``tree``'s global imports into the shared area.

        Returns False on a type mismatch (the caller turns that into a
        guard failure rather than entering the tree).
        """
        area = self.ar.globals
        vm = self.vm
        for name, gslot, trace_type in tree.global_imports:
            # Keep slots already present — whether imported earlier or
            # *written* by an enclosing trace (a written slot is dirty
            # but authoritative; reloading from vm.globals would undo
            # buffered global writes) — once they read at the import's
            # type.
            if gslot in area.values:
                if area.types.get(gslot) is not trace_type and not (
                    _settle_global(area, gslot, trace_type, vm)
                ):
                    return False
                continue
            box = vm.globals.get(name, UNDEFINED)
            actual = type_of_box(box)
            if actual is not trace_type and not (
                trace_type is _DOUBLE and actual is _INT
            ):
                return False
            area.load(gslot, unbox_for_type(box, trace_type), trace_type)
            vm.stats.ledger.charge(_NATIVE, costs.AR_IMPORT_PER_SLOT)
        return True

    # -- type-unstable linking (Figure 6) ---------------------------------------

    def global_widens(self, tree) -> Optional[List[int]]:
        """Check ``tree``'s global imports against this machine's area.

        A global the area holds must have the import's type, or be an
        int the import types as double; one it lacks must pass the same
        check against the interpreter's value, as in
        :meth:`ensure_globals`.  Returns the area slots to widen from int
        to double, or None when an import refuses.
        """
        area_types = self.ar.globals.types
        vm_globals = self.vm.globals
        widens = []
        for name, gslot, trace_type in tree.global_imports:
            actual = area_types.get(gslot)
            held = actual is not None
            if not held:
                actual = type_of_box(vm_globals.get(name, UNDEFINED))
            if actual is trace_type:
                continue
            if trace_type is not _DOUBLE or actual is not _INT:
                return None
            if held:
                widens.append(gslot)
        return widens

    def enter_peer(self, link, widens: List[int]) -> "NativeMachine":
        """Pass this machine's type-unstable exit into ``link.peer``.

        The activation record moves slot to slot into a new one for the
        peer, which shares this machine's global area; only the ints the
        peer types as double are widened, with the area slots
        :meth:`global_widens` returned, globals the peer imports that
        the area lacks are loaded, and nothing is boxed or written back
        to the interpreter.  Returns the peer's machine, committed at
        the link.
        """
        peer = link.peer
        area = self.ar.globals
        ar = ActivationRecord(peer.ar_size, area)
        slots = ar.slots
        source = self.ar.slots
        for dst, src in link.moves:
            slots[dst] = source[src]
        for dst, src in link.widens:
            slots[dst] = float(source[src])
        cycles = link.cycles
        if widens:
            values = area.values
            for gslot in widens:
                values[gslot] = float(values[gslot])
                area.types[gslot] = _DOUBLE
            cycles += costs.NATIVE_I2D * len(widens)
        vm = self.vm
        vm.stats.ledger.charge(_NATIVE, cycles)
        machine = NativeMachine(vm, peer, ar)
        if not machine.ensure_globals(peer):
            raise NativeMachineError("a peer global refused after its check")
        machine.take_commit()
        return machine

    # -- commit points (firewall rollback) -------------------------------------

    def take_commit(self) -> None:
        """Snapshot the interpreter-visible state at a commit point.

        At trace entry and at loop back-edges the entry-typemap AR slots
        hold exactly the values the interpreter would see at the loop
        header, and the frames are untouched since entry — so this
        snapshot is sufficient for the firewall to roll back a failed
        native execution to the last crossing.  A commit holds those
        slot values and copies of the global area's values, types and
        dirty set.  The first commit makes the machine's slot reader;
        ``_loop_edge`` builds every later one itself.
        """
        if not self._commit_enabled:
            return
        get = self._commit_get
        if get is None:
            tree = self.tree
            get = self._commit_get = _slot_reader(
                [tree.slot_of_loc[loc] for loc, _t in tree.entry_typemap]
            )
        area = self.ar.globals
        self.commit = (get(self.ar.slots), area.values.copy(),
                       area.types.copy(), area.dirty.copy())

    def _loop_edge(self, executed: int, cycles: int) -> int:
        """Commit-point bookkeeping at a loop back-edge; returns the
        (possibly flushed) cycle accumulator."""
        get = self._commit_get
        if get is not None:
            # ``take_commit``'s snapshot, built inline: this runs at
            # every outer back edge.
            area = self.ar.globals
            self.commit = (get(self.ar.slots), area.values.copy(),
                           area.types.copy(), area.dirty.copy())
        elif self._commit_enabled:
            self.take_commit()
        if executed > self._insn_budget:
            # Flush the accumulator first so the ledger reflects work
            # actually simulated, then deopt through the firewall (the
            # commit just taken is the rollback point).
            self.vm.stats.ledger.charge(_NATIVE, cycles)
            raise NativeBudgetExceeded(
                f"native instruction budget exceeded "
                f"({executed} > {self._insn_budget})"
            )
        meter = self.vm.meter
        if meter is not None:
            # Supervisor limit checks.  A breach only raises the
            # preemption flag; the trace leaves through its PREEMPT
            # guard (compiled before the next back-edge), which
            # restores interpreter state before the fault is delivered.
            meter.poll(self.vm)
        faults = self._faults
        if faults is not None:
            self.vm.stats.ledger.charge(_NATIVE, cycles)
            faults.fire(sites.NATIVE_LOOP_EDGE)
            return 0
        return cycles

    # -- execution ---------------------------------------------------------------

    def run(self, fragment) -> ExitEvent:
        """Run ``fragment`` (following stitches and loop edges) to an exit.

        Dispatches to the configured backend: ``py`` runs fragments as
        generated Python functions (:mod:`repro.jit.pycompile`),
        transparently falling back to the step machine per fragment;
        ``step`` interprets the ``NativeInsn`` stream directly.  Both
        charge identical simulated cycles at identical points.
        """
        if self._backend_py:
            return _run_compiled(self, fragment)
        self.backend_used = "step"
        return self.run_step(fragment)

    def run_step(self, fragment, executed: int = 0, cycles: int = 0) -> ExitEvent:
        """The stepped backend: interpret ``NativeInsn``s one at a time.

        ``executed``/``cycles`` seed the instruction counter and cycle
        accumulator so a compiled run can deopt into this loop mid-trace
        without perturbing budgets or ledger flush points.
        """
        vm = self.vm
        stats = vm.stats
        ledger = stats.ledger
        profile = stats.profile
        regs = self.regs
        ar = self.ar
        insns = fragment.native
        pc = 0
        # Hoisted per-iteration lookups: cost constants and bound
        # methods otherwise re-fetched on every simulated instruction.
        charge = ledger.charge
        isnan = math.isnan
        NATIVE_LOAD = costs.NATIVE_LOAD
        NATIVE_STORE = costs.NATIVE_STORE
        NATIVE_MOV = costs.NATIVE_MOV
        NATIVE_ALU = costs.NATIVE_ALU
        NATIVE_FALU = costs.NATIVE_FALU
        NATIVE_I2D = costs.NATIVE_I2D
        NATIVE_D2I = costs.NATIVE_D2I
        NATIVE_D2I32 = costs.NATIVE_D2I32
        NATIVE_GUARD = costs.NATIVE_GUARD
        NATIVE_JUMP = costs.NATIVE_JUMP
        BOX = costs.BOX
        STRING_OP = costs.STRING_OP
        FFI_BOX_PER_ARG = costs.FFI_BOX_PER_ARG
        CALLTREE_CALL = costs.CALLTREE_CALL

        while True:
            executed += 1
            insn = insns[pc]
            pc += 1
            op = insn.op

            # ---- moves and AR access ------------------------------------
            if op == "ldar":
                regs[insn.dst] = ar.read(insn.imm)
                cycles += NATIVE_LOAD
            elif op == "star":
                slot = insn.imm
                if slot >= 0:
                    ar.slots[slot] = regs[insn.a]
                else:
                    ar.globals.write(-slot - 1, regs[insn.a], insn.aux)
                cycles += NATIVE_STORE
            elif op == "movi":
                regs[insn.dst] = insn.imm
                cycles += NATIVE_MOV
            elif op == "mov":
                regs[insn.dst] = regs[insn.a]
                cycles += NATIVE_MOV

            # ---- integer ALU ----------------------------------------------
            elif op == "addi":
                value = regs[insn.a] + regs[insn.b]
                self.ovf = not (INT_MIN <= value <= INT_MAX)
                regs[insn.dst] = value
                cycles += NATIVE_ALU
            elif op == "subi":
                value = regs[insn.a] - regs[insn.b]
                self.ovf = not (INT_MIN <= value <= INT_MAX)
                regs[insn.dst] = value
                cycles += NATIVE_ALU
            elif op == "muli":
                value = regs[insn.a] * regs[insn.b]
                self.ovf = not (INT_MIN <= value <= INT_MAX)
                regs[insn.dst] = value
                cycles += NATIVE_ALU
            elif op == "andi":
                regs[insn.dst] = to_int32(regs[insn.a]) & to_int32(regs[insn.b])
                cycles += NATIVE_ALU
            elif op == "ori":
                regs[insn.dst] = to_int32(regs[insn.a]) | to_int32(regs[insn.b])
                cycles += NATIVE_ALU
            elif op == "xori":
                regs[insn.dst] = to_int32(regs[insn.a]) ^ to_int32(regs[insn.b])
                cycles += NATIVE_ALU
            elif op == "noti":
                regs[insn.dst] = to_int32(~to_int32(regs[insn.a]))
                cycles += NATIVE_ALU
            elif op == "negi":
                regs[insn.dst] = -regs[insn.a]
                cycles += NATIVE_ALU
            elif op == "shli":
                regs[insn.dst] = to_int32(to_int32(regs[insn.a]) << (regs[insn.b] & 31))
                cycles += NATIVE_ALU
            elif op == "shri":
                regs[insn.dst] = to_int32(regs[insn.a]) >> (regs[insn.b] & 31)
                cycles += NATIVE_ALU
            elif op == "ushri":
                regs[insn.dst] = to_uint32(regs[insn.a]) >> (regs[insn.b] & 31)
                cycles += NATIVE_ALU

            # ---- floating point ---------------------------------------------
            elif op == "addd":
                regs[insn.dst] = regs[insn.a] + regs[insn.b]
                cycles += NATIVE_FALU
            elif op == "subd":
                regs[insn.dst] = regs[insn.a] - regs[insn.b]
                cycles += NATIVE_FALU
            elif op == "muld":
                regs[insn.dst] = regs[insn.a] * regs[insn.b]
                cycles += NATIVE_FALU
            elif op == "divd":
                denominator = regs[insn.b]
                numerator = regs[insn.a]
                if denominator == 0.0:
                    if numerator == 0.0 or isnan(numerator):
                        regs[insn.dst] = math.nan
                    else:
                        sign = math.copysign(1.0, numerator) * math.copysign(
                            1.0, denominator
                        )
                        regs[insn.dst] = math.inf if sign > 0 else -math.inf
                else:
                    regs[insn.dst] = numerator / denominator
                cycles += NATIVE_FALU * 2
            elif op == "modd":
                regs[insn.dst] = float(js_mod(regs[insn.a], regs[insn.b]))
                cycles += NATIVE_FALU * 3
            elif op == "negd":
                regs[insn.dst] = -float(regs[insn.a])
                cycles += NATIVE_FALU

            # ---- conversions ---------------------------------------------------
            elif op == "i2d":
                regs[insn.dst] = float(regs[insn.a])
                cycles += NATIVE_I2D
            elif op == "d2i":
                value = regs[insn.a]
                cycles += NATIVE_D2I
                if (
                    isinstance(value, float)
                    and value.is_integer()
                    and INT_MIN <= value <= INT_MAX
                ):
                    regs[insn.dst] = int(value)
                else:
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "d2i32":
                regs[insn.dst] = to_int32(regs[insn.a])
                cycles += NATIVE_D2I32
            elif op == "tobooli":
                regs[insn.dst] = regs[insn.a] != 0
                cycles += NATIVE_ALU
            elif op == "toboold":
                value = regs[insn.a]
                regs[insn.dst] = value != 0.0 and not isnan(value)
                cycles += NATIVE_FALU
            elif op == "tobools":
                regs[insn.dst] = len(regs[insn.a]) > 0
                cycles += NATIVE_ALU
            elif op == "notb":
                regs[insn.dst] = not regs[insn.a]
                cycles += NATIVE_ALU

            # ---- comparisons ------------------------------------------------------
            elif op == "eqi":
                regs[insn.dst] = regs[insn.a] == regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "nei":
                regs[insn.dst] = regs[insn.a] != regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "lti":
                regs[insn.dst] = regs[insn.a] < regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "lei":
                regs[insn.dst] = regs[insn.a] <= regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "gti":
                regs[insn.dst] = regs[insn.a] > regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "gei":
                regs[insn.dst] = regs[insn.a] >= regs[insn.b]
                cycles += NATIVE_ALU
            elif op in ("eqd", "ned", "ltd", "led", "gtd", "ged"):
                left = regs[insn.a]
                right = regs[insn.b]
                if isnan(left) or isnan(right):
                    regs[insn.dst] = op == "ned"
                elif op == "eqd":
                    regs[insn.dst] = left == right
                elif op == "ned":
                    regs[insn.dst] = left != right
                elif op == "ltd":
                    regs[insn.dst] = left < right
                elif op == "led":
                    regs[insn.dst] = left <= right
                elif op == "gtd":
                    regs[insn.dst] = left > right
                else:
                    regs[insn.dst] = left >= right
                cycles += NATIVE_FALU
            elif op == "eqp":
                regs[insn.dst] = regs[insn.a] is regs[insn.b]
                cycles += NATIVE_ALU
            elif op == "eqs":
                regs[insn.dst] = regs[insn.a] == regs[insn.b]
                cycles += NATIVE_ALU + STRING_OP
            elif op in ("lts", "les", "gts", "ges"):
                left = regs[insn.a]
                right = regs[insn.b]
                if op == "lts":
                    regs[insn.dst] = left < right
                elif op == "les":
                    regs[insn.dst] = left <= right
                elif op == "gts":
                    regs[insn.dst] = left > right
                else:
                    regs[insn.dst] = left >= right
                cycles += NATIVE_ALU + STRING_OP

            # ---- object / array primitives ------------------------------------
            elif op == "ldshape":
                regs[insn.dst] = regs[insn.a].shape_id
                cycles += NATIVE_LOAD
            elif op == "ldproto":
                regs[insn.dst] = regs[insn.a].proto
                cycles += NATIVE_LOAD
            elif op == "ldslot":
                regs[insn.dst] = regs[insn.a].slots[insn.imm]
                cycles += NATIVE_LOAD
            elif op == "stslot":
                regs[insn.a].slots[insn.imm] = regs[insn.b]
                cycles += NATIVE_STORE
            elif op == "arraylen":
                regs[insn.dst] = regs[insn.a].length
                cycles += NATIVE_LOAD
            elif op == "denselen":
                regs[insn.dst] = len(regs[insn.a].elements)
                cycles += NATIVE_LOAD
            elif op == "ldelem":
                regs[insn.dst] = regs[insn.a].elements[regs[insn.b]]
                cycles += NATIVE_LOAD
            elif op == "stelem":
                arr = regs[insn.a]
                index = regs[insn.b]
                arr.elements[index] = regs[insn.c]
                if index >= arr.length:
                    arr.length = index + 1
                cycles += NATIVE_STORE
            elif op == "strlen":
                regs[insn.dst] = len(regs[insn.a])
                cycles += NATIVE_LOAD

            # ---- boxing ---------------------------------------------------------
            elif op == "boxv":
                regs[insn.dst] = box_for_type(regs[insn.a], insn.imm)
                cycles += BOX
            elif op == "unbox":
                box = regs[insn.a]
                if box is None or box.tag in (TAG_NULL, TAG_UNDEFINED):
                    regs[insn.dst] = None
                else:
                    regs[insn.dst] = box.payload
                cycles += NATIVE_ALU
            elif op == "gtag":
                box = regs[insn.a]
                cycles += NATIVE_GUARD
                if not _tag_matches(box, insn.imm):
                    result = self._guard_exit(
                        insn.exit, fragment, cycles, profile,
                        box if box is not None else UNDEFINED,
                    )
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0

            # ---- guards -----------------------------------------------------------
            elif op == "gcmp":
                # Fused compare-and-exit (Figure 4's cmp+jne): one
                # instruction, one guard cost.
                cmp_op, exit_if_true = insn.imm
                cycles += NATIVE_GUARD
                condition = _compare(cmp_op, regs[insn.a], regs[insn.b])
                if condition == exit_if_true:
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "xt" or op == "xf":
                cycles += NATIVE_GUARD
                condition = bool(regs[insn.a])
                if condition == (op == "xt"):
                    result = self._guard_exit(
                        insn.exit, fragment, cycles, profile,
                        regs[insn.b] if insn.b is not None else None,
                    )
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "govf":
                cycles += NATIVE_GUARD
                if self.ovf:
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "gi31":
                cycles += NATIVE_GUARD
                value = regs[insn.a]
                if not (INT_MIN <= value <= INT_MAX):
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "gni31":
                cycles += NATIVE_GUARD
                value = regs[insn.a]
                if INT_MIN <= value <= INT_MAX:
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "gclass":
                cycles += NATIVE_GUARD
                if not isinstance(regs[insn.a], insn.imm):
                    result = self._guard_exit(insn.exit, fragment, cycles, profile)
                    if result is not None:
                        return result
                    fragment = self._stitch(insn.exit)
                    insns, pc, cycles = fragment.native, 0, 0
            elif op == "x":
                cycles += NATIVE_JUMP
                result = self._guard_exit(
                    insn.exit, fragment, cycles, profile,
                    regs[insn.b] if insn.b is not None else None,
                )
                if result is not None:
                    return result
                fragment = self._stitch(insn.exit)
                insns, pc, cycles = fragment.native, 0, 0

            # ---- VM flags -----------------------------------------------------------
            elif op == "ldreentry":
                regs[insn.dst] = self.vm.trace_reentered
                cycles += NATIVE_LOAD
            elif op == "ldpreempt":
                regs[insn.dst] = self.vm.preempt_flag
                cycles += NATIVE_LOAD

            # ---- calls -----------------------------------------------------------------
            elif op == "call":
                spec = insn.aux
                args = [regs[r] for r in (insn.srcs or ())]
                cycles += spec.cost
                if spec.accesses_state:
                    cycles += ar.globals.flush(vm)
                try:
                    if spec.kind == "helper":
                        regs_value = spec.fn(self.vm, *args)
                    elif spec.kind == "typed":
                        regs_value = spec.fn(*args)
                    else:  # boxed legacy FFI
                        cycles += FFI_BOX_PER_ARG * len(args)
                        arg_boxes = [
                            box_for_type(raw, trace_type)
                            for raw, trace_type in zip(args, spec.arg_types)
                        ]
                        if spec.this_type is not None:
                            this_box = arg_boxes.pop(0)
                        else:
                            this_box = UNDEFINED
                        regs_value = spec.fn(self.vm, this_box, arg_boxes)
                except JSThrow as thrown:
                    event = self._exit_event(insn.exit)
                    event.exception = thrown
                    result = self._finish_exit(event, fragment, cycles, profile)
                    if result is not None:
                        return result
                    raise NativeMachineError(
                        "exception exit must not be stitched"
                    ) from thrown
                if insn.dst is not None:
                    regs[insn.dst] = regs_value
            elif op == "calltree":
                site = insn.aux
                cycles += CALLTREE_CALL
                regs[insn.dst] = self._run_inner_tree(site, profile)
            elif op == "loopjmp":
                cycles += NATIVE_JUMP
                profile.native += fragment.bytecount
                self.tree.iterations += 1
                stats.tracing.loop_iterations_native += 1
                cycles = self._loop_edge(executed, cycles)
                # Re-enter past the hoisted entry prologue: invariant
                # loads and guards before ``loop_start`` ran once at
                # tree entry and need not rerun per iteration.
                pc = fragment.loop_start
            elif op == "jtree":
                cycles += NATIVE_JUMP
                profile.native += fragment.bytecount
                stats.tracing.loop_iterations_native += 1
                cycles = self._loop_edge(executed, cycles)
                fragment = self.tree.fragment
                insns = fragment.native
                pc = 0
            else:
                raise NativeMachineError(f"unhandled native op {op!r}")

            # Flush cycles to the ledger in batches to keep the loop lean.
            if cycles >= 4096:
                charge(_NATIVE, cycles)
                cycles = 0

    # -- exit plumbing -----------------------------------------------------------

    def _exit_event(self, exit: SideExit) -> ExitEvent:
        event = ExitEvent(exit, self.ar)
        if exit.kind == INNER:
            # The guard on a nested call's exit id failed (``xt``/``xf``,
            # or fused into ``gcmp``): chain the inner tree's own event.
            event.inner = self.last_inner_event
            if event.inner is not None:
                event.exception = event.inner.exception
        return event

    def _settle_stitch(self, exit: SideExit, cycles: int, profile) -> bool:
        """Settle a failed guard that stitches and needs no event.

        Such an exit targets a LINKED branch and has no result slot, no
        inner event and no exception, so ``_finish_exit`` would only add
        its bytecode progress to the profile, charge the accumulator and
        drop the event; this does the first two.  Returns False, doing
        nothing, for any other exit (one whose target a cache flush
        retired in flight included); the caller then takes
        ``_exit_event`` and ``_finish_exit``.
        """
        target = exit.target
        if (
            target is None
            or target.state is not _LINKED
            or exit.result_loc is not None
            or exit.kind == INNER
        ):
            return False
        profile.native += exit.bytecode_progress
        self.vm.stats.ledger.charge(_NATIVE, cycles)
        return True

    def _guard_exit(self, exit: SideExit, fragment, cycles: int, profile,
                    boxed=None) -> Optional[ExitEvent]:
        """Settle a failed guard, ``boxed`` its boxed result if it
        carries one, on either backend: returns the event, or None when
        the caller stitches into ``exit.target``."""
        if self._settle_stitch(exit, cycles, profile):
            return None
        event = self._exit_event(exit)
        event.boxed_result = boxed
        return self._finish_exit(event, fragment, cycles, profile)

    def _finish_exit(self, event, fragment, cycles, profile):
        """Account for an exit; return the event unless it is stitched."""
        exit = event.exit
        profile.native += exit.bytecode_progress
        stats = self.vm.stats
        stats.ledger.charge(_NATIVE, cycles)
        if (
            exit.target is None
            # A cache flush may retire a stitched branch while this
            # machine is in flight; fall back to the monitor instead of
            # transferring into retired code.
            or exit.target.state is _RETIRED
            or event.exception is not None
            or exit.kind == INNER
        ):
            return event
        if exit.result_loc is not None:
            # A type-guard exit carries the guarded value boxed; the
            # branch trace was recorded for one specific actual type.
            box = event.boxed_result
            expected = exit.branch_result_type
            if expected is None or not _tag_matches(box, expected):
                return event  # fall back to the monitor
            payload = None
            if box is not None and box.tag not in (TAG_NULL, TAG_UNDEFINED):
                payload = box.payload
            self.ar.write(exit.result_slot, payload)
            stats.ledger.charge(_NATIVE, costs.NATIVE_STORE)
        return None  # caller performs the stitched transfer

    def _stitch(self, exit: SideExit, direct: bool = False):
        """Count, charge and profile a transfer into the branch trace
        patched onto ``exit``, on either backend; returns the branch.
        ``direct`` marks a transfer the py backend made inside one
        generated function, into a branch it inlined at the guard."""
        vm = self.vm
        stats = vm.stats
        if direct:
            stats.tracing.direct_transfers += 1
        else:
            stats.tracing.driver_transfers += 1
        stats.ledger.charge(_NATIVE, costs.STITCH_PENALTY)
        if vm.profiler is not None:
            vm.profiler.record_stitch(exit)
        return exit.target

    # -- nested trees --------------------------------------------------------------

    def _run_inner_tree(self, site, profile) -> int:
        """Execute a nested tree call; returns the inner exit id.

        Returns -1 when the inner tree could not even be entered (its
        global imports no longer type-match) or left a global the outer
        tree cannot read at its import type, which fails the following
        guard exactly like an unexpected inner exit.
        """
        inner_tree = site.tree
        vm = self.vm
        stats = vm.stats
        stats.tracing.tree_calls_executed += 1
        outer_slots = self.ar.slots
        inner_ar = ActivationRecord(inner_tree.ar_size, self.ar.globals)
        inner_slots = inner_ar.slots
        mapping = site.local_mapping
        copy_cycles = costs.CALLTREE_PER_SLOT * len(mapping)
        for inner_slot, outer_slot in mapping:
            inner_slots[inner_slot] = outer_slots[outer_slot]
        stats.ledger.charge(_NATIVE, copy_cycles)
        inner_machine = NativeMachine(vm, inner_tree, inner_ar, self)
        if not inner_machine.ensure_globals(inner_tree):
            self.last_inner_event = None
            return -1
        profiler = vm.profiler
        iters_before = inner_tree.iterations if profiler is not None else 0
        event = inner_machine.run(inner_tree.fragment)
        if profiler is not None:
            profiler.record_nested_call(
                inner_tree, inner_tree.iterations - iters_before
            )
        for inner_slot, outer_slot in mapping:
            outer_slots[outer_slot] = inner_slots[inner_slot]
        stats.ledger.charge(_NATIVE, copy_cycles)
        self.last_inner_event = event
        if event.exception is not None:
            return -1
        exit_id = event.exit.exit_id
        if exit_id == site.expected_exit_id:
            # The outer trace reads its globals at their import types
            # after the call, but the inner tree may have written one at
            # another type; one that cannot be read so fails the guard
            # like an unexpected inner exit.
            area = self.ar.globals
            types = area.types
            for _name, gslot, trace_type in self.tree.global_imports:
                actual = types.get(gslot, trace_type)
                if actual is not trace_type and not _settle_global(
                    area, gslot, trace_type, vm
                ):
                    return -1
        return exit_id
