"""Unified simulated-cycle cost model.

The paper reports wall-clock time on a 2.2 GHz Core 2.  A pure-Python
reproduction cannot emit or time real machine code, so every component of
this VM charges *simulated cycles* against a shared :class:`CycleLedger`
instead.  All constants live in this module so the model is auditable in
one place.

The constants are calibrated so that the relative costs mirror the ones
the paper describes qualitatively:

* interpreter bytecode dispatch is expensive (indirect jump, decode),
* every boxed-value operation pays tag tests, unboxing, and reboxing
  (paper Figure 9: "Testing tags, unboxing and boxing are significant
  costs"),
* property access through a hash-table property map is very expensive
  compared to a shape-guarded slot load (paper Section 3.1,
  "Representation specialization: objects"),
* native trace instructions cost roughly one cycle each (paper Figure 4:
  "Most LIR instructions compile to a single x86 instruction"),
* monitor transitions, trace recording, and compilation have real costs
  that show up in short-running programs (paper Section 6.1 and
  Figure 12).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Activity(enum.Enum):
    """VM activities, matching the boxes of the paper's Figure 2.

    Members hash by identity.  ``Enum``'s own ``__hash__`` is a Python
    method (``hash(self._name_)``), so every ledger lookup keyed by an
    activity ran a Python frame; the interpreter makes at least one such
    lookup per bytecode.  Members are singletons and ``Enum`` compares
    them by identity, so dict lookups find exactly the same bucket.
    """

    INTERPRET = "interpret"
    MONITOR = "monitor"
    RECORD = "record"
    COMPILE = "compile"
    NATIVE = "native"

    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Activity.{self.name}"


# ---------------------------------------------------------------------------
# Interpreter costs (per bytecode, charged by repro.interp.interpreter)
# ---------------------------------------------------------------------------

#: Indirect-threaded dispatch: fetch, decode, indirect jump.
DISPATCH = 8
#: Call-threaded dispatch (the SquirrelFish Extreme baseline): the decode
#: step disappears and the indirect call is cheaper to predict.
DISPATCH_THREADED = 3

#: Testing the tag bits of a boxed value (Figure 9).
TAG_TEST = 1
#: Extracting the raw payload from a boxed value.
UNBOX = 2
#: Creating a boxed value from a raw payload.
BOX = 2

#: One push or pop on the interpreter's data stack.
STACK_OP = 1

#: Integer ALU operation on raw values.
INT_ALU = 1
#: Floating-point ALU operation on raw values.
FLOAT_ALU = 2
#: Raw int -> double conversion.
I2D = 2
#: Exact double -> int conversion (value known integral).
D2I = 3
#: ECMA ToInt32 truncation of an arbitrary double (libcall-ish).
D2I32 = 8

#: Hash-table lookup in a property map (per object searched along the
#: prototype chain).  This is the cost shape guards eliminate.
PROPERTY_LOOKUP = 25
#: Loading/storing a property value slot once its index is known.
SLOT_ACCESS = 2
#: Shape-transition bookkeeping when adding a new property.
SHAPE_TRANSITION = 12
#: Global variable access through the global object's hash table.
GLOBAL_LOOKUP = 18
#: Dense-array element fast path (bounds + representation check + access).
DENSE_ELEM = 4
#: Interpreter call-frame setup / teardown.
FRAME_SETUP = 20
FRAME_TEARDOWN = 10
#: Per-character string work (concat, charCodeAt, ...).
STRING_OP = 4
#: Allocating a new heap object / array.
ALLOC = 15
#: Preemption-flag check on a backward jump (Section 6.4).
PREEMPT_CHECK = 1
#: Throwing / unwinding to a catch handler.
THROW_UNWIND = 40

# ---------------------------------------------------------------------------
# Trace monitor costs (Section 6.1)
# ---------------------------------------------------------------------------

#: Entering the monitor at a loop edge: look up the loop in the trace
#: cache ("Incrementing the loop hit counter is expensive because it
#: requires us to look up the loop in the trace cache").
MONITOR_ENTRY = 25
#: Computing the current type map, per slot inspected.
TYPEMAP_PER_SLOT = 2
#: Matching a type map against a tree's entry map, per slot.
TYPEMAP_MATCH_PER_SLOT = 1
#: Importing one variable into the trace activation record (unbox+copy).
AR_IMPORT_PER_SLOT = 4
#: Exporting one variable back to interpreter state (box+copy).
AR_EXPORT_PER_SLOT = 4
#: Calling a compiled trace through a native function pointer.
TRACE_CALL = 10
#: Synthesizing one interpreter call-stack frame after a deep side exit.
FRAME_SYNTH = 25
#: Checking / updating blacklist state for a fragment.
BLACKLIST_CHECK = 5

# ---------------------------------------------------------------------------
# Recording and compilation costs (Sections 5 and 6.3)
# ---------------------------------------------------------------------------

#: Per bytecode recorded: the interrupt handler, the bytecode-specific
#: recording routine, and LIR emission through the forward filters.
RECORD_PER_BYTECODE = 25
#: Tearing down an aborted recording.
ABORT_COST = 80
#: Backward filters + register allocation + code generation, per LIR
#: instruction compiled.
COMPILE_PER_LIR = 40
#: Fixed per-fragment compilation overhead (assembler setup, patching).
COMPILE_FRAGMENT = 200

# ---------------------------------------------------------------------------
# Native (simulated ISA) costs, charged by repro.jit.native
# ---------------------------------------------------------------------------

NATIVE_ALU = 1
NATIVE_FALU = 2
NATIVE_MOV = 1
NATIVE_LOAD = 2
NATIVE_STORE = 2
NATIVE_GUARD = 2  # compare + (predicted) branch
NATIVE_JUMP = 1
NATIVE_I2D = 2
NATIVE_D2I = 3
NATIVE_D2I32 = 8
#: Native call overhead (argument marshalling, call, return).
NATIVE_CALL = 10
#: Extra cost per argument for the legacy boxed-array FFI (Section 6.5).
FFI_BOX_PER_ARG = 4
#: Transferring control to a stitched branch trace (Section 6.2: writing
#: live values back and re-reading them has a noticeable cost for small
#: traces; the stores themselves are explicit instructions, this is the
#: pipeline penalty the paper measured at ~6 cycles).
STITCH_PENALTY = 6
#: Calling a nested trace tree, per entry/exit slot copied (Section 4.1).
CALLTREE_PER_SLOT = 2
#: Fixed overhead of a nested tree call.
CALLTREE_CALL = 6

# ---------------------------------------------------------------------------
# Method-JIT baseline costs (the V8-like comparator)
# ---------------------------------------------------------------------------

#: Per-bytecode cost of compiling a whole method.
METHODJIT_COMPILE_PER_BYTECODE = 30
#: Inline-cache hit: shape compare + slot load.
IC_HIT = 4
#: Inline-cache miss: full lookup + cache update.
IC_MISS = 35


@dataclass
class CycleLedger:
    """Accumulates simulated cycles, broken down by VM activity.

    This is the data source for the Figure 12 reproduction (fraction of
    time spent in each VM activity).

    ``by_activity`` is the one store: the dict object is never replaced
    (``reset`` zeroes it in place), so an engine may hold it for the
    VM's lifetime and book a hot-path charge as one in-place add,
    ``buckets[activity] += cycles``; :class:`Activity` hashes by
    identity, so that add runs no Python frame.  Cold callers use
    :meth:`charge`.
    """

    by_activity: dict = field(
        default_factory=lambda: {activity: 0 for activity in Activity}
    )

    def charge(self, activity: Activity, cycles: int) -> None:
        """Add ``cycles`` to ``activity``'s bucket."""
        self.by_activity[activity] += cycles

    @property
    def total(self) -> int:
        """Total simulated cycles across all activities."""
        return sum(self.by_activity.values())

    def fraction(self, activity: Activity) -> float:
        """Fraction of total cycles spent in ``activity`` (0.0 if idle)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.by_activity[activity] / total

    def snapshot(self) -> dict:
        """Return a plain ``{activity name: cycles}`` dict."""
        return {activity.value: count for activity, count in self.by_activity.items()}

    def reset(self) -> None:
        """Zero every bucket."""
        for activity in self.by_activity:
            self.by_activity[activity] = 0
