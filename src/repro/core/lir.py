"""Trace-flavored SSA LIR (paper Sections 3.1 and 5).

Traces are recorded in a low-level SSA intermediate representation with
no internal control-flow joins: values are defined once, every branch
in the source program becomes a *guard* (a conditional exit), and the
only "phi" point is the trace entry (``param`` instructions reading the
trace activation record).

Value types are single characters:

====  ==========================================================
``i``  31-bit integer (the inline number representation)
``d``  IEEE double
``o``  object reference
``s``  string reference
``b``  boolean (0/1)
``x``  boxed value (a :class:`repro.runtime.values.Box` in flight)
``v``  void (stores, guards, control)
====  ==========================================================

Important instruction groups (see ``OPS`` below): constants; activation
record loads/stores (``ldar``/``star`` — the recorder eagerly stores
every interpreter stack/local write, Figure 3, and the backward
dead-store filters remove the dead ones); specialized arithmetic with
optional overflow exits; object/array access primitives (shape loads,
slot loads, dense element access); conversions (type conversions "are
represented by function calls" — here dedicated costed ops); helper and
FFI calls; guards (``xt``/``xf``/``x``); and trace control (``loop``,
``jtree``, ``calltree``).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

from repro.core.typemap import TraceType

#: Map TraceType to LIR value type chars (``n``/``u`` are null and
#: undefined: raw ``None`` payloads, but distinct for exit re-boxing).
TRACETYPE_TO_LIR = {
    TraceType.INT: "i",
    TraceType.DOUBLE: "d",
    TraceType.OBJECT: "o",
    TraceType.STRING: "s",
    TraceType.BOOLEAN: "b",
    TraceType.NULL: "n",
    TraceType.UNDEFINED: "u",
}

#: Inverse map, used when building exit live maps from LIR values.
LIR_TO_TRACETYPE = {
    "i": TraceType.INT,
    "d": TraceType.DOUBLE,
    "o": TraceType.OBJECT,
    "s": TraceType.STRING,
    "b": TraceType.BOOLEAN,
    "n": TraceType.NULL,
    "u": TraceType.UNDEFINED,
}

_PURE_OPS = frozenset(
    """
    const addi subi muli andi ori xori noti shli shri ushri negi
    addd subd muld divd negd absd
    i2d d2i32 tobooli toboold tobools notb
    eqi nei lti lei gti gei eqd ned ltd led gtd ged eqp eqs eqb
    unbox boxv tagof
    """.split()
)

_LOAD_OPS = frozenset(
    "param ldar ldslot ldelem ldshape ldproto arraylen denselen strlen ldreentry ldpreempt".split()
)

_STORE_OPS = frozenset("star stslot stelem".split())

_GUARD_OPS = frozenset("xt xf x d2i govf".split())

_CONTROL_OPS = frozenset("loop jtree".split())

_CALL_OPS = frozenset("call calltree".split())


class LIns:
    """One LIR instruction (SSA value)."""

    __slots__ = ("ins_id", "op", "args", "imm", "type", "exit", "slot", "aux")

    _ids = itertools.count(1)

    def __init__(
        self,
        op: str,
        args: Tuple["LIns", ...] = (),
        imm=None,
        type: str = "v",
        exit=None,
        slot: Optional[int] = None,
        aux=None,
    ):
        self.ins_id = next(LIns._ids)
        self.op = op
        self.args = args
        self.imm = imm
        self.type = type
        self.exit = exit
        self.slot = slot
        self.aux = aux

    # -- classification ------------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.op in _PURE_OPS

    @property
    def is_load(self) -> bool:
        return self.op in _LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self.op in _STORE_OPS

    @property
    def is_guard(self) -> bool:
        return self.op in _GUARD_OPS or self.exit is not None

    @property
    def is_call(self) -> bool:
        return self.op in _CALL_OPS

    @property
    def is_control(self) -> bool:
        return self.op in _CONTROL_OPS

    @property
    def has_effect(self) -> bool:
        """True if the instruction cannot be dead-code eliminated."""
        return (
            self.is_store
            or self.is_guard
            or self.is_call
            or self.is_control
            or self.op in ("x",)
        )

    # -- CSE key ----------------------------------------------------------------

    def cse_key(self):
        """Hashable key identifying equivalent computations, or None."""
        if self.op == "const":
            return ("const", self.type, _const_key(self.imm))
        if self.is_pure and self.op != "boxv":
            return (self.op, tuple(arg.ins_id for arg in self.args), _const_key(self.imm))
        if self.op in ("ldshape", "ldproto", "arraylen", "denselen", "strlen", "ldar"):
            return (
                self.op,
                tuple(arg.ins_id for arg in self.args),
                self.slot,
            )
        return None

    def __repr__(self) -> str:
        return f"v{self.ins_id}={self.format()}"

    def format(self) -> str:
        parts = [self.op]
        if self.slot is not None:
            parts.append(f"[{self.slot}]")
        if self.args:
            parts.append(", ".join(f"v{arg.ins_id}" for arg in self.args))
        if self.imm is not None:
            imm = self.imm
            text = getattr(imm, "name", None) or repr(imm)
            if len(text) > 40:
                text = text[:37] + "..."
            parts.append(f"#{text}")
        if self.exit is not None:
            parts.append(f"-> exit{getattr(self.exit, 'exit_id', '?')}")
        return " ".join(parts) + (f" : {self.type}" if self.type != "v" else "")


def _const_key(imm):
    """Hashable identity-aware key for an immediate.

    Floats need care in dict keys: ``0.0`` and ``-0.0`` hash and compare
    equal but are distinct JS values (``1/-0`` is ``-Infinity``), so the
    zero's sign is folded into the key; ``NaN`` never compares equal to
    itself, so every NaN is normalized to one shared key (JS has a
    single NaN value, so merging NaN constants is sound).
    """
    if isinstance(imm, float):
        if imm != imm:
            return ("float", "nan")
        if imm == 0.0 and math.copysign(1.0, imm) < 0.0:
            return ("float", "-0.0")
        return imm
    try:
        hash(imm)
    except TypeError:
        return ("id", id(imm))
    return imm


def format_trace(lir_list) -> str:
    """Pretty-print a whole LIR trace."""
    return "\n".join(f"  {ins!r}" for ins in lir_list)
