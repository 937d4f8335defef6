"""Forward LIR filter pipeline (paper Section 5.1).

"Every time the trace recorder emits a LIR instruction, the instruction
is immediately passed to the first filter in the forward pipeline" —
each filter may pass the instruction on unchanged, substitute a
different instruction (e.g. constant folding), or swallow it entirely
by returning an existing equivalent value (CSE).

Forward filters implemented, mirroring the paper's list:

* **soft-float** (optional): converts floating-point LIR to helper
  calls, for targets without FPU;
* **expression simplification**: constant folding and safe algebraic
  identities (``x*1``, ``x+0``, ``x-x`` ...);
* **source-language semantic filter**: INT<->DOUBLE round-trip removal
  (``d2i(i2d(x)) -> x``) and narrowing of double compares/branches on
  promoted ints back to int operations;
* **CSE**, including redundant-guard elimination (a guard on an SSA
  condition already guarded is a no-op) and load CSE with conservative
  invalidation at stores and calls.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro import costs
from repro.core.lir import LIns
from repro.hardening import faults as fault_sites
from repro.runtime.values import INT_MAX, INT_MIN

_INT_FOLDS = {
    "addi": lambda a, b: a + b,
    "subi": lambda a, b: a - b,
    "muli": lambda a, b: a * b,
    "andi": lambda a, b: a & b,
    "ori": lambda a, b: a | b,
    "xori": lambda a, b: a ^ b,
    "shli": lambda a, b: (a << (b & 31)),
    "shri": lambda a, b: a >> (b & 31),
    "eqi": lambda a, b: a == b,
    "nei": lambda a, b: a != b,
    "lti": lambda a, b: a < b,
    "lei": lambda a, b: a <= b,
    "gti": lambda a, b: a > b,
    "gei": lambda a, b: a >= b,
}

_DOUBLE_FOLDS = {
    "addd": lambda a, b: a + b,
    "subd": lambda a, b: a - b,
    "muld": lambda a, b: a * b,
}


class Filter:
    """Base class: forward filters form a chain ending at the buffer."""

    __slots__ = ("next",)

    def __init__(self, next_filter):
        self.next = next_filter

    def process(self, ins: LIns) -> LIns:
        return self.next.process(ins)


class Buffer(Filter):
    """Terminal stage: appends to the trace's LIR list."""

    __slots__ = ("lir",)

    def __init__(self):
        super().__init__(None)
        self.lir: List[LIns] = []

    def process(self, ins: LIns) -> LIns:
        self.lir.append(ins)
        return ins


class ExprSimpFilter(Filter):
    """Constant folding and safe algebraic identities."""

    __slots__ = ()

    def process(self, ins: LIns) -> LIns:
        op = ins.op
        args = ins.args
        if len(args) == 2:
            left, right = args
            left_const = left.op == "const"
            right_const = right.op == "const"
            if left_const and right_const:
                folded = self._fold(op, left.imm, right.imm, ins)
                if folded is not None:
                    return self.next.process(folded)
            if op in ("addi", "ori", "xori") and right_const and right.imm == 0:
                return left
            if op == "addi" and left_const and left.imm == 0:
                return right
            if op == "subi" and right_const and right.imm == 0:
                return left
            if op == "subi" and left is right:
                return self.next.process(LIns("const", imm=0, type="i"))
            if op == "muli" and right_const and right.imm == 1:
                return left
            if op == "muli" and left_const and left.imm == 1:
                return right
            if op == "muli" and right_const and right.imm == 0:
                return self.next.process(LIns("const", imm=0, type="i"))
            if op == "muld" and right_const and right.imm == 1.0:
                return left
            if op == "shli" and right_const and right.imm == 0:
                return left
        elif len(args) == 1:
            operand = args[0]
            if operand.op == "const":
                folded = self._fold_unary(op, operand.imm)
                if folded is not None:
                    return self.next.process(folded)
        return self.next.process(ins)

    @staticmethod
    def _fold(op: str, left, right, ins: LIns) -> Optional[LIns]:
        fold = _INT_FOLDS.get(op)
        if fold is not None and isinstance(left, int) and isinstance(right, int):
            value = fold(left, right)
            if isinstance(value, bool):
                return LIns("const", imm=value, type="b")
            if op in ("addi", "subi", "muli") and not (INT_MIN <= value <= INT_MAX):
                return None  # would overflow; keep the guarded instruction
            from repro.runtime.conversions import to_int32

            if op in ("andi", "ori", "xori", "shli", "shri"):
                value = to_int32(value)
            return LIns("const", imm=value, type="i")
        fold = _DOUBLE_FOLDS.get(op)
        if fold is not None and isinstance(left, float) and isinstance(right, float):
            return LIns("const", imm=fold(left, right), type="d")
        return None

    @staticmethod
    def _fold_unary(op: str, value) -> Optional[LIns]:
        if op == "i2d" and isinstance(value, int):
            return LIns("const", imm=float(value), type="d")
        if op == "notb":
            return LIns("const", imm=not value, type="b")
        if op == "tobooli" and isinstance(value, int):
            return LIns("const", imm=value != 0, type="b")
        if op == "toboold" and isinstance(value, float):
            return LIns(
                "const", imm=(value != 0.0 and not math.isnan(value)), type="b"
            )
        if op == "negd" and isinstance(value, float):
            return LIns("const", imm=-value, type="d")
        return None


_D_TO_I_COMPARE = {
    "eqd": "eqi",
    "ned": "nei",
    "ltd": "lti",
    "led": "lei",
    "gtd": "gti",
    "ged": "gei",
}

_D_TO_I_ARITH = {"addd": None}  # documented: arithmetic is NOT narrowed


class SemanticFilter(Filter):
    """Source-language-specific simplification (paper: "primarily
    algebraic identities that allow DOUBLE to be replaced with INT")."""

    __slots__ = ()

    def process(self, ins: LIns) -> LIns:
        op = ins.op
        args = ins.args
        if op == "d2i32" or op == "d2i":
            operand = args[0]
            if operand.op == "i2d" and operand.args[0].op != "ushri":
                # d2i(i2d(x)) -> x: the conversion round trip vanishes.
                # Not for a ``ushri``: typed ``i``, it holds a uint32,
                # which only the conversion brings back into int32.
                return operand.args[0]
        if op in _D_TO_I_COMPARE:
            left, right = args
            left_int = _as_int_source(left)
            right_int = _as_int_source(right)
            if left_int is not None and right_int is not None:
                return self.next.process(
                    LIns(_D_TO_I_COMPARE[op], (left_int, right_int), type="b")
                )
        if op == "toboold":
            operand = args[0]
            if operand.op == "i2d":
                return self.next.process(
                    LIns("tobooli", (operand.args[0],), type="b")
                )
        return self.next.process(ins)


def _as_int_source(ins: LIns) -> Optional[LIns]:
    """The int value behind a double, if this double is a promoted int."""
    if ins.op == "i2d":
        return ins.args[0]
    if ins.op == "const" and ins.type == "d" and float(ins.imm).is_integer():
        value = float(ins.imm)
        if INT_MIN <= value <= INT_MAX:
            return LIns("const", imm=int(value), type="i")
    return None


class CSEFilter(Filter):
    """Common subexpression elimination + redundant guard removal.

    Loads participate with conservative invalidation: any store or
    non-pure call flushes the load table (stores could alias; calls can
    mutate arbitrary objects).  AR loads are invalidated per-slot by
    ``star``.  Conditions already guarded once are not re-guarded.
    """

    __slots__ = ("pure_table", "load_table", "guarded_true", "guarded_false")

    def __init__(self, next_filter):
        super().__init__(next_filter)
        self.pure_table = {}
        self.load_table = {}
        self.guarded_true = set()
        self.guarded_false = set()

    def process(self, ins: LIns) -> LIns:
        op = ins.op
        if op in ("xf", "xt") and ins.aux is None:
            condition = ins.args[0].ins_id
            # Passing an xf guard proves the condition true; xt proves it
            # false.  A second guard of the same flavor on the same SSA
            # condition can never fire and is swallowed.
            proven = self.guarded_true if op == "xf" else self.guarded_false
            if condition in proven:
                return ins  # redundant guard: swallowed (not appended)
            proven.add(condition)
            return self.next.process(ins)

        key = ins.cse_key()
        if key is not None:
            if ins.is_load:
                existing = self.load_table.get(key)
                if existing is not None:
                    return existing
                result = self.next.process(ins)
                self.load_table[key] = result
                return result
            existing = self.pure_table.get(key)
            if existing is not None:
                return existing
            result = self.next.process(ins)
            self.pure_table[key] = result
            return result

        if op == "star":
            self.load_table.pop(("ldar", (), ins.slot), None)
            self.load_table.pop(("param", (), ins.slot), None)
            return self.next.process(ins)
        if ins.is_store or ins.is_call:
            # Conservative: any heap store / call invalidates heap loads
            # (but AR loads survive stores to object slots — the AR is
            # not aliased by JS objects).
            if op in ("stslot", "stelem") or ins.is_call:
                self.load_table = {
                    k: v
                    for k, v in self.load_table.items()
                    if k[0] in ("ldar", "param")
                }
            if ins.is_call:
                self.load_table = {}
        return self.next.process(ins)


class SoftFloatFilter(Filter):
    """Replace double ops with helper calls (ISAs without FPU)."""

    __slots__ = ()

    _SOFT_OPS = frozenset(
        "addd subd muld divd modd negd eqd ned ltd led gtd ged i2d d2i32 toboold".split()
    )

    def process(self, ins: LIns) -> LIns:
        if ins.op in self._SOFT_OPS:
            from repro.jit.native import CallSpec

            spec = CallSpec(
                kind="helper",
                name=f"softfloat_{ins.op}",
                fn=_make_softfloat(ins.op),
                result_type=ins.type,
                cost=costs.NATIVE_CALL + 4,
                pure=True,
            )
            call = LIns(
                "call", ins.args, imm=spec, type=ins.type, exit=ins.exit
            )
            return self.next.process(call)
        return self.next.process(ins)


def _make_softfloat(op: str):
    """Build the Python helper implementing a soft-float op."""

    def helper(vm, *args):
        if op == "addd":
            return args[0] + args[1]
        if op == "subd":
            return args[0] - args[1]
        if op == "muld":
            return args[0] * args[1]
        if op == "divd":
            if args[1] == 0.0:
                if args[0] == 0.0 or math.isnan(args[0]):
                    return math.nan
                sign = math.copysign(1.0, args[0]) * math.copysign(1.0, args[1])
                return math.inf if sign > 0 else -math.inf
            return args[0] / args[1]
        if op == "modd":
            from repro.runtime.operations import js_mod

            return float(js_mod(args[0], args[1]))
        if op == "negd":
            return -args[0]
        if op == "i2d":
            return float(args[0])
        if op == "d2i32":
            from repro.runtime.conversions import to_int32

            return to_int32(args[0])
        if op == "toboold":
            return args[0] != 0.0 and not math.isnan(args[0])
        left, right = args
        if math.isnan(left) or math.isnan(right):
            return op == "ned"
        return {
            "eqd": left == right,
            "ned": left != right,
            "ltd": left < right,
            "led": left <= right,
            "gtd": left > right,
            "ged": left >= right,
        }[op]

    return helper


class ForwardPipeline:
    """The assembled forward pipeline the recorder writes into."""

    __slots__ = ("buffer", "head", "faults", "emitted")

    def __init__(self, config, faults=None):
        self.buffer = Buffer()
        stage = self.buffer
        if config.enable_cse:
            stage = CSEFilter(stage)
        if config.enable_exprsimp:
            stage = ExprSimpFilter(stage)
            stage = SemanticFilter(stage)
        if config.enable_softfloat:
            stage = SoftFloatFilter(stage)
        self.head = stage
        #: Optional fault injector (repro.hardening); fires the
        #: ``pipeline.forward`` site once per emitted instruction.
        self.faults = faults
        #: Instructions sent into the pipeline — together with
        #: ``len(self.lir)`` this measures how much the forward filters
        #: swallow; the phase profiler reports the ratio per run.
        self.emitted = 0

    def emit(self, ins: LIns) -> LIns:
        """Send one instruction through the pipeline; returns the SSA
        value the recorder should use for it."""
        if self.faults is not None:
            self.faults.fire(fault_sites.PIPELINE_FORWARD)
        self.emitted += 1
        return self.head.process(ins)

    @property
    def lir(self) -> List[LIns]:
        return self.buffer.lir
