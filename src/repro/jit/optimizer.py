"""Whole-trace / whole-tree LIR optimizer (paper Section 5).

The streaming filters in :mod:`repro.jit.pipeline` see one instruction
at a time while the recorder is still running; this module is the
complement: a **pass manager** that runs over the *completed* LIR of a
fragment at compile time, with state shared across every fragment of a
trace tree.  Three passes, in order:

1. **Tree-wide local value numbering / CSE** (:func:`run_tree_cse`).
   The trunk is value-numbered first; at every side exit the pass
   snapshots its abstract state (value-number tables, proven guard
   facts, the slot -> value-number map).  When a branch trace is later
   compiled, its table is seeded from the snapshot at its anchor exit,
   so loads and pure ops proven in the trunk are recognized — and
   guards the trunk already established are *entailed* and removed.
   The soundness argument is the abstract-interpretation model of
   tracing JITs (Dissegna/Logozzo/Ranzato, PAPERS.md): a fact derived
   from instructions that textually precede an exit holds on every
   execution that reaches that exit, because a trace is straight-line
   code — there are no joins that could weaken the state.

2. **Trace-level DCE + dead-store elimination**
   (:func:`run_backward_filters`).  The backward liveness walk over
   the completed trace.  Guards are observation
   points; stores no future exit can observe are dead, as are pure
   instructions whose value is never used — including the condition
   chains of guards the CSE pass deleted.

3. **Loop-invariant hoisting** (:func:`hoist_invariants`).  Invariant
   loads, pure ops, and shape/type guards are peeled out of the trunk's
   per-iteration body into a once-per-entry prologue.  Hoisted guards
   are retargeted to the tree's dedicated ENTRY side exit, whose live
   map is the loop-header state — exact at any point in the prologue
   because the prologue contains no stores.  The loop back edge then
   re-enters at ``fragment.loop_start`` instead of instruction 0.

``VMConfig.enable_tree_cse`` and ``enable_hoisting`` switch passes 1
and 3 (both on by default); with both off only the streaming filters
and the backward pass run (the legacy pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.lir import LIns, _const_key

# ---------------------------------------------------------------------------
# Pass 2: backward dead-store / dead-code elimination.
#
# This is the paper's "when trace recording is completed, nanojit runs
# the backward optimization filters" pass, moved here from the former
# ``jit/backward.py`` so the whole optimization layer lives in one
# place.  Semantics are unchanged.
# ---------------------------------------------------------------------------


@dataclass
class BackwardStats:
    """What the backward pass removed (reported by the filter ablation)."""

    dead_stack_stores: int = 0
    dead_call_stores: int = 0
    dead_code: int = 0

    @property
    def total(self) -> int:
        return self.dead_stack_stores + self.dead_call_stores + self.dead_code


def run_backward_filters(
    lir: List[LIns],
    slot_kinds,
    enable_dse: bool = True,
    enable_dce: bool = True,
):
    """Run the backward pipeline over ``lir``.

    ``slot_kinds`` maps AR slot -> location kind ('stack', 'local',
    'this', 'global'), used only to attribute removed stores to the
    data-stack vs call-stack filter in the stats.

    Returns ``(filtered_lir, BackwardStats)``.
    """
    stats = BackwardStats()
    live_values = set()
    # Initially every slot is dead: anything not observed by some exit
    # (or by the loop edge, whose observation set is its exit livemap /
    # the entry imports, encoded by the recorder as the final control
    # instruction's live set) is scratch.
    dead_slots = set(slot for slot in slot_kinds)
    kept_reversed = []

    for ins in reversed(lir):
        op = ins.op

        if op == "star" and enable_dse:
            slot = ins.slot
            if slot >= 0 and slot in dead_slots:
                kind = slot_kinds.get(slot, "stack")
                if kind == "stack":
                    stats.dead_stack_stores += 1
                else:
                    stats.dead_call_stores += 1
                continue  # drop the dead store
            if slot >= 0:
                dead_slots.add(slot)
            # A global store is observable at the next (earlier) exit,
            # but a second store before any exit shadows it:
            if slot < 0:
                if ("g", slot) in dead_slots:
                    stats.dead_stack_stores += 1
                    continue
                dead_slots.add(("g", slot))
            live_values.add(ins.args[0].ins_id)
            kept_reversed.append(ins)
            continue

        if ins.is_guard or ins.is_control or op in ("x", "loop", "jtree"):
            observed = _observed_slots(ins)
            if observed is not None:
                dead_slots -= observed
            # Every guard can flush dirty globals on exit:
            dead_slots = {s for s in dead_slots if not isinstance(s, tuple)}
            for arg in ins.args:
                live_values.add(arg.ins_id)
            if ins.aux is not None and isinstance(ins.aux, LIns):
                live_values.add(ins.aux.ins_id)
            kept_reversed.append(ins)
            continue

        if op == "calltree":
            # A nested tree call reads the mapped outer AR slots (and the
            # shared global area), so stores feeding it are live.
            site = ins.imm
            dead_slots -= {outer for _inner, outer in site.local_mapping}
            dead_slots = {s for s in dead_slots if not isinstance(s, tuple)}
            kept_reversed.append(ins)
            continue

        if ins.has_effect:
            for arg in ins.args:
                live_values.add(arg.ins_id)
            if isinstance(ins.aux, LIns):
                live_values.add(ins.aux.ins_id)
            kept_reversed.append(ins)
            continue

        # Pure / load instruction: dead unless its value is used.
        if enable_dce and ins.ins_id not in live_values:
            stats.dead_code += 1
            continue
        for arg in ins.args:
            live_values.add(arg.ins_id)
        kept_reversed.append(ins)

    kept_reversed.reverse()
    return kept_reversed, stats


def _observed_slots(ins: LIns):
    """AR slots observable if this instruction exits / loops back."""
    exit = ins.exit
    if exit is not None:
        return set(exit.live_slots)
    if ins.op == "loop":
        # The loop edge re-enters the prologue, which reloads the entry
        # import slots; the recorder stores that set in ``ins.aux``.
        if isinstance(ins.aux, (set, frozenset)):
            return set(ins.aux)
        return None
    if ins.op == "jtree":
        # aux = (tree, observed slot set)
        if isinstance(ins.aux, tuple) and len(ins.aux) == 2:
            return set(ins.aux[1])
        return None
    return None


# ---------------------------------------------------------------------------
# Pass 1: tree-wide local value numbering / CSE with guard entailment.
# ---------------------------------------------------------------------------

#: Loads with a CSE key (mirrors ``LIns.cse_key``'s load clause).
_KEYED_LOADS = frozenset(
    "ldshape ldproto arraylen denselen strlen ldar".split()
)

#: Value-less guards keyed by (op, operand, immediate): a second check
#: of the same fact on the same value is entailed by the first.
_KEYED_GUARDS = frozenset("gclass gtag gi31 gni31".split())


class TreeValueState:
    """Per-tree value-numbering state shared across fragment compiles.

    Value numbers name *runtime values of the current iteration*: a
    fact recorded at trunk position p holds at any later position in
    the same straight-line pass, and therefore at any exit (and the
    branch hanging off it) textually after p.  ``snapshots`` maps a
    side exit id to the abstract state right before its guard ran, with
    the guard's own predicate *negated* folded in (the branch only runs
    when the guard failed).  ``next_vn`` is the number :meth:`fresh`
    hands out next.
    """

    __slots__ = ("next_vn", "snapshots")

    def __init__(self):
        self.next_vn = 1
        self.snapshots: Dict[int, dict] = {}

    def fresh(self) -> int:
        number = self.next_vn
        self.next_vn += 1
        return number


def _snapshot(pure_keys, load_keys, guard_keys, proven_true, proven_false, slot_vn):
    return {
        "pure": dict(pure_keys),
        "load": dict(load_keys),
        "guard": set(guard_keys),
        "true": set(proven_true),
        "false": set(proven_false),
        "slots": dict(slot_vn),
    }


def _intersect(first: dict, second: dict) -> dict:
    """The facts two snapshots share."""

    def common(table: str) -> dict:
        other = second[table]
        return {k: v for k, v in first[table].items() if other.get(k) == v}

    return {
        "pure": common("pure"),
        "load": common("load"),
        "guard": first["guard"] & second["guard"],
        "true": first["true"] & second["true"],
        "false": first["false"] & second["false"],
        "slots": common("slots"),
    }


def run_tree_cse(
    lir: List[LIns],
    tree,
    anchor_exit=None,
) -> Tuple[List[LIns], int, int]:
    """Value-number one fragment against the tree-wide state.

    For the trunk, ``anchor_exit`` is None and the walk starts from an
    empty state; for a branch it is the anchor side exit, and the walk
    is seeded with the trunk's snapshot at that exit.  Returns
    ``(new_lir, instructions_removed, guards_eliminated)``.

    The instruction list is rewritten in place where possible: uses of
    a removed instruction are redirected to its representative.
    """
    tvs = getattr(tree, "opt_vn", None)
    if tvs is None:
        tvs = TreeValueState()
        tree.opt_vn = tvs

    seed = None
    if anchor_exit is not None:
        seed = tvs.snapshots.get(anchor_exit.exit_id)
    if seed is not None:
        pure_keys = dict(seed["pure"])
        load_keys = dict(seed["load"])
        guard_keys = set(seed["guard"])
        proven_true = set(seed["true"])
        proven_false = set(seed["false"])
        slot_vn = dict(seed["slots"])
    else:
        pure_keys: Dict[tuple, int] = {}
        load_keys: Dict[tuple, int] = {}
        guard_keys: Set[tuple] = set()
        proven_true: Set[int] = set()
        proven_false: Set[int] = set()
        slot_vn: Dict[int, Tuple[int, str]] = {}

    vn_of: Dict[int, int] = {}  # ins_id -> value number
    rep: Dict[int, LIns] = {}  # value number -> representative in THIS fragment
    replace: Dict[int, LIns] = {}  # ins_id -> replacement LIns
    out: List[LIns] = []
    removed = 0
    guards_eliminated = 0

    def vn(ins: LIns) -> int:
        number = vn_of.get(ins.ins_id)
        if number is None:
            number = tvs.fresh()
            vn_of[ins.ins_id] = number
            rep.setdefault(number, ins)
        return number

    def take_snapshot(exit, negate_op=None, cond_vn=None):
        true_facts = proven_true
        false_facts = proven_false
        # The branch at this exit runs when the guard FAILED: an ``xf``
        # (exit-if-false) that fails proves the condition false.
        if negate_op == "xf":
            false_facts = proven_false | {cond_vn}
        elif negate_op == "xt":
            true_facts = proven_true | {cond_vn}
        snapshot = _snapshot(
            pure_keys, load_keys, guard_keys, true_facts, false_facts, slot_vn
        )
        earlier = tvs.snapshots.get(exit.exit_id)
        if earlier is not None:
            # Several instructions can carry one exit (a bounds check's
            # d2i, gclass, gei and lti share its OOB exit).  The branch
            # there runs after whichever of them failed, so it may assume
            # only the facts common to all of them.
            snapshot = _intersect(earlier, snapshot)
        tvs.snapshots[exit.exit_id] = snapshot

    for ins in lir:
        # Redirect uses of CSE-removed values to their representatives.
        if ins.args:
            if any(arg.ins_id in replace for arg in ins.args):
                ins.args = tuple(replace.get(a.ins_id, a) for a in ins.args)
        if isinstance(ins.aux, LIns) and ins.aux.ins_id in replace:
            ins.aux = replace[ins.aux.ins_id]
        op = ins.op

        # -- conditional guards: entailment + branch-state snapshots ----
        if op in ("xf", "xt") and ins.aux is None:
            cond_vn = vn(ins.args[0])
            proven = proven_true if op == "xf" else proven_false
            if cond_vn in proven:
                guards_eliminated += 1
                continue  # the dominating guard already checked this
            if ins.exit is not None:
                take_snapshot(ins.exit, negate_op=op, cond_vn=cond_vn)
            proven.add(cond_vn)
            out.append(ins)
            continue

        # -- value-less keyed guards (class/tag checks) -----------------
        if op in _KEYED_GUARDS:
            key = (op, vn(ins.args[0]), _const_key(ins.imm))
            if key in guard_keys:
                guards_eliminated += 1
                continue
            if ins.exit is not None:
                take_snapshot(ins.exit)
            guard_keys.add(key)
            out.append(ins)
            continue

        # -- any other exit-bearing instruction: snapshot only ----------
        if ins.exit is not None:
            take_snapshot(ins.exit)

        # -- stores ------------------------------------------------------
        if op == "star":
            value = ins.args[0]
            slot_vn[ins.slot] = (vn(value), value.type)
            # Mirror the streaming CSE filter: the slot's cached loads
            # are stale (same-shape keys as ``LIns.cse_key``).
            load_keys.pop(("ldar", (), ins.slot), None)
            load_keys.pop(("param", (), ins.slot), None)
            out.append(ins)
            continue
        if op in ("stslot", "stelem"):
            # Heap stores invalidate cached heap loads, not AR loads.
            for key in [k for k in load_keys if k[0] not in ("ldar", "param")]:
                del load_keys[key]
            out.append(ins)
            continue

        # -- calls -------------------------------------------------------
        if op == "call":
            # Mirror the streaming CSE filter: drop every cached load.
            # AR slots stay mapped — helpers cannot write the AR or the
            # global area without forcing a trace exit (the reentry
            # discipline) — but globals are dropped for safety.
            load_keys.clear()
            for slot in [s for s in slot_vn if s < 0]:
                del slot_vn[slot]
            if ins.type != "v":
                vn(ins)
            out.append(ins)
            continue
        if op == "calltree":
            # The inner tree writes the mapped outer slots (copy-back)
            # and shares the global area.
            load_keys.clear()
            written = {outer for _inner, outer in ins.imm.local_mapping}
            for slot in [s for s in slot_vn if s < 0 or s in written]:
                del slot_vn[slot]
            vn(ins)
            out.append(ins)
            continue

        # -- params: forward the stored value's number ------------------
        if op == "param":
            known = slot_vn.get(ins.slot)
            if known is not None and known[1] == ins.type:
                vn_of[ins.ins_id] = known[0]
                rep.setdefault(known[0], ins)
            else:
                number = vn(ins)
                slot_vn[ins.slot] = (number, ins.type)
            out.append(ins)
            continue

        # -- keyed values: loads and pure ops ---------------------------
        load_key = None
        pure_key = None
        if op == "ldar":
            # Store-to-load forwarding: ``slot_vn`` tracks the value
            # each AR slot holds (stars update it; calltree copy-back
            # drops it; plain helper calls cannot write the AR).
            known = slot_vn.get(ins.slot)
            if known is not None and known[1] == ins.type:
                number = known[0]
                vn_of[ins.ins_id] = number
                load_keys[("ldar", (), ins.slot)] = number
                existing = rep.get(number)
                if existing is not None and ins.exit is None:
                    replace[ins.ins_id] = existing
                    removed += 1
                    continue
                rep.setdefault(number, ins)
                out.append(ins)
                continue
        if op in _KEYED_LOADS:
            load_key = (op, tuple(vn(a) for a in ins.args), ins.slot)
        elif op == "const":
            pure_key = ("const", ins.type, _const_key(ins.imm))
        elif ins.is_pure and op != "boxv":
            pure_key = (op, tuple(vn(a) for a in ins.args), _const_key(ins.imm))

        key = load_key or pure_key
        if key is not None:
            table = load_keys if load_key is not None else pure_keys
            known_vn = table.get(key)
            if known_vn is not None:
                vn_of[ins.ins_id] = known_vn
                existing = rep.get(known_vn)
                # Never drop an exit-bearing duplicate (e.g. a guarded
                # overflow add): keep its guard, share its number.
                if existing is not None and ins.exit is None:
                    replace[ins.ins_id] = existing
                    removed += 1
                    continue
                rep.setdefault(known_vn, ins)
            else:
                number = vn(ins)
                table[key] = number
                if op == "ldar":
                    slot_vn.setdefault(ins.slot, (number, ins.type))
            out.append(ins)
            continue

        # -- everything else (boxed ops, d2i, control, ...) -------------
        if ins.type != "v":
            vn(ins)
        out.append(ins)

    return out, removed, guards_eliminated


# ---------------------------------------------------------------------------
# Pass 3: loop-invariant hoisting.
# ---------------------------------------------------------------------------

_HEAP_LOADS = frozenset(
    "ldshape ldproto arraylen denselen strlen ldslot ldelem".split()
)

#: Comparisons the code generator fuses into a compare-and-exit guard;
#: kept adjacent to their guard when the guard stays in the body.
from repro.jit.codegen import _FUSABLE_COMPARES  # noqa: E402


def hoist_invariants(lir: List[LIns], tree) -> Tuple[List[LIns], int, int]:
    """Partition the trunk into an entry prologue and a loop body.

    Returns ``(new_lir, loop_start, hoisted_count)`` where
    ``new_lir[:loop_start]`` executes once per tree entry and the loop
    back edge re-enters at ``loop_start``.  Hoisted guards are
    retargeted to the tree's ENTRY exit (loop-header deopt state).

    Invariance rules (straight-line trace, so these are whole-trace
    properties):

    * AR loads (``param``/``ldar``) are invariant iff no ``star``
      writes their slot anywhere in the trace; global slots further
      require no nested-tree call (``calltree`` shares the global
      area).  Plain helper ``call``s cannot write the AR or the global
      area without forcing a trace exit, so they do not block hoisting.
    * Heap loads require a trace with no heap stores and no calls.
    * ``gclass``/``gtag``/``gi31``/``gni31`` guards hoist with their
      operand (a value's runtime class never changes in place).
    * Pure ops and plain conditional guards hoist when every input is
      hoisted.  ``boxv`` (allocates), ``ldreentry``/``ldpreempt``
      (runtime-varying), stores, calls, and control never hoist.
    """
    if not lir or lir[-1].op != "loop" or tree.entry_exit is None:
        return lir, 0, 0

    stored_slots = {ins.slot for ins in lir if ins.op == "star"}
    has_call = any(ins.op == "call" for ins in lir)
    has_calltree = any(ins.op == "calltree" for ins in lir)
    has_heap_store = any(ins.op in ("stslot", "stelem") for ins in lir)
    calltree_written = set()
    for ins in lir:
        if ins.op == "calltree":
            calltree_written |= {outer for _inner, outer in ins.imm.local_mapping}

    hoisted: Set[int] = set()

    def inputs_hoisted(ins: LIns) -> bool:
        if any(arg.ins_id not in hoisted for arg in ins.args):
            return False
        if isinstance(ins.aux, LIns) and ins.aux.ins_id not in hoisted:
            return False
        return True

    for ins in lir:
        op = ins.op
        if op == "const":
            hoisted.add(ins.ins_id)
            continue
        if not inputs_hoisted(ins):
            continue
        if op in ("param", "ldar"):
            slot = ins.slot
            if slot in stored_slots:
                continue
            if slot >= 0 and slot in calltree_written:
                continue
            if slot < 0 and has_calltree:
                continue
            hoisted.add(ins.ins_id)
        elif op in _HEAP_LOADS:
            if not (has_heap_store or has_call or has_calltree):
                hoisted.add(ins.ins_id)
        elif op in _KEYED_GUARDS:
            hoisted.add(ins.ins_id)
        elif op in ("xt", "xf") and ins.aux is None:
            hoisted.add(ins.ins_id)
        elif ins.is_pure and op != "boxv":
            hoisted.add(ins.ins_id)

    # Keep a single-use comparison next to an unhoisted guard so the
    # code generator can still fuse them, and re-sink anything whose
    # inputs were demoted.
    use_counts: Dict[int, int] = {}
    for ins in lir:
        for arg in ins.args:
            use_counts[arg.ins_id] = use_counts.get(arg.ins_id, 0) + 1
        if isinstance(ins.aux, LIns):
            use_counts[ins.aux.ins_id] = use_counts.get(ins.aux.ins_id, 0) + 1
    changed = True
    while changed:
        changed = False
        for index, ins in enumerate(lir):
            if ins.ins_id not in hoisted:
                continue
            if ins.op in _FUSABLE_COMPARES and index + 1 < len(lir):
                guard = lir[index + 1]
                if (
                    guard.op in ("xt", "xf")
                    and guard.aux is None
                    and guard.args
                    and guard.args[0] is ins
                    and guard.ins_id not in hoisted
                    and use_counts.get(ins.ins_id) == 1
                ):
                    hoisted.discard(ins.ins_id)
                    changed = True
                    continue
            if not inputs_hoisted(ins):
                hoisted.discard(ins.ins_id)
                changed = True

    # Constants with no hoisted consumer may as well stay in the body
    # (keeps the prologue minimal and dumps readable).
    body_only_consts = set()
    hoisted_users: Dict[int, int] = {}
    for ins in lir:
        if ins.ins_id in hoisted:
            for arg in ins.args:
                hoisted_users[arg.ins_id] = hoisted_users.get(arg.ins_id, 0) + 1
            if isinstance(ins.aux, LIns):
                hoisted_users[ins.aux.ins_id] = (
                    hoisted_users.get(ins.aux.ins_id, 0) + 1
                )
    for ins in lir:
        if (
            ins.ins_id in hoisted
            and ins.op == "const"
            and not hoisted_users.get(ins.ins_id)
        ):
            body_only_consts.add(ins.ins_id)
    hoisted -= body_only_consts

    prologue = [ins for ins in lir if ins.ins_id in hoisted]
    if not prologue:
        return lir, 0, 0
    body = [ins for ins in lir if ins.ins_id not in hoisted]
    for ins in prologue:
        if ins.exit is not None:
            ins.exit = tree.entry_exit
    return prologue + body, len(prologue), len(prologue)


# ---------------------------------------------------------------------------
# The pass manager.
# ---------------------------------------------------------------------------


@dataclass
class OptStats:
    """Per-fragment removal counters from the whole-trace passes."""

    cse_removed: int = 0
    guards_eliminated: int = 0
    hoisted: int = 0

    @property
    def total(self) -> int:
        return self.cse_removed + self.guards_eliminated + self.hoisted


def optimize_fragment(
    lir: List[LIns], tree, fragment, vm_config
) -> Tuple[List[LIns], int, OptStats, BackwardStats]:
    """Run the whole-trace pass pipeline over one fragment's LIR.

    Returns ``(lir, loop_start, opt_stats, backward_stats)`` where
    ``loop_start`` is the LIR index the loop back edge re-enters at
    (0 when nothing was hoisted).
    """
    stats = OptStats()

    if vm_config.enable_tree_cse:
        lir, stats.cse_removed, stats.guards_eliminated = run_tree_cse(
            lir, tree, fragment.anchor_exit
        )

    lir, backward_stats = run_backward_filters(
        lir,
        tree.slot_kinds(),
        enable_dse=vm_config.enable_dse,
        enable_dce=vm_config.enable_dce,
    )

    loop_start = 0
    if vm_config.enable_hoisting and fragment.kind == "root":
        lir, loop_start, stats.hoisted = hoist_invariants(lir, tree)

    return lir, loop_start, stats, backward_stats
