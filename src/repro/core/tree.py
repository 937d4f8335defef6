"""Trace trees and compiled fragments (paper Sections 3.2, 4, 6.1).

A :class:`TraceTree` is anchored at one loop header with one entry type
map ("there may be several trees for a given loop header" — those are
*peers*).  It owns:

* the **activation-record layout**: every interpreter location the tree
  touches gets a fixed AR slot, shared by the root trace and every
  branch trace (identical type maps => identical layouts, Section 6.2);
* the root :class:`Fragment` and its branch fragments;
* the entry type map (locations) and the global import list (globals
  are slotted VM-wide by the monitor and shared across nested trees);
* its side exits.

A type-unstable exit of one tree enters the first peer whose entry map
accepts its types through a :class:`PeerLink` (Figure 6); each tree
keeps the links into it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import costs
from repro.core.cache import FragmentState
from repro.core.typemap import TraceType
from repro.errors import VMInternalError
from repro.jit.codegen import code_size, generate
from repro.jit.optimizer import optimize_fragment


class Fragment:
    """A compiled trace: the root trunk or one branch.

    Fragments move through an explicit lifecycle (tracked in ``state``):
    RECORDED while LIR is being captured, COMPILED once native code
    exists, LINKED when reachable from the trace cache, and RETIRED
    when a flush, invalidation, or abort evicts it.
    """

    __slots__ = (
        "tree",
        "kind",
        "state",
        "lir",
        "native",
        "bytecount",
        "code_size",
        "anchor_exit",
        "n_spills",
        "spill_base",
        "backward_stats",
        "opt_stats",
        "pre_lir",
        "loop_start",
        "lir_loop_start",
        "py_func",
        "py_failed",
    )

    def __init__(self, tree, kind: str):
        self.tree = tree
        self.kind = kind  # 'root' or 'branch'
        self.state = FragmentState.RECORDED
        self.lir = []
        self.native = []
        self.bytecount = 0
        self.code_size = 0
        self.anchor_exit = None  # for branches: the exit this hangs off
        self.n_spills = 0
        self.spill_base = 0
        self.backward_stats = None
        self.opt_stats = None
        #: Recorded LIR before the optimizer ran (for ``--trace-dump``).
        self.pre_lir = None
        #: Native index the loop back edge re-enters at; instructions
        #: before it are the hoisted once-per-entry prologue.  The LIR
        #: twin marks the same split in ``lir`` (for ``--trace-dump``).
        self.loop_start = 0
        self.lir_loop_start = 0
        #: Python-backend function compiled from ``native``, once, with
        #: the branches already LINKED below at its build inlined; its
        #: closure holds its constants.  Dropped on retirement so evicted
        #: code can never run again (see repro.jit.pycompile).
        self.py_func = None
        #: Latched on an emission/compile failure so the backend does
        #: not retry a broken fragment on every invocation.
        self.py_failed = False

    #: Fields that exist only at run time: the trace store does not
    #: pickle them, and a loaded fragment gets their constructor defaults.
    RUNTIME_FIELDS = frozenset(
        ("lir", "pre_lir", "backward_stats", "opt_stats", "py_func",
         "py_failed")
    )

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self.RUNTIME_FIELDS
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["tree"], state["kind"])
        for name, value in state.items():
            setattr(self, name, value)

    def retire(self) -> None:
        self.state = FragmentState.RETIRED
        self.py_func = None

    def __repr__(self) -> str:
        return (
            f"<Fragment {self.kind} [{self.state.value}] "
            f"of tree@{self.tree.header_pc} "
            f"{len(self.lir)} lir / {len(self.native)} native>"
        )


class PeerLink:
    """How a type-unstable exit enters a peer tree without the monitor.

    Made once per exit and peer from static types
    (:meth:`TraceTree.link_from`): ``moves`` are ``(peer slot, exit
    slot)`` pairs copied as they are, ``widens`` the pairs whose int the
    peer types as double, and ``cycles`` the link's simulated native
    cost: a stitch, a slot copy per entry slot (as a nested-tree call
    pays) and an ``i2d`` per widened slot.
    """

    __slots__ = ("peer", "moves", "widens", "cycles")

    def __init__(self, peer, moves: tuple, widens: tuple):
        self.peer = peer
        self.moves = moves
        self.widens = widens
        self.cycles = (
            costs.STITCH_PENALTY
            + costs.CALLTREE_PER_SLOT * (len(moves) + len(widens))
            + costs.NATIVE_I2D * len(widens)
        )


class TraceTree:
    """One trace tree: root trace + branch traces, one entry type map."""

    __slots__ = (
        "code", "header_pc", "loop_info", "entry_typemap", "global_imports",
        "_global_types", "slot_of_loc", "loc_of_slot", "n_location_slots",
        "ar_size", "fragment", "branches", "exits_by_id", "iterations",
        "profile", "written_globals", "entry_exit",
        "opt_vn", "link_version", "links_in",
    )

    #: Fields that exist only at run time (see :attr:`Fragment
    #: .RUNTIME_FIELDS`).  ``opt_vn`` is saved, but apart from the
    #: trees: the store pickles the value-numbering tables after them.
    RUNTIME_FIELDS = frozenset(("profile", "links_in", "opt_vn"))

    def __init__(self, code, header_pc: int, loop_info):
        self.code = code
        self.header_pc = header_pc
        self.loop_info = loop_info
        #: (location, TraceType) pairs for non-global entry locations.
        self.entry_typemap: List[Tuple[tuple, TraceType]] = []
        #: (name, monitor global slot, TraceType) triples.
        self.global_imports: List[Tuple[str, int, TraceType]] = []
        self._global_types: Dict[str, TraceType] = {}
        self.slot_of_loc: Dict[tuple, int] = {}
        self.loc_of_slot: Dict[int, tuple] = {}
        self.n_location_slots = 0
        self.ar_size = 0
        self.fragment = Fragment(self, "root")
        self.branches: List[Fragment] = []
        self.exits_by_id: Dict[int, object] = {}
        self.iterations = 0
        #: Runtime profile attached by :class:`repro.obs.profiler
        #: .PhaseProfiler` (``None`` when profiling is off); it outlives
        #: the tree's residency in the cache.
        self.profile = None
        #: Globals any trace of this tree writes (used by outer traces
        #: calling this tree to invalidate their cached global values).
        self.written_globals: set = set()
        #: ENTRY side exit (loop-header state), set by the recorder at
        #: the start of root recording; hoisted trunk guards retarget
        #: to it.
        self.entry_exit = None
        #: Tree-wide value-numbering state (:class:`repro.jit.optimizer
        #: .TreeValueState`), lazily created at the first CSE pass.
        self.opt_vn = None
        #: ``link_version`` counts the tree's links: it is bumped once
        #: per side exit that gains a branch target, attached by the
        #: monitor or restored by a store preload.  A target is set only
        #: once, so the count only grows.  The py backend builds a
        #: trunk whose tree already has links (a store preload) with
        #: those branches inlined.
        self.link_version = 0
        #: Links into this tree from its peers' type-unstable exits, by
        #: exit (:meth:`link_from`); None records a rejection.  Not saved
        #: by the trace store: a preloaded tree works them out again, at
        #: no simulated cost.
        self.links_in: Dict[object, Optional[PeerLink]] = {}

    __getstate__ = Fragment.__getstate__

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["code"], state["header_pc"], state["loop_info"])
        for name, value in state.items():
            setattr(self, name, value)

    # -- AR layout ---------------------------------------------------------------

    def slot_for(self, loc: tuple) -> int:
        """The AR slot of ``loc``, allocating one if new."""
        slot = self.slot_of_loc.get(loc)
        if slot is None:
            slot = self.n_location_slots
            self.n_location_slots += 1
            self.slot_of_loc[loc] = slot
            self.loc_of_slot[slot] = loc
            self.ar_size = max(self.ar_size, self.n_location_slots)
        return slot

    def slot_kinds(self) -> Dict[int, str]:
        """slot -> location kind, for the backward filters' statistics."""
        kinds = {}
        for loc, slot in self.slot_of_loc.items():
            if loc[0] == "stack":
                kinds[slot] = "stack"
            elif loc[0] in ("local", "this"):
                # Anchor-frame slots are "data"; inlined-frame slots
                # mirror the interpreter call stack.
                kinds[slot] = "stack" if loc[0] == "local" and loc[1] == 0 else "call"
            else:
                kinds[slot] = "global"
        return kinds

    # -- entry map management -----------------------------------------------------

    def add_entry_location(self, loc: tuple, trace_type: TraceType) -> int:
        slot = self.slot_for(loc)
        for existing_loc, _existing in self.entry_typemap:
            if existing_loc == loc:
                return slot
        self.entry_typemap.append((loc, trace_type))
        return slot

    def link_from(self, exit) -> Optional[PeerLink]:
        """The link that enters this tree from a type-unstable ``exit``.

        None unless the type the exit's livemap gives each entry
        location is accepted: the same type, or an int where this tree
        expects a double.  Worked out once per exit, since entry maps
        never change.  Globals are not checked here: the global area is
        checked at every link (:meth:`repro.jit.native.NativeMachine
        .global_widens`), which also sees imports this tree gains later.
        """
        links = self.links_in
        if exit not in links:
            links[exit] = self._link_from(exit)
        return links[exit]

    def _link_from(self, exit) -> Optional[PeerLink]:
        at_exit = {loc: (trace_type, slot) for loc, trace_type, slot in exit.livemap}
        moves = []
        widens = []
        for loc, entry_type in self.entry_typemap:
            found = at_exit.get(loc)
            if found is None:
                return None
            exit_type, slot = found
            pair = (self.slot_of_loc[loc], slot)
            if exit_type is entry_type:
                moves.append(pair)
            elif entry_type is TraceType.DOUBLE and exit_type is TraceType.INT:
                widens.append(pair)
            else:
                return None
        return PeerLink(self, tuple(moves), tuple(widens))

    def add_global_import(self, name: str, gslot: int, trace_type: TraceType) -> None:
        existing = self._global_types.get(name)
        if existing is not None:
            if existing is not trace_type:
                raise VMInternalError(
                    f"conflicting global import types for {name!r}"
                )
            return
        self._global_types[name] = trace_type
        self.global_imports.append((name, gslot, trace_type))

    def global_type_of(self, name: str) -> Optional[TraceType]:
        return self._global_types.get(name)

    @property
    def import_slot_set(self) -> frozenset:
        """AR slots reloaded by the prologue at the loop edge (the loop
        instruction's observation set for dead-store elimination)."""
        slots = {self.slot_of_loc[loc] for loc, _t in self.entry_typemap}
        for _name, gslot, _t in self.global_imports:
            slots.add(-(gslot + 1))
        return frozenset(slots)

    # -- compilation -----------------------------------------------------------------

    def compile_fragment(self, fragment: Fragment, lir: List, vm_config) -> None:
        """Run the whole-trace optimizer + codegen; attach the result."""
        fragment.pre_lir = list(lir)
        filtered, loop_start, opt_stats, backward_stats = optimize_fragment(
            lir, self, fragment, vm_config
        )
        fragment.lir = filtered
        fragment.backward_stats = backward_stats
        fragment.opt_stats = opt_stats
        fragment.spill_base = self.n_location_slots
        try:
            fragment.native, fragment.n_spills, fragment.loop_start = generate(
                filtered, fragment.spill_base, loop_start
            )
            fragment.lir_loop_start = loop_start
        except VMInternalError:
            if loop_start == 0:
                raise
            # Hoisting is best-effort: fall back to the legacy layout
            # where the whole trace (prologue included) reruns every
            # iteration — sound, just slower.
            fragment.native, fragment.n_spills, fragment.loop_start = generate(
                filtered, fragment.spill_base, 0
            )
            fragment.lir_loop_start = 0
            opt_stats.hoisted = 0
        fragment.code_size = code_size(fragment.native)
        fragment.state = FragmentState.COMPILED
        self.ar_size = max(self.ar_size, fragment.spill_base + fragment.n_spills)
        for ins in filtered:
            if ins.exit is not None:
                ins.exit.fragment = fragment
                ins.exit.tree = self
                self.exits_by_id[ins.exit.exit_id] = ins.exit

    def compile_cost(self, lir_length: int) -> int:
        return costs.COMPILE_FRAGMENT + costs.COMPILE_PER_LIR * lir_length

    # -- lifecycle --------------------------------------------------------------

    @property
    def code_size_total(self) -> int:
        """Simulated native bytes of the root trunk plus every branch."""
        return self.fragment.code_size + sum(
            branch.code_size for branch in self.branches
        )

    def retire(self) -> int:
        """Retire every fragment of this tree; returns how many."""
        retired = 0
        for fragment in [self.fragment] + self.branches:
            if fragment.state is not FragmentState.RETIRED:
                fragment.retire()
                retired += 1
        if self.profile is not None:
            self.profile.retired = True
        return retired

    def __repr__(self) -> str:
        return (
            f"<TraceTree {self.code.name}@{self.header_pc} "
            f"branches={len(self.branches)} iters={self.iterations}>"
        )
