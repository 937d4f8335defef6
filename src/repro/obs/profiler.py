"""The phase profiler: a stack-discipline timeline of VM phases.

The paper's Figure 12 breaks VM time into interpreting, monitoring,
recording, compiling, and native execution; the TraceMonkey team's
TraceVis tool rendered exactly that breakdown as a timeline to debug
trace pathologies (short traces, trace explosion, eager aborts).  This
module is that observability layer for the reproduction:

* the VM's components call :meth:`PhaseProfiler.enter` /
  :meth:`PhaseProfiler.exit` around nested regions (monitor entry,
  native trace execution, compilation, blacklist bookkeeping) and
  :meth:`PhaseProfiler.set_recording` when the interpreter switches
  between plain interpretation and recording;
* every phase transition attributes the simulated cycles and wall-clock
  time elapsed since the previous transition to the phase that was
  current, so the per-phase totals *partition* the run exactly — the
  fractions always sum to 1;
* with ``capture_timeline`` set, each span is also retained as an
  interval for the TraceVis-style renderers in
  :mod:`repro.obs.timeline`.

Profiling is off by default: every hook site guards on
``vm.profiler is not None``, so a VM that never calls
:meth:`repro.vm.VM.enable_profiling` pays one attribute test per hook
point (loop-header crossings, trace entries/exits, recording
transitions — never per bytecode or per native instruction) and its
simulated cycle counts are bit-identical to an unprofiled run.

Beyond the timeline the profiler owns the **per-fragment runtime
profiles**: one :class:`LoopProfile` per trace tree (entries,
iterations, cycles-on-trace) holding one :class:`GuardProfile` per
side exit actually taken (exit counts, stitched transfers, and
pc -> source-line attribution via the bytecode's line table).  Profiles
outlive cache flushes — a retired tree's history is still reported.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.costs import Activity

# -- phases ----------------------------------------------------------------------
#
# The first five mirror the paper's Figure 2 activities; blacklist-backoff
# separates the monitor cycles spent on blacklist checks and back-off
# bookkeeping (TraceVis showed these as their own color).

PHASE_INTERPRET = "interpret"
PHASE_MONITOR = "monitor"
PHASE_RECORD = "record"
PHASE_COMPILE = "compile"
PHASE_NATIVE = "native"
PHASE_BACKOFF = "blacklist-backoff"

PHASES = (
    PHASE_INTERPRET,
    PHASE_MONITOR,
    PHASE_RECORD,
    PHASE_COMPILE,
    PHASE_NATIVE,
    PHASE_BACKOFF,
)

#: Phase -> Figure 12 activity row (backoff is monitor time in the
#: coarse view; the ledger charges it to Activity.MONITOR as well).
ACTIVITY_OF_PHASE = {
    PHASE_INTERPRET: Activity.INTERPRET.value,
    PHASE_MONITOR: Activity.MONITOR.value,
    PHASE_RECORD: Activity.RECORD.value,
    PHASE_COMPILE: Activity.COMPILE.value,
    PHASE_NATIVE: Activity.NATIVE.value,
    PHASE_BACKOFF: Activity.MONITOR.value,
}

#: Version of the profile JSON document (see docs/INTERNALS.md).
#: History: 1 = initial; 2 = adds the "firewall" section; 3 = adds the
#: per-loop backend / wall-clock fields and the "pycompile" section;
#: 4 = adds the "optimizer" section (whole-trace pass counters);
#: 5 = adds the "transitions" section (direct vs monitor-mediated
#: fragment transfers, exit-tuple surfacings).
PROFILE_SCHEMA_VERSION = 5


class GuardProfile:
    """Runtime history of one side exit (a guard of a compiled trace)."""

    __slots__ = ("exit_id", "kind", "code_name", "pc", "line", "exits", "stitched")

    def __init__(self, exit_id: int, kind: str, code_name: str, pc: int, line: int):
        self.exit_id = exit_id
        self.kind = kind
        self.code_name = code_name
        self.pc = pc
        self.line = line
        #: Exits that returned control to the monitor (deopts).
        self.exits = 0
        #: Transfers into a stitched branch trace (stay native).
        self.stitched = 0

    def to_dict(self) -> dict:
        return {
            "exit_id": self.exit_id,
            "kind": self.kind,
            "code": self.code_name,
            "pc": self.pc,
            "line": self.line,
            "exits": self.exits,
            "stitched": self.stitched,
        }


class LoopProfile:
    """Runtime profile of one trace tree (one loop + entry type map)."""

    __slots__ = (
        "code_name",
        "header_pc",
        "line",
        "typemap",
        "entries",
        "nested_calls",
        "iterations",
        "cycles",
        "branches",
        "retired",
        "guards",
        "backend",
        "compile_wall",
        "wall",
    )

    def __init__(self, code_name: str, header_pc: int, line: int, typemap: str):
        self.code_name = code_name
        self.header_pc = header_pc
        self.line = line
        self.typemap = typemap
        self.entries = 0
        #: Invocations as a nested tree (``calltree``) from an outer trace.
        self.nested_calls = 0
        self.iterations = 0
        #: Simulated cycles spent while this tree was on the native
        #: stack, entered from the monitor (includes nested-tree calls
        #: it makes; nested invocations of *this* tree are attributed to
        #: the outer tree instead).
        self.cycles = 0
        self.branches = 0
        self.retired = False
        self.guards: Dict[int, GuardProfile] = {}
        #: Which execution backend served this tree's runs: "py",
        #: "step", or "mixed" (a compiled run deopted to stepping at
        #: least once); None until the first run.
        self.backend: Optional[str] = None
        #: Wall seconds spent emitting + compiling this tree's
        #: fragments to Python (the py backend's one-time cost).
        self.compile_wall = 0.0
        #: Wall seconds spent in monitor-entered runs of this tree.
        self.wall = 0.0

    @property
    def total_exits(self) -> int:
        return sum(guard.exits for guard in self.guards.values())

    def to_dict(self) -> dict:
        return {
            "code": self.code_name,
            "header_pc": self.header_pc,
            "line": self.line,
            "typemap": self.typemap,
            "entries": self.entries,
            "nested_calls": self.nested_calls,
            "iterations": self.iterations,
            "cycles_on_trace": self.cycles,
            "branches": self.branches,
            "retired": self.retired,
            "backend": self.backend,
            "compile_wall_seconds": self.compile_wall,
            "wall_seconds": self.wall,
            "wall_per_iteration": (
                self.wall / self.iterations if self.iterations else 0.0
            ),
            "guards": [
                guard.to_dict()
                for guard in sorted(self.guards.values(), key=lambda g: -g.exits)
            ],
        }


def exit_source(exit) -> tuple:
    """``(code name, pc, source line)`` of a side exit's guard.

    The exit pc belongs to the topmost (possibly inlined) frame, not
    necessarily to the tree's anchor code.
    """
    code = exit.frames[-1].code if exit.frames else exit.tree.code
    pc = exit.pc
    lines = getattr(code, "lines", None)
    line = lines[pc] if lines and 0 <= pc < len(lines) else 0
    return code.name, pc, line


class PhaseProfiler:
    """Phase timeline + per-fragment profiles for one VM.

    Attach with :meth:`repro.vm.VM.enable_profiling` *before* running
    code; the hook sites check ``vm.profiler is not None`` once per
    transition.
    """

    def __init__(self, vm, capture_timeline: bool = False,
                 max_intervals: int = 50_000):
        self.vm = vm
        self.capture_timeline = capture_timeline
        self.max_intervals = max_intervals
        self.phase_cycles: Dict[str, int] = {phase: 0 for phase in PHASES}
        self.phase_wall: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.phase_enters: Dict[str, int] = {phase: 0 for phase in PHASES}
        #: Retained timeline spans: [phase, cycle0, cycle1, wall0, wall1].
        self.intervals: List[list] = []
        self.timeline_truncated = False
        #: Wall seconds between start() and finish(), summed over runs.
        self.wall_profiled = 0.0
        #: Forward-pipeline observation (LIR emitted vs surviving filters).
        self.lir_emitted = 0
        self.lir_retained = 0
        #: Whole-trace optimizer totals (per-pass removal counters).
        self.opt_cse_removed = 0
        self.opt_guards_eliminated = 0
        self.opt_hoisted = 0
        self._loops: Dict[int, LoopProfile] = {}
        self._loop_order: List[LoopProfile] = []
        #: Firewall trips by boundary (record / compile / native / ...).
        self.firewall_trips: Dict[str, int] = {}
        #: Python-backend compilations: fragment functions, direct-link
        #: megafunction builds, and the wall seconds of both.
        self.pycompile_count = 0
        self.pycompile_tree_builds = 0
        self.pycompile_wall = 0.0
        #: Fragment-to-fragment transfers that stayed native, split by
        #: how: inside a direct-linked megafunction vs mediated by the
        #: backend driver's stitch loop.
        self.transfers_direct = 0
        self.transfers_stitched = 0
        #: Cycle count at the safe-mode transition (None = never tripped).
        #: Everything after it accrues to interpret/monitor phases, so
        #: the Figure 12 fractions stay partition-exact across the flip.
        self.safe_mode_at: Optional[int] = None
        self._stack: List[str] = []
        self._active = False
        self._last_cycles = 0
        self._last_wall = 0.0
        self._start_wall = 0.0

    # -- the phase timeline -------------------------------------------------------

    def start(self) -> None:
        """Begin (or resume) profiling; the base phase is *interpret*."""
        if self._active:
            return
        self._active = True
        self._stack = [PHASE_INTERPRET]
        self._last_cycles = self.vm.stats.ledger.total
        self._last_wall = self._start_wall = time.perf_counter()
        self.phase_enters[PHASE_INTERPRET] += 1

    def finish(self) -> None:
        """Flush the open span and close out the current run window."""
        if not self._active:
            return
        while len(self._stack) > 1:
            self.exit()
        self._attribute()
        self._active = False
        self._stack = []
        self.wall_profiled += time.perf_counter() - self._start_wall

    def enter(self, phase: str) -> None:
        """Push a nested phase (monitor / native / compile / backoff)."""
        if not self._active:
            return
        self._attribute()
        self._stack.append(phase)
        self.phase_enters[phase] += 1

    def exit(self) -> None:
        """Pop the current nested phase."""
        if not self._active or len(self._stack) <= 1:
            return
        self._attribute()
        self._stack.pop()

    def set_recording(self, recording: bool) -> None:
        """Flip the innermost interpret/record entry of the phase stack.

        Recording is a *mode* of interpretation, not a nested region:
        the dispatch loop keeps running, so the interpreter's slot in
        the stack is renamed in place.  The transition usually happens
        under the monitor phase (record start / finish / abort), but an
        abort raised mid-dispatch flips the top of the stack directly.
        """
        if not self._active:
            return
        want = PHASE_RECORD if recording else PHASE_INTERPRET
        other = PHASE_INTERPRET if recording else PHASE_RECORD
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] == other:
                if index == len(self._stack) - 1:
                    self._attribute()
                self._stack[index] = want
                self.phase_enters[want] += 1
                return

    def _attribute(self) -> None:
        """Close the open span, crediting the current phase."""
        now_cycles = self.vm.stats.ledger.total
        now_wall = time.perf_counter()
        phase = self._stack[-1]
        self.phase_cycles[phase] += now_cycles - self._last_cycles
        self.phase_wall[phase] += now_wall - self._last_wall
        if self.capture_timeline and now_cycles > self._last_cycles:
            intervals = self.intervals
            if intervals and intervals[-1][0] == phase \
                    and intervals[-1][2] == self._last_cycles:
                intervals[-1][2] = now_cycles
                intervals[-1][4] = now_wall
            elif len(intervals) >= self.max_intervals:
                self.timeline_truncated = True
                intervals[-1][2] = now_cycles
                intervals[-1][4] = now_wall
            else:
                intervals.append(
                    [phase, self._last_cycles, now_cycles, self._last_wall, now_wall]
                )
        self._last_cycles = now_cycles
        self._last_wall = now_wall

    # -- per-fragment profiles ----------------------------------------------------

    def loop_profile(self, tree) -> LoopProfile:
        """The (lazily created) profile of ``tree``."""
        profile = self._loops.get(id(tree))
        if profile is None:
            from repro.core.typemap import describe_typemap

            line = getattr(tree.loop_info, "line", 0)
            profile = LoopProfile(
                tree.code.name,
                tree.header_pc,
                line,
                describe_typemap(tree.entry_typemap),
            )
            self._loops[id(tree)] = profile
            self._loop_order.append(profile)
            tree.profile = profile
        return profile

    def record_tree_run(
        self,
        tree,
        cycles: int,
        iterations: int,
        wall: float = 0.0,
        backend: Optional[str] = None,
    ) -> None:
        """Account one completed trace-tree invocation from the monitor."""
        profile = self.loop_profile(tree)
        profile.entries += 1
        profile.cycles += cycles
        profile.iterations += iterations
        profile.branches = len(tree.branches)
        profile.wall += wall
        if backend is not None:
            if profile.backend is None:
                profile.backend = backend
            elif profile.backend != backend:
                profile.backend = "mixed"

    def record_nested_call(self, tree, iterations: int) -> None:
        """Account one ``calltree`` invocation of ``tree`` from an outer
        trace (cycles stay attributed to the outer tree)."""
        profile = self.loop_profile(tree)
        profile.nested_calls += 1
        profile.iterations += iterations
        profile.branches = len(tree.branches)

    def guard_profile(self, exit) -> GuardProfile:
        profile = self.loop_profile(exit.tree)
        guard = profile.guards.get(exit.exit_id)
        if guard is None:
            code_name, pc, line = exit_source(exit)
            guard = GuardProfile(exit.exit_id, exit.kind, code_name, pc, line)
            profile.guards[exit.exit_id] = guard
        return guard

    def record_side_exit(self, exit) -> None:
        """One guard failure that returned control to the monitor."""
        if exit.tree is None:
            return
        self.guard_profile(exit).exits += 1

    def record_stitch(self, exit, direct: bool = False) -> None:
        """One guard failure that transferred into a branch trace.

        ``direct`` distinguishes transfers taken inside a direct-linked
        megafunction from ones mediated by the driver's stitch loop;
        the per-guard ``stitched`` total counts both.
        """
        if direct:
            self.transfers_direct += 1
        else:
            self.transfers_stitched += 1
        if exit.tree is None:
            return
        self.guard_profile(exit).stitched += 1

    def record_lir(self, emitted: int, retained: int) -> None:
        """Forward-pipeline totals for one finished recording."""
        self.lir_emitted += emitted
        self.lir_retained += retained

    def record_opt(self, opt_stats) -> None:
        """Whole-trace pass-manager totals for one compiled fragment."""
        if opt_stats is None:
            return
        self.opt_cse_removed += opt_stats.cse_removed
        self.opt_guards_eliminated += opt_stats.guards_eliminated
        self.opt_hoisted += opt_stats.hoisted

    def note_firewall_trip(self, boundary: str) -> None:
        """One contained internal JIT failure at ``boundary``."""
        self.firewall_trips[boundary] = self.firewall_trips.get(boundary, 0) + 1

    def note_pycompile(self, tree, seconds: float,
                       tree_build: bool = False) -> None:
        """One fragment function (or, with ``tree_build``, one
        megafunction) compiled to Python for ``tree`` (wall cost)."""
        if tree_build:
            self.pycompile_tree_builds += 1
        else:
            self.pycompile_count += 1
        self.pycompile_wall += seconds
        self.loop_profile(tree).compile_wall += seconds

    def note_safe_mode(self) -> None:
        """The safe-mode circuit breaker tripped at the current cycle."""
        if self.safe_mode_at is None:
            self.safe_mode_at = self.vm.stats.ledger.total

    @property
    def loops(self) -> List[LoopProfile]:
        """Every loop profile, in first-execution order."""
        return list(self._loop_order)

    def guards_ranked(self) -> List[tuple]:
        """``(LoopProfile, GuardProfile)`` pairs, hottest deopts first."""
        pairs = [
            (loop, guard)
            for loop in self._loop_order
            for guard in loop.guards.values()
        ]
        pairs.sort(key=lambda pair: (-pair[1].exits, -pair[1].stitched,
                                     pair[1].exit_id))
        return pairs

    @property
    def total_side_exits(self) -> int:
        """Sum of per-guard monitor exits (equals the event-stream fold)."""
        return sum(loop.total_exits for loop in self._loop_order)

    # -- results -----------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(self.phase_cycles.values())

    @property
    def total_wall(self) -> float:
        return sum(self.phase_wall.values())

    def phase_fractions(self) -> Dict[str, float]:
        """Cycle fraction per phase; sums to 1.0 whenever cycles exist."""
        total = self.total_cycles
        if total == 0:
            return {phase: 0.0 for phase in PHASES}
        return {phase: self.phase_cycles[phase] / total for phase in PHASES}

    def activity_cycles(self) -> Dict[str, int]:
        """Phase cycles folded onto the Figure 12 activity rows."""
        out = {activity.value: 0 for activity in Activity}
        for phase, cycles in self.phase_cycles.items():
            out[ACTIVITY_OF_PHASE[phase]] += cycles
        return out

    def activity_fractions(self) -> Dict[str, float]:
        total = self.total_cycles
        by_activity = self.activity_cycles()
        if total == 0:
            return {name: 0.0 for name in by_activity}
        fractions = {name: cycles / total for name, cycles in by_activity.items()}
        assert abs(sum(fractions.values()) - 1.0) < 1e-9, \
            "phase fractions must partition the run"
        return fractions

    def to_dict(self, program: Optional[str] = None) -> dict:
        """The full profile document (see docs/INTERNALS.md for the schema)."""
        fractions = self.phase_fractions()
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "program": program,
            "total_cycles": self.total_cycles,
            "wall_seconds": self.wall_profiled,
            "phases": [
                {
                    "phase": phase,
                    "cycles": self.phase_cycles[phase],
                    "wall": self.phase_wall[phase],
                    "enters": self.phase_enters[phase],
                    "fraction": fractions[phase],
                }
                for phase in PHASES
            ],
            "activity_breakdown": self.activity_fractions()
            if self.total_cycles
            else {activity.value: 0.0 for activity in Activity},
            "loops": [
                loop.to_dict()
                for loop in sorted(self._loop_order, key=lambda l: -l.cycles)
            ],
            "lir": {"emitted": self.lir_emitted, "retained": self.lir_retained},
            "optimizer": {
                "cse_removed": self.opt_cse_removed,
                "guards_eliminated": self.opt_guards_eliminated,
                "ops_hoisted": self.opt_hoisted,
            },
            "pycompile": {
                "fragments": self.pycompile_count,
                "tree_builds": self.pycompile_tree_builds,
                "wall_seconds": self.pycompile_wall,
            },
            "transitions": {
                "direct_transfers": self.transfers_direct,
                "monitor_stitched": self.transfers_stitched,
                "exit_surfacings": self.total_side_exits,
            },
            "firewall": {
                "trips": dict(self.firewall_trips),
                "safe_mode_at": self.safe_mode_at,
            },
            "timeline": {
                "intervals": [list(interval) for interval in self.intervals],
                "truncated": self.timeline_truncated,
            },
        }
