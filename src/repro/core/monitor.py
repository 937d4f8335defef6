"""The trace monitor (paper Figure 2 and Sections 3, 4, 6.1).

The interpreter calls :meth:`TraceMonitor.on_loop_header` every time it
executes a ``LOOPHEADER`` no-op.  Depending on state, the monitor:

* executes a compiled trace whose entry type map matches the current
  state (importing variables into the trace activation record, calling
  the native fragment, and restoring interpreter state at the exit);
* counts hotness and starts recording a root trace once the loop is hot
  (threshold 2) and not blacklisted / backed off;
* while recording — closes the loop at the anchor header, *nests* inner
  loops by calling their trees and recording a ``calltree``, or aborts;
* grows branch traces at hot side exits and patches them onto the
  guards (trace stitching);
* reacts to type-unstable traces by immediately re-recording with the
  new type map (with the oracle preventing repeated mis-speculation).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro import costs
from repro.core import events as eventkind
from repro.core import exits as exitkind
from repro.core.cache import FragmentState, TraceCache
from repro.core.exits import ExitEvent, SideExit
from repro.core.blacklist import Blacklist
from repro.core.oracle import Oracle
from repro.core.recorder import Recorder
from repro.core.tree import TraceTree
from repro.core.typemap import (
    TraceType,
    box_for_type,
    entry_matches,
    read_location,
    type_of_box,
    unbox_for_type,
)
from repro.costs import Activity
from repro.errors import GuestFault, JSThrow, VMInternalError
from repro.hardening import faults as sites
from repro.hardening.firewall import JITFirewall
from repro.interp.frames import Frame
from repro.runtime.values import UNDEFINED


_UNSTABLE = exitkind.UNSTABLE

#: Exit kinds that may grow branch traces (trace stitching).
_BRANCHABLE_EXIT_KINDS = frozenset(
    (
        exitkind.BRANCH,
        exitkind.TYPE,
        exitkind.SHAPE,
        exitkind.OVERFLOW,
        exitkind.OOB,
        exitkind.CALLEE,
    )
)


class TraceMonitor:
    """Recording policy and trace execution; the cache itself lives in
    :class:`repro.core.cache.TraceCache`."""

    def __init__(self, vm):
        self.vm = vm
        self.config = vm.config
        self.events = vm.events
        self.oracle = Oracle(enabled=vm.config.enable_oracle, faults=vm.faults)
        self.blacklist = Blacklist(
            backoff=vm.config.blacklist_backoff,
            max_failures=vm.config.max_recording_failures,
            enabled=vm.config.enable_blacklisting,
        )
        #: Owns peer trees, hotness counters, code-size accounting, and
        #: the flush path; all fragment lookup/registration goes here.
        self.cache = TraceCache(vm.config, vm.events, faults=vm.faults)
        #: Containment for internal JIT failures (repro.hardening); the
        #: circuit breaker flips ``disabled`` after repeated trips.
        self.firewall = JITFirewall(vm, self)
        #: True once safe mode entered: on_loop_header becomes a no-op.
        self.disabled = False
        #: VM-wide global slot registry (shared across all trees so
        #: nested trees can exchange globals through one area).
        self.global_slot_of: Dict[str, int] = {}
        self.global_names: List[str] = []
        #: The next side-exit id, numbered per VM (the recorder bumps
        #: it): an outer tree's calltree guard compares against an inner
        #: exit's id, so the numbers reach the compiled code and must
        #: not depend on what ran before in the process.
        self.next_exit_id = 1

    # -- global slots -----------------------------------------------------------

    def global_slot(self, name: str) -> int:
        slot = self.global_slot_of.get(name)
        if slot is None:
            slot = len(self.global_names)
            self.global_slot_of[name] = slot
            self.global_names.append(name)
        return slot

    def _charge(self, cycles: int) -> None:
        self.vm.stats.ledger.charge(Activity.MONITOR, cycles)

    # -- the main hook ------------------------------------------------------------

    def on_loop_header(self, interp, frame: Frame, pc: int) -> None:
        if self.disabled:
            return
        vm = self.vm
        profiler = vm.profiler
        try:
            if profiler is None:
                self._on_loop_header(interp, frame, pc)
                return
            from repro.obs.profiler import PHASE_MONITOR

            profiler.enter(PHASE_MONITOR)
            try:
                self._on_loop_header(interp, frame, pc)
            finally:
                profiler.exit()
        except Exception as error:
            # The monitor-level firewall boundary: anything the inner
            # (compile / native / restore) boundaries did not already
            # contain — recorder faults raised from close_loop, oracle
            # or cache bookkeeping bugs, matching failures — lands here.
            # Recording and compilation are passive, so the interpreter
            # state is the last committed state already.  Guest faults
            # (supervisor terminations) are not JIT failures: they pass
            # through untouched.
            if isinstance(error, (JSThrow, GuestFault)):
                raise
            boundary = "record" if vm.recorder is not None else "monitor"
            if not self.contain_internal_failure(
                boundary, error, code=frame.code, pc=pc
            ):
                raise

    def contain_internal_failure(
        self, boundary: str, error: BaseException, code=None, pc=None,
        tree=None, fragment=None,
    ) -> bool:
        """Route an internal failure to the firewall; False = re-raise."""
        return self.firewall.contain(
            boundary, error, code=code, pc=pc, tree=tree, fragment=fragment
        )

    def enter_safe_mode(self) -> None:
        """The circuit breaker: tracing off for the rest of the run."""
        if self.disabled:
            return
        vm = self.vm
        if vm.recorder is not None:
            self.abort_recording("safe-mode")
        self.disabled = True
        vm.config.enable_tracing = False
        vm.in_safe_mode = True
        self.cache.flush("safe-mode")
        self.events.emit(
            eventkind.SAFE_MODE,
            failures=self.firewall.failures,
            threshold=self.firewall.max_failures,
        )
        if vm.profiler is not None:
            vm.profiler.note_safe_mode()

    def _on_loop_header(self, interp, frame: Frame, pc: int) -> None:
        vm = self.vm
        self._charge(costs.MONITOR_ENTRY)
        recorder = vm.recorder
        code = frame.code

        if recorder is not None and recorder.suspended:
            # Recording is paused inside a reentered native: compiled
            # trees may run, but no recording decisions are made.
            tree = self.find_matching_tree(interp, frame, pc)
            if tree is not None:
                self.execute_tree(interp, frame, tree, len(interp.frames) - 1)
            return

        if recorder is not None:
            tree = recorder.tree
            if code is tree.code and pc == tree.header_pc:
                if recorder.depth == 0:
                    status_before = recorder.status
                    recorder.close_loop()
                    if (
                        recorder.status == "unstable"
                        and not recorder.is_branch
                        and status_before is None
                    ):
                        # "At the same time a new trace is recorded with
                        # the new type map" (Section 3.2).
                        self.consider_recording(interp, frame, pc, force_hot=True)
                    return
                self.abort_recording("recursive-loop-header")
                return
            self._handle_inner_header(interp, frame, pc, recorder)
            return

        loop_info = code.loop_at_header(pc)
        if loop_info is None:
            raise VMInternalError(f"LOOPHEADER at pc {pc} has no LoopInfo")
        tree = self.find_matching_tree(interp, frame, pc)
        if tree is not None:
            vm.stats.tracing.lookup_hits += 1
            self.execute_tree(interp, frame, tree, len(interp.frames) - 1)
            return
        vm.stats.tracing.loops_seen += 1
        count = self.cache.bump_hotness(code, pc)
        if count >= self.config.hotness_threshold:
            self.consider_recording(interp, frame, pc)

    # -- starting recordings ----------------------------------------------------------

    def consider_recording(
        self, interp, frame: Frame, pc: int, force_hot: bool = False
    ) -> bool:
        code = frame.code
        profiler = self.vm.profiler
        if profiler is not None:
            # Blacklist checks and back-off bookkeeping get their own
            # timeline color (TraceVis showed them separately too).
            from repro.obs.profiler import PHASE_BACKOFF

            profiler.enter(PHASE_BACKOFF)
        try:
            self._charge(costs.BLACKLIST_CHECK)
            allowed = self.blacklist.allows_recording(code, pc)
            if not allowed:
                self.events.emit(eventkind.BACKOFF, code=code.name, pc=pc)
        finally:
            if profiler is not None:
                profiler.exit()
        if not allowed:
            return False
        if not self.cache.has_peer_capacity(code, pc):
            return False
        loop_info = code.loop_at_header(pc)
        if loop_info is None:
            return False
        tree = TraceTree(code, pc, loop_info)
        recorder = Recorder(self.vm, self, tree)
        recorder.init_root(frame)
        self.vm.recorder = recorder
        if profiler is not None:
            profiler.set_recording(True)
        self.events.emit(
            eventkind.RECORD_START, fragment="root", code=code.name, pc=pc
        )
        return True

    def start_branch_recording(self, exit: SideExit) -> None:
        """Begin recording a branch trace at a hot side exit.

        Interpreter state has already been restored to the exit point;
        recording proceeds as the interpreter continues from there.
        """
        recorder = Recorder(
            self.vm, self, exit.tree, is_branch=True, anchor_exit=exit
        )
        recorder.init_branch()
        self.vm.recorder = recorder
        if self.vm.profiler is not None:
            self.vm.profiler.set_recording(True)
        self.events.emit(
            eventkind.RECORD_START,
            fragment="branch",
            code=exit.tree.code.name,
            pc=exit.tree.header_pc,
            exit_id=exit.exit_id,
            exit_kind=exit.kind,
        )

    # -- finishing / aborting -----------------------------------------------------------

    def finish_recording(self, status: str) -> None:
        vm = self.vm
        recorder = vm.recorder
        if recorder is None or recorder.finished:
            return
        recorder.finished = True
        vm.recorder = None
        profiler = vm.profiler
        if profiler is not None:
            from repro.obs.profiler import PHASE_COMPILE

            profiler.set_recording(False)
            profiler.record_lir(recorder.pipe.emitted, len(recorder.pipe.lir))
            profiler.enter(PHASE_COMPILE)
        try:
            self._compile_recording(recorder, status)
        except Exception as error:
            # The compile/link firewall boundary.  Recording was passive
            # and the fragment is not yet reachable, so recovery is pure
            # bookkeeping: retire it, back off the header, and keep
            # interpreting from the loop-header entry state.
            if isinstance(
                error, (JSThrow, GuestFault)
            ) or not self.contain_internal_failure(
                "compile", error, tree=recorder.tree, fragment=recorder.fragment
            ):
                raise
            if recorder.is_branch and recorder.anchor_exit is not None:
                recorder.anchor_exit.recording_blocked = True
        finally:
            if profiler is not None:
                profiler.exit()

    def _compile_recording(self, recorder, status: str) -> None:
        vm = self.vm
        if vm.faults is not None:
            vm.faults.fire(sites.COMPILE_ASSEMBLE)
        tree = recorder.tree
        fragment = recorder.fragment
        lir = recorder.pipe.lir
        vm.stats.ledger.charge(
            Activity.COMPILE, tree.compile_cost(len(lir))
        )
        if recorder.is_branch:
            if not self.cache.has_branch_capacity(tree):
                recorder.anchor_exit.recording_blocked = True
                fragment.retire()
                return
            fragment.bytecount = recorder.bytecodes_recorded
            tree.compile_fragment(fragment, lir, self.config)
            self.events.emit(
                eventkind.COMPILE,
                fragment="branch",
                status=status,
                code=tree.code.name,
                pc=tree.header_pc,
                exit_id=recorder.anchor_exit.exit_id,
                lir=len(fragment.lir),
                native=len(fragment.native),
                code_size=fragment.code_size,
                cse=fragment.opt_stats.cse_removed,
                guards_elim=fragment.opt_stats.guards_eliminated,
                hoisted=fragment.opt_stats.hoisted,
            )
            self.cache.register_branch(tree, fragment)
            recorder.anchor_exit.target = fragment
            # Count the link (see TraceTree.link_version).
            tree.link_version += 1
        else:
            fragment.bytecount = recorder.bytecodes_recorded
            tree.compile_fragment(fragment, lir, self.config)
            self.events.emit(
                eventkind.COMPILE,
                fragment="root",
                status=status,
                code=tree.code.name,
                pc=tree.header_pc,
                lir=len(fragment.lir),
                native=len(fragment.native),
                code_size=fragment.code_size,
                cse=fragment.opt_stats.cse_removed,
                guards_elim=fragment.opt_stats.guards_eliminated,
                hoisted=fragment.opt_stats.hoisted,
            )
            self.cache.register_tree(tree)
        # Nesting forgiveness (Section 4.2): outer loops that aborted on
        # this not-yet-ready tree get their failure undone.
        self.blacklist.note_inner_success(tree.code, tree.header_pc)

    def abort_recording(self, reason: str, inner_key: Optional[tuple] = None) -> None:
        vm = self.vm
        recorder = vm.recorder
        if recorder is None:
            return
        recorder.finished = True
        vm.recorder = None
        if vm.profiler is not None:
            vm.profiler.set_recording(False)
        tree = recorder.tree
        recorder.fragment.retire()
        self.events.emit(
            eventkind.RECORD_ABORT,
            reason=reason,
            fragment="branch" if recorder.is_branch else "root",
            code=tree.code.name,
            pc=tree.header_pc,
        )
        vm.stats.ledger.charge(Activity.RECORD, costs.ABORT_COST)
        if recorder.is_branch:
            # One failed attempt permanently blocks this exit (branch
            # traces are cheap to lose; the loop still runs via its
            # root trace).
            recorder.anchor_exit.recording_blocked = True
            return
        blacklisted = self.blacklist.note_failure(
            tree.code, tree.header_pc, inner_key=inner_key
        )
        self.events.emit(
            eventkind.BACKOFF, code=tree.code.name, pc=tree.header_pc
        )
        if blacklisted:
            tree.code.blacklist_header(tree.header_pc)
            self.cache.invalidate_header(tree.code, tree.header_pc, "blacklist")
            self.events.emit(
                eventkind.BLACKLIST, code=tree.code.name, pc=tree.header_pc
            )

    # -- nesting (Section 4.1) ------------------------------------------------------------

    def _handle_inner_header(self, interp, frame: Frame, pc: int, recorder) -> None:
        vm = self.vm
        code = frame.code
        if not self.config.enable_nesting:
            self.abort_recording("nested-loop-nesting-disabled")
            return
        inner = self.find_matching_tree(interp, frame, pc)
        if inner is None:
            # Abort the outer recording and immediately try to record
            # the inner loop ("The trace monitor will see the inner loop
            # header, and will immediately start recording").
            self.abort_recording(
                "inner-tree-not-ready", inner_key=(id(code), pc)
            )
            if code.loop_at_header(pc) is not None:
                self.consider_recording(interp, frame, pc, force_hot=True)
            return
        depth_before = len(interp.frames)
        event = self.execute_tree(interp, frame, inner, depth_before - 1)
        if event is None or recorder.finished:
            # The firewall contained an inner-tree failure (aborting the
            # outer recording with it); resume interpreting.
            return
        clean = (
            event.exit.kind == exitkind.LOOP
            and event.exit.depth == 0
            and event.exception is None
            and len(interp.frames) == depth_before
        )
        if not clean:
            # "If this happens during recording, we abort the outer
            # trace, to give the inner tree a chance to finish growing"
            # — abort (with forgiveness registered on the inner header)
            # and immediately let the inner exit grow its branch trace.
            self.abort_recording(
                "inner-tree-side-exit", inner_key=(id(code), pc)
            )
            grow_exit = event.exit
            if event.inner is not None:
                grow_exit = event.inner.exit
            if grow_exit.kind in _BRANCHABLE_EXIT_KINDS:
                self._maybe_branch(interp, len(interp.frames) - 1, grow_exit)
            return
        try:
            recorder.record_calltree(inner, event, pc)
        except Exception as error:
            from repro.errors import TraceAbort

            if isinstance(error, TraceAbort):
                self.abort_recording(error.reason)
                return
            raise

    # -- trace cache ---------------------------------------------------------------------

    def find_matching_tree(self, interp, frame: Frame, pc: int) -> Optional[TraceTree]:
        peers = self.cache.peers(frame.code, pc)
        if not peers:
            return None
        vm = self.vm
        frames = interp.frames
        base_index = len(frames) - 1
        for tree in peers:
            self._charge(
                costs.TYPEMAP_MATCH_PER_SLOT
                * (len(tree.entry_typemap) + len(tree.global_imports))
            )
            if self._tree_matches(tree, frames, base_index):
                return tree
        return None

    def _tree_matches(self, tree: TraceTree, frames, base_index: int) -> bool:
        vm = self.vm
        if not entry_matches(vm, frames, base_index, tree.entry_typemap):
            return False
        for name, _gslot, trace_type in tree.global_imports:
            actual = type_of_box(vm.globals.get(name, UNDEFINED))
            if actual is trace_type:
                continue
            if trace_type is TraceType.DOUBLE and actual is TraceType.INT:
                continue
            return False
        return True

    # -- trace execution --------------------------------------------------------------------

    def execute_tree(
        self, interp, frame: Frame, tree: TraceTree, base_index: int
    ) -> Optional[ExitEvent]:
        """Import state, run the tree's native code, restore at the exit.

        Type-unstable exits pass straight into a peer tree (the paper's
        Figure 6 linked groups) inside :meth:`_enter_and_run_tree`.  One
        that cannot link is restored here and chained into whichever
        peer then matches the interpreter's state, without bouncing
        through the interpreter's dispatch loop.

        Returns ``None`` when the firewall contained an internal failure
        (the interpreter was restored to the last committed state).
        """
        while True:
            event = self._execute_tree_once(interp, frame, tree, base_index)
            if event is None:
                # The firewall contained a native-phase failure and
                # restored the interpreter; nothing further to chain.
                return None
            exit = event.exit
            if (
                exit.kind != exitkind.UNSTABLE
                or event.exception is not None
                or self.vm.recorder is not None
            ):
                return event
            peer = self.find_matching_tree(interp, interp.frames[-1], exit.pc)
            if peer is None:
                return event
            # Restoration left the interpreter exactly at the loop
            # header; enter the complementary tree immediately.
            self.events.emit(
                eventkind.UNSTABLE_LINK,
                code=peer.code.name,
                pc=peer.header_pc,
                exit_id=exit.exit_id,
            )
            frame = interp.frames[-1]
            tree = peer
            base_index = len(interp.frames) - 1

    def _execute_tree_once(
        self, interp, frame: Frame, tree: TraceTree, base_index: int
    ) -> Optional[ExitEvent]:
        # ``state`` lets the except clause distinguish a failure during
        # native execution (roll back to the machine's commit snapshot)
        # from one during exit handling (frames already restored to the
        # exit state — rolling back would replay committed effects).
        state = {"machine": None, "phase": "enter"}
        try:
            return self._enter_and_run_tree(interp, frame, tree, base_index, state)
        except Exception as error:
            if isinstance(error, (JSThrow, GuestFault)):
                raise
            firewall = self.firewall
            if not firewall.enabled:
                raise
            machine = state["machine"]
            if machine is not None:
                # After a link, the peer's machine holds the commit.
                tree = machine.tree
                if state["phase"] != "exit":
                    try:
                        self._rollback_to_commit(interp, tree, base_index, machine)
                    except Exception:
                        pass  # last-ditch: containment still proceeds
            if not firewall.contain("native", error, tree=tree):
                raise
            return None

    def _enter_and_run_tree(
        self, interp, frame: Frame, tree: TraceTree, base_index: int, state: dict
    ) -> ExitEvent:
        from repro.jit.native import ActivationRecord, GlobalArea, NativeMachine

        vm = self.vm
        if vm.faults is not None:
            vm.faults.fire(sites.NATIVE_ENTRY)
        stats = vm.stats
        stats.tracing.trace_entries += 1
        area = GlobalArea()
        ar = ActivationRecord(tree.ar_size, area)
        frames = interp.frames
        import_cycles = costs.TRACE_CALL
        for loc, trace_type in tree.entry_typemap:
            box = read_location(vm, frames, base_index, loc)
            ar.slots[tree.slot_of_loc[loc]] = unbox_for_type(box, trace_type)
            import_cycles += costs.AR_IMPORT_PER_SLOT
        self._charge(import_cycles)
        machine = NativeMachine(vm, tree, ar)
        state["machine"] = machine
        if not machine.ensure_globals(tree):
            raise VMInternalError("tree matched but globals failed to import")
        machine.take_commit()
        state["phase"] = "run"
        while True:
            event = self._run_native(machine)
            exit = event.exit
            if (
                exit.kind != _UNSTABLE
                or event.exception is not None
                or vm.recorder is not None
            ):
                break
            peer_machine = self._link_peer(machine, exit)
            if peer_machine is None:
                break
            # The peer's machine holds the commit a failure rolls back to.
            machine = state["machine"] = peer_machine
            exit.hit_count += 1
            peer = machine.tree
            self.events.emit(
                eventkind.UNSTABLE_LINK,
                code=peer.code.name,
                pc=peer.header_pc,
                exit_id=exit.exit_id,
            )
        state["phase"] = "exit"
        self.handle_exit_event(interp, event, base_index)
        return event

    def _run_native(self, machine) -> ExitEvent:
        """Run ``machine``'s tree from its root to an exit."""
        vm = self.vm
        tree = machine.tree
        vm.trace_reentered = False
        vm.native_depth += 1
        profiler = vm.profiler
        if profiler is None:
            try:
                return machine.run(tree.fragment)
            finally:
                vm.native_depth -= 1
        from repro.obs.profiler import PHASE_NATIVE

        ledger = vm.stats.ledger
        cycles_before = ledger.total
        iters_before = tree.iterations
        wall_before = time.perf_counter()
        profiler.enter(PHASE_NATIVE)
        try:
            return machine.run(tree.fragment)
        finally:
            vm.native_depth -= 1
            profiler.exit()
            profiler.record_tree_run(
                tree,
                ledger.total - cycles_before,
                tree.iterations - iters_before,
                wall=time.perf_counter() - wall_before,
                backend=machine.backend_used,
            )

    def _link_peer(self, machine, exit: SideExit):
        """Pass ``exit``, a type-unstable exit taken outside a recording,
        straight into a peer tree: returns the peer's machine, or None
        to send the exit through the monitor.

        The peer is the first in cache order whose entry map accepts the
        exit's livemap types (:meth:`TraceTree.link_from`, worked out
        once per exit and peer, like a stitch's target) and whose global
        imports accept the global area.  Only live peers are in the
        cache, so a peer a flush, an invalidation or blacklisting retired
        is never entered.  Choosing costs no simulated cycles, so a
        preloaded tree, which works its links out again, bills the same.
        """
        if exit.frames or exit.stack_depth0:
            return None
        for peer in self.cache.peers(exit.tree.code, exit.pc):
            link = peer.link_from(exit)
            if link is not None:
                widens = machine.global_widens(peer)
                if widens is not None:
                    return machine.enter_peer(link, widens)
        return None

    def _rollback_to_commit(
        self, interp, tree: TraceTree, base_index: int, machine
    ) -> None:
        """Restore the interpreter to the machine's last committed state.

        At trace entry and at every loop back-edge the AR slots of the
        entry type map hold exactly the interpreter-visible values and
        the frames are untouched since entry, so re-boxing the snapshot
        through the entry type map and flushing the snapshot's global
        area is semantics-preserving.  Partial-iteration effects past
        the commit are discarded; the anchor pc is left alone (the
        interpreter re-dispatches from the loop header).
        """
        if machine.commit is None:
            return  # nothing ran since entry; frames are untouched
        slots, values, types, dirty = machine.commit
        area = machine.ar.globals
        area.values = values
        area.types = types
        area.dirty = dirty
        frames = interp.frames
        del frames[base_index + 1:]
        anchor = frames[base_index]
        for (loc, trace_type), raw in zip(tree.entry_typemap, slots):
            box = box_for_type(raw, trace_type)
            kind = loc[0]
            if kind == "local":
                anchor.locals[loc[2]] = box
            elif kind == "this":
                anchor.this_box = box
            else:  # defensive: root entry maps hold only locals + this
                index = loc[2]
                while len(anchor.stack) <= index:
                    anchor.stack.append(UNDEFINED)
                anchor.stack[index] = box
        self._charge(area.flush(self.vm))

    # -- exit handling -----------------------------------------------------------------------

    def handle_exit_event(self, interp, event: ExitEvent, base_index: int) -> None:
        vm = self.vm
        exit = event.exit
        self.events.emit(
            eventkind.SIDE_EXIT,
            exit_id=exit.exit_id,
            exit_kind=exit.kind,
            pc=exit.pc,
            depth=exit.depth,
        )
        if vm.profiler is not None:
            vm.profiler.record_side_exit(exit)
        exit.hit_count += 1
        # Flush dirty globals (the only channel global writes take).
        self._charge(event.ar.globals.flush(vm))
        try:
            self._restore_state(interp, event, base_index)
        except Exception as error:
            if isinstance(error, (JSThrow, GuestFault)) or not self.firewall.enabled:
                raise
            # The restore firewall boundary.  _restore_state is two-
            # phase (prepare, then non-raising writes) and idempotent,
            # so a failure between unboxing and frame writeback left the
            # frames untouched: retry once with injection suspended
            # (an injected fault's hit already counted), then fall back
            # to a best-effort structural restore.
            faults = vm.faults
            if faults is not None:
                faults.suspended += 1
            try:
                try:
                    self._restore_state(interp, event, base_index)
                except Exception:
                    self._restore_minimal(interp, event, base_index)
            finally:
                if faults is not None:
                    faults.suspended -= 1
            self.firewall.contain("restore", error, tree=exit.tree)
        if event.exception is not None:
            raise event.exception
        kind = exit.kind
        if kind == exitkind.PREEMPT:
            vm.service_preemption()
            return
        if kind == exitkind.INNER and event.inner is not None:
            # Hotness is attributed to the *inner* exit; a branch may
            # grow in the inner tree (Section 4.1).
            inner_exit = event.inner.exit
            inner_exit.hit_count += 1
            if inner_exit.kind in _BRANCHABLE_EXIT_KINDS:
                self._maybe_branch(interp, base_index + exit.depth, inner_exit)
            return
        if kind in _BRANCHABLE_EXIT_KINDS:
            self._maybe_branch(interp, base_index, exit)
            return
        if kind == exitkind.ENTRY:
            # A hoisted invariant guard failed in the trunk prologue:
            # the "invariant" no longer holds (e.g. a global was
            # rebound), so the whole header's trees are stale.  Never
            # branch-record here — re-entering the tree would fail the
            # same prologue guard forever; invalidation guarantees
            # progress through re-recording.
            tree = exit.tree
            if tree is not None:
                self.cache.invalidate_header(
                    tree.code, tree.header_pc, "entry-guard"
                )
            return
        # UNSTABLE exits that could not link are chained to a matching
        # peer by execute_tree (Figure 6); LOOP needs nothing further.

    def _maybe_branch(self, interp, base_index: int, exit: SideExit) -> None:
        vm = self.vm
        if (
            vm.recorder is None
            and exit.target is None
            and not exit.recording_blocked
            and exit.tree.fragment.state is not FragmentState.RETIRED
            and exit.hit_count >= self.config.exit_hotness_threshold
        ):
            if not self.cache.has_branch_capacity(exit.tree):
                # The tree is full; block this exit so the cap check
                # (and its event) fires at most once per exit.
                exit.recording_blocked = True
                return
            if exit.result_loc is not None:
                # Pin the actual type the branch will be specialized for
                # (the type guard fired because it differed from the
                # recorded expectation).
                box = read_location(vm, interp.frames, base_index, exit.result_loc)
                exit.branch_result_type = type_of_box(box)
            self.start_branch_recording(exit)

    def _restore_state(self, interp, event: ExitEvent, base_index: int) -> None:
        """Re-box live values and rebuild interpreter frames (Section 6.1).

        Exception-safe and idempotent: phase 1 computes every boxed
        value and frame plan without touching interpreter state, so a
        failure between unboxing and frame writeback (a boxing bug, or
        the ``native.exit-restore`` fault site) leaves the frames
        exactly as they were and the firewall can simply retry; phase 2
        applies the plan with plain list/attribute writes only.
        """
        vm = self.vm
        exit = event.exit
        ar = event.ar
        frames = interp.frames
        anchor = frames[base_index]
        skip_depth = -1
        if exit.kind == exitkind.INNER and event.inner is not None:
            # The nested tree's exit event restores the frame it ran in.
            skip_depth = exit.depth
        cycles = 0
        # -- phase 1: prepare (no interpreter-state mutation) ----------
        by_depth_stack: Dict[int, Dict[int, object]] = {}
        # Synthesize the inlined frames first (locals default undefined).
        synthesized: List[Frame] = []
        for snapshot in exit.frames:
            new_frame = Frame(snapshot.code)
            new_frame.pc = snapshot.resume_pc
            synthesized.append(new_frame)
            cycles += costs.FRAME_SYNTH

        def frame_at(depth: int) -> Frame:
            return anchor if depth == 0 else synthesized[depth - 1]

        writes: List[tuple] = []  # (frame, kind, index, box)
        for loc, trace_type, slot in exit.livemap:
            kind = loc[0]
            if kind == "global":
                continue  # globals travel via the dirty-area flush
            depth = loc[1]
            if depth == skip_depth:
                continue
            if loc == exit.result_loc:
                continue
            box = box_for_type(ar.read(slot), trace_type)
            cycles += costs.AR_EXPORT_PER_SLOT
            if kind == "stack":
                by_depth_stack.setdefault(depth, {})[loc[2]] = box
            else:
                writes.append((frame_at(depth), kind, loc[2] if kind == "local" else None, box))
        # Plan the operand stacks at their recorded depths.
        depths = [exit.stack_depth0] + [s.stack_depth for s in exit.frames]
        stacks: Dict[int, list] = {}
        for depth in range(len(depths)):
            if depth == skip_depth:
                continue
            wanted = depths[depth]
            entries = by_depth_stack.get(depth, {})
            stacks[depth] = [entries.get(i, UNDEFINED) for i in range(wanted)]
        if vm.faults is not None:
            vm.faults.fire(sites.NATIVE_EXIT_RESTORE)
        # -- phase 2: commit (plain writes; nothing here raises) -------
        del frames[base_index + 1 :]
        anchor.pc = exit.anchor_resume_pc
        for target, kind, index, box in writes:
            if kind == "local":
                target.locals[index] = box
            else:  # this
                target.this_box = box
        for depth, stack in stacks.items():
            frame_at(depth).stack[:] = stack
        if exit.result_loc is not None and event.boxed_result is not None:
            loc = exit.result_loc
            target = frame_at(loc[1])
            result_box = event.boxed_result
            index = loc[2]
            while len(target.stack) <= index:
                target.stack.append(UNDEFINED)
            target.stack[index] = result_box
        frames.extend(synthesized)
        self._charge(cycles)
        if event.inner is not None:
            inner_base = base_index + exit.depth
            self._restore_state(interp, event.inner, inner_base)

    def _restore_minimal(self, interp, event: ExitEvent, base_index: int) -> None:
        """Last-ditch structural restore after a doubly-failed
        :meth:`_restore_state`: frames and stacks get their recorded
        shapes; slots that cannot be re-boxed become undefined.  Keeps
        the interpreter runnable (the run is already headed for safe
        mode); per-slot failures are tolerated rather than propagated.
        """
        exit = event.exit
        frames = interp.frames
        del frames[base_index + 1 :]
        anchor = frames[base_index]
        anchor.pc = exit.anchor_resume_pc
        synthesized: List[Frame] = []
        for snapshot in exit.frames:
            new_frame = Frame(snapshot.code)
            new_frame.pc = snapshot.resume_pc
            synthesized.append(new_frame)
        depths = [exit.stack_depth0] + [s.stack_depth for s in exit.frames]
        for depth, frame in enumerate([anchor] + synthesized):
            frame.stack[:] = [UNDEFINED] * depths[depth]
        for loc, trace_type, slot in exit.livemap:
            kind = loc[0]
            if kind == "global":
                continue
            try:
                box = box_for_type(event.ar.read(slot), trace_type)
            except Exception:
                box = UNDEFINED
            target = anchor if loc[1] == 0 else synthesized[loc[1] - 1]
            try:
                if kind == "local":
                    target.locals[loc[2]] = box
                elif kind == "this":
                    target.this_box = box
                elif loc[2] < len(target.stack):
                    target.stack[loc[2]] = box
            except Exception:
                pass
        frames.extend(synthesized)
