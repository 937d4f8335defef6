"""Event counters and execution profiles.

Three consumers:

* the Figure 11 reproduction needs the fraction of dynamic bytecodes
  executed by the interpreter, while recording, and on native traces;
* the evaluation narrative needs tracing-event counts (trees formed,
  branch traces attached, aborts, blacklistings, side exits, ...);
* the trace cache reports its lifecycle (flushes, retired fragments).

Every VM fact has one home: event counts live in the VM stream's tally
(:mod:`repro.core.events`), which :class:`TraceStats` reads by name;
:meth:`TraceStats.apply_event` folds only what is not a count (payload
sums, unstable roots, safe mode); per-iteration figures are plain ints
incremented at their one site.  ``--stats``, the profile's counter
sections and the per-VM metrics families are views of this store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import events as eventkind
from repro.costs import Activity, CycleLedger


@dataclass
class ExecutionProfile:
    """Dynamic bytecode counts by execution mode (Figure 11)."""

    interpreted: int = 0
    recorded: int = 0
    native: int = 0

    @property
    def total(self) -> int:
        return self.interpreted + self.recorded + self.native

    def fraction_native(self) -> float:
        """Fraction of dynamic bytecodes executed on compiled traces."""
        total = self.total
        if total == 0:
            return 0.0
        return self.native / total

    def fraction_recorded(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.recorded / total

    def fraction_interpreted(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.interpreted / total


def _tallied(kind: str, *labels):
    """A read-only :class:`TraceStats` counter: the events of ``kind`` in
    the stream's tally (with ``labels``, only those under that key)."""

    def count(stats) -> int:
        by_label = stats.tally.get(kind, {})
        return by_label.get(labels, 0) if labels else sum(by_label.values())

    return property(count)


@dataclass
class TraceStats:
    """Counters for tracing events.

    The event counters (recordings, compiles, links, side exits,
    blacklistings, cache flushes, ...) read the tally of the stream
    :meth:`attach` bound; the rest are plain ints.
    """

    #: The bound stream's tally (see :meth:`attach`).
    tally: Dict[str, Dict[tuple, int]] = field(default_factory=dict)
    loops_seen: int = 0
    #: Monitor lookups at a loop header that found a matching tree (the
    #: lookups that found none are ``loops_seen``).
    lookup_hits: int = 0
    unstable_traces: int = 0
    tree_calls_recorded: int = 0
    tree_calls_executed: int = 0
    trace_entries: int = 0
    #: Transfers into a branch trace through the backend driver's
    #: stitch (``NativeMachine._stitch``): every stitch of the step
    #: machine and of a py function that did not inline the branch
    #: (every py stitch of a cold run).
    driver_transfers: int = 0
    #: Transfers into a branch trace inlined in the generated function
    #: (py backend; only a function built when the branch was already
    #: linked, such as a warm start's trunk, inlines it).
    direct_transfers: int = 0
    loop_iterations_native: int = 0
    oracle_marks: int = 0
    #: Whole-trace optimizer removal counters (folded from COMPILE
    #: event payloads, so both backends agree byte-for-byte).
    opt_cse_removed: int = 0
    opt_guards_eliminated: int = 0
    opt_hoisted: int = 0
    #: Simulated native code bytes emitted (COMPILE payload sum).
    compiled_code_bytes: int = 0
    #: Flush reason -> fragments those flushes retired (FLUSH payload sum).
    flush_retired: Dict[str, int] = field(default_factory=dict)
    #: Python functions compiled by the py backend, each fragment's
    #: once: builds of a trunk whose tree has no links yet and of every
    #: branch, and builds of a trunk whose tree already has links (a
    #: store preload), which inline them.
    pycompile_fragments: int = 0
    pycompile_tree_builds: int = 0
    safe_mode: bool = False

    recordings_started = _tallied(eventkind.RECORD_START)
    traces_completed = _tallied(eventkind.COMPILE)
    traces_aborted = _tallied(eventkind.RECORD_ABORT)
    trees_formed = _tallied(eventkind.COMPILE, "root")
    branch_traces = _tallied(eventkind.COMPILE, "branch")
    unstable_links = _tallied(eventkind.UNSTABLE_LINK)
    side_exits_taken = _tallied(eventkind.SIDE_EXIT)
    blacklisted = _tallied(eventkind.BLACKLIST)
    backoffs = _tallied(eventkind.BACKOFF)
    fragments_linked = _tallied(eventkind.LINK)
    cache_flushes = _tallied(eventkind.FLUSH)
    peer_overflows = _tallied(eventkind.PEER_OVERFLOW)
    branch_caps = _tallied(eventkind.BRANCH_CAP)
    internal_failures = _tallied(eventkind.JIT_INTERNAL_FAILURE)
    faults_injected = _tallied(eventkind.FAULT_INJECTED)
    script_deadlines = _tallied(eventkind.SCRIPT_DEADLINE)
    quota_breaches = _tallied(eventkind.QUOTA_EXCEEDED)
    script_cancels = _tallied(eventkind.SCRIPT_CANCELLED)
    jobs_retried = _tallied(eventkind.JOB_RETRIED)

    def attach(self, stream) -> None:
        """Read event counts from ``stream``'s tally and fold its payload
        sums (called once, by the VM that owns both)."""
        self.tally = stream.tally
        stream.subscribe(self.apply_event)

    @property
    def stitched_transfers(self) -> int:
        """Every transfer into a branch trace that stayed native."""
        return self.driver_transfers + self.direct_transfers

    @property
    def fragments_retired(self) -> int:
        """Fragments retired by whole-cache flushes."""
        return sum(self.flush_retired.values())

    @property
    def abort_reasons(self) -> Dict[str, int]:
        """Recording aborts per reason, in first-seen order."""
        return {
            key[0]: count
            for key, count in self.tally.get(eventkind.RECORD_ABORT, {}).items()
        }

    @property
    def guest_faults(self) -> int:
        """Total resource-policy violations by the guest program."""
        return self.script_deadlines + self.quota_breaches + self.script_cancels

    def top_abort_reasons(self, limit: int = 3) -> List[tuple]:
        """The most frequent abort reasons, ``(reason, count)`` pairs."""
        ranked = sorted(
            self.abort_reasons.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:limit]

    # -- the payload fold --------------------------------------------------------

    def apply_event(self, event) -> None:
        """Fold what one event carries beyond its count."""
        kind = event.kind
        if kind == eventkind.COMPILE:
            payload = event.payload
            self.opt_cse_removed += payload.get("cse", 0)
            self.opt_guards_eliminated += payload.get("guards_elim", 0)
            self.opt_hoisted += payload.get("hoisted", 0)
            self.compiled_code_bytes += payload.get("code_size", 0)
            if payload["fragment"] == "root" and payload.get("status") == "unstable":
                self.unstable_traces += 1
        elif kind == eventkind.FLUSH:
            reason = event.payload.get("reason", "?")
            self.flush_retired[reason] = (
                self.flush_retired.get(reason, 0)
                + event.payload.get("fragments", 0)
            )
        elif kind == eventkind.SAFE_MODE:
            self.safe_mode = True


@dataclass
class VMStats:
    """Everything a run of the VM measures, in one bag."""

    ledger: CycleLedger = field(default_factory=CycleLedger)
    profile: ExecutionProfile = field(default_factory=ExecutionProfile)
    tracing: TraceStats = field(default_factory=TraceStats)
    #: The attached :class:`repro.obs.profiler.PhaseProfiler`, when the
    #: VM enabled profiling (set by :meth:`repro.vm.VM.enable_profiling`).
    profiler: object = None

    @property
    def total_cycles(self) -> int:
        return self.ledger.total

    def time_breakdown(self) -> dict:
        """Per-activity cycle fractions (Figure 12 rows).

        When a phase profiler is attached the fractions come from its
        transition-accounted phase timeline (the authoritative source —
        independent counters can drift); otherwise from the raw ledger.
        Either way the fractions partition the run: they sum to 1.0
        whenever any cycles were spent.
        """
        profiler = self.profiler
        if profiler is not None and profiler.total_cycles > 0:
            return profiler.activity_fractions()
        fractions = {
            activity.value: self.ledger.fraction(activity) for activity in Activity
        }
        total = sum(fractions.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9, \
            "activity fractions must partition the run"
        return fractions

    def summary_lines(self) -> list:
        """Human-readable multi-line summary for examples and the CLI."""
        lines = [
            f"total simulated cycles : {self.total_cycles:,}",
            "cycle breakdown        : "
            + ", ".join(
                f"{name}={frac:.1%}" for name, frac in self.time_breakdown().items()
            ),
            f"dynamic bytecodes      : {self.profile.total:,} "
            f"(native {self.profile.fraction_native():.1%}, "
            f"interpreted {self.profile.fraction_interpreted():.1%}, "
            f"recorded {self.profile.fraction_recorded():.1%})",
            f"trees formed           : {self.tracing.trees_formed} "
            f"(+{self.tracing.branch_traces} branch traces)",
            f"recordings             : {self.tracing.recordings_started} started, "
            f"{self.tracing.traces_completed} completed, "
            f"{self.tracing.traces_aborted} aborted",
            f"side exits taken       : {self.tracing.side_exits_taken} "
            f"({self.tracing.stitched_transfers} stitched)",
            f"blacklisted fragments  : {self.tracing.blacklisted}",
        ]
        if (
            self.tracing.opt_cse_removed
            or self.tracing.opt_guards_eliminated
            or self.tracing.opt_hoisted
        ):
            lines.append(
                f"trace optimizer        : "
                f"{self.tracing.opt_cse_removed} instructions CSE'd, "
                f"{self.tracing.opt_guards_eliminated} guards eliminated, "
                f"{self.tracing.opt_hoisted} ops hoisted"
            )
        if self.tracing.cache_flushes:
            lines.append(
                f"code cache             : {self.tracing.cache_flushes} flushes, "
                f"{self.tracing.fragments_retired} fragments retired"
            )
        if (
            self.tracing.internal_failures
            or self.tracing.faults_injected
            or self.tracing.safe_mode
        ):
            lines.append(
                f"jit firewall           : "
                f"{self.tracing.internal_failures} internal failures contained, "
                f"{self.tracing.faults_injected} faults injected, "
                f"safe mode {'entered' if self.tracing.safe_mode else 'not entered'}"
            )
        if self.tracing.guest_faults or self.tracing.jobs_retried:
            lines.append(
                f"guest faults           : "
                f"{self.tracing.script_deadlines} deadlines, "
                f"{self.tracing.quota_breaches} quota breaches, "
                f"{self.tracing.script_cancels} cancellations, "
                f"{self.tracing.jobs_retried} jobs retried"
            )
        if self.tracing.abort_reasons:
            top = self.tracing.top_abort_reasons()
            remainder = len(self.tracing.abort_reasons) - len(top)
            reasons = ", ".join(f"{reason}×{count}" for reason, count in top)
            if remainder > 0:
                reasons += f" (+{remainder} more)"
            lines.append(f"top abort reasons      : {reasons}")
        return lines
