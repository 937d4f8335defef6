"""Span-based job tracing: the lifecycle as a causally-linked tree.

The profiler's timeline shows *phases of one VM*; a serving tier needs
the orthogonal cut: *what happened to one job* — how long it waited in
the queue, which attempt ran, where its cycles went, which deopts and
retries punctuated it.  This module records that as spans:

* a **span** is a named interval on a track (job, attempt, phase) with
  a parent, opened and closed by hooks in the supervisor and VM;
* an **instant** is a point event (side exit, abort, flush, guest
  fault, retry) drawn from the existing event stream by a subscriber;
* the VM's **phase spans** (interpret/record/compile/native/...) are
  not re-instrumented — they are derived from the phase profiler's
  retained timeline intervals, so both views share one source of truth.

Timestamps are **simulated cycles rendered as microseconds** (1 cycle =
1 µs), which makes exports deterministic and testable; the real
wall-clock of each span rides along in its ``args``.  The recorder
charges zero simulated cycles and every hook is skipped when
``vm.span_recorder is None`` (the default) — the same disabled-contract
as the profiler and the metrics registry.

Export is Chrome trace-event JSON (the *JSON object format*:
``{"schema_version": ..., "traceEvents": [...]}``), loadable directly
in Perfetto / ``chrome://tracing`` (``--trace-export``).  The ASCII /
HTML timeline from PR 2 is unchanged — this is an additional exporter,
not a replacement.  See docs/INTERNALS.md section 14 for the schema.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional

from repro.core import events as eventkind

#: Version of the span-export JSON document (see INTERNALS §14).
SPANS_SCHEMA_VERSION = 1

#: Synthetic process id: one simulated VM == one Chrome-trace process.
PID = 1

#: Chrome-trace thread ids, one per track.  Jobs and their queue waits
#: nest on one track; the VM's phase timeline and instant events get
#: their own so Perfetto lays them out as parallel lanes.
TRACK_JOBS = 1
TRACK_PHASES = 2
TRACK_EVENTS = 3

_TRACK_NAMES = {
    TRACK_JOBS: "jobs",
    TRACK_PHASES: "vm-phases",
    TRACK_EVENTS: "events",
}

#: Event kinds folded into instant markers on TRACK_EVENTS, with the
#: payload fields worth carrying into the marker args.
_INSTANT_KINDS = {
    eventkind.SIDE_EXIT: ("deopt", ("exit_kind", "exit_id", "pc")),
    eventkind.RECORD_ABORT: ("record-abort", ("reason", "fragment")),
    eventkind.BLACKLIST: ("blacklist", ("code", "pc")),
    eventkind.FLUSH: ("cache-flush", ("reason", "fragments")),
    eventkind.JIT_INTERNAL_FAILURE: ("firewall-trip", ("boundary", "error")),
    eventkind.SAFE_MODE: ("safe-mode", ()),
    eventkind.SCRIPT_DEADLINE: ("deadline", ("used", "limit")),
    eventkind.QUOTA_EXCEEDED: ("quota-breach", ("resource", "used", "limit")),
    eventkind.SCRIPT_CANCELLED: ("cancelled", ()),
    eventkind.JOB_RETRIED: ("job-retried", ("job", "tenant", "attempt")),
    eventkind.TENANT_PROBATION: ("tenant-probation", ("tenant", "phase")),
    eventkind.JOB_SHED: ("job-shed", ("job", "tenant", "reason")),
    eventkind.WORKER_ONLINE: ("worker-online", ("worker", "replaces")),
    eventkind.WORKER_RESPAWN: ("worker-respawn", ("worker", "reason", "job")),
}


class Span:
    """One open or closed interval; cycles are the canonical timebase."""

    __slots__ = (
        "span_id", "name", "cat", "track", "parent_id",
        "cycle0", "cycle1", "wall0", "wall1", "args",
    )

    def __init__(self, span_id, name, cat, track, parent_id,
                 cycle0, wall0, args):
        self.span_id = span_id
        self.name = name
        self.cat = cat
        self.track = track
        self.parent_id = parent_id
        self.cycle0 = cycle0
        self.cycle1: Optional[int] = None
        self.wall0 = wall0
        self.wall1: Optional[float] = None
        self.args = args

    @property
    def closed(self) -> bool:
        return self.cycle1 is not None


class SpanRecorder:
    """Collects spans and instants for one VM; zero simulated cycles.

    Attach with :meth:`repro.vm.VM.enable_span_tracing` (which also
    turns on the phase profiler's timeline so phase spans exist to
    derive).  The supervisor opens job / queue-wait / attempt spans; the
    event-stream fold adds instant markers; the exporter merges in the
    profiler's phase intervals.
    """

    def __init__(self, vm, max_spans: int = 100_000,
                 max_instants: int = 100_000):
        self.vm = vm
        self.max_spans = max_spans
        self.max_instants = max_instants
        self.spans: List[Span] = []
        self.instants: List[tuple] = []  # (cycles, name, args)
        self.truncated = False
        self._next_id = 1
        self._wall = time.perf_counter
        #: tid -> lane name for the exported trace.
        self.track_names = dict(_TRACK_NAMES)

    # -- clock -------------------------------------------------------------------

    def now(self) -> int:
        """Current simulated-cycle timestamp (the canonical timebase)."""
        return self.vm.stats.ledger.total

    # -- spans -------------------------------------------------------------------

    def open(self, name: str, cat: str = "job", track: int = TRACK_JOBS,
             parent_id: Optional[int] = None, at: Optional[int] = None,
             **args) -> int:
        """Open a span; returns its id (0 when the recorder is full)."""
        if len(self.spans) >= self.max_spans:
            self.truncated = True
            return 0
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(
            Span(span_id, name, cat, track, parent_id,
                 self.now() if at is None else at, self._wall(), args)
        )
        return span_id

    def close(self, span_id: int, at: Optional[int] = None, **args) -> None:
        if span_id == 0:
            return
        for span in reversed(self.spans):
            if span.span_id == span_id:
                span.cycle1 = self.now() if at is None else at
                span.wall1 = self._wall()
                if args:
                    span.args.update(args)
                return

    def instant(self, name: str, at: Optional[int] = None, **args) -> None:
        if len(self.instants) >= self.max_instants:
            self.truncated = True
            return
        self.instants.append(
            (self.now() if at is None else at, name, args)
        )

    # -- the event fold ----------------------------------------------------------

    def apply_event(self, event) -> None:
        """Draw one trace event as an instant marker (subscribed by
        ``enable_span_tracing``)."""
        mapping = _INSTANT_KINDS.get(event.kind)
        if mapping is None:
            return
        name, fields = mapping
        args = {
            field: event.payload[field]
            for field in fields
            if field in event.payload
        }
        self.instant(name, **args)

    # -- export ------------------------------------------------------------------

    def to_chrome_trace(self, profiler=None, program: Optional[str] = None) -> dict:
        """The Chrome trace-event JSON object (schema v1).

        ``ts``/``dur`` are simulated cycles as microseconds; wall-clock
        milliseconds ride in ``args``.  ``profiler`` (when given and
        timeline-capturing) contributes the VM phase lane.
        """
        trace_events: List[dict] = [
            {
                "ph": "M", "name": "process_name", "pid": PID, "tid": 0,
                "args": {"name": program or "repro-vm"},
            }
        ]
        for tid, name in sorted(self.track_names.items()):
            trace_events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": PID, "tid": tid,
                    "args": {"name": name},
                }
            )
        end = self.now()
        for span in self.spans:
            cycle1 = span.cycle1 if span.cycle1 is not None else end
            args = dict(span.args)
            if span.wall1 is not None:
                args["wall_ms"] = round((span.wall1 - span.wall0) * 1000, 3)
            if span.parent_id is not None:
                args["parent_span"] = span.parent_id
            if not span.closed:
                args["unclosed"] = True
            trace_events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.cat,
                    "pid": PID,
                    "tid": span.track,
                    "ts": span.cycle0,
                    "dur": max(cycle1 - span.cycle0, 0),
                    "id": span.span_id,
                    "args": args,
                }
            )
        if profiler is not None and getattr(profiler, "intervals", None):
            for phase, cycle0, cycle1, wall0, wall1 in profiler.intervals:
                trace_events.append(
                    {
                        "ph": "X",
                        "name": phase,
                        "cat": "vm-phase",
                        "pid": PID,
                        "tid": TRACK_PHASES,
                        "ts": cycle0,
                        "dur": max(cycle1 - cycle0, 0),
                        "args": {
                            "wall_ms": round((wall1 - wall0) * 1000, 3),
                        },
                    }
                )
        for cycles, name, args in self.instants:
            trace_events.append(
                {
                    "ph": "i",
                    "name": name,
                    "cat": "event",
                    "pid": PID,
                    "tid": TRACK_EVENTS,
                    "ts": cycles,
                    "s": "t",
                    "args": args,
                }
            )
        return {
            "schema_version": SPANS_SCHEMA_VERSION,
            "displayTimeUnit": "ms",
            "otherData": {
                "timebase": "simulated-cycles-as-microseconds",
                "truncated": self.truncated,
            },
            "traceEvents": trace_events,
        }


class FleetSpanRecorder(SpanRecorder):
    """Span recorder for the batch lanes of
    :class:`repro.exec.supervisor.Supervisor`.

    A batch outlives any one simulated-cycle ledger — a respawn starts
    a fresh VM — so its canonical timebase is **host wall-clock
    microseconds since the recorder was created** (batch scheduling is
    the one layer of the system that legitimately lives on host time).
    Its lanes are the job attempts and the scheduler's instants.  Each
    VM's queue-wait, job and phase spans stay on that VM's own
    :class:`SpanRecorder`, and
    :meth:`repro.exec.supervisor.Supervisor.chrome_trace` joins them.
    """

    def __init__(self, clock=None, max_spans: int = 100_000,
                 max_instants: int = 100_000):
        super().__init__(vm=None, max_spans=max_spans,
                         max_instants=max_instants)
        self._clock = clock if clock is not None else time.perf_counter
        self._t0 = self._clock()
        self.track_names = {
            TRACK_JOBS: "jobs",
            TRACK_EVENTS: "events",
        }

    def now(self) -> int:
        """Wall-clock microseconds since the recorder was created."""
        return max(0, int((self._clock() - self._t0) * 1_000_000))


def write_chrome_trace(doc: dict, path: str) -> None:
    """Write a Chrome trace document (see :meth:`SpanRecorder.to_chrome_trace`)."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
