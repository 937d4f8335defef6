"""Structured trace-lifecycle event stream.

Every decision the trace machinery makes — starting/aborting a
recording, compiling and linking a fragment, taking a side exit,
blacklisting a header, flushing the code cache — is emitted as one
:class:`TraceEvent` on the VM's :class:`EventStream`.  The stream is
the single observability seam for the JIT:

* every emission updates the stream's **tally** (per kind, broken down
  by the payload fields :data:`TALLY_LABELS` names), the one home of
  every event count: :class:`repro.stats.TraceStats` and the metrics
  families read their event counts from it;
* the CLI's ``--events`` / ``--dump-events`` flags retain the events
  and export them as JSONL for offline analysis;
* tests and benchmarks subscribe ad hoc to assert on exact sequences.

Events are tallied and dispatched to subscribers unconditionally but
only *retained* when ``capture`` is set, so hot workloads do not
accumulate unbounded history by default.  Payloads are restricted to
JSON-scalar values (str/int/float/bool/None) so every event serializes
losslessly.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Version of the exported JSONL event records, carried on every record
#: so offline consumers can detect format changes (see
#: docs/INTERNALS.md for the schema).  History: 1 = unversioned records
#: (PR 1); 2 = adds this field; 3 = adds the firewall kinds
#: (jit-internal-failure, safe-mode-entered, fault-injected); 4 = adds
#: the supervisor kinds (script-deadline, quota-exceeded,
#: script-cancelled, job-retried); 5 = compile records carry the
#: whole-trace optimizer's removal counters (cse, guards_elim,
#: hoisted); 6 = adds the fleet kinds (job-shed, worker-online,
#: worker-respawn, and a work-stealing kind that one-VM batches no
#: longer emit) and the supervisor's tenant-probation kind; 7 = adds
#: the persistent trace-store kinds (store-save, store-load,
#: store-fallback) and the fleet's worker-warm-start kind.
EVENT_SCHEMA_VERSION = 7

# -- event kinds -----------------------------------------------------------------

#: A recording started (root or branch).
RECORD_START = "record-start"
#: A recording was abandoned; payload carries the abort reason.
RECORD_ABORT = "record-abort"
#: A fragment finished compiling (whole-trace optimizer + codegen).
COMPILE = "compile"
#: A compiled fragment was linked into the cache (root registered as a
#: peer tree / branch patched onto its guard).
LINK = "link"
#: A compiled trace returned to the monitor through a side exit.
SIDE_EXIT = "side-exit"
#: A loop header was blacklisted (its LOOPHEADER patched to a NOP).
BLACKLIST = "blacklist"
#: The whole code cache was flushed (budget overflow or explicit).
FLUSH = "flush"
#: A header is backing off after a recording failure / blacklist check.
BACKOFF = "backoff"
#: A header already has ``max_peer_trees`` peers; recording refused.
PEER_OVERFLOW = "peer-overflow"
#: A tree already has ``max_branch_traces`` branches; branch refused.
BRANCH_CAP = "branch-cap"
#: A type-unstable exit chained directly into a complementary peer.
UNSTABLE_LINK = "unstable-link"
#: The JIT firewall contained an internal failure at a phase boundary
#: (payload: boundary, error type, header, whether it was injected).
JIT_INTERNAL_FAILURE = "jit-internal-failure"
#: The safe-mode circuit breaker tripped: tracing is off for the rest
#: of the run.
SAFE_MODE = "safe-mode-entered"
#: The chaos harness injected a fault (payload: site, hit count).
FAULT_INJECTED = "fault-injected"
#: The script overran its simulated-cycle deadline (payload: used,
#: limit; delivery happens at the next loop-edge safe point).
SCRIPT_DEADLINE = "script-deadline"
#: The script overran a resource quota (payload: resource, used, limit).
QUOTA_EXCEEDED = "quota-exceeded"
#: The host (or a deterministic cancellation point) cancelled the script.
SCRIPT_CANCELLED = "script-cancelled"
#: The supervisor re-queued a job whose quota breach coincided with
#: trace-cache pressure (payload: job, attempt, backoff).
JOB_RETRIED = "job-retried"
#: A degraded tenant changed probation state (payload: tenant, phase =
#: enter / restored / redegraded).
TENANT_PROBATION = "tenant-probation"
#: The fleet refused a job without running it (payload: job, tenant,
#: reason = rate / queue-full / deadline).
JOB_SHED = "job-shed"
#: A batch VM came online (payload: worker = its id, replaces=None for
#: the first VM, or the dead VM's id on a respawn).
WORKER_ONLINE = "worker-online"
#: The batch VM was declared dead and replaced (payload: worker = its
#: id, reason = crash / hang, job = the in-flight job id or None).
WORKER_RESPAWN = "worker-respawn"
#: The persistent trace store wrote one entry (payload: source,
#: trees, fragments, bytes, evicted = entries evicted by the budget).
STORE_SAVE = "store-save"
#: A trace-store preload finished for one source (payload: source,
#: result = hit / miss, fragments = count linked on a hit).
STORE_LOAD = "store-load"
#: The trace store degraded to cold tracing (payload: boundary =
#: store.load / store.save, reason, source) — always paired with a
#: ``jit-internal-failure`` record carrying the contained error.
STORE_FALLBACK = "store-fallback"
#: A replacement batch VM warm-started from the trace store (payload:
#: worker, sources, fragments).
WORKER_WARM_START = "worker-warm-start"

#: Event kind -> the payload fields its tally is broken down by, in the
#: label order of the metrics family the kind feeds (see
#: :mod:`repro.obs.metrics`).  A missing field tallies as ``"?"``; kinds
#: not listed are tallied per kind only (under the empty key).
TALLY_LABELS = {
    SIDE_EXIT: ("exit_kind",),
    RECORD_START: ("fragment",),
    RECORD_ABORT: ("reason",),
    COMPILE: ("fragment",),
    LINK: ("fragment",),
    FLUSH: ("reason",),
    JIT_INTERNAL_FAILURE: ("boundary",),
    FAULT_INJECTED: ("site",),
    QUOTA_EXCEEDED: ("resource",),
    JOB_RETRIED: ("tenant",),
    TENANT_PROBATION: ("tenant", "phase"),
    JOB_SHED: ("tenant", "reason"),
    WORKER_RESPAWN: ("reason",),
    STORE_LOAD: ("result",),
    STORE_FALLBACK: ("boundary", "reason"),
}


class TraceEvent:
    """One structured lifecycle event: a kind, a sequence number, and a
    flat JSON-scalar payload."""

    __slots__ = ("seq", "kind", "payload")

    def __init__(self, seq: int, kind: str, payload: Dict[str, object]):
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "schema_version": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "kind": self.kind,
        }
        record.update(self.payload)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=False)

    def __repr__(self) -> str:
        fields = " ".join(f"{k}={v!r}" for k, v in self.payload.items())
        return f"<TraceEvent #{self.seq} {self.kind} {fields}>"


class EventStream:
    """Ordered stream of :class:`TraceEvent`; the JIT's observability bus.

    The :attr:`tally` is always maintained, even when retention is off,
    so cheap assertions never require capture.
    """

    def __init__(self, capture: bool = False, limit: Optional[int] = None):
        #: Retain emitted events in :attr:`events` (JSONL export needs it).
        self.capture = capture
        #: When set, only the most recent ``limit`` events are retained.
        self.limit = limit
        #: kind -> {label values (per :data:`TALLY_LABELS`) -> events seen}.
        self.tally: Dict[str, Dict[Tuple[object, ...], int]] = {}
        self._events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._seq = 0

    # -- emission ----------------------------------------------------------------

    def emit(self, kind: str, **payload) -> TraceEvent:
        self._seq += 1
        event = TraceEvent(self._seq, kind, payload)
        key = tuple([payload.get(name, "?") for name in TALLY_LABELS.get(kind, ())])
        by_label = self.tally.setdefault(kind, {})
        by_label[key] = by_label.get(key, 0) + 1
        for subscriber in self._subscribers:
            subscriber(event)
        if self.capture:
            self._events.append(event)
            if self.limit is not None and len(self._events) > self.limit:
                del self._events[: len(self._events) - self.limit]
        return event

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(fn)

    # -- the tally ---------------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        """Events seen per kind, in first-seen order."""
        return {
            kind: sum(by_label.values()) for kind, by_label in self.tally.items()
        }

    # -- access ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    # -- export ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained events, one JSON object per line."""
        return "\n".join(event.to_json() for event in self._events)

    def write_jsonl(self, path: str) -> int:
        """Write the retained events to ``path``; returns the count."""
        with open(path, "w") as handle:
            for event in self._events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(self._events)
