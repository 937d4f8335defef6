"""The batch scheduler: every batch runs on a :class:`Fleet`.

:class:`Fleet` runs one batch of jobs on **one VM** — the VM of its one
:class:`~repro.exec.supervisor.Supervisor` — from one FIFO queue, **on
the caller's thread**, like the paper's single-threaded VM with its one
trace cache.  Per-VM billing stays on **simulated cycles** (the VM's
ledger is untouched); the fleet itself is the one layer that lives on
**host wall-clock**, which times admission and deadlines.

What the scheduler adds over the supervisor:

* **admission control** — per-tenant token-bucket rate limits, a
  bounded ingress queue, and wall-clock deadlines.  A refused job
  produces a typed :class:`JobShed` result (status ``shed`` with a
  ``rate`` / ``queue-full`` / ``deadline`` reason), never a traceback,
  and a job that would only *start* past its deadline is shed at
  dequeue rather than run;
* **the queue** — FIFO; a retry the supervisor asks for re-enters the
  queue a seeded number of slots behind the head (``job-retried`` on
  the VM's stream);
* **VM fault tolerance** — an exception escaping an attempt, an
  injected ``fleet.worker_crash`` and an injected ``fleet.worker_hang``
  all replace the supervisor's VM at once with a fresh one
  (``worker-respawn`` / ``worker-online`` events) and resubmit the
  entry, bounded by ``max_requeues`` (terminal status ``worker-lost``
  when exhausted).  Tenant policy and billing live on the supervisor,
  so they survive the respawn;
* **fleet-level chaos** — the ``fleet.worker_crash`` /
  ``fleet.worker_hang`` sites of :mod:`repro.hardening.faults` fire at
  the scheduler boundary (never inside a VM), and the fleet chaos
  harness asserts that every kill and hang converges to the same
  per-job results as a run without chaos.

Since one thread runs everything, a batch is deterministic for a fixed
seed and clock: respawns and retries happen in the same order on every
run.

Observability follows the repo idiom: fleet-level facts flow through
one :class:`~repro.core.events.EventStream` (``job-shed``,
``worker-online``, ``worker-respawn``), tallied like a VM stream and
drawn by a :class:`~repro.obs.spans.FleetSpanRecorder`.  A respawn
leaves more than one VM generation behind, each with its own stream,
registry and span recorder when the fleet captures them;
:meth:`Fleet.write_events` and :meth:`Fleet.chrome_trace` join every
generation with the fleet's, and the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` reports the fleet stream's
families plus every generation's counters, with gauges read from the
live VM.  See docs/INTERNALS.md §15.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional

from repro.core import events as eventkind
from repro.core.events import EventStream
from repro.exec.limits import ResourceLimits
from repro.exec.supervisor import (
    Job,
    JobResult,
    Supervisor,
    TenantUsage,
    backoff_slots,
)
from repro.hardening import faults
from repro.hardening.faults import FaultInjector, FaultPlan, InjectedFault

#: Additional job statuses introduced by the fleet.
STATUS_SHED = "shed"
STATUS_WORKER_LOST = "worker-lost"

#: Shed reasons (the ``reason`` field of :class:`JobShed` and of the
#: ``job-shed`` event / ``repro_fleet_sheds_total`` metric).
SHED_RATE = "rate"
SHED_QUEUE_FULL = "queue-full"
SHED_DEADLINE = "deadline"


@dataclass
class JobShed(JobResult):
    """A typed admission refusal: the job never ran.

    Subclasses :class:`JobResult` so batch tables and per-tenant
    summaries handle sheds uniformly; ``status`` is always ``shed`` and
    ``reason`` says which admission gate refused it.
    """

    reason: str = ""


class TokenBucket:
    """Per-tenant admission rate limit (tokens/second, bounded burst).

    The clock is injectable so tests can drive refill deterministically;
    the fleet passes its own wall clock.
    """

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"token bucket rate must be positive ({rate})")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self.tokens = self.burst
        self._clock = clock
        self._last = clock()

    def try_take(self, amount: float = 1.0) -> bool:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._last = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


@dataclass
class _Entry:
    """One queued attempt of one job."""

    job: Job
    #: Submission-order slot in the batch's result list.
    index: int
    attempt: int = 1
    #: Fleet-level resubmissions (crash/hang), distinct from the
    #: guest-fault retry attempt counter.
    requeues: int = 0
    #: The VM's ledger total when the entry joined the queue: the start
    #: of the attempt's queue-wait span.
    enqueued_at: int = 0


class Fleet:
    """One supervised VM behind an admission-controlled FIFO queue.

    ``run(jobs)`` admits, schedules, and supervises one batch on the
    calling thread, returning one :class:`JobResult` per job **in
    submission order**.  The fleet is reusable across batches (the
    trace cache and tenant state persist).
    """

    def __init__(
        self,
        engine: str = "tracing",
        config=None,
        limits: Optional[ResourceLimits] = None,
        max_retries: int = 1,
        degrade_after: int = 2,
        probation_after: int = 3,
        backoff_seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        shed_after: Optional[int] = None,
        max_requeues: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[Callable[[], float]] = None,
        capture_events: bool = False,
        capture_metrics: bool = False,
        capture_spans: bool = False,
    ):
        self.rates = dict(rates or {})
        self.shed_after = shed_after
        self.max_requeues = max_requeues
        self._wall = clock if clock is not None else time.monotonic
        #: Fleet-level observability bus (sheds, respawns).
        self.events = EventStream(capture=capture_events)
        self.metrics = None
        if capture_metrics:
            from repro.obs.metrics import MetricsRegistry, attach_fleet_views

            self.metrics = MetricsRegistry()
            attach_fleet_views(self.metrics, self.events, lambda: [
                vm.metrics for vm in self.vms
            ])
        self.spans = None
        if capture_spans:
            from repro.obs.spans import FleetSpanRecorder

            self.spans = FleetSpanRecorder(clock=self._wall)
            self.events.subscribe(self.spans.apply_event)
        self._injector = (
            FaultInjector(fault_plan, events=self.events)
            if fault_plan is not None else None
        )
        self.supervisor = Supervisor(
            engine=engine,
            config=config,
            limits=limits,
            max_retries=max_retries,
            degrade_after=degrade_after,
            probation_after=probation_after,
            backoff_seed=backoff_seed,
            capture_events=capture_events,
            capture_metrics=capture_metrics,
            capture_spans=capture_spans,
        )
        #: Every VM the supervisor has run on, oldest first (the live
        #: one last); a VM's index is its ``worker`` id in the
        #: ``worker-online`` / ``worker-respawn`` events.
        self.vms: List[object] = []
        self.queue: Deque[_Entry] = deque()
        self._buckets: Dict[str, TokenBucket] = {}
        self._results: List[Optional[JobResult]] = []
        #: Results that never reached the supervisor (sheds and
        #: worker-lost), folded into :meth:`tenant_summary`.
        self._unrun: List[JobResult] = []
        self._online()

    # -- the VM --------------------------------------------------------------

    def _online(self, replaces: Optional[int] = None) -> None:
        """Announce the supervisor's current VM as the next worker id; a
        replacement first reloads the dead VM's hot traces from the
        persistent store instead of re-tracing them all."""
        vm = self.supervisor.vm
        worker = len(self.vms)
        self.vms.append(vm)
        if replaces is not None and getattr(vm, "trace_store", None) is not None:
            sources, fragments = self.supervisor.warm_start_from_store()
            self.events.emit(
                eventkind.WORKER_WARM_START,
                worker=worker,
                sources=sources,
                fragments=fragments,
            )
        self.events.emit(eventkind.WORKER_ONLINE, worker=worker, replaces=replaces)

    def _respawn(self, entry: _Entry, reason: str) -> None:
        """Replace the supervisor's VM with a fresh one and resubmit
        ``entry``, the attempt it was about to run."""
        dead = len(self.vms) - 1
        self.events.emit(
            eventkind.WORKER_RESPAWN,
            worker=dead,
            reason=reason,
            job=entry.job.job_id,
        )
        self.supervisor.replace_vm()
        self._online(replaces=dead)
        # The backlog starts waiting on the new VM's clock.
        for queued in self.queue:
            queued.enqueued_at = self.supervisor.vm.stats.ledger.total
        if entry.requeues + 1 > self.max_requeues:
            self._record_unrun(entry.index, JobResult(
                job_id=entry.job.job_id,
                tenant=entry.job.tenant,
                status=STATUS_WORKER_LOST,
                attempts=entry.attempt,
                engine_mode="none",
                fault=(
                    f"worker lost: {reason} x{entry.requeues + 1} "
                    f"exceeded max_requeues={self.max_requeues}"
                ),
            ))
        else:
            self._enqueue(replace(entry, requeues=entry.requeues + 1), 0)

    def _enqueue(self, entry: _Entry, position: Optional[int] = None) -> None:
        """Queue ``entry`` at ``position`` (the tail by default),
        stamping its queue-wait start on the VM clock."""
        entry.enqueued_at = self.supervisor.vm.stats.ledger.total
        if position is None:
            self.queue.append(entry)
        else:
            self.queue.insert(position, entry)

    # -- admission -----------------------------------------------------------

    def _bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        rate = self.rates.get(tenant)
        if rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                rate, clock=self._wall
            )
        return bucket

    def _admit(self, index: int, job: Job) -> None:
        if job.not_after is not None and self._wall() > job.not_after:
            self._shed(index, job, SHED_DEADLINE)
            return
        bucket = self._bucket_for(job.tenant)
        if bucket is not None and not bucket.try_take():
            self._shed(index, job, SHED_RATE)
            return
        if self.shed_after is not None and len(self.queue) >= self.shed_after:
            self._shed(index, job, SHED_QUEUE_FULL)
            return
        self._enqueue(_Entry(job, index))

    def _shed(self, index: int, job: Job, reason: str) -> None:
        self.events.emit(
            eventkind.JOB_SHED,
            job=job.job_id,
            tenant=job.tenant,
            reason=reason,
        )
        self._record_unrun(index, JobShed(
            job_id=job.job_id,
            tenant=job.tenant,
            status=STATUS_SHED,
            attempts=0,
            engine_mode="none",
            fault=f"shed: {reason}",
            reason=reason,
        ))

    def _record_unrun(self, index: int, result: JobResult) -> None:
        self._unrun.append(result)
        self._results[index] = result

    # -- scheduling ----------------------------------------------------------

    def _turn(self) -> None:
        """Run the entry at the head of the queue."""
        entry = self.queue.popleft()
        job = entry.job
        supervisor = self.supervisor
        vm = supervisor.vm
        metrics = getattr(vm, "metrics", None)
        if metrics is not None:
            metrics.queue_depth.set(len(self.queue))
        # A queued job whose deadline passed while it waited is shed at
        # dequeue, never started.  Every dequeue reads the clock: the
        # time spent on earlier attempts is what a deadline measures.
        now = self._wall()
        if job.not_after is not None and now > job.not_after:
            self._shed(entry.index, job, SHED_DEADLINE)
            return
        if self._injector is not None:
            for site, reason in ((faults.FLEET_WORKER_CRASH, "crash"),
                                 (faults.FLEET_WORKER_HANG, "hang")):
                try:
                    self._injector.fire(site)
                except InjectedFault:
                    self._respawn(entry, reason)
                    return
        spans = getattr(vm, "span_recorder", None)
        if spans is not None:
            waited = spans.open(
                f"queue-wait {job.job_id}", cat="queue", at=entry.enqueued_at,
                tenant=job.tenant, attempt=entry.attempt,
            )
            spans.close(waited)
        span_id = 0
        if self.spans is not None:
            span_id = self.spans.open(
                f"{job.job_id} (attempt {entry.attempt})",
                cat="job",
                tenant=job.tenant,
                attempt=entry.attempt,
                worker=len(self.vms) - 1,
            )
        try:
            result = supervisor._run_attempt(job, entry.attempt)
        except Exception:
            # A real (non-injected) VM crash: replace the VM and
            # resubmit the entry.  KeyboardInterrupt and friends reach
            # the caller.
            if self.spans is not None:
                self.spans.close(span_id, status="crash")
            self._respawn(entry, "crash")
            return
        if self.spans is not None:
            self.spans.close(span_id, status=result.status)
        if supervisor._should_retry(result, entry.attempt):
            backoff = backoff_slots(supervisor._backoff_rng, entry.attempt)
            vm.events.emit(
                eventkind.JOB_RETRIED,
                job=job.job_id,
                tenant=job.tenant,
                attempt=entry.attempt,
                backoff=backoff,
                status=result.status,
            )
            self._enqueue(
                replace(entry, attempt=entry.attempt + 1),
                min(len(self.queue), backoff),
            )
            return
        supervisor._note_outcome(job, result)
        self._results[entry.index] = result

    # -- batches -------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Admit and run one batch; one result per job, submission order."""
        self._results = [None] * len(jobs)
        for index, job in enumerate(jobs):
            self._admit(index, job)
        while self.queue:
            self._turn()
        metrics = getattr(self.supervisor.vm, "metrics", None)
        if metrics is not None:
            metrics.queue_depth.set(0)
        results, self._results = self._results, []
        return results

    # -- summaries -----------------------------------------------------------

    @property
    def degraded_tenants(self) -> set:
        """Tenants demoted to interpreter-only mode."""
        return set(self.supervisor.degraded_tenants)

    def tenant_summary(self) -> Dict[str, TenantUsage]:
        """Per-tenant billing: the supervisor's, plus jobs that never
        ran (sheds, worker-lost)."""
        summary = {
            tenant: replace(usage)
            for tenant, usage in self.supervisor.tenant_usage.items()
        }
        for result in self._unrun:
            summary.setdefault(result.tenant, TenantUsage()).add(result)
        return dict(sorted(summary.items()))

    def counts(self) -> Dict[str, int]:
        """Fleet lifecycle event counts (sheds, respawns, ...), plus the
        ``job-retried`` events of every VM's stream."""
        counts = dict(self.events.counts)
        retried = sum(
            vm.events.counts.get(eventkind.JOB_RETRIED, 0) for vm in self.vms
        )
        if retried:
            counts[eventkind.JOB_RETRIED] = retried
        return counts

    # -- exports -------------------------------------------------------------

    def write_events(self, path: str) -> int:
        """Write the fleet stream, then each VM's stream oldest first, as
        one JSONL file; ``seq`` is renumbered across the file so it
        stays strictly increasing.  Returns the event count."""
        streams = [self.events] + [vm.events for vm in self.vms]
        count = 0
        with open(path, "w") as handle:
            for stream in streams:
                for event in stream:
                    count += 1
                    record = event.to_dict()
                    record["seq"] = count
                    handle.write(json.dumps(record) + "\n")
        return count

    def chrome_trace(self, program: Optional[str] = None) -> dict:
        """The Chrome trace of a span-capturing fleet: the fleet's lanes
        (process 1, wall-clock microseconds) plus each VM's span tree
        and phase lane (process ``2 + worker id``, simulated cycles)."""
        doc = self.spans.to_chrome_trace(program=program)
        for worker, vm in enumerate(self.vms):
            part = vm.span_recorder.to_chrome_trace(
                profiler=vm.profiler, program=f"worker-{worker}"
            )
            for event in part["traceEvents"]:
                event["pid"] = 2 + worker
            doc["traceEvents"].extend(part["traceEvents"])
            doc["otherData"]["truncated"] |= part["otherData"]["truncated"]
        return doc
