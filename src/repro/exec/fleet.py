"""The batch scheduler: every batch runs on a :class:`Fleet`.

:class:`Fleet` runs a pool of N worker VMs — each a plain record of a
:class:`~repro.exec.supervisor.Supervisor`, a queue and the tenants
routed to it — **on the caller's thread**, driving the workers
round-robin.  One worker is the default and runs a batch exactly as a
single supervised VM would.  Per-VM billing stays on **simulated
cycles** (each worker's ledger is untouched); the fleet itself is the
one layer that lives on **host wall-clock**, which times admission and
deadlines.

What the scheduler adds over one supervisor:

* **admission control** — per-tenant token-bucket rate limits, a
  bounded ingress queue, and wall-clock deadlines.  A refused job
  produces a typed :class:`JobShed` result (status ``shed`` with a
  ``rate`` / ``queue-full`` / ``deadline`` reason), never a traceback,
  and a job that would only *start* past its deadline is shed at
  dequeue rather than run;
* **the queue** — each worker's queue is FIFO; a retry the worker's
  supervisor asks for re-enters that queue a seeded number of slots
  behind the head (``job-retried`` on the worker VM's stream);
* **worker fault tolerance** — an exception escaping an attempt, an
  injected ``fleet.worker_crash`` and an injected ``fleet.worker_hang``
  all replace the worker at once with a fresh VM (``worker-respawn`` /
  ``worker-online`` events) and resubmit its entry, bounded by
  ``max_requeues`` (terminal status ``worker-lost`` when exhausted);
* **hot-tenant affinity + work stealing** — jobs route to the worker
  whose trace cache already holds their compiled source (the shared
  source→Code keying), falling back to a sticky tenant→worker map,
  falling back to the least-loaded worker; a worker with an empty
  queue steals from the back of the longest queue, preferring entries
  *cold* at the victim so hot traces stay put;
* **fleet-level chaos** — the ``fleet.worker_crash`` /
  ``fleet.worker_hang`` / ``fleet.steal_race`` sites of
  :mod:`repro.hardening.faults` fire at scheduler boundaries (never
  inside a VM), and the fleet chaos harness asserts that every kill /
  hang / lost race converges to the same per-job results as a 1-worker
  run without chaos.

Since one thread runs everything, a batch is deterministic for a fixed
seed and clock: steals, respawns and retries happen in the same order
on every run.

Observability follows the repo idiom: fleet-level facts flow through
one :class:`~repro.core.events.EventStream` (``job-shed``,
``work-stolen``, ``worker-online``, ``worker-respawn``), tallied like a
VM stream and drawn by a :class:`~repro.obs.spans.FleetSpanRecorder`.
Every worker VM keeps its own stream, registry and span recorder when
the fleet captures them; :meth:`Fleet.write_events` and
:meth:`Fleet.chrome_trace` join them with the fleet's, and the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` reports the fleet stream's
families plus every worker's series (live and replaced), summed per
label set.  See docs/INTERNALS.md §15.
"""

from __future__ import annotations

import copy
import json
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Set

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
    #: The owning worker VM's ledger total when the entry joined its
    #: queue: the start of the attempt's queue-wait span.
    enqueued_at: int = 0


@dataclass
class Worker:
    """One fleet worker: a Supervisor (its VM) and its queue."""

    worker_id: int
    supervisor: Supervisor
    queue: Deque[_Entry] = field(default_factory=deque)
    #: Tenants routed here by the affinity map.
    tenants: Set[str] = field(default_factory=set)

    def enqueue(self, entry: _Entry, position: Optional[int] = None) -> None:
        """Queue ``entry`` at ``position`` (the tail by default),
        stamping its queue-wait start on this worker's VM clock."""
        entry.enqueued_at = self.supervisor.vm.stats.ledger.total
        if position is None:
            self.queue.append(entry)
        else:
            self.queue.insert(position, entry)


class Fleet:
    """N worker VMs behind one admission-controlled scheduler.

    ``run(jobs)`` admits, schedules, and supervises one batch on the
    calling thread, returning one :class:`JobResult` per job **in
    submission order**.  The fleet is reusable across batches (caches
    and tenant state persist per worker).
    """

    def __init__(
        self,
        workers: int = 1,
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
        if workers < 1:
            raise ValueError(f"fleet needs at least one worker ({workers})")
        self.engine = engine
        self.limits = limits if limits is not None else ResourceLimits()
        self.max_retries = max_retries
        self.degrade_after = degrade_after
        self.probation_after = probation_after
        self.backoff_seed = backoff_seed
        self.rates = dict(rates or {})
        self.shed_after = shed_after
        self.max_requeues = max_requeues
        self._config = config
        self._wall = clock if clock is not None else time.monotonic
        #: Fleet-level observability bus (sheds, steals, respawns).
        self.events = EventStream(capture=capture_events)
        self.metrics = None
        if capture_metrics:
            from repro.obs.metrics import MetricsRegistry, attach_fleet_views

            self.metrics = MetricsRegistry()
            attach_fleet_views(self.metrics, self.events, lambda: [
                w.supervisor.vm.metrics for w in self._spawned
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
        #: Live workers, in round-robin order.
        self._workers: List[Worker] = []
        #: Every worker ever spawned (replaced ones included), by id.
        self._spawned: List[Worker] = []
        self._buckets: Dict[str, TokenBucket] = {}
        #: tenant -> sticky worker (affinity routing, remapped on respawn).
        self._affinity: Dict[str, Worker] = {}
        self._results: List[Optional[JobResult]] = []
        #: Results that never reached a worker supervisor (sheds and
        #: worker-lost), folded into :meth:`tenant_summary`.
        self._unrun: List[JobResult] = []
        for _ in range(workers):
            self._workers.append(self._spawn())
        self._set_gauges()

    # -- workers -------------------------------------------------------------

    def _spawn(self, replaces: Optional[int] = None) -> Worker:
        # VMConfig must not be shared between workers: safe mode mutates
        # config.enable_tracing in place, which would leak one worker's
        # circuit-breaker trip into every other VM.
        config = copy.copy(self._config) if self._config is not None else None
        supervisor = Supervisor(
            engine=self.engine,
            config=config,
            limits=self.limits,
            max_retries=self.max_retries,
            degrade_after=self.degrade_after,
            probation_after=self.probation_after,
            backoff_seed=self.backoff_seed,
            capture_events=self.events.capture,
            capture_metrics=self.metrics is not None,
            capture_spans=self.spans is not None,
        )
        worker = Worker(len(self._spawned), supervisor)
        self._spawned.append(worker)
        if (
            replaces is not None
            and getattr(supervisor.vm, "trace_store", None) is not None
        ):
            # A replacement worker reloads the dead worker's hot traces
            # from the persistent store instead of re-tracing them all.
            sources, fragments = supervisor.warm_start_from_store()
            self.events.emit(
                eventkind.WORKER_WARM_START,
                worker=worker.worker_id,
                sources=sources,
                fragments=fragments,
            )
        self.events.emit(
            eventkind.WORKER_ONLINE, worker=worker.worker_id, replaces=replaces
        )
        if self.spans is not None:
            self.spans.add_worker_track(worker.worker_id)
        return worker

    def _respawn(self, old: Worker, entry: _Entry, reason: str) -> None:
        """Replace ``old`` with a fresh VM in its round-robin seat and
        resubmit ``entry``, the attempt it was about to run."""
        self.events.emit(
            eventkind.WORKER_RESPAWN,
            worker=old.worker_id,
            reason=reason,
            job=entry.job.job_id,
        )
        replacement = self._spawn(replaces=old.worker_id)
        self._workers[self._workers.index(old)] = replacement
        # The replacement inherits the dead worker's backlog, tenant
        # assignments, and affinity edges (fresh VM, empty caches).
        for queued in old.queue:
            replacement.enqueue(queued)
        old.queue.clear()
        replacement.tenants |= old.tenants
        for tenant, worker in list(self._affinity.items()):
            if worker is old:
                self._affinity[tenant] = replacement
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
            replacement.enqueue(replace(entry, requeues=entry.requeues + 1), 0)

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
        if (
            self.shed_after is not None
            and sum(len(w.queue) for w in self._workers) >= self.shed_after
        ):
            self._shed(index, job, SHED_QUEUE_FULL)
            return
        self._route(job).enqueue(_Entry(job, index))

    def _route(self, job: Job) -> Worker:
        # 1. the worker that already compiled this exact source: its
        #    trace cache holds the job's loops.
        for worker in self._workers:
            if job.source in worker.supervisor._codes:
                self._affinity[job.tenant] = worker
                worker.tenants.add(job.tenant)
                return worker
        # 2. sticky tenant affinity.
        worker = self._affinity.get(job.tenant)
        if worker is not None:
            return worker
        # 3. least-loaded: fewest assigned tenants, then shortest queue.
        worker = min(
            self._workers,
            key=lambda w: (len(w.tenants), len(w.queue), w.worker_id),
        )
        self._affinity[job.tenant] = worker
        worker.tenants.add(job.tenant)
        return worker

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

    def _steal(self, thief: Worker) -> Optional[_Entry]:
        victims = [w for w in self._workers if w is not thief and w.queue]
        if not victims:
            return None
        victim = max(victims, key=lambda w: (len(w.queue), -w.worker_id))
        if self._injector is not None:
            try:
                self._injector.fire(faults.FLEET_STEAL_RACE)
            except InjectedFault:
                # Lost the claim race: the victim keeps the job and the
                # thief sits this turn out.
                return None
        # Locality-aware choice, scanning the victim's backlog from the
        # back: an entry already warm in the thief's own trace cache
        # moves for free; otherwise prefer one that is cold at the
        # victim (its hot traces stay put).  A thief whose cache is
        # warm past a quarter of its budget refuses entries it would
        # have to compile fresh — one steal can trigger a budget-
        # overflow flush that destroys the locality the router built,
        # costing far more than the stolen job saves.
        cache = getattr(thief.supervisor.vm, "monitor", None)
        budget = (
            self._config.code_cache_budget
            if self._config is not None else 0
        )
        protected = (
            budget > 0
            and cache is not None
            and cache.cache.code_size_used > budget // 4
        )
        chosen = None
        for entry in reversed(victim.queue):
            if thief.supervisor.warm_source(entry.job.source):
                chosen = entry
                break
            if protected:
                continue
            if chosen is None:
                chosen = entry
            if not victim.supervisor.warm_source(entry.job.source):
                chosen = entry
                break
        if chosen is None:
            return None
        victim.queue.remove(chosen)
        self.events.emit(
            eventkind.WORK_STOLEN,
            job=chosen.job.job_id,
            tenant=chosen.job.tenant,
            thief=thief.worker_id,
            victim=victim.worker_id,
        )
        # The stolen entry starts waiting on the thief's clock now.
        chosen.enqueued_at = thief.supervisor.vm.stats.ledger.total
        return chosen

    def _turn(self, worker: Worker) -> None:
        """One scheduling turn of ``worker``: run its next entry, or one
        it steals."""
        entry = worker.queue.popleft() if worker.queue else self._steal(worker)
        if entry is None:
            return
        job = entry.job
        supervisor = worker.supervisor
        vm = supervisor.vm
        metrics = getattr(vm, "metrics", None)
        if metrics is not None:
            metrics.queue_depth.set(len(worker.queue))
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
                    self._respawn(worker, entry, reason)
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
                track=self.spans.add_worker_track(worker.worker_id),
                tenant=job.tenant,
                attempt=entry.attempt,
                worker=worker.worker_id,
            )
        try:
            result = supervisor._run_attempt(job, entry.attempt)
        except Exception:
            # A real (non-injected) worker crash: replace the VM and
            # resubmit the entry.  KeyboardInterrupt and friends reach
            # the caller.
            if self.spans is not None:
                self.spans.close(span_id, status="crash")
            self._respawn(worker, entry, "crash")
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
            worker.enqueue(
                replace(entry, attempt=entry.attempt + 1),
                min(len(worker.queue), backoff),
            )
            return
        supervisor._note_outcome(job, result)
        self._results[entry.index] = result

    # -- batches -------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Admit and run one batch; one result per job, submission order.

        Each turn, every live worker in round-robin order runs its next
        entry or steals one; the batch ends when every queue is empty.
        """
        self._results = [None] * len(jobs)
        for index, job in enumerate(jobs):
            self._admit(index, job)
        while any(worker.queue for worker in self._workers):
            for worker in list(self._workers):
                self._turn(worker)
        for worker in self._workers:
            metrics = getattr(worker.supervisor.vm, "metrics", None)
            if metrics is not None:
                metrics.queue_depth.set(0)
        self._set_gauges()
        results, self._results = self._results, []
        return results

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
        self.metrics.fleet_workers.set(len(self._workers))
        for worker in self._spawned:
            self.metrics.fleet_worker_queue_depth.set(
                len(worker.queue), worker=str(worker.worker_id)
            )

    # -- summaries -----------------------------------------------------------

    @property
    def workers(self) -> List[Worker]:
        """Live workers (replacements included, replaced ones excluded)."""
        return list(self._workers)

    @property
    def degraded_tenants(self) -> set:
        """Union of every worker's interpreter-only tenant set."""
        out: set = set()
        for worker in self._spawned:
            out |= worker.supervisor.degraded_tenants
        return out

    def tenant_summary(self) -> Dict[str, TenantUsage]:
        """Fleet-wide per-tenant billing: every worker's summary merged,
        plus jobs that never ran (sheds, worker-lost)."""
        merged: Dict[str, TenantUsage] = {}
        for worker in self._spawned:
            for tenant, usage in worker.supervisor.tenant_usage.items():
                merged.setdefault(tenant, TenantUsage()).merge(usage)
        for result in self._unrun:
            merged.setdefault(result.tenant, TenantUsage()).add(result)
        return dict(sorted(merged.items()))

    def counts(self) -> Dict[str, int]:
        """Fleet lifecycle event counts (sheds, steals, respawns, ...),
        plus the ``job-retried`` events of every worker VM's stream."""
        counts = dict(self.events.counts)
        retried = sum(
            w.supervisor.vm.events.counts.get(eventkind.JOB_RETRIED, 0)
            for w in self._spawned
        )
        if retried:
            counts[eventkind.JOB_RETRIED] = retried
        return counts

    # -- exports -------------------------------------------------------------

    def write_events(self, path: str) -> int:
        """Write the fleet stream, then each worker VM's stream in worker
        order, as one JSONL file; ``seq`` is renumbered across the file
        so it stays strictly increasing.  Returns the event count."""
        streams = [self.events] + [w.supervisor.vm.events for w in self._spawned]
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
        (process 1, wall-clock microseconds) plus each worker VM's span
        tree and phase lane (process ``2 + worker_id``, simulated
        cycles)."""
        doc = self.spans.to_chrome_trace(program=program)
        for worker in self._spawned:
            vm = worker.supervisor.vm
            part = vm.span_recorder.to_chrome_trace(
                profiler=vm.profiler, program=f"worker-{worker.worker_id}"
            )
            for event in part["traceEvents"]:
                event["pid"] = 2 + worker.worker_id
            doc["traceEvents"].extend(part["traceEvents"])
            doc["otherData"]["truncated"] |= part["otherData"]["truncated"]
        return doc
