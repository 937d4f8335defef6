"""The fault-tolerant sharded serving fleet.

:class:`Fleet` runs a pool of N worker VMs — each a thread wrapping its
own :class:`~repro.exec.supervisor.Supervisor` — behind one async
scheduler, subsuming the single-VM supervisor for multi-tenant batch
serving.  Per-VM billing stays on **simulated cycles** (each worker's
ledger is untouched); the fleet itself is the one layer that
legitimately lives on **host wall-clock**, which times queues,
watchdogs, and deadlines.

What the scheduler adds over one supervisor:

* **admission control** — per-tenant token-bucket rate limits, a
  bounded ingress queue, and wall-clock deadlines.  A refused job
  produces a typed :class:`JobShed` result (status ``shed`` with a
  ``rate`` / ``queue-full`` / ``deadline`` reason), never a traceback,
  and a job that would only *start* past its deadline is shed at
  dequeue rather than run;
* **worker fault tolerance** — a wall-clock watchdog detects crashed
  and wedged workers, replaces them with a fresh VM (``worker-respawn``
  / ``worker-online`` events), and resubmits the in-flight job under
  the existing retry/backoff discipline, bounded by ``max_requeues``
  (terminal status ``worker-lost`` when exhausted).  Results are
  recorded exactly once: an abandoned attempt's result is discarded
  even if its thread later completes;
* **hot-tenant affinity + work stealing** — jobs route to the worker
  whose trace cache already holds their compiled source (the shared
  source→Code keying), falling back to a sticky tenant→worker map,
  falling back to the least-loaded worker; idle workers steal from the
  back of the longest queue, preferring entries *cold* at the victim so
  hot traces stay put;
* **fleet-level chaos** — the ``fleet.worker_crash`` /
  ``fleet.worker_hang`` / ``fleet.steal_race`` sites of
  :mod:`repro.hardening.faults` fire at scheduler boundaries (never
  inside a VM), and the fleet chaos harness asserts that every kill /
  hang / lost race converges to the same per-job results as a 1-worker
  run without chaos.

Observability follows the repo idiom: fleet-level facts flow through
one :class:`~repro.core.events.EventStream` (``job-shed``,
``work-stolen``, ``worker-online``, ``worker-respawn``, plus the
supervisor's ``job-retried``), tallied like a VM stream and drawn by a
:class:`~repro.obs.spans.FleetSpanRecorder`.  With metrics on, every
worker supervisor keeps its own registry and the fleet's
:class:`~repro.obs.metrics.MetricsRegistry` reports the fleet stream's
families plus every worker's series (live and replaced), summed per
label set.  All stream emissions happen under the fleet lock; the span
recorder carries its own lock.  See docs/INTERNALS.md §15.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.core import events as eventkind
from repro.core.events import EventStream
from repro.exec.limits import ResourceLimits
from repro.exec.supervisor import (
    Job,
    JobResult,
    Supervisor,
    TenantUsage,
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
    the fleet passes its own wall clock.  Not thread-safe on its own —
    the fleet only touches buckets under its scheduler lock.
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


class _QueueEntry:
    """One claimable unit of queued work.

    The entry object *is* the claim token: resubmission after a crash or
    hang always creates a **fresh** entry and abandons the old one, so a
    zombie thread finishing a stale attempt can never record a result
    (``recorded`` / ``abandoned`` are only touched under the fleet lock).
    """

    __slots__ = (
        "job", "attempt", "requeues", "index", "enqueued_at",
        "abandoned", "recorded",
    )

    def __init__(self, job: Job, attempt: int, requeues: int, index: int,
                 enqueued_at: float):
        self.job = job
        self.attempt = attempt
        #: Fleet-level resubmissions (crash/hang), distinct from the
        #: guest-fault retry attempt counter.
        self.requeues = requeues
        #: Submission-order slot in the batch's result list.
        self.index = index
        self.enqueued_at = enqueued_at
        self.abandoned = False
        self.recorded = False


class Worker:
    """One fleet worker: a thread, a Supervisor, and an ingress queue."""

    def __init__(self, fleet: "Fleet", worker_id: int,
                 replaces: Optional[int] = None):
        self.fleet = fleet
        self.worker_id = worker_id
        self.replaces = replaces
        self.supervisor = fleet._make_supervisor()
        self.queue: Deque[_QueueEntry] = deque()
        #: Tenants routed here by the affinity map.
        self.tenants: set = set()
        self.state = "idle"  # idle | busy | dead
        self.busy_since = 0.0
        self.current: Optional[_QueueEntry] = None
        #: The worker abruptly died at a job-attempt start (chaos).
        self.crashed = False
        #: The worker wedged (cooperative hang: the thread parks and
        #: stops committing results until the watchdog replaces it).
        self.hung = False
        #: Replaced by the watchdog; the thread must exit, and nothing
        #: it does afterwards may touch shared state.
        self.defunct = False
        self.thread = threading.Thread(
            target=self._loop, name=f"fleet-worker-{worker_id}", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        fleet = self.fleet
        with fleet._cond:
            fleet.events.emit(
                eventkind.WORKER_ONLINE,
                worker=self.worker_id,
                replaces=self.replaces,
            )
            if fleet.spans is not None:
                fleet.spans.add_worker_track(self.worker_id)
            fleet._set_worker_gauges_locked()
        self.thread.start()

    def queued(self) -> int:
        """Live (unclaimed, unabandoned) entries in this worker's queue."""
        return sum(
            1 for entry in self.queue
            if not entry.abandoned and not entry.recorded
        )

    # -- the worker loop ----------------------------------------------------

    def _loop(self) -> None:
        # The outer guard makes ANY escape — claim path, steal path,
        # bookkeeping, not just the attempt itself — a declared crash.
        # A worker thread that died silently would deadlock the fleet:
        # the watchdog only respawns workers it knows are dead.
        try:
            self._loop_inner()
        except BaseException:
            with self.fleet._cond:
                self.crashed = True
                self.state = "dead"
                self.fleet._cond.notify_all()

    def _loop_inner(self) -> None:
        fleet = self.fleet
        while True:
            entry = None
            with fleet._cond:
                while True:
                    if self.defunct:
                        return
                    entry = self._next_entry_locked()
                    if entry is None:
                        entry = self._steal_locked()
                    if entry is not None:
                        break
                    if fleet._closed:
                        return
                    self.state = "idle"
                    self.current = None
                    fleet._cond.wait(fleet._tick)
                self.state = "busy"
                self.busy_since = fleet._wall()
                self.current = entry
                fleet._set_worker_gauges_locked()
            try:
                alive = self._process(entry)
            except BaseException:
                # A real (non-injected) worker crash: anything escaping
                # an attempt kills this thread; the watchdog respawns a
                # fresh VM and resubmits the claimed entry.
                with fleet._cond:
                    self.crashed = True
                    self.state = "dead"
                    fleet._cond.notify_all()
                return
            if not alive:
                return
            with fleet._cond:
                self.current = None
                if not self.defunct:
                    self.state = "idle"

    def _next_entry_locked(self) -> Optional[_QueueEntry]:
        while self.queue:
            entry = self.queue.popleft()
            if not entry.abandoned and not entry.recorded:
                return entry
        return None

    def _steal_locked(self) -> Optional[_QueueEntry]:
        fleet = self.fleet
        victims = [
            worker for worker in fleet._workers
            if worker is not self and not worker.defunct and worker.queued()
        ]
        if not victims:
            return None
        victim = max(victims, key=lambda w: (w.queued(), -w.worker_id))
        if fleet._injector is not None:
            try:
                fleet._injector.fire(faults.FLEET_STEAL_RACE)
            except InjectedFault:
                # Lost the claim race: the victim keeps the job and the
                # thief looks for other work.
                return None
        # Locality-aware choice, scanning the victim's backlog from the
        # back: an entry already warm in the thief's own trace cache
        # moves for free; otherwise prefer one that is cold at the
        # victim (its hot traces stay put).  A thief whose cache is
        # warm past half its budget refuses entries it would have to
        # compile fresh — one steal can trigger a budget-overflow
        # flush that destroys the locality the router built, costing
        # far more than the stolen job saves.
        cache = getattr(self.supervisor.vm, "monitor", None)
        budget = (
            fleet._config.code_cache_budget
            if fleet._config is not None else 0
        )
        protected = (
            budget > 0
            and cache is not None
            and cache.cache.code_size_used > budget // 4
        )
        chosen = None
        for entry in reversed(victim.queue):
            if entry.abandoned or entry.recorded:
                continue
            if self.supervisor.warm_source(entry.job.source):
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
        fleet.events.emit(
            eventkind.WORK_STOLEN,
            job=chosen.job.job_id,
            tenant=chosen.job.tenant,
            thief=self.worker_id,
            victim=victim.worker_id,
        )
        fleet._set_worker_gauges_locked()
        return chosen

    def _process(self, entry: _QueueEntry) -> bool:
        """Run one claimed entry; returns False when the thread must die
        (crash / hang / defunct)."""
        fleet = self.fleet
        job = entry.job
        # A queued job whose deadline passed while it waited is shed at
        # dequeue, never started.
        if job.not_after is not None and fleet._wall() > job.not_after:
            with fleet._cond:
                fleet._shed_entry_locked(entry, SHED_DEADLINE)
            return True
        if fleet._injector is not None:
            with fleet._cond:
                try:
                    fleet._injector.fire(faults.FLEET_WORKER_CRASH)
                except InjectedFault:
                    # Abrupt death: leave `current` claimed so the
                    # watchdog resubmits it, flag the corpse, and die.
                    self.crashed = True
                    self.state = "dead"
                    fleet._cond.notify_all()
                    return False
                try:
                    fleet._injector.fire(faults.FLEET_WORKER_HANG)
                except InjectedFault:
                    self.hung = True
                    fleet._cond.notify_all()
            if self.hung:
                # Wedge: park without committing anything until the
                # watchdog abandons the entry and replaces this worker.
                while True:
                    time.sleep(fleet._tick)
                    with fleet._cond:
                        if entry.abandoned or self.defunct or fleet._closed:
                            return False
        span_id = 0
        if fleet.spans is not None:
            span_id = fleet.spans.open(
                f"{job.job_id} (attempt {entry.attempt})",
                cat="job",
                track=self._track(),
                tenant=job.tenant,
                attempt=entry.attempt,
                worker=self.worker_id,
            )
        result = self.supervisor.run_attempt(job, entry.attempt)
        with fleet._cond:
            if fleet.spans is not None:
                fleet.spans.close(span_id, status=result.status)
            if self.defunct:
                # The watchdog replaced us mid-attempt (false-positive
                # hang call or chaos): the entry was resubmitted, this
                # result must not be recorded twice.
                return False
            if entry.abandoned:
                return True
            if self.supervisor.should_retry(result, entry.attempt):
                backoff = self.supervisor.retry_backoff(entry.attempt)
                fleet.events.emit(
                    eventkind.JOB_RETRIED,
                    job=job.job_id,
                    tenant=job.tenant,
                    attempt=entry.attempt,
                    backoff=backoff,
                    status=result.status,
                )
                fresh = _QueueEntry(
                    job, entry.attempt + 1, entry.requeues, entry.index,
                    fleet._wall(),
                )
                entry.recorded = True  # superseded, never recordable
                position = min(len(self.queue), backoff)
                self.queue.insert(position, fresh)
                fleet._set_worker_gauges_locked()
                fleet._cond.notify_all()
                return True
            fleet._record_locked(entry, result, supervisor=self.supervisor)
        return True

    def _track(self) -> int:
        from repro.obs.spans import TRACK_WORKER_BASE

        return TRACK_WORKER_BASE + self.worker_id


class Fleet:
    """N worker VMs behind one admission-controlled async scheduler.

    ``run(jobs)`` admits, schedules, and supervises one batch, returning
    one :class:`JobResult` per job **in submission order** (unlike the
    single-VM supervisor's completion order — callers diffing runs
    across worker counts need a stable order).  The fleet is reusable
    across batches (caches and tenant state persist per worker) and is a
    context manager; :meth:`close` stops the workers.
    """

    def __init__(
        self,
        workers: int = 2,
        engine: str = "tracing",
        config=None,
        limits: Optional[ResourceLimits] = None,
        max_retries: int = 1,
        degrade_after: int = 2,
        probation_after: int = 3,
        backoff_seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
        shed_after: Optional[int] = None,
        hang_timeout: float = 1.0,
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
        self.hang_timeout = hang_timeout
        self.max_requeues = max_requeues
        self._config = config
        self._wall = clock if clock is not None else time.monotonic
        self._tick = 0.02
        #: Fleet-level observability bus (sheds, steals, respawns,
        #: retries; every emit happens under the scheduler lock).
        self.events = EventStream(capture=capture_events)
        self.metrics = None
        if capture_metrics:
            from repro.obs.metrics import MetricsRegistry, attach_fleet_views

            self.metrics = MetricsRegistry()
            attach_fleet_views(self.metrics, self.events, lambda: [
                w.supervisor.vm.metrics for w in self._workers + self._dead
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
        self._cond = threading.Condition()
        self._workers: List[Worker] = []
        self._dead: List[Worker] = []
        self._next_worker_id = 0
        self._initial_workers = workers
        self._started = False
        self._closed = False
        self._buckets: Dict[str, TokenBucket] = {}
        #: tenant -> sticky worker (affinity routing, remapped on respawn).
        self._affinity: Dict[str, Worker] = {}
        self._results: List[Optional[JobResult]] = []
        self._completed = 0
        #: Results that never reached a worker supervisor (sheds and
        #: worker-lost), folded into :meth:`tenant_summary`.
        self._unrun: List[JobResult] = []

    # -- construction helpers -----------------------------------------------

    def _make_supervisor(self) -> Supervisor:
        # VMConfig must not be shared between workers: safe mode mutates
        # config.enable_tracing in place, which would leak one worker's
        # circuit-breaker trip into every other VM.
        config = copy.copy(self._config) if self._config is not None else None
        return Supervisor(
            engine=self.engine,
            config=config,
            limits=self.limits,
            max_retries=self.max_retries,
            degrade_after=self.degrade_after,
            probation_after=self.probation_after,
            backoff_seed=self.backoff_seed,
            capture_metrics=self.metrics is not None,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the initial worker pool (idempotent)."""
        if self._started:
            return
        self._started = True
        for _ in range(self._initial_workers):
            self._spawn_worker()

    def _spawn_worker(self, replaces: Optional[int] = None) -> Worker:
        worker = Worker(self, self._next_worker_id, replaces=replaces)
        self._next_worker_id += 1
        if (
            replaces is not None
            and getattr(worker.supervisor.vm, "trace_store", None) is not None
        ):
            # A replacement worker reloads the dead worker's hot traces
            # from the persistent store instead of re-tracing them all.
            sources, fragments = worker.supervisor.warm_start_from_store()
            self.events.emit(
                eventkind.WORKER_WARM_START,
                worker=worker.worker_id,
                sources=sources,
                fragments=fragments,
            )
        self._workers.append(worker)
        worker.start()
        return worker

    def close(self) -> None:
        """Stop every worker thread; the fleet cannot run further batches."""
        with self._cond:
            self._closed = True
            for worker in self._workers:
                worker.defunct = True
            self._cond.notify_all()
        for worker in self._workers + self._dead:
            if worker.thread.is_alive():
                worker.thread.join(timeout=2.0)

    def __enter__(self) -> "Fleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission ----------------------------------------------------------

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

    def _queued_total_locked(self) -> int:
        return sum(worker.queued() for worker in self._workers)

    def _admit_locked(self, index: int, job: Job) -> None:
        if job.not_after is not None and self._wall() > job.not_after:
            self._shed_locked(index, job, SHED_DEADLINE)
            return
        bucket = self._bucket_for(job.tenant)
        if bucket is not None and not bucket.try_take():
            self._shed_locked(index, job, SHED_RATE)
            return
        if (
            self.shed_after is not None
            and self._queued_total_locked() >= self.shed_after
        ):
            self._shed_locked(index, job, SHED_QUEUE_FULL)
            return
        worker = self._route_locked(job)
        entry = _QueueEntry(job, 1, 0, index, self._wall())
        worker.queue.append(entry)
        self._set_worker_gauges_locked()
        self._cond.notify_all()

    def _route_locked(self, job: Job) -> Worker:
        alive = [w for w in self._workers if not w.defunct]
        # 1. the worker that already compiled this exact source: its
        #    trace cache holds the job's loops.
        for worker in alive:
            if job.source in worker.supervisor._codes:
                self._affinity[job.tenant] = worker
                worker.tenants.add(job.tenant)
                return worker
        # 2. sticky tenant affinity.
        worker = self._affinity.get(job.tenant)
        if worker is not None and not worker.defunct:
            return worker
        # 3. least-loaded: fewest assigned tenants, then shortest queue.
        worker = min(
            alive,
            key=lambda w: (len(w.tenants), w.queued(), w.worker_id),
        )
        self._affinity[job.tenant] = worker
        worker.tenants.add(job.tenant)
        return worker

    def _shed_locked(self, index: int, job: Job, reason: str) -> None:
        result = JobShed(
            job_id=job.job_id,
            tenant=job.tenant,
            status=STATUS_SHED,
            attempts=0,
            engine_mode="none",
            fault=f"shed: {reason}",
            reason=reason,
        )
        self.events.emit(
            eventkind.JOB_SHED,
            job=job.job_id,
            tenant=job.tenant,
            reason=reason,
        )
        self._unrun.append(result)
        self._results[index] = result
        self._completed += 1
        self._cond.notify_all()

    def _shed_entry_locked(self, entry: _QueueEntry, reason: str) -> None:
        if entry.recorded or entry.abandoned:
            return
        entry.recorded = True
        self._shed_locked(entry.index, entry.job, reason)

    # -- recording ----------------------------------------------------------

    def _record_locked(self, entry: _QueueEntry, result: JobResult,
                       supervisor: Optional[Supervisor] = None) -> None:
        if entry.recorded or entry.abandoned:
            return
        entry.recorded = True
        if supervisor is not None:
            supervisor.note_outcome(entry.job, result)
        else:
            self._unrun.append(result)
        self._results[entry.index] = result
        self._completed += 1
        self._cond.notify_all()

    # -- the watchdog -------------------------------------------------------

    def _supervise_locked(self) -> None:
        """One watchdog pass: respawn crashed workers, abandon and
        replace wedged ones (run on the scheduler thread between waits)."""
        now = self._wall()
        for worker in list(self._workers):
            if worker.defunct:
                continue
            if worker.crashed:
                self._respawn_locked(worker, "crash")
            elif (
                worker.state == "busy"
                and worker.hung
                and now - worker.busy_since >= self.hang_timeout
            ):
                self._respawn_locked(worker, "hang")

    def _respawn_locked(self, old: Worker, reason: str) -> None:
        entry = old.current
        old.defunct = True
        old.state = "dead"
        old.current = None
        self._workers.remove(old)
        self._dead.append(old)
        self.events.emit(
            eventkind.WORKER_RESPAWN,
            worker=old.worker_id,
            reason=reason,
            job=entry.job.job_id if entry is not None else None,
        )
        replacement = self._spawn_worker(replaces=old.worker_id)
        # The replacement inherits the dead worker's backlog, tenant
        # assignments, and affinity edges (fresh VM, empty caches).
        replacement.queue.extend(
            e for e in old.queue if not e.abandoned and not e.recorded
        )
        old.queue.clear()
        replacement.tenants |= old.tenants
        for tenant, worker in list(self._affinity.items()):
            if worker is old:
                self._affinity[tenant] = replacement
        # Resubmit the in-flight entry (fresh claim token; the zombie
        # thread's copy is abandoned and can never record).
        if entry is not None and not entry.recorded:
            entry.abandoned = True
            if entry.requeues + 1 > self.max_requeues:
                lost = JobResult(
                    job_id=entry.job.job_id,
                    tenant=entry.job.tenant,
                    status=STATUS_WORKER_LOST,
                    attempts=entry.attempt,
                    engine_mode="none",
                    fault=(
                        f"worker lost: {reason} x{entry.requeues + 1} "
                        f"exceeded max_requeues={self.max_requeues}"
                    ),
                )
                entry.recorded = True
                self._unrun.append(lost)
                self._results[entry.index] = lost
                self._completed += 1
            else:
                fresh = _QueueEntry(
                    entry.job, entry.attempt, entry.requeues + 1,
                    entry.index, self._wall(),
                )
                replacement.queue.appendleft(fresh)
        self._set_worker_gauges_locked()
        self._cond.notify_all()

    # -- metrics helpers ----------------------------------------------------

    def _set_worker_gauges_locked(self) -> None:
        if self.metrics is None:
            return
        self.metrics.fleet_workers.set(
            sum(1 for w in self._workers if not w.defunct)
        )
        for worker in self._workers:
            self.metrics.fleet_worker_queue_depth.set(
                worker.queued(), worker=str(worker.worker_id)
            )

    # -- batches ------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Admit and run one batch; one result per job, submission order."""
        self.start()
        if self._closed:
            raise RuntimeError("fleet is closed")
        with self._cond:
            self._results = [None] * len(jobs)
            self._completed = 0
            for index, job in enumerate(jobs):
                self._admit_locked(index, job)
            while self._completed < len(jobs):
                self._cond.wait(self._tick)
                self._supervise_locked()
            results = list(self._results)
            self._results = []
            self._set_worker_gauges_locked()
        return results

    # -- summaries ----------------------------------------------------------

    @property
    def workers(self) -> List[Worker]:
        """Live workers (replacements included, corpses excluded)."""
        return [w for w in self._workers if not w.defunct]

    @property
    def degraded_tenants(self) -> set:
        """Union of every worker's interpreter-only tenant set."""
        out: set = set()
        for worker in self._workers + self._dead:
            out |= worker.supervisor.degraded_tenants
        return out

    def tenant_summary(self) -> Dict[str, TenantUsage]:
        """Fleet-wide per-tenant billing: every worker's summary merged,
        plus jobs that never ran (sheds, worker-lost)."""
        merged: Dict[str, TenantUsage] = {}
        for worker in self._workers + self._dead:
            for tenant, usage in worker.supervisor.tenant_usage.items():
                into = merged.setdefault(tenant, TenantUsage())
                into.jobs += usage.jobs
                into.ok += usage.ok
                into.faulted += usage.faulted
                into.retries += usage.retries
                into.cycles += usage.cycles
                into.heap_cells += usage.heap_cells
                into.output_bytes += usage.output_bytes
        for result in self._unrun:
            merged.setdefault(result.tenant, TenantUsage()).add(result)
        return dict(sorted(merged.items()))

    def counts(self) -> Dict[str, int]:
        """Fleet lifecycle event counts (sheds, steals, respawns, ...)."""
        return dict(self.events.counts)
