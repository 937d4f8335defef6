"""The batch executor: every batch runs on a :class:`Supervisor`.

A :class:`Supervisor` runs one batch of jobs on **one long-lived VM**
from one FIFO queue, **on the caller's thread**, like the paper's
single-threaded VM with its one trace cache.  Billing stays on
**simulated cycles** (the VM's ledger is untouched); admission and
deadlines are the one layer that lives on **host wall-clock**.  Per job
it provides:

* **admission control** — per-tenant token-bucket rate limits, a
  bounded ingress queue, and wall-clock deadlines.  A refused job
  produces a typed :class:`JobShed` result (status ``shed`` with a
  ``rate`` / ``queue-full`` / ``deadline`` reason), never a traceback,
  and a job that would only *start* past its deadline is shed at
  dequeue rather than run;
* **isolation** — fresh globals / output / frames via
  :meth:`repro.core.preempt.PreemptionMixin.reset_guest_state`, while
  the trace cache, oracle, and blacklist survive (identical sources
  share one compiled :class:`~repro.bytecode.compiler.Code`, so hot
  traces recorded for one tenant keep paying off for the next);
* **enforcement** — a :class:`repro.exec.limits.ScriptMeter` bills the
  job from ledger/allocation/output deltas and terminates it with a
  typed guest fault on breach;
* **the retry policy** — a job whose compile-quota (or deadline)
  breach coincided with trace-cache flushes may have been *deopted by
  cache pressure* from other tenants rather than misbehaving itself;
  it re-enters the queue a seeded number of slots behind the head
  (``job-retried`` on the VM's stream);
* **graceful degradation** — a tenant that repeatedly blows the
  compile quota is demoted to interpreter-only mode (the monitor is
  disabled for its jobs), the same lever as the firewall's safe mode
  but scoped per tenant;
* **VM fault tolerance** — an exception escaping an attempt and an
  injected ``fleet.worker_crash`` or ``fleet.worker_hang`` (sites of
  :mod:`repro.hardening.faults`, fired at the scheduler boundary, never
  inside a VM) all replace the VM at once with a fresh one
  (``worker-respawn`` / ``worker-online`` events) and resubmit the
  entry, bounded by ``max_requeues`` (terminal status ``worker-lost``
  when exhausted);
* **billing** — per-tenant :class:`TenantUsage` and, with metrics on,
  the job and billing counters of the VM's registry.

Tenant policy (degradation, probation, breach counts), billing and the
backoff jitter source belong to the supervisor, not to its VM, so they
outlive a VM replacement.  Since one thread runs everything, a batch is
deterministic for a fixed seed and clock.

Scheduler-level facts flow through the supervisor's own
:class:`~repro.core.events.EventStream` (``job-shed``,
``worker-online``, ``worker-respawn``), tallied like a VM stream and
drawn by a :class:`~repro.obs.spans.FleetSpanRecorder`.  A respawn
leaves more than one VM generation behind, each with its own stream,
registry and span recorder; :meth:`Supervisor.write_events` and
:meth:`Supervisor.chrome_trace` join every generation with the
supervisor's, and its :class:`~repro.obs.metrics.MetricsRegistry`
reports its own stream's families plus every generation's counters,
with gauges read from the live VM.  See docs/INTERNALS.md §15.
"""

from __future__ import annotations

import copy
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core import events as eventkind
from repro.core.events import EventStream
from repro.errors import (
    GuestFault,
    JSLiteSyntaxError,
    JSThrow,
    QuotaExceeded,
    ScriptCancelled,
    ScriptTimeout,
)
from repro.exec.limits import ResourceLimits
from repro.hardening import faults
from repro.hardening.faults import FaultInjector, FaultPlan, InjectedFault

#: Job completion statuses.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_QUOTA = "quota"
STATUS_CANCELLED = "cancelled"
STATUS_JS_ERROR = "js-error"
STATUS_COMPILE_ERROR = "compile-error"
#: Fallback for a :class:`GuestFault` subclass without its own status
#: (each concrete subclass must map to a *distinct* batch-table status).
STATUS_FAULT = "guest-fault"
#: Jobs that never ran: refused at admission, or whose VM kept dying.
STATUS_SHED = "shed"
STATUS_WORKER_LOST = "worker-lost"

#: Shed reasons (the ``reason`` field of :class:`JobShed` and of the
#: ``job-shed`` event / ``repro_fleet_sheds_total`` metric).
SHED_RATE = "rate"
SHED_QUEUE_FULL = "queue-full"
SHED_DEADLINE = "deadline"


@dataclass
class Job:
    """One unit of guest work: a source program owned by a tenant."""

    job_id: str
    source: str
    tenant: str = "default"
    name: Optional[str] = None
    #: Per-job override; falls back to the supervisor's default limits.
    limits: Optional[ResourceLimits] = None
    #: Deadline on the *supervisor's wall clock* (absolute, in
    #: seconds): a job that would only start past this instant is shed,
    #: at admission or at dequeue, and never run.
    not_after: Optional[float] = None


@dataclass
class JobUsage:
    """What one job attempt consumed (per-job billing)."""

    cycles: int = 0
    compile_cycles: int = 0
    heap_cells: int = 0
    output_bytes: int = 0
    max_stack: int = 0


@dataclass
class JobResult:
    job_id: str
    tenant: str
    status: str
    attempts: int
    engine_mode: str
    usage: JobUsage = field(default_factory=JobUsage)
    #: Rendered completion value (status "ok" only).
    result: Optional[str] = None
    #: Human-readable fault / uncaught-exception description.
    fault: Optional[str] = None
    output: Tuple[str, ...] = ()
    #: Trace-cache flushes observed while this attempt ran (the retry
    #: heuristic's signal for cache pressure).
    cache_flushes: int = 0
    #: Counter series that changed while the final attempt ran
    #: (``{series-name: delta}``), when the supervisor VM has metrics
    #: attached; None otherwise.
    metrics: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class JobShed(JobResult):
    """A typed admission refusal: the job never ran.

    Subclasses :class:`JobResult` so batch tables and per-tenant
    summaries handle sheds uniformly; ``status`` is always ``shed`` and
    ``reason`` says which admission gate refused it.
    """

    reason: str = ""


@dataclass
class TenantUsage:
    """Aggregated billing for one tenant across a batch."""

    jobs: int = 0
    ok: int = 0
    faulted: int = 0
    retries: int = 0
    cycles: int = 0
    heap_cells: int = 0
    output_bytes: int = 0

    def add(self, result: JobResult) -> None:
        self.jobs += 1
        if result.ok:
            self.ok += 1
        else:
            self.faulted += 1
        # A shed job never ran (attempts 0): it was not retried either.
        self.retries += max(result.attempts - 1, 0)
        self.cycles += result.usage.cycles
        self.heap_cells += result.usage.heap_cells
        self.output_bytes += result.usage.output_bytes


def status_of_fault(fault: GuestFault) -> str:
    """Batch-table status for a guest fault; every concrete
    :class:`GuestFault` subclass maps to its own distinct status, and an
    unknown subclass falls back to :data:`STATUS_FAULT` (never to one of
    the specific statuses, which would mis-bill the tenant)."""
    if isinstance(fault, ScriptTimeout):
        return STATUS_TIMEOUT
    if isinstance(fault, ScriptCancelled):
        return STATUS_CANCELLED
    if isinstance(fault, QuotaExceeded):
        return STATUS_QUOTA
    return STATUS_FAULT


def backoff_slots(rng: random.Random, attempt: int) -> int:
    """Retry backoff expressed in *queue slots*: how many other queued
    jobs should run before this attempt retries.

    Exponential in the attempt number with seeded jitter —
    ``2**(attempt-1) + U[0, 2**(attempt-1))`` — so colliding retriers
    decorrelate (classic exponential backoff with jitter) while a fixed
    seed keeps whole batch runs deterministic."""
    base = 1 << (attempt - 1)
    return base + rng.randrange(base)


class TokenBucket:
    """Per-tenant admission rate limit (tokens/second, bounded burst).

    The clock is injectable so tests can drive refill deterministically;
    the supervisor passes its own wall clock.
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
    #: VM-replacement resubmissions (crash/hang), distinct from the
    #: guest-fault retry attempt counter.
    requeues: int = 0
    #: The VM's ledger total when the entry joined the queue: the start
    #: of the attempt's queue-wait span.
    enqueued_at: int = 0


class Supervisor:
    """One supervised VM behind an admission-controlled FIFO queue.

    ``run(jobs)`` admits, schedules, and supervises one batch on the
    calling thread, returning one :class:`JobResult` per job **in
    submission order**.  The supervisor is reusable across batches (the
    trace cache and tenant state persist).  ``vm`` is the live VM.
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
        self.engine = engine
        self.limits = limits if limits is not None else ResourceLimits()
        self.max_retries = max_retries
        self.degrade_after = degrade_after
        self.probation_after = probation_after
        self.rates = dict(rates or {})
        self.shed_after = shed_after
        self.max_requeues = max_requeues
        self._config = config
        self._capture = (capture_events, capture_metrics, capture_spans)
        self._wall = clock if clock is not None else time.monotonic
        #: Seeded jitter source for retry backoff: deterministic for a
        #: fixed seed, decorrelated between colliding retriers.
        self._backoff_rng = random.Random(backoff_seed)
        #: tenant -> aggregated billing, filled as results complete
        #: (jobs that never ran included).
        self.tenant_usage: Dict[str, TenantUsage] = {}
        #: tenant -> compile-quota breach count (degradation trigger).
        self._compile_breaches: Dict[str, int] = {}
        #: Tenants demoted to interpreter-only mode.
        self.degraded_tenants: Set[str] = set()
        #: tenant -> consecutive clean interpreter-only jobs while
        #: degraded (the half-open probation counter).
        self._clean_interp: Dict[str, int] = {}
        #: Degraded tenants re-admitted to the JIT on probation: one
        #: more compile breach re-degrades them immediately, one clean
        #: JIT job restores them fully.
        self.probation_tenants: Set[str] = set()
        #: Scheduler-level observability bus (sheds, respawns).
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
        #: Every VM the supervisor has run on, oldest first (the live
        #: one last); a VM's index is its ``worker`` id in the
        #: ``worker-online`` / ``worker-respawn`` events.
        self.vms: List[object] = []
        self.queue: Deque[_Entry] = deque()
        self._buckets: Dict[str, TokenBucket] = {}
        self._results: List[Optional[JobResult]] = []
        self._spawn()

    # -- the VM --------------------------------------------------------------

    def _spawn(self, replaces: Optional[int] = None) -> None:
        """Build a fresh VM and announce it as the next worker id; a
        replacement first reloads the dead VM's hot traces from the
        persistent store instead of re-tracing them all.

        The VM gets its own copy of the batch config: safe mode mutates
        ``config.enable_tracing`` in place, which must not leak from a
        dead VM into its replacement.  The source→Code cache starts
        empty, since its Code objects key the old VM's traces.
        """
        from repro.suite.runner import ENGINES
        from repro.vm import VMConfig

        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        capture_events, capture_metrics, capture_spans = self._capture
        config = copy.copy(self._config) if self._config is not None else None
        if capture_events:
            if config is None:
                config = VMConfig()
            config.capture_events = True
        vm = self.vm = ENGINES[self.engine](config)
        if capture_metrics:
            vm.enable_metrics()
            # The level belongs to the tenant policy, which outlives
            # the VM that reports it.
            vm.metrics.degraded_tenants.set(len(self.degraded_tenants))
        if capture_spans:
            vm.enable_span_tracing()
        #: source -> compiled Code; shared across jobs and tenants so
        #: identical programs hit the same loop headers (and traces).
        self._codes: Dict[str, object] = {}
        worker = len(self.vms)
        self.vms.append(vm)
        if replaces is not None and getattr(vm, "trace_store", None) is not None:
            sources, fragments = self.warm_start_from_store()
            self.events.emit(
                eventkind.WORKER_WARM_START,
                worker=worker,
                sources=sources,
                fragments=fragments,
            )
        self.events.emit(eventkind.WORKER_ONLINE, worker=worker, replaces=replaces)

    def _respawn(self, entry: _Entry, reason: str) -> None:
        """Replace the VM with a fresh one and resubmit ``entry``, the
        attempt it was about to run."""
        dead = len(self.vms) - 1
        self.events.emit(
            eventkind.WORKER_RESPAWN,
            worker=dead,
            reason=reason,
            job=entry.job.job_id,
        )
        self._spawn(replaces=dead)
        # The backlog starts waiting on the new VM's clock.
        for queued in self.queue:
            queued.enqueued_at = self.vm.stats.ledger.total
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
        entry.enqueued_at = self.vm.stats.ledger.total
        if position is None:
            self.queue.append(entry)
        else:
            self.queue.insert(position, entry)

    # -- the trace store ----------------------------------------------------

    def warm_start_from_store(self) -> tuple:
        """Preload every live trace-store entry into the live VM.

        Compiles each persisted source, primes the shared source→Code
        cache, and links the persisted traces — the reload-and-verify
        path of a VM that just replaced a dead one.  Returns
        ``(sources_loaded, fragments_linked)``; every failure is
        contained per entry (a broken entry costs only its own warm
        start).
        """
        vm = self.vm
        store = getattr(vm, "trace_store", None)
        monitor = getattr(vm, "monitor", None)
        if store is None or monitor is None:
            return (0, 0)
        sources = 0
        fragments_before = monitor.cache.fragment_count
        for source, name in store.warm_sources():
            code = self._codes.get(source)
            if code is None:
                try:
                    code = vm.compile(source, name=name)
                except Exception:
                    continue  # stale entry for an uncompilable source
                self._codes[source] = code
            if store.preload(vm, source, code):
                sources += 1
        return (sources, monitor.cache.fragment_count - fragments_before)

    # -- admission -----------------------------------------------------------

    def _admit(self, index: int, job: Job) -> None:
        if job.not_after is not None and self._wall() > job.not_after:
            self._shed(index, job, SHED_DEADLINE)
            return
        rate = self.rates.get(job.tenant)
        if rate is not None:
            bucket = self._buckets.get(job.tenant)
            if bucket is None:
                bucket = self._buckets[job.tenant] = TokenBucket(
                    rate, clock=self._wall
                )
            if not bucket.try_take():
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
        self.tenant_usage.setdefault(result.tenant, TenantUsage()).add(result)
        self._results[index] = result

    # -- scheduling ----------------------------------------------------------

    def _turn(self) -> None:
        """Run the entry at the head of the queue."""
        entry = self.queue.popleft()
        job = entry.job
        vm = self.vm
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
            result = self._run_attempt(job, entry.attempt)
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
        if self._should_retry(result, entry.attempt):
            backoff = backoff_slots(self._backoff_rng, entry.attempt)
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
        self._note_outcome(job, result)
        self._results[entry.index] = result

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Admit and run one batch; one result per job, submission order."""
        self._results = [None] * len(jobs)
        for index, job in enumerate(jobs):
            self._admit(index, job)
        while self.queue:
            self._turn()
        metrics = getattr(self.vm, "metrics", None)
        if metrics is not None:
            metrics.queue_depth.set(0)
        results, self._results = self._results, []
        return results

    # -- the retry policy and outcomes -------------------------------------

    def _should_retry(self, result: JobResult, attempt: int) -> bool:
        """Whether the cache-pressure retry heuristic re-queues this
        attempt (:meth:`_turn` then backs it off by
        :func:`backoff_slots`)."""
        if attempt > self.max_retries:
            return False
        if result.status not in (STATUS_QUOTA, STATUS_TIMEOUT):
            return False
        # Only breaches coinciding with cache pressure are plausibly
        # the supervisor's fault (recompilation churn from flushes);
        # a quiet-cache breach is the guest's own behavior.
        return result.cache_flushes > 0

    def _note_outcome(self, job: Job, result: JobResult) -> None:
        """Record ``result`` as ``job``'s final outcome: billing,
        degradation/probation transitions, and per-job metrics."""
        tenant = job.tenant
        compile_breach = result.status == STATUS_QUOTA and result.fault and (
            "compile-cycles" in result.fault
        )
        if compile_breach:
            self._clean_interp.pop(tenant, None)
            if tenant in self.probation_tenants:
                # Half-open breach: straight back to interpreter-only,
                # no second grace period.
                self.probation_tenants.discard(tenant)
                self.degraded_tenants.add(tenant)
                self._compile_breaches[tenant] = self.degrade_after
                self.vm.events.emit(
                    eventkind.TENANT_PROBATION,
                    tenant=tenant,
                    phase="redegraded",
                    job=job.job_id,
                )
            else:
                count = self._compile_breaches.get(tenant, 0) + 1
                self._compile_breaches[tenant] = count
                if count >= self.degrade_after:
                    self.degraded_tenants.add(tenant)
        elif result.engine_mode == "interp-only" and (
            tenant in self.degraded_tenants
        ):
            # Half-open circuit: after probation_after consecutive
            # clean interpreter-only jobs, let the tenant try the JIT
            # again on probation.
            if result.ok:
                count = self._clean_interp.get(tenant, 0) + 1
                self._clean_interp[tenant] = count
                if count >= self.probation_after:
                    self.degraded_tenants.discard(tenant)
                    self.probation_tenants.add(tenant)
                    self._clean_interp.pop(tenant, None)
                    self._compile_breaches.pop(tenant, None)
                    self.vm.events.emit(
                        eventkind.TENANT_PROBATION,
                        tenant=tenant,
                        phase="enter",
                        job=job.job_id,
                    )
            else:
                self._clean_interp.pop(tenant, None)
        elif tenant in self.probation_tenants and result.ok:
            # One clean JIT-enabled job closes the probation window.
            self.probation_tenants.discard(tenant)
            self.vm.events.emit(
                eventkind.TENANT_PROBATION,
                tenant=tenant,
                phase="restored",
                job=job.job_id,
            )
        self.tenant_usage.setdefault(tenant, TenantUsage()).add(result)
        metrics = getattr(self.vm, "metrics", None)
        if metrics is not None:
            metrics.jobs.inc(1, tenant=tenant, status=result.status)
            metrics.billed_cycles.inc(result.usage.cycles, tenant=tenant)
            metrics.billed_heap_cells.inc(
                result.usage.heap_cells, tenant=tenant
            )
            metrics.billed_output_bytes.inc(
                result.usage.output_bytes, tenant=tenant
            )
            metrics.degraded_tenants.set(len(self.degraded_tenants))

    # -- one attempt --------------------------------------------------------

    def _code_for(self, job: Job):
        code = self._codes.get(job.source)
        if code is None:
            code = self.vm.compile(job.source, name=job.name or job.job_id)
            self._codes[job.source] = code
            store = getattr(self.vm, "trace_store", None)
            if store is not None:
                # Warm-start newly compiled sources from the persistent
                # store (contained: trouble just means cold tracing).
                store.preload(self.vm, job.source, code)
        return code

    def _run_attempt(self, job: Job, attempt: int) -> JobResult:
        """Run one attempt of ``job`` (no queueing, no retry, no outcome
        bookkeeping): :meth:`_turn` calls this once per attempt."""
        vm = self.vm
        vm.reset_guest_state()
        limits = job.limits if job.limits is not None else self.limits
        meter = vm.install_meter(limits)
        metrics = getattr(vm, "metrics", None)
        counters_before = metrics.flat_counters() if metrics is not None else None
        spans = getattr(vm, "span_recorder", None)
        job_span = 0
        if spans is not None:
            job_span = spans.open(
                f"{job.job_id} (attempt {attempt})", cat="job",
                tenant=job.tenant, attempt=attempt,
            )
        monitor = getattr(vm, "monitor", None)
        degraded = job.tenant in self.degraded_tenants
        saved_disabled = None
        engine_mode = self.engine
        if degraded and monitor is not None:
            saved_disabled = monitor.disabled
            monitor.disabled = True
            engine_mode = "interp-only"
        tracing = vm.stats.tracing
        flushes_before = tracing.cache_flushes
        status = STATUS_OK
        rendered = None
        fault_text = None
        try:
            try:
                code = self._code_for(job)
            except JSLiteSyntaxError as error:
                status = STATUS_COMPILE_ERROR
                fault_text = str(error)
            else:
                from repro.runtime.conversions import to_string

                value = vm.run_code(code)
                rendered = to_string(value)
        except GuestFault as fault:
            status = status_of_fault(fault)
            fault_text = str(fault)
        except JSThrow as thrown:
            from repro.runtime.conversions import to_string

            status = STATUS_JS_ERROR
            fault_text = f"uncaught exception: {to_string(thrown.value)}"
        finally:
            if saved_disabled is not None and not getattr(vm, "in_safe_mode", False):
                monitor.disabled = saved_disabled
            usage = JobUsage(
                cycles=meter.cycles_used(vm),
                compile_cycles=meter.compile_cycles_used(vm),
                heap_cells=meter.heap_cells,
                output_bytes=meter.output_bytes,
                max_stack=meter.max_stack,
            )
            vm.clear_meter()
        if status == STATUS_OK and meter.pending is not None:
            # The breach was detected but the program finished before
            # reaching a delivery safe point: it still counts — the
            # tenant is billed and the job is marked terminated.
            status = status_of_fault(meter.pending)
            fault_text = str(meter.pending)
            rendered = None
        metrics_delta = None
        if metrics is not None:
            metrics.meter_polls.inc(meter.polls)
            metrics_delta = metrics.delta(
                counters_before, metrics.flat_counters()
            )
        if spans is not None:
            spans.close(job_span, status=status)
        store = getattr(vm, "trace_store", None)
        if store is not None and status != STATUS_COMPILE_ERROR:
            code = self._codes.get(job.source)
            if code is not None:
                store.persist(vm, job.source, code)
        return JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            status=status,
            attempts=attempt,
            engine_mode=engine_mode,
            usage=usage,
            result=rendered,
            fault=fault_text,
            output=tuple(vm.output),
            cache_flushes=tracing.cache_flushes - flushes_before,
            metrics=metrics_delta,
        )

    # -- summaries and exports -----------------------------------------------

    def tenant_summary(self) -> Dict[str, TenantUsage]:
        """Per-tenant billing, jobs that never ran (sheds, worker-lost)
        included, sorted by tenant."""
        return dict(sorted(self.tenant_usage.items()))

    def counts(self) -> Dict[str, int]:
        """Scheduler event counts (sheds, respawns, ...), plus the
        ``job-retried`` events of every VM's stream."""
        counts = dict(self.events.counts)
        retried = sum(
            vm.events.counts.get(eventkind.JOB_RETRIED, 0) for vm in self.vms
        )
        if retried:
            counts[eventkind.JOB_RETRIED] = retried
        return counts

    def write_events(self, path: str) -> int:
        """Write the supervisor's stream, then each VM's stream oldest
        first, as one JSONL file; ``seq`` is renumbered across the file
        so it stays strictly increasing.  Returns the event count."""
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
        """The Chrome trace of a span-capturing supervisor: its own lanes
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
