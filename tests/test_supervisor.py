"""Execution supervisor: deadlines, quotas, cancellation, batch jobs.

Adversarial guests — infinite loops, unbounded allocation, runaway
recursion — must terminate with the right typed guest fault under
every engine, whether the hot code is running in the interpreter or
on a compiled trace, and a VM reused across jobs must behave byte-
for-byte like a fresh one.
"""

import pytest

from repro.baselines.method_jit import MethodJITVM
from repro.errors import (
    GuestFault,
    QuotaExceeded,
    ScriptCancelled,
    ScriptTimeout,
)
from repro.exec import (
    Job,
    JobResult,
    JobUsage,
    ResourceLimits,
    Supervisor,
    TenantUsage,
    backoff_slots,
    status_of_fault,
    string_cells,
)
from repro.hardening.chaos import observe
from repro.vm import BaselineVM, ThreadedVM, TracingVM, VMConfig

ENGINES = {
    "tracing": TracingVM,
    "baseline": BaselineVM,
    "threaded": ThreadedVM,
    "methodjit": MethodJITVM,
}

INFINITE_LOOP = "var i = 0; while (true) { i = i + 1; }"
UNBOUNDED_ARRAY = "var a = []; var i = 0; while (true) { a.push(i); i = i + 1; }"
UNBOUNDED_STRING = 'var s = "x"; while (true) { s = s + s; }'
DEEP_RECURSION = (
    "function down(n) { return down(n + 1); } down(0);"
)
PRINT_FLOOD = 'var i = 0; while (true) { print("spam"); i = i + 1; }'


class TestResourceLimits:
    def test_any(self):
        assert not ResourceLimits().any()
        assert ResourceLimits(deadline_cycles=5).any()
        assert ResourceLimits(stack_quota=5).any()

    def test_string_cells(self):
        assert string_cells(0) == 1
        assert string_cells(7) == 1
        assert string_cells(8) == 2
        assert string_cells(80) == 11


class TestScriptMeter:
    def test_no_meter_by_default(self):
        vm = TracingVM()
        assert vm.meter is None

    def test_unlimited_meter_never_breaches(self):
        vm = TracingVM()
        meter = vm.install_meter(ResourceLimits())
        result = vm.run("var s = 0; for (var i = 0; i < 200; i = i + 1) s = s + i; s;")
        assert result.payload == sum(range(200))
        assert meter.pending is None
        assert meter.cycles_used(vm) > 0

    def test_billing_baselines_are_per_job(self):
        vm = TracingVM()
        vm.run("var x = 1; for (var i = 0; i < 50; i = i + 1) x = x + i;")
        burned = vm.stats.ledger.total
        assert burned > 0
        meter = vm.install_meter(ResourceLimits(deadline_cycles=10**9))
        assert meter.cycles_used(vm) == 0  # prior jobs are not billed

    def test_detection_does_not_raise_only_flags(self):
        vm = TracingVM()
        meter = vm.install_meter(ResourceLimits(heap_quota=1))
        meter.note_cells(5, vm)  # over quota: records pending, no raise
        assert isinstance(meter.pending, QuotaExceeded)
        assert vm.preempt_flag
        with pytest.raises(QuotaExceeded):
            vm.service_preemption()


class TestAdversarialGuests:
    """The ISSUE's acceptance scenario, under all four engines."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_infinite_loop_times_out(self, engine):
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(deadline_cycles=200_000))
        with pytest.raises(ScriptTimeout):
            vm.run(INFINITE_LOOP)
        # Termination within one loop edge of the breach: the overshoot
        # is a single iteration's work, not a runaway.
        used = vm.meter.cycles_used(vm)
        assert 200_000 <= used < 210_000
        # Interpreter state torn down cleanly.
        frames = getattr(vm, "frames", None)
        if frames is None:
            frames = vm.interpreter.frames
        assert not frames

    def test_infinite_loop_times_out_on_trace(self):
        vm = TracingVM()
        vm.install_meter(ResourceLimits(deadline_cycles=300_000))
        with pytest.raises(ScriptTimeout):
            vm.run(INFINITE_LOOP)
        # The loop is hot and simple: the deadline must have hit while
        # native code was running, exiting through the PREEMPT guard.
        assert vm.stats.tracing.loop_iterations_native > 0
        assert vm.stats.tracing.script_deadlines == 1

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unbounded_array_growth_hits_heap_quota(self, engine):
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(heap_quota=10_000))
        with pytest.raises(QuotaExceeded) as info:
            vm.run(UNBOUNDED_ARRAY)
        assert info.value.resource == "heap-cells"
        assert vm.meter.heap_cells > 10_000

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unbounded_string_growth_hits_heap_quota(self, engine):
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(heap_quota=50_000))
        with pytest.raises(QuotaExceeded) as info:
            vm.run(UNBOUNDED_STRING)
        assert info.value.resource == "heap-cells"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_deep_recursion_hits_stack_quota(self, engine):
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(stack_quota=100))
        with pytest.raises(QuotaExceeded) as info:
            vm.run(DEEP_RECURSION)
        assert info.value.resource == "stack-frames"
        assert vm.meter.max_stack == 101

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_deep_recursion_hits_deadline_without_stack_quota(self, engine):
        # Pure recursion never crosses a loop edge: the call-boundary
        # poll must deliver the deadline anyway.
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(deadline_cycles=150_000,
                                        stack_quota=500_000))
        with pytest.raises(ScriptTimeout):
            vm.run(DEEP_RECURSION)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_print_flood_hits_output_quota(self, engine):
        vm = ENGINES[engine]()
        vm.install_meter(ResourceLimits(output_quota=1_000))
        with pytest.raises(QuotaExceeded) as info:
            vm.run(PRINT_FLOOD)
        assert info.value.resource == "output-bytes"
        # Output produced before the breach is preserved for the host.
        assert vm.output and vm.output[0] == "spam"

    def test_deterministic_cancellation_point(self):
        vm = TracingVM()
        vm.install_meter(ResourceLimits(cancel_at_cycles=100_000))
        with pytest.raises(ScriptCancelled):
            vm.run(INFINITE_LOOP)
        assert vm.stats.tracing.script_cancels == 1

    def test_host_cancellation_without_limits(self):
        vm = TracingVM()
        vm.install_meter(ResourceLimits())
        vm.cancel_script("tenant disabled")
        with pytest.raises(ScriptCancelled):
            vm.run(INFINITE_LOOP)

    def test_happy_path_unaffected_by_limits(self):
        source = "var s = 0; for (var i = 0; i < 500; i = i + 1) s = s + i; s;"
        plain = TracingVM()
        unlimited = plain.run(source)
        metered = TracingVM()
        metered.install_meter(ResourceLimits(deadline_cycles=10**9,
                                             heap_quota=10**9))
        limited = metered.run(source)
        assert observe(plain, unlimited) == observe(metered, limited)
        # Metering charges zero simulated cycles.
        assert plain.stats.ledger.total == metered.stats.ledger.total

    def test_breach_mid_recording_aborts_recorder_cleanly(self):
        # hotness_threshold=2: iteration 3 records.  A deadline placed
        # inside the recording window must tear the recorder down.
        vm = TracingVM()
        vm.run("var warm = 0; for (var i = 0; i < 1; i = i + 1) warm = 1;")
        base = vm.stats.ledger.total
        vm.reset_guest_state()
        vm.install_meter(ResourceLimits(deadline_cycles=2_000))
        with pytest.raises(ScriptTimeout):
            vm.run(INFINITE_LOOP)
        assert vm.recorder is None or vm.recorder.finished
        assert base <= vm.stats.ledger.total

    def test_guest_fault_passes_through_firewall_chaos(self):
        # An injected internal JIT fault is contained by the firewall;
        # the guest fault must still surface as the typed exception.
        from repro.hardening import FaultPlan

        config = VMConfig(
            fault_plan=FaultPlan.parse(["compile.assemble:1"]),
        )
        vm = TracingVM(config)
        vm.install_meter(ResourceLimits(deadline_cycles=250_000))
        with pytest.raises(ScriptTimeout):
            vm.run(INFINITE_LOOP)
        assert vm.firewall.failures >= 1  # the injected fault was contained


class TestVMReuse:
    """reset_guest_state: a reused VM must match a fresh one exactly."""

    PROGRAMS = [
        "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; print(s); s;",
        'var words = "a,b,c".split(","); print(words.length); words.length;',
        "function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
        " fib(12);",
    ]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_reused_vm_equals_fresh_vm(self, engine):
        reused = ENGINES[engine]()
        for source in self.PROGRAMS:
            fresh = ENGINES[engine]()
            fresh_obs = observe(fresh, fresh.run(source))
            reused.reset_guest_state()
            reused_obs = observe(reused, reused.run(source))
            assert reused_obs == fresh_obs

    def test_reuse_after_guest_fault(self):
        vm = TracingVM()
        vm.install_meter(ResourceLimits(deadline_cycles=100_000))
        with pytest.raises(ScriptTimeout):
            vm.run(INFINITE_LOOP)
        vm.reset_guest_state()
        source = "var s = 0; for (var i = 0; i < 100; i = i + 1) s = s + i; s;"
        fresh = TracingVM()
        assert observe(vm, vm.run(source)) == observe(fresh, fresh.run(source))

    def test_globals_do_not_leak_across_reset(self):
        from repro.errors import JSThrow

        vm = TracingVM()
        vm.run("var secret = 42;")
        assert vm.run("secret;").payload == 42
        vm.reset_guest_state()
        # The global is gone: reading it is now a ReferenceError.
        with pytest.raises(JSThrow, match="secret is not defined"):
            vm.run("secret;")


class TestSupervisor:
    def test_queue_runs_all_jobs(self):
        sup = Supervisor(limits=ResourceLimits(deadline_cycles=500_000))
        results = sup.run([
            Job("sum", "var s = 0; for (var i = 0; i < 50; i = i + 1) s = s + i; s;"),
            Job("loop", INFINITE_LOOP),
            Job("boom", 'throw "nope";'),
            Job("bad", "var ("),
        ])
        statuses = {r.job_id: r.status for r in results}
        assert statuses == {
            "sum": "ok",
            "loop": "timeout",
            "boom": "js-error",
            "bad": "compile-error",
        }
        assert results[0].result == "1225"
        assert results[1].fault is not None

    def test_jobs_are_isolated(self):
        sup = Supervisor()
        poison = Job("writer", 'var leak = "set by writer";', tenant="a")
        probe = Job("reader", "leak;", tenant="b")
        results = sup.run([poison, probe])
        # The writer's global did not survive into the reader's world.
        assert results[1].status == "js-error"
        assert "leak is not defined" in results[1].fault
        assert results[1].output == ()

    def test_output_is_per_job(self):
        sup = Supervisor()
        results = sup.run([
            Job("a", 'print("from a");'),
            Job("b", 'print("from b");'),
        ])
        assert results[0].output == ("from a",)
        assert results[1].output == ("from b",)

    def test_usage_is_per_job_billing(self):
        sup = Supervisor()
        heavy = "var a = []; for (var i = 0; i < 200; i = i + 1) a.push(i); a.length;"
        light = "1 + 1;"
        results = sup.run([Job("heavy", heavy), Job("light", light)])
        assert results[0].usage.heap_cells > 100
        assert results[1].usage.heap_cells == 0
        assert 0 < results[1].usage.cycles < results[0].usage.cycles

    def test_shared_trace_cache_across_jobs(self):
        # The same source re-submitted re-uses the compiled Code, so
        # the second job enters traces recorded during the first.
        sup = Supervisor()
        source = "var s = 0; for (var i = 0; i < 400; i = i + 1) s = s + i; s;"
        first, second = sup.run([Job("j1", source), Job("j2", source)])
        assert first.result == second.result == str(sum(range(400)))
        assert second.usage.cycles < first.usage.cycles  # warm cache pays off
        # Job 2 may still compile a hot side-exit branch, but not the
        # main tree again.
        assert second.usage.compile_cycles < first.usage.compile_cycles

    def test_per_job_limit_override(self):
        sup = Supervisor(limits=ResourceLimits(deadline_cycles=10**9))
        tight = ResourceLimits(deadline_cycles=100_000)
        results = sup.run([
            Job("tight", INFINITE_LOOP, limits=tight),
            Job("fine", "2 + 2;"),
        ])
        assert results[0].status == "timeout"
        assert results[1].status == "ok"

    def test_breach_detected_at_finish_still_counts(self):
        # The allocation breaches the quota but the program ends before
        # any safe point: the job is still marked as a quota kill.
        sup = Supervisor(limits=ResourceLimits(heap_quota=2))
        result = sup.run([Job("job-0", "var a = [1, 2, 3, 4, 5, 6, 7, 8];")])[0]
        assert result.status == "quota"
        assert result.result is None

    def test_retry_on_cache_pressure(self):
        # A tiny code-cache budget forces flushes; a breach that
        # coincides with them is retried with backoff and a
        # job-retried event.
        config = VMConfig(code_cache_budget=400, capture_events=True)
        sup = Supervisor(
            config=config,
            limits=ResourceLimits(deadline_cycles=150_000),
            max_retries=2,
        )
        nested = (
            "var total = 0;"
            "for (var i = 0; i < 200; i = i + 1) {"
            "  for (var j = 0; j < 40; j = j + 1) { total = total + j; }"
            "  var s = ''; for (var k = 0; k < 4; k = k + 1) { s = s + 'x'; }"
            "}"
            "total;"
        )
        results = sup.run([Job("pressured", nested)])
        result = results[0]
        if result.attempts > 1:
            from repro.core import events as eventkind

            retried = sup.vm.events.of_kind(eventkind.JOB_RETRIED)
            assert retried and retried[0].payload["job"] == "pressured"
            assert sup.vm.stats.tracing.jobs_retried == result.attempts - 1
        else:  # breach did not coincide with a flush on this run
            assert result.status in ("ok", "timeout")

    def test_retry_heuristic(self):
        sup = Supervisor(max_retries=1)

        def res(status, flushes):
            return JobResult(
                job_id="j", tenant="t", status=status, attempts=1,
                engine_mode="tracing", usage=JobUsage(),
                cache_flushes=flushes,
            )

        assert sup._should_retry(res("timeout", 1), attempt=1)
        assert sup._should_retry(res("quota", 2), attempt=1)
        assert not sup._should_retry(res("timeout", 0), attempt=1)  # guest's fault
        assert not sup._should_retry(res("ok", 3), attempt=1)
        assert not sup._should_retry(res("timeout", 1), attempt=2)  # retries spent

    def test_tenant_degrades_to_interpreter_after_compile_breaches(self):
        loopy = "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; s;"
        sup = Supervisor(
            limits=ResourceLimits(compile_quota=1),
            degrade_after=2,
            max_retries=0,
        )
        # Distinct sources so each job compiles (and breaches) afresh.
        results = sup.run([
            Job("a1", loopy, tenant="abuser"),
            Job("a2", loopy + " s;", tenant="abuser"),
            Job("a3", loopy + " s + 0;", tenant="abuser"),
        ])
        assert results[0].status == "quota"
        assert results[1].status == "quota"
        assert "abuser" in sup.degraded_tenants
        # Demoted to interpreter-only: no compiling, so the job succeeds.
        assert results[2].status == "ok"
        assert results[2].engine_mode == "interp-only"
        assert results[2].usage.compile_cycles == 0

    def test_degradation_is_per_tenant(self):
        loopy = "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; s;"
        sup = Supervisor(
            limits=ResourceLimits(compile_quota=1),
            degrade_after=1,
            max_retries=0,
        )
        sup.run([Job("bad", loopy, tenant="abuser")])
        assert "abuser" in sup.degraded_tenants
        good = sup.run([
            Job("good", loopy + " s;", tenant="citizen",
                limits=ResourceLimits())
        ])[0]
        assert good.engine_mode != "interp-only"
        assert good.status == "ok"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_supervisor_runs_on_every_engine(self, engine):
        sup = Supervisor(
            engine=engine,
            limits=ResourceLimits(deadline_cycles=400_000),
        )
        ok = sup.run([Job("job-0", "var x = 6 * 7; x;")])[0]
        assert (ok.status, ok.result) == ("ok", "42")
        hung = sup.run([Job("hang", INFINITE_LOOP)])[0]
        assert hung.status == "timeout"

    def test_events_fold_into_stats(self):
        sup = Supervisor(limits=ResourceLimits(deadline_cycles=100_000))
        sup.run([Job("job-0", INFINITE_LOOP)])
        tracing = sup.vm.stats.tracing
        assert tracing.script_deadlines == 1
        assert tracing.guest_faults == 1
        assert any(
            "guest faults" in line for line in sup.vm.stats.summary_lines()
        )


class TestTenantUsage:
    def test_shed_job_counts_no_retry(self):
        # A shed job never ran (attempts 0): billing must not count it
        # as -1 retries.
        usage = TenantUsage()
        usage.add(JobResult(job_id="s", tenant="t", status="shed",
                            attempts=0, engine_mode="none"))
        assert (usage.jobs, usage.faulted, usage.retries) == (1, 1, 0)


class TestFaultStatusMapping:
    """Every GuestFault subclass maps to its own distinct batch status."""

    def test_statuses_are_distinct(self):
        faults = [
            ScriptTimeout(10, 5),
            ScriptCancelled("host says no"),
            QuotaExceeded("heap-cells", 10, 5),
            GuestFault("some future fault kind"),
        ]
        statuses = [status_of_fault(fault) for fault in faults]
        assert statuses == ["timeout", "cancelled", "quota", "guest-fault"]
        assert len(set(statuses)) == len(statuses)

    def test_unknown_subclass_never_billed_as_quota(self):
        class FutureFault(GuestFault):
            kind = "future-fault"

        assert status_of_fault(FutureFault("boom")) == "guest-fault"


class TestRetryBackoff:
    """Seeded-jitter exponential backoff in queue slots (the
    positional-insert bug collapsed every deep backoff to the front)."""

    def test_slots_are_exponential_with_jitter(self):
        import random

        rng = random.Random(7)
        for attempt in range(1, 8):
            base = 1 << (attempt - 1)
            for _ in range(20):
                slots = backoff_slots(rng, attempt)
                assert base <= slots < 2 * base

    def test_deterministic_under_fixed_seed(self):
        sup_a = Supervisor(backoff_seed=42)
        sup_b = Supervisor(backoff_seed=42)
        seq_a = [backoff_slots(sup_a._backoff_rng, attempt)
                 for attempt in (1, 2, 3, 3, 2)]
        seq_b = [backoff_slots(sup_b._backoff_rng, attempt)
                 for attempt in (1, 2, 3, 3, 2)]
        assert seq_a == seq_b
        assert backoff_slots(Supervisor(backoff_seed=43)._backoff_rng, 3) >= 4

    def test_retry_requeues_behind_other_jobs(self):
        # Force the first attempt of the first job to "fail retryably"
        # and assert it does not run again immediately: the backoff
        # places it behind at least one other queued job.
        sup = Supervisor(max_retries=1, backoff_seed=0)
        order = []
        real_attempt = sup._run_attempt

        def spy(job, attempt):
            order.append((job.job_id, attempt))
            result = real_attempt(job, attempt)
            if job.job_id == "flaky" and attempt == 1:
                result.status = "timeout"
                result.cache_flushes = 1  # retry heuristic's signal
            return result

        sup._run_attempt = spy
        jobs = [
            Job("flaky", "1 + 1;"),
            Job("steady-1", "2 + 2;"),
            Job("steady-2", "3 + 3;"),
        ]
        results = sup.run(jobs)
        retry_position = order.index(("flaky", 2))
        # Backoff for attempt 1 is exactly 1 slot: one other job runs
        # before the retry (never front-of-queue).
        assert order[0] == ("flaky", 1)
        assert retry_position == 2
        assert {r.job_id: r.status for r in results} == {
            "flaky": "ok", "steady-1": "ok", "steady-2": "ok",
        }

    def test_retry_exhaustion_reports_last_fault(self):
        # Two attempts, two different faults: the surfaced JobResult
        # must carry the *last* attempt's fault, not the first's.
        sup = Supervisor(max_retries=1)
        faults = {
            1: ("timeout", "script exceeded its deadline (first attempt)"),
            2: ("quota", "script exceeded its compile-cycles quota (second)"),
        }

        def fake_attempt(job, attempt):
            status, fault = faults[attempt]
            return JobResult(
                job_id=job.job_id, tenant=job.tenant, status=status,
                attempts=attempt, engine_mode="tracing", usage=JobUsage(),
                fault=fault, cache_flushes=1,
            )

        sup._run_attempt = fake_attempt
        result = sup.run([Job("doomed", "1;")])[0]
        assert result.attempts == 2
        assert result.status == "quota"
        assert result.fault == faults[2][1]


class TestTenantProbation:
    """Half-open circuit: degraded tenants earn the JIT back after K
    clean interpreter-only jobs, on probation."""

    LOOPY = "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; s;"

    def _degraded_supervisor(self, probation_after=2):
        sup = Supervisor(
            limits=ResourceLimits(compile_quota=1),
            degrade_after=1,
            max_retries=0,
            probation_after=probation_after,
            capture_events=True,
        )
        breach = sup.run([Job("b0", self.LOOPY, tenant="t")])[0]
        assert breach.status == "quota"
        assert "t" in sup.degraded_tenants
        return sup

    def _clean_job(self, sup, job_id):
        # Interpreter-only jobs never compile, so a lifted compile
        # quota is irrelevant; give each a fresh source to prove it.
        return sup.run([
            Job(job_id, f"{self.LOOPY} s + {job_id!r};", tenant="t")
        ])[0]

    def test_probation_after_clean_interp_jobs(self):
        from repro.core import events as eventkind

        sup = self._degraded_supervisor(probation_after=2)
        first = self._clean_job(sup, "c1")
        assert first.engine_mode == "interp-only"
        assert "t" in sup.degraded_tenants  # one clean job is not enough
        second = self._clean_job(sup, "c2")
        assert second.status == "ok"
        assert "t" not in sup.degraded_tenants
        assert "t" in sup.probation_tenants
        probations = sup.vm.events.of_kind(eventkind.TENANT_PROBATION)
        assert [e.payload["phase"] for e in probations] == ["enter"]

    def test_clean_jit_job_restores_tenant(self):
        from repro.core import events as eventkind

        sup = self._degraded_supervisor(probation_after=1)
        self._clean_job(sup, "c1")
        assert "t" in sup.probation_tenants
        # On probation the JIT is back; an untraced (cold) source with a
        # lifted quota completes clean and closes the window.
        ok = sup.run([
            Job("clean", "6 * 7;", tenant="t", limits=ResourceLimits())
        ])[0]
        assert ok.status == "ok"
        assert ok.engine_mode != "interp-only"
        assert "t" not in sup.probation_tenants
        assert "t" not in sup.degraded_tenants
        phases = [
            e.payload["phase"]
            for e in sup.vm.events.of_kind(eventkind.TENANT_PROBATION)
        ]
        assert phases == ["enter", "restored"]

    def test_breach_on_probation_redegrades_immediately(self):
        from repro.core import events as eventkind

        sup = self._degraded_supervisor(probation_after=1)
        self._clean_job(sup, "c1")
        assert "t" in sup.probation_tenants
        relapse = sup.run([Job("r0", self.LOOPY + " s;", tenant="t")])[0]
        assert relapse.status == "quota"
        assert "t" in sup.degraded_tenants
        assert "t" not in sup.probation_tenants
        phases = [
            e.payload["phase"]
            for e in sup.vm.events.of_kind(eventkind.TENANT_PROBATION)
        ]
        assert phases == ["enter", "redegraded"]

    def test_faulted_interp_job_resets_the_clean_counter(self):
        sup = self._degraded_supervisor(probation_after=2)
        self._clean_job(sup, "c1")
        bad = sup.run([
            Job("bad", INFINITE_LOOP, tenant="t",
                limits=ResourceLimits(deadline_cycles=50_000))
        ])[0]
        assert bad.status == "timeout"
        # The streak restarted: one more clean job must not be enough.
        self._clean_job(sup, "c2")
        assert "t" in sup.degraded_tenants
        self._clean_job(sup, "c3")
        assert "t" in sup.probation_tenants
