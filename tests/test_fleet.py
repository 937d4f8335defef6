"""The supervisor's batch layer: admission, the queue, VM respawn, chaos.

The batch layer's correctness contract is *convergence*: whatever fleet-level
faults fire (VM kills and hangs), every job's canonical observation —
(job_id, status, result, output) — must equal the no-chaos run.  Cycle
bills legitimately differ (a replacement VM starts with an empty trace
cache), so they are excluded, exactly like wall-clock.
"""

import pytest

from repro.exec import (
    Job,
    JobShed,
    ResourceLimits,
    Supervisor,
    TokenBucket,
)
from repro.exec.supervisor import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_RATE,
    STATUS_SHED,
    STATUS_WORKER_LOST,
)
from repro.hardening import FLEET_FAULT_SITES, FaultPlan

HOT_LOOP = "var s = 0; for (var i = 0; i < 250; i = i + 1) { s = s + i; } s;"


def mixed_jobs(count=12):
    """A deterministic mixed workload across three tenants."""
    jobs = []
    for i in range(count):
        jobs.append(
            Job(
                job_id=f"j{i:02d}",
                source=f"var s = 0; for (var i = 0; i < 120; i = i + 1) "
                       f"{{ s = s + i + {i % 4}; }} s;",
                tenant=f"tenant-{i % 3}",
            )
        )
    return jobs


def canonical(results):
    return [(r.job_id, r.status, r.result, r.output) for r in results]


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, clock=lambda: now[0])
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()  # burst (= rate) exhausted
        now[0] += 0.5  # half a second refills one token at 2/sec
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_burst_never_exceeds_cap(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.try_take()
        assert not bucket.try_take()  # capped at burst=1, not 100

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)


class TestFleetBasics:
    def test_runs_batch_in_submission_order(self):
        jobs = mixed_jobs(9)
        sup = Supervisor()
        results = sup.run(jobs)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]
        assert all(r.status == "ok" for r in results)

    def test_reusable_across_batches(self):
        sup = Supervisor()
        first = sup.run(mixed_jobs(4))
        second = sup.run(mixed_jobs(4))
        assert canonical(first) == canonical(second)

    def test_fleet_wide_tenant_summary(self):
        jobs = mixed_jobs(9)
        sup = Supervisor()
        sup.run(jobs)
        summary = sup.tenant_summary()
        assert sorted(summary) == ["tenant-0", "tenant-1", "tenant-2"]
        assert all(usage.jobs == 3 and usage.ok == 3
                   for usage in summary.values())

    def test_worker_vm_configs_are_not_shared(self):
        # Safe mode flips config.enable_tracing in place, so the
        # replacement VM must not share the dead VM's config (nor the
        # caller's).
        from repro.vm import VMConfig

        config = VMConfig()
        sup = Supervisor(config=config,
                         fault_plan=FaultPlan({"fleet.worker_crash": 2}))
        sup.run(mixed_jobs(3))
        dead, live = sup.vms
        assert live is sup.vm
        assert len({id(config), id(dead.config), id(live.config)}) == 3


class TestAdmission:
    def test_rate_limit_sheds_typed_result(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(5)]
        sup = Supervisor(rates={"spammy": 2.0}, clock=lambda: now[0],
                         capture_events=True)
        results = sup.run(jobs)
        shed = [r for r in results if r.status == STATUS_SHED]
        assert len(shed) == 3  # burst of 2 admitted, frozen clock: no refill
        for result in shed:
            assert isinstance(result, JobShed)
            assert result.reason == SHED_RATE
            assert result.fault == "shed: rate"
            assert result.attempts == 0
        assert sup.counts()["job-shed"] == 3

    def test_rate_limit_is_per_tenant(self):
        now = [100.0]
        jobs = [Job("a", "1;", tenant="limited"),
                Job("b", "2;", tenant="limited"),
                Job("c", "3;", tenant="free")]
        sup = Supervisor(rates={"limited": 1.0}, clock=lambda: now[0])
        results = sup.run(jobs)
        assert [r.status for r in results] == ["ok", STATUS_SHED, "ok"]

    def test_bounded_queue_sheds_overflow(self):
        jobs = [Job(f"q{i}", HOT_LOOP + f" s + {i};") for i in range(8)]
        sup = Supervisor(shed_after=3, capture_events=True)
        results = sup.run(jobs)
        reasons = [getattr(r, "reason", None) for r in results]
        assert reasons.count(SHED_QUEUE_FULL) == len(jobs) - 3
        # Shedding produced typed results, not tracebacks, and the
        # admitted jobs all completed.
        assert all(r.status in ("ok", STATUS_SHED) for r in results)

    def test_deadline_shed_at_admission(self):
        now = [50.0]
        jobs = [Job("late", "1;", not_after=49.0),
                Job("fine", "2;", not_after=51.0)]
        sup = Supervisor(clock=lambda: now[0])
        results = sup.run(jobs)
        assert results[0].status == STATUS_SHED
        assert results[0].reason == SHED_DEADLINE
        assert results[1].status == "ok"

    def test_deadline_shed_at_dequeue_not_run(self):
        # The deadline passes while the job waits behind a long one: it
        # must be shed at dequeue, never started.
        now = [0.0]

        class TickingClock:
            def __call__(self):
                now[0] += 0.25  # every observation advances time
                return now[0]

        jobs = [Job("long", HOT_LOOP),
                Job("stale", "1;", not_after=0.5)]
        sup = Supervisor(clock=TickingClock(), capture_events=True)
        results = sup.run(jobs)
        assert results[0].status == "ok"
        assert results[1].status == STATUS_SHED
        assert results[1].reason == SHED_DEADLINE

    def test_sheds_never_reach_a_worker(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(4)]
        sup = Supervisor(rates={"spammy": 1.0}, clock=lambda: now[0])
        sup.run(jobs)
        summary = sup.tenant_summary()
        usage = summary["spammy"]
        assert usage.jobs == 4 and usage.ok == 1 and usage.faulted == 3
        assert usage.cycles > 0  # only the admitted job billed cycles


class TestWorkerFaultTolerance:
    def test_crash_respawns_and_resubmits(self):
        jobs = mixed_jobs(6)
        plan = FaultPlan({"fleet.worker_crash": 1})
        sup = Supervisor(fault_plan=plan, capture_events=True)
        first_vm = sup.vm
        results = sup.run(jobs)
        counts = sup.counts()
        assert all(r.status == "ok" for r in results)
        assert counts["worker-respawn"] == 1
        assert counts["worker-online"] == 2  # first VM + 1 respawn
        # The replacement is a fresh VM with the next id.
        assert sup.vms == [first_vm, sup.vm]
        assert sup.vm is not first_vm
        online = sup.events.of_kind("worker-online")
        assert [e.payload["replaces"] for e in online] == [None, 0]

    def test_hang_watchdog_replaces_wedged_worker(self):
        jobs = mixed_jobs(6)
        plan = FaultPlan({"fleet.worker_hang": 1})
        sup = Supervisor(fault_plan=plan, capture_events=True)
        results = sup.run(jobs)
        counts = sup.counts()
        assert all(r.status == "ok" for r in results)
        assert counts["worker-respawn"] == 1
        respawns = sup.events.of_kind("worker-respawn")
        assert respawns[0].payload["reason"] == "hang"

    def test_repeated_crashes_exhaust_to_worker_lost(self):
        # The crash site fires on *every* hit: the job can never run,
        # and after max_requeues resubmissions it is reported lost —
        # a typed result, not a hang or a traceback.
        plan = FaultPlan({"fleet.worker_crash": "*"})
        sup = Supervisor(max_requeues=2, fault_plan=plan, capture_events=True)
        results = sup.run([Job("doomed", "1 + 1;")])
        counts = sup.counts()
        assert results[0].status == STATUS_WORKER_LOST
        assert "max_requeues=2" in results[0].fault
        assert counts["worker-respawn"] == 3  # initial + 2 resubmits
        summary = sup.tenant_summary()
        assert summary["default"].faulted == 1

    def test_real_exception_in_attempt_is_a_crash(self):
        # A non-injected internal error escaping an attempt must also
        # respawn the worker and resubmit, not deadlock the batch.
        sup = Supervisor(capture_events=True)
        real = sup._run_attempt
        calls = {"n": 0}

        def flaky_attempt(job, attempt):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("host bug")
            return real(job, attempt)

        sup._run_attempt = flaky_attempt
        results = sup.run([Job("survivor", "6 * 7;")])
        assert results[0].status == "ok"
        assert results[0].result == "42"
        assert sup.counts()["worker-respawn"] == 1

    def test_respawn_keeps_tenant_policy(self):
        # Degradation belongs to the supervisor, not to its VM: a tenant
        # degraded before a respawn still runs interp-only after it,
        # instead of breaching its compile quota again.
        loopy = "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; s;"
        sup = Supervisor(limits=ResourceLimits(compile_quota=1),
                         degrade_after=1, max_retries=0,
                         fault_plan=FaultPlan.parse(["fleet.worker_crash:2"]))
        first = sup.run([Job("b0", loopy, tenant="t")])[0]
        assert first.status == "quota"
        assert sup.degraded_tenants == {"t"}
        second = sup.run([Job("b1", loopy + " s;", tenant="t")])[0]
        assert sup.counts()["worker-respawn"] == 1
        assert second.engine_mode == "interp-only"
        assert second.status == "ok"
        assert sup.degraded_tenants == {"t"}
        assert sup.tenant_summary()["t"].jobs == 2


class TestFleetChaosConvergence:
    """The CI batch-soak contract: any fleet fault converges to the
    no-chaos per-job results."""

    @pytest.fixture(scope="class")
    def baseline(self):
        sup = Supervisor()
        return canonical(sup.run(mixed_jobs()))

    @pytest.mark.parametrize("site", FLEET_FAULT_SITES)
    def test_single_fault_converges(self, site, baseline):
        sup = Supervisor(fault_plan=FaultPlan({site: 1}))
        got = canonical(sup.run(mixed_jobs()))
        assert got == baseline

    def test_combined_chaos_converges(self, baseline):
        plan = FaultPlan({
            "fleet.worker_crash": 1,
            "fleet.worker_hang": 2,
        })
        sup = Supervisor(fault_plan=plan, capture_events=True)
        got = canonical(sup.run(mixed_jobs()))
        assert got == baseline
        assert sup.counts()["worker-respawn"] >= 2


class TestFleetObservability:
    def test_metrics_registry_folds_fleet_events(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(4)]
        plan = FaultPlan({"fleet.worker_crash": 1})
        sup = Supervisor(rates={"spammy": 1.0}, clock=lambda: now[0],
                         fault_plan=plan, capture_metrics=True,
                         capture_events=True)
        sup.run(jobs)
        metrics = sup.metrics
        assert metrics.fleet_sheds.value(tenant="spammy", reason="rate") == 3
        assert metrics.fleet_respawns.value(reason="crash") == 1

    def test_metrics_include_every_worker_series(self):
        """The supervisor's snapshot sums the counters of every VM, the dead
        one included: the per-tenant job totals of a batch whose VM
        crashed midway equal those of a batch without the crash."""

        def jobs_series(plan):
            sup = Supervisor(capture_metrics=True, fault_plan=plan)
            sup.run(mixed_jobs(9))
            assert len(sup.vms) == (1 if plan is None else 2)
            doc = sup.metrics.snapshot(program="fleet")
            family = next(
                f for f in doc["counters"] if f["name"] == "repro_jobs_total"
            )
            return {
                (series["labels"]["tenant"], series["labels"]["status"]):
                    series["value"]
                for series in family["series"]
            }

        crashed = jobs_series(FaultPlan({"fleet.worker_crash": 5}))
        assert sum(crashed.values()) == 9
        assert crashed == jobs_series(None)

    def test_gauges_read_the_live_vm(self):
        # Gauges are levels: after a respawn they describe the live VM,
        # not the sum of the dead and the live one, while counters
        # still count the jobs the dead VM ran.
        jobs = [Job(f"l{i}", HOT_LOOP + f" s + {i};") for i in range(3)]
        sup = Supervisor(capture_metrics=True,
                         fault_plan=FaultPlan.parse(["fleet.worker_crash:2"]))
        sup.run(jobs)
        assert sup.counts()["worker-respawn"] == 1
        doc = sup.metrics.snapshot(program="fleet")
        series = {
            family["name"]: family["series"]
            for section in ("counters", "gauges")
            for family in doc[section]
        }
        live = sup.vm
        assert live.monitor.cache.fragment_count == 2
        assert series["repro_cache_fragments"] == [
            {"labels": {}, "value": live.monitor.cache.fragment_count}
        ]
        assert sum(s["value"] for s in series["repro_jobs_total"]) == 3

    def test_span_recorder_exports_worker_lanes(self):
        # Every attempt goes on the one jobs lane, before and after a
        # VM respawn; its args name the VM that ran it.
        from repro.obs.spans import TRACK_JOBS
        from repro.obs.validate import validate_chrome_trace

        sup = Supervisor(capture_spans=True,
                         fault_plan=FaultPlan({"fleet.worker_crash": 2}))
        sup.run(mixed_jobs(4))
        doc = sup.spans.to_chrome_trace(program="test-fleet")
        validate_chrome_trace(doc)
        lanes = {
            entry["args"]["name"]
            for entry in doc["traceEvents"]
            if entry.get("ph") == "M" and entry["name"] == "thread_name"
        }
        assert lanes == {"jobs", "events"}
        job_spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(job_spans) == 4
        assert {span["tid"] for span in job_spans} == {TRACK_JOBS}
        assert [span["args"]["worker"] for span in job_spans] == [0, 1, 1, 1]

    def test_events_jsonl_round_trips_schema_v6(self, tmp_path):
        from repro.obs.validate import validate_events_jsonl

        plan = FaultPlan({"fleet.worker_crash": 1})
        sup = Supervisor(fault_plan=plan, capture_events=True)
        sup.run(mixed_jobs(4))
        path = tmp_path / "fleet-events.jsonl"
        sup.events.write_jsonl(str(path))
        count = validate_events_jsonl(path.read_text())
        assert count >= 4  # worker-onlines + fault + respawn at minimum

    def test_clean_run_still_emits_events(self):
        # worker-online for the first VM guarantees the scheduler JSONL
        # artifact is never empty, which validate_events_jsonl requires.
        sup = Supervisor(capture_events=True)
        sup.run(mixed_jobs(2))
        assert len(sup.events) >= 1


class TestFleetRetryDiscipline:
    def test_cache_pressure_retry_rides_the_fleet_queue(self):
        from repro.vm import VMConfig

        config = VMConfig(code_cache_budget=400)
        limits = ResourceLimits(deadline_cycles=150_000)
        nested = (
            "var total = 0;"
            "for (var i = 0; i < 200; i = i + 1) {"
            "  for (var j = 0; j < 40; j = j + 1) { total = total + j; }"
            "  var s = ''; for (var k = 0; k < 4; k = k + 1) { s = s + 'x'; }"
            "}"
            "total;"
        )
        sup = Supervisor(config=config, limits=limits, max_retries=2,
                         capture_events=True)
        result = sup.run([Job("pressured", nested)])[0]
        if result.attempts > 1:
            retried = sup.events.of_kind("job-retried")
            assert retried and retried[0].payload["job"] == "pressured"
            assert retried[0].payload["backoff"] >= 1
        else:
            assert result.status in ("ok", "timeout")
