"""The sharded serving fleet: admission, stealing, respawn, chaos.

The fleet's correctness contract is *convergence*: whatever the worker
count, and whatever fleet-level faults fire (worker kills, hangs, lost
steal races), every job's canonical observation — (job_id, status,
result, output) — must equal the 1-worker no-chaos run.  Cycle bills
legitimately differ across shardings (different trace caches), so they
are excluded, exactly like wall-clock.
"""

import pytest

from repro.exec import (
    Fleet,
    Job,
    JobShed,
    ResourceLimits,
    Supervisor,
    TokenBucket,
)
from repro.exec.fleet import (
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
        fleet = Fleet(workers=3)
        results = fleet.run(jobs)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]
        assert all(r.status == "ok" for r in results)

    def test_matches_single_vm_supervisor(self):
        jobs = mixed_jobs(8)
        expected = sorted(canonical(Fleet(workers=1).run(mixed_jobs(8))))
        fleet = Fleet(workers=2)
        got = sorted(canonical(fleet.run(jobs)))
        assert got == expected

    def test_reusable_across_batches(self):
        fleet = Fleet(workers=2)
        first = fleet.run(mixed_jobs(4))
        second = fleet.run(mixed_jobs(4))
        assert canonical(first) == canonical(second)

    def test_routing_affinity(self):
        fleet = Fleet(workers=3)
        # Tenant affinity is sticky...
        first = fleet._route(Job("a", "src1", tenant="t1"))
        again = fleet._route(Job("b", "src1", tenant="t1"))
        assert first is again
        # ...new tenants balance onto other workers...
        other = fleet._route(Job("c", "src2", tenant="t2"))
        assert other is not first
        # ...and a worker holding the compiled source wins even
        # over another tenant's stickiness (its trace cache has
        # the loops).
        first.supervisor._codes["src3"] = object()
        winner = fleet._route(Job("d", "src3", tenant="t2"))
        assert winner is first

    def test_fleet_wide_tenant_summary(self):
        jobs = mixed_jobs(9)
        fleet = Fleet(workers=3)
        fleet.run(jobs)
        summary = fleet.tenant_summary()
        assert sorted(summary) == ["tenant-0", "tenant-1", "tenant-2"]
        assert all(usage.jobs == 3 and usage.ok == 3
                   for usage in summary.values())

    def test_worker_vm_configs_are_not_shared(self):
        from repro.vm import VMConfig

        config = VMConfig()
        fleet = Fleet(workers=3, config=config)
        configs = {id(w.supervisor.vm.config) for w in fleet.workers}
        assert len(configs) == 3


class TestAdmission:
    def test_rate_limit_sheds_typed_result(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(5)]
        fleet = Fleet(workers=2, rates={"spammy": 2.0},
                      clock=lambda: now[0], capture_events=True)
        results = fleet.run(jobs)
        shed = [r for r in results if r.status == STATUS_SHED]
        assert len(shed) == 3  # burst of 2 admitted, frozen clock: no refill
        for result in shed:
            assert isinstance(result, JobShed)
            assert result.reason == SHED_RATE
            assert result.fault == "shed: rate"
            assert result.attempts == 0
        assert fleet.counts()["job-shed"] == 3

    def test_rate_limit_is_per_tenant(self):
        now = [100.0]
        jobs = [Job("a", "1;", tenant="limited"),
                Job("b", "2;", tenant="limited"),
                Job("c", "3;", tenant="free")]
        fleet = Fleet(workers=1, rates={"limited": 1.0},
                      clock=lambda: now[0])
        results = fleet.run(jobs)
        assert [r.status for r in results] == ["ok", STATUS_SHED, "ok"]

    def test_bounded_queue_sheds_overflow(self):
        jobs = [Job(f"q{i}", HOT_LOOP + f" s + {i};") for i in range(8)]
        fleet = Fleet(workers=1, shed_after=3, capture_events=True)
        results = fleet.run(jobs)
        reasons = [getattr(r, "reason", None) for r in results]
        assert reasons.count(SHED_QUEUE_FULL) == len(jobs) - 3
        # Shedding produced typed results, not tracebacks, and the
        # admitted jobs all completed.
        assert all(r.status in ("ok", STATUS_SHED) for r in results)

    def test_deadline_shed_at_admission(self):
        now = [50.0]
        jobs = [Job("late", "1;", not_after=49.0),
                Job("fine", "2;", not_after=51.0)]
        fleet = Fleet(workers=1, clock=lambda: now[0])
        results = fleet.run(jobs)
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
        fleet = Fleet(workers=1, clock=TickingClock(),
                      capture_events=True)
        results = fleet.run(jobs)
        assert results[0].status == "ok"
        assert results[1].status == STATUS_SHED
        assert results[1].reason == SHED_DEADLINE

    def test_sheds_never_reach_a_worker(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(4)]
        fleet = Fleet(workers=1, rates={"spammy": 1.0},
                      clock=lambda: now[0])
        fleet.run(jobs)
        summary = fleet.tenant_summary()
        usage = summary["spammy"]
        assert usage.jobs == 4 and usage.ok == 1 and usage.faulted == 3
        assert usage.cycles > 0  # only the admitted job billed cycles


class TestWorkStealing:
    def test_idle_workers_steal_from_longest_queue(self):
        # Route everything to one tenant (one worker) and watch the
        # other workers steal the backlog.
        jobs = [Job(f"h{i}", HOT_LOOP + f" s + {i};", tenant="hot")
                for i in range(8)]
        fleet = Fleet(workers=3, capture_events=True)
        results = fleet.run(jobs)
        assert all(r.status == "ok" for r in results)
        assert fleet.counts().get("work-stolen", 0) > 0

    def test_cache_protected_thief_declines_cold_steals(self):
        # One steal into a warm cache can cost a budget-overflow flush
        # of the thief's whole working set, so a thief warm past a
        # quarter of its budget only steals work it already holds
        # compiled.  Here the "mine" worker warms up (HOT_LOOP is 88
        # simulated bytes > 300 // 4), then idles while the other
        # worker grinds a backlog it would love to give away — and
        # steals nothing.
        from repro.vm import VMConfig

        config = VMConfig(code_cache_budget=300)
        jobs = ([Job("warm-thief", HOT_LOOP, tenant="mine")]
                + [Job(f"backlog{i}", HOT_LOOP + f" s + {i};", tenant="hot")
                   for i in range(8)])
        fleet = Fleet(workers=2, config=config, capture_events=True)
        results = fleet.run(jobs)
        assert all(r.status == "ok" for r in results)
        assert fleet.counts().get("work-stolen", 0) == 0

    def test_warm_source_tracks_trace_cache_not_parse_cache(self):
        from repro.vm import VMConfig

        sup = Supervisor(config=VMConfig())
        assert not sup.warm_source(HOT_LOOP)
        sup._run_attempt(Job("a", HOT_LOOP), 1)
        assert sup.warm_source(HOT_LOOP)
        sup.vm.monitor.cache.flush("test")
        assert HOT_LOOP in sup._codes      # parse cache survives...
        assert not sup.warm_source(HOT_LOOP)  # ...trace warmth does not

    def test_lost_steal_race_leaves_victim_queue_intact(self):
        jobs = [Job(f"h{i}", HOT_LOOP + f" s + {i};", tenant="hot")
                for i in range(6)]
        plan = FaultPlan({"fleet.steal_race": "*"})
        fleet = Fleet(workers=3, fault_plan=plan,
                      capture_events=True)
        results = fleet.run(jobs)
        assert all(r.status == "ok" for r in results)
        # Every steal attempt lost its race: no work-stolen events.
        assert fleet.counts().get("work-stolen", 0) == 0
        assert fleet.counts().get("fault-injected", 0) > 0


class TestWorkerFaultTolerance:
    def test_crash_respawns_and_resubmits(self):
        jobs = mixed_jobs(6)
        plan = FaultPlan({"fleet.worker_crash": 1})
        fleet = Fleet(workers=2, fault_plan=plan,
                      capture_events=True)
        results = fleet.run(jobs)
        counts = fleet.counts()
        live = fleet.workers
        assert all(r.status == "ok" for r in results)
        assert counts["worker-respawn"] == 1
        assert counts["worker-online"] == 3  # 2 spawns + 1 respawn
        assert len(live) == 2
        # The replacement got a fresh id and a fresh VM.
        assert {w.worker_id for w in live} != {0, 1}

    def test_hang_watchdog_replaces_wedged_worker(self):
        jobs = mixed_jobs(6)
        plan = FaultPlan({"fleet.worker_hang": 1})
        fleet = Fleet(workers=2, fault_plan=plan,
                      capture_events=True)
        results = fleet.run(jobs)
        counts = fleet.counts()
        assert all(r.status == "ok" for r in results)
        assert counts["worker-respawn"] == 1
        respawns = fleet.events.of_kind("worker-respawn")
        assert respawns[0].payload["reason"] == "hang"

    def test_repeated_crashes_exhaust_to_worker_lost(self):
        # The crash site fires on *every* hit: the job can never run,
        # and after max_requeues resubmissions it is reported lost —
        # a typed result, not a hang or a traceback.
        plan = FaultPlan({"fleet.worker_crash": "*"})
        fleet = Fleet(workers=1, max_requeues=2, fault_plan=plan,
                      capture_events=True)
        results = fleet.run([Job("doomed", "1 + 1;")])
        counts = fleet.counts()
        assert results[0].status == STATUS_WORKER_LOST
        assert "max_requeues=2" in results[0].fault
        assert counts["worker-respawn"] == 3  # initial + 2 resubmits
        summary = fleet.tenant_summary()
        assert summary["default"].faulted == 1

    def test_real_exception_in_attempt_is_a_crash(self):
        # A non-injected internal error escaping an attempt must also
        # respawn the worker and resubmit, not deadlock the batch.
        fleet = Fleet(workers=1, capture_events=True)
        worker = fleet.workers[0]
        real = worker.supervisor._run_attempt
        calls = {"n": 0}

        def flaky_attempt(job, attempt):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("host bug")
            return real(job, attempt)

        worker.supervisor._run_attempt = flaky_attempt
        results = fleet.run([Job("survivor", "6 * 7;")])
        assert results[0].status == "ok"
        assert results[0].result == "42"
        assert fleet.counts()["worker-respawn"] == 1


class TestFleetChaosConvergence:
    """The CI fleet-soak contract: any fleet fault converges to the
    1-worker no-chaos per-job results."""

    @pytest.fixture(scope="class")
    def baseline(self):
        fleet = Fleet(workers=1)
        return canonical(fleet.run(mixed_jobs()))

    @pytest.mark.parametrize("site", FLEET_FAULT_SITES)
    def test_single_fault_converges(self, site, baseline):
        fleet = Fleet(workers=3, fault_plan=FaultPlan({site: 1}))
        got = canonical(fleet.run(mixed_jobs()))
        assert got == baseline

    def test_combined_chaos_converges(self, baseline):
        plan = FaultPlan({
            "fleet.worker_crash": 1,
            "fleet.worker_hang": 2,
            "fleet.steal_race": 1,
        })
        fleet = Fleet(workers=4, fault_plan=plan,
                      capture_events=True)
        got = canonical(fleet.run(mixed_jobs()))
        assert got == baseline
        assert fleet.counts()["worker-respawn"] >= 2

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_counts_converge(self, workers, baseline):
        fleet = Fleet(workers=workers)
        got = canonical(fleet.run(mixed_jobs()))
        assert got == baseline


class TestFleetObservability:
    def test_metrics_registry_folds_fleet_events(self):
        now = [100.0]
        jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(4)]
        plan = FaultPlan({"fleet.worker_crash": 1})
        fleet = Fleet(workers=2, rates={"spammy": 1.0}, clock=lambda: now[0],
                      fault_plan=plan, capture_metrics=True,
                      capture_events=True)
        fleet.run(jobs)
        metrics = fleet.metrics
        assert metrics.fleet_sheds.value(tenant="spammy", reason="rate") == 3
        assert metrics.fleet_respawns.value(reason="crash") == 1
        assert metrics.fleet_workers.value() == 2

    def test_metrics_include_every_worker_series(self):
        """The fleet snapshot sums every worker's series: the per-tenant
        job totals at 2 workers equal a 1-worker run of the same jobs."""

        def jobs_series(workers):
            fleet = Fleet(workers=workers, capture_metrics=True)
            fleet.run(mixed_jobs(9))
            doc = fleet.metrics.snapshot(program="fleet")
            family = next(
                f for f in doc["counters"] if f["name"] == "repro_jobs_total"
            )
            return {
                (series["labels"]["tenant"], series["labels"]["status"]):
                    series["value"]
                for series in family["series"]
            }

        two = jobs_series(2)
        assert sum(two.values()) == 9
        assert two == jobs_series(1)

    def test_span_recorder_exports_worker_lanes(self):
        from repro.obs.validate import validate_chrome_trace

        fleet = Fleet(workers=2, capture_spans=True)
        fleet.run(mixed_jobs(4))
        doc = fleet.spans.to_chrome_trace(program="test-fleet")
        validate_chrome_trace(doc)
        lanes = {
            entry["args"]["name"]
            for entry in doc["traceEvents"]
            if entry.get("ph") == "M" and entry["name"] == "thread_name"
        }
        assert {"admission", "events", "worker-0", "worker-1"} <= lanes
        job_spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(job_spans) == 4

    def test_events_jsonl_round_trips_schema_v6(self, tmp_path):
        from repro.obs.validate import validate_events_jsonl

        plan = FaultPlan({"fleet.worker_crash": 1})
        fleet = Fleet(workers=2, fault_plan=plan,
                      capture_events=True)
        fleet.run(mixed_jobs(4))
        path = tmp_path / "fleet-events.jsonl"
        fleet.events.write_jsonl(str(path))
        count = validate_events_jsonl(path.read_text())
        assert count >= 4  # worker-onlines + fault + respawn at minimum

    def test_clean_run_still_emits_events(self):
        # worker-online per spawn guarantees the fleet JSONL artifact is
        # never empty, which validate_events_jsonl requires.
        fleet = Fleet(workers=2, capture_events=True)
        fleet.run(mixed_jobs(2))
        assert len(fleet.events) >= 2


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
        fleet = Fleet(workers=1, config=config, limits=limits, max_retries=2,
                      capture_events=True)
        result = fleet.run([Job("pressured", nested)])[0]
        if result.attempts > 1:
            retried = fleet.events.of_kind("job-retried")
            assert retried and retried[0].payload["job"] == "pressured"
            assert retried[0].payload["backoff"] >= 1
        else:
            assert result.status in ("ok", "timeout")
