"""Tests for the production-telemetry layer: metrics, spans, validation.

The contract under test (ISSUE 7, mirroring the profiler's):

* **zero cost when off** — a VM without metrics/spans spends exactly
  the same simulated cycles, produces the same results, the same event
  counts, and the same stats as one with them;
* **conservation** — the sampled per-activity cycle gauges sum to the
  ledger total, which equals the profiler's phase total (one source of
  truth, three views);
* **fold agreement** — lifecycle counters derived from the event
  stream equal the stats fold's counters;
* **schema stability** — every exported artifact passes
  :mod:`repro.obs.validate` against its declared ``schema_version``.
"""

import io
import json

import pytest

from repro import TracingVM, VMConfig
from repro.cli import main as cli_main
from repro.exec import Job, Supervisor
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.spans import SPANS_SCHEMA_VERSION, TRACK_PHASES
from repro.obs.validate import ValidationError, detect_and_validate

SIEVE = """
var primes = new Array(100);
for (var n = 0; n < 100; n++)
    primes[n] = true;
var count = 0;
for (var i = 2; i < 100; ++i) {
    if (!primes[i])
        continue;
    count++;
    for (var k = i + i; k < 100; k += i)
        primes[k] = false;
}
count;
"""

BRANCHY = (
    "var t = 0;"
    "for (var i = 0; i < 120; i++) { if (i % 4 == 0) t += 3; else t += 1; }"
    "t;"
)


def run_with_telemetry(source, config=None):
    vm = TracingVM(config)
    vm.enable_metrics()
    vm.enable_span_tracing()
    result = vm.run(source)
    return result, vm


class TestDisabledContract:
    def test_disabled_vm_has_no_telemetry(self):
        vm = TracingVM()
        vm.run(BRANCHY)
        assert vm.metrics is None
        assert vm.span_recorder is None

    def test_telemetry_charges_no_simulated_cycles(self):
        plain = TracingVM()
        plain.run(SIEVE)
        _r, instrumented = run_with_telemetry(SIEVE)
        assert instrumented.stats.ledger.total == plain.stats.ledger.total

    def test_results_and_stats_identical(self):
        plain = TracingVM()
        expected = plain.run(SIEVE)
        result, vm = run_with_telemetry(SIEVE)
        assert repr(result) == repr(expected)
        assert vm.events.counts == plain.events.counts
        assert vm.stats.tracing == plain.stats.tracing
        assert vm.stats.profile == plain.stats.profile
        assert vm.stats.ledger.by_activity == plain.stats.ledger.by_activity

    def test_stats_block_byte_identical_with_metrics(self, tmp_path):
        """--metrics-json/--metrics-prom must not perturb --stats output.

        (--trace-export is exempt: spans imply the phase profiler, and a
        profiler's attachment switches the cycle-breakdown line to its
        transition-accounted fractions — the documented --profile
        behavior, which predates telemetry.)
        """
        plain_out = io.StringIO()
        assert cli_main(["-e", SIEVE, "--stats"], out=plain_out) == 0
        metrics_out = io.StringIO()
        code = cli_main(
            [
                "-e", SIEVE, "--stats",
                "--metrics-json", str(tmp_path / "m.json"),
                "--metrics-prom", str(tmp_path / "m.prom"),
            ],
            out=metrics_out,
        )
        assert code == 0
        assert metrics_out.getvalue() == plain_out.getvalue()

    def test_batch_table_byte_identical(self, tmp_path):
        """The batch job table must not change when telemetry is on."""
        argv = ["batch", "--suite", "--deadline-cycles", "400000"]
        plain_out = io.StringIO()
        assert cli_main(argv, out=plain_out) == 0
        telemetry_out = io.StringIO()
        flags = [
            "--metrics-json", str(tmp_path / "m.json"),
            "--trace-export", str(tmp_path / "t.json"),
        ]
        assert cli_main(argv + flags, out=telemetry_out) == 0
        assert telemetry_out.getvalue() == plain_out.getvalue()


class TestConservation:
    def test_cycle_gauges_equal_ledger_equal_profiler(self):
        from repro.suite.programs import PROGRAMS

        program = next(p for p in PROGRAMS if p.name == "bitops-bitwise-and")
        _r, vm = run_with_telemetry(program.source)
        vm.metrics.collect()
        gauge_sum = sum(vm.metrics.simulated_cycles.values.values())
        assert gauge_sum == vm.stats.ledger.total
        assert gauge_sum == vm.profiler.total_cycles

    def test_fold_agrees_with_stats_fold(self):
        _r, vm = run_with_telemetry(SIEVE)
        metrics, tracing = vm.metrics, vm.stats.tracing
        assert metrics.side_exits.total == tracing.side_exits_taken
        assert metrics.recordings.total == tracing.recordings_started
        assert metrics.compiles.total == tracing.traces_completed
        assert metrics.fragments_linked.total == tracing.fragments_linked
        assert metrics.record_aborts.total == tracing.traces_aborted
        assert metrics.compiles.value(fragment="root") == tracing.trees_formed
        assert metrics.compiles.value(fragment="branch") == tracing.branch_traces

    def test_trace_lookups_and_cache_gauges(self):
        _r, vm = run_with_telemetry(SIEVE)
        assert vm.metrics.trace_lookups.value(result="hit") >= 1
        assert vm.metrics.trace_lookups.value(result="miss") >= 1
        vm.metrics.collect()
        cache = vm.monitor.cache
        assert vm.metrics.cache_code_size.value() == cache.code_size_used
        assert vm.metrics.cache_trees.value() == cache.tree_count
        assert vm.metrics.cache_fragments.value() == cache.fragment_count

    def test_pycompile_histogram_counts_fragments(self):
        _r, vm = run_with_telemetry(SIEVE)
        fragments = vm.metrics.pycompile_fragments.total
        assert fragments >= 1
        series = vm.metrics.pycompile_wall.series()
        assert len(series) == 1
        assert series[0]["count"] == fragments
        assert series[0]["buckets"][-1]["le"] == "+Inf"
        assert series[0]["buckets"][-1]["count"] == fragments


class TestOneCountPerFact:
    """Every per-VM fact has one update site: a run with a registry
    attached updates no registry instrument except the pycompile wall
    histogram, and every export reads the stats and the event tally."""

    @pytest.mark.parametrize(
        "program", ["sieve", "regexp-dna-lite", "bitops-bits-in-byte"]
    )
    def test_run_updates_no_counter(self, program, monkeypatch):
        from perfbench.workloads import source_of
        from repro.obs import metrics as metrics_module

        calls = {}
        for cls, name in (
            (metrics_module.Counter, "inc"),
            (metrics_module.Gauge, "inc"),
            (metrics_module.Gauge, "set"),
            (metrics_module.Histogram, "observe"),
        ):
            original = getattr(cls, name)

            def counting(self, *args, _key=(cls.__name__, name),
                         _original=original, **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
        vm = TracingVM()
        vm.enable_metrics()
        vm.run(source_of(program))
        tracing = vm.stats.tracing
        builds = tracing.pycompile_fragments + tracing.pycompile_tree_builds
        assert builds > 0
        assert calls == {("Histogram", "observe"): builds}
        # The views still report every fact.
        assert vm.metrics.side_exits.total == tracing.side_exits_taken
        assert vm.metrics.pycompile_fragments.total == builds
        assert vm.metrics.trace_lookups.value(result="hit") == (
            tracing.lookup_hits
        )

    def test_late_registry_reports_counts_since_vm_start(self):
        vm = TracingVM()
        vm.run(BRANCHY)
        metrics = vm.enable_metrics()
        tracing = vm.stats.tracing
        assert metrics.side_exits.total == tracing.side_exits_taken > 0
        assert metrics.compiles.total == tracing.traces_completed > 0
        assert metrics.trace_lookups.value(result="miss") == tracing.loops_seen

    def test_no_second_home(self):
        from repro.core.cache import TraceCache
        from repro.obs.profiler import PhaseProfiler

        assert not hasattr(MetricsRegistry, "apply_event")
        profiler = PhaseProfiler(TracingVM())
        for name in (
            "opt_cse_removed", "opt_guards_eliminated", "opt_hoisted",
            "transfers_direct", "transfers_stitched", "pycompile_count",
            "pycompile_tree_builds", "firewall_trips", "record_opt",
            "note_firewall_trip",
        ):
            assert not hasattr(profiler, name), name
        cache = TraceCache(VMConfig(), None)
        assert not hasattr(cache, "flush_count")


class TestRegistry:
    def test_counters_reject_negative_and_wrong_labels(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.side_exits.inc(-1, kind="x")
        with pytest.raises(ValueError):
            registry.side_exits.inc(1)  # missing the kind label
        with pytest.raises(ValueError):
            registry.unstable_links.inc(1, bogus="y")

    def test_snapshot_schema_and_prometheus(self):
        registry = MetricsRegistry()
        registry.side_exits.inc(3, kind="type")
        registry.pycompile_wall.observe(0.002)
        snapshot = registry.snapshot(program="unit")
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert snapshot["program"] == "unit"
        names = {f["name"] for section in ("counters", "gauges", "histograms")
                 for f in snapshot[section]}
        assert "repro_side_exits_total" in names
        assert "repro_pycompile_wall_seconds" in names
        text = registry.to_prometheus()
        assert '# TYPE repro_side_exits_total counter' in text
        assert 'repro_side_exits_total{kind="type"} 3' in text
        assert '# TYPE repro_pycompile_wall_seconds histogram' in text
        assert 'repro_pycompile_wall_seconds_bucket' in text
        assert 'le="+Inf"' in text
        assert 'repro_pycompile_wall_seconds_count 1' in text

    def test_flat_counters_delta(self):
        registry = MetricsRegistry()
        before = registry.flat_counters()
        registry.side_exits.inc(2, kind="loop")
        registry.unstable_links.inc()
        delta = registry.delta(before, registry.flat_counters())
        assert delta == {
            'repro_side_exits_total{kind="loop"}': 2,
            "repro_unstable_links_total": 1,
        }

    def test_reregistration_must_match(self):
        registry = MetricsRegistry()
        again = registry.counter(
            "repro_unstable_links_total",
            "Type-unstable exits chained directly into a complementary peer.",
        )
        assert again is registry.unstable_links
        with pytest.raises(ValueError):
            registry.gauge("repro_unstable_links_total", "now a gauge")


class TestSpans:
    def test_chrome_trace_structure(self):
        _r, vm = run_with_telemetry(SIEVE)
        doc = vm.span_recorder.to_chrome_trace(
            profiler=vm.profiler, program="sieve"
        )
        json.dumps(doc)  # must serialize
        assert doc["schema_version"] == SPANS_SCHEMA_VERSION
        events = doc["traceEvents"]
        thread_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"jobs", "vm-phases", "events"} <= thread_names
        phase_spans = {
            e["name"] for e in events
            if e["ph"] == "X" and e["tid"] == TRACK_PHASES
        }
        assert {"interpret", "record", "compile", "native"} <= phase_spans
        deopts = [e for e in events if e["ph"] == "i" and e["name"] == "deopt"]
        assert len(deopts) == vm.stats.tracing.side_exits_taken

    def test_span_timestamps_are_cycles(self):
        vm = TracingVM()
        recorder = vm.enable_span_tracing()
        span = recorder.open("outer", cat="test")
        vm.run(BRANCHY)
        recorder.close(span)
        doc = recorder.to_chrome_trace()
        outer = next(e for e in doc["traceEvents"] if e["name"] == "outer")
        assert outer["ts"] == 0
        assert outer["dur"] == vm.stats.ledger.total


class TestSupervisorTelemetry:
    def _jobs(self):
        hot = "var s = 0; for (var i = 0; i < 400; i++) s += i; s;"
        return [
            Job(job_id="a-1", source=hot, tenant="alpha"),
            Job(job_id="b-1", source=hot, tenant="beta"),
            Job(job_id="a-2", source="var x = 1; x;", tenant="alpha"),
        ]

    def test_tenant_summary_aggregates_billing(self):
        supervisor = Supervisor(capture_metrics=True)
        results = supervisor.run(self._jobs())
        tenants = supervisor.tenant_summary()
        assert sorted(tenants) == ["alpha", "beta"]
        assert tenants["alpha"].jobs == 2
        assert tenants["beta"].jobs == 1
        assert tenants["alpha"].cycles == sum(
            r.usage.cycles for r in results if r.tenant == "alpha"
        )
        metrics = supervisor.vm.metrics
        assert metrics.jobs.value(tenant="alpha", status="ok") == 2
        assert metrics.billed_cycles.value(tenant="alpha") == (
            tenants["alpha"].cycles
        )
        assert metrics.meter_polls.total > 0

    def test_job_results_carry_metrics_delta(self):
        results = Supervisor(capture_metrics=True).run(self._jobs())
        hot = next(r for r in results if r.job_id == "a-1")
        assert hot.metrics is not None
        assert any("repro_" in name for name in hot.metrics)
        # The hot loop compiled at least one fragment during its run.
        assert any(
            name.startswith("repro_compiles_total") for name in hot.metrics
        )
        plain = Supervisor().run(self._jobs())
        assert all(r.metrics is None for r in plain)

    def test_batch_spans_cover_queue_and_jobs(self):
        supervisor = Supervisor(capture_spans=True)
        results = supervisor.run(self._jobs())
        doc = supervisor.vm.span_recorder.to_chrome_trace(
            profiler=supervisor.vm.profiler
        )
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        waits = [s for s in spans if s["cat"] == "queue"]
        jobs = [s for s in spans if s["cat"] == "job"]
        assert len(waits) == len(results) == len(jobs)
        assert all("status" in s["args"] for s in jobs)
        # Later jobs waited behind earlier ones on the shared VM.
        assert max(w["dur"] for w in waits) > 0


class TestArtifactValidation:
    def test_cli_artifacts_validate(self, tmp_path):
        paths = {
            "events": tmp_path / "events.jsonl",
            "profile": tmp_path / "profile.json",
            "metrics": tmp_path / "metrics.json",
            "prom": tmp_path / "metrics.prom",
            "trace": tmp_path / "trace.json",
        }
        out = io.StringIO()
        code = cli_main(
            [
                "-e", SIEVE,
                "--dump-events", str(paths["events"]),
                "--profile-json", str(paths["profile"]),
                "--metrics-json", str(paths["metrics"]),
                "--metrics-prom", str(paths["prom"]),
                "--trace-export", str(paths["trace"]),
            ],
            out=out,
        )
        assert code == 0
        for path in paths.values():
            detect_and_validate(str(path))  # raises on any drift

    def test_validator_rejects_wrong_version(self, tmp_path):
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps(
            {"schema_version": 999, "counters": [], "gauges": [],
             "histograms": []}
        ))
        with pytest.raises(ValidationError):
            detect_and_validate(str(bad))

    def test_validator_checks_pycompile_counts(self, tmp_path):
        # A cold run builds no tree (its trunks have no links yet), so
        # the profile comes from a warm start, which does.
        store = str(tmp_path / "store")
        TracingVM(VMConfig(trace_store=store)).run(SIEVE)
        vm = TracingVM(VMConfig(trace_store=store))
        vm.enable_profiling()
        vm.run(SIEVE)
        doc = vm.profiler.to_dict(program="sieve")
        assert doc["pycompile"]["tree_builds"] > 0
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        detect_and_validate(str(path))
        # The field is additive: a v5 profile written without it is valid.
        del doc["pycompile"]["tree_builds"]
        path.write_text(json.dumps(doc))
        detect_and_validate(str(path))
        doc["pycompile"]["tree_builds"] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            detect_and_validate(str(path))

    def test_validator_rejects_non_cumulative_histogram(self, tmp_path):
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps({
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": [], "gauges": [],
            "histograms": [{
                "name": "repro_x", "help": "h", "label_names": [],
                "series": [{
                    "labels": {},
                    "buckets": [
                        {"le": 1, "count": 5},
                        {"le": "+Inf", "count": 3},
                    ],
                    "sum": 1.0, "count": 3,
                }],
            }],
        }))
        with pytest.raises(ValidationError):
            detect_and_validate(str(bad))

    def test_batch_telemetry_artifacts_validate(self, tmp_path):
        metrics_path = tmp_path / "batch-metrics.json"
        trace_path = tmp_path / "batch-trace.json"
        out = io.StringIO()
        code = cli_main(
            [
                "batch", "--suite", "--deadline-cycles", "400000",
                "--metrics-json", str(metrics_path),
                "--trace-export", str(trace_path),
            ],
            out=out,
        )
        assert code == 0
        detect_and_validate(str(metrics_path))
        detect_and_validate(str(trace_path))
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"interpret", "record", "compile", "native"} <= names
        assert any(n.startswith("queue-wait") for n in names)
        # The per-tenant footer rides on the job table.
        assert "tenant " in out.getvalue()
