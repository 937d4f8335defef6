"""Tests for the phase profiler, per-fragment profiles, and reports.

The three invariants the profiler is built around:

* **time conservation** — the per-phase cycle totals partition the
  ledger's total exactly (the profiler attributes ledger *deltas* at
  phase transitions, so nothing can be dropped or double counted);
* **exit agreement** — the per-guard exit counters are recorded at the
  same site that emits ``side-exit`` events, so their sum equals the
  event-stream fold;
* **zero cost when off** — a VM without a profiler spends exactly the
  same simulated cycles as one with it (the profiler charges nothing
  to the ledger), and the hooks are skipped entirely when
  ``vm.profiler is None``.
"""

import io
import json

from repro import TracingVM, VMConfig
from repro.cli import main as cli_main
from repro.obs.profiler import (
    PHASE_NATIVE,
    PHASES,
    PROFILE_SCHEMA_VERSION,
    PhaseProfiler,
)
from repro.obs.report import profile_json, profile_report
from repro.obs.timeline import render_ascii, render_html

# Figure 1's sieve: nested loops, a branch trace, and tree nesting.
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


def run_profiled(source, config=None, timeline=False):
    vm = TracingVM(config)
    vm.enable_profiling(timeline=timeline)
    result = vm.run(source)
    return result, vm


class TestTimeConservation:
    def test_phase_cycles_partition_ledger_total(self):
        _r, vm = run_profiled(SIEVE)
        profiler = vm.profiler
        assert sum(profiler.phase_cycles.values()) == vm.stats.ledger.total
        assert profiler.total_cycles == vm.stats.ledger.total

    def test_phase_fractions_sum_to_one(self):
        for source in (SIEVE, BRANCHY, "1 + 2;"):
            _r, vm = run_profiled(source)
            fractions = vm.profiler.phase_fractions()
            assert abs(sum(fractions.values()) - 1.0) < 1e-9, source
            assert set(fractions) == set(PHASES)

    def test_activity_fractions_partition_and_feed_stats(self):
        _r, vm = run_profiled(SIEVE)
        fractions = vm.profiler.activity_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        # stats.time_breakdown() defers to the attached profiler.
        assert vm.stats.time_breakdown() == fractions

    def test_wall_clock_partitions_profiled_window(self):
        _r, vm = run_profiled(SIEVE)
        profiler = vm.profiler
        assert profiler.wall_profiled > 0.0
        # Float accumulation across many transitions: allow tiny slop.
        assert (
            abs(sum(profiler.phase_wall.values()) - profiler.wall_profiled)
            < 1e-4
        )

    def test_sieve_is_native_dominated(self):
        # Paper Figure 12: well-traced programs run mostly on trace.
        _r, vm = run_profiled(SIEVE)
        assert vm.profiler.phase_fractions()[PHASE_NATIVE] > 0.4

    def test_timeline_intervals_partition_cycles(self):
        _r, vm = run_profiled(SIEVE, timeline=True)
        profiler = vm.profiler
        intervals = profiler.intervals
        assert intervals
        assert not profiler.timeline_truncated
        assert intervals[0][1] == 0
        assert intervals[-1][2] == profiler.total_cycles
        for (_p0, _c0, end, _w0, _w1), (_p1, start, _c1, _w2, _w3) in zip(
            intervals, intervals[1:]
        ):
            assert end == start  # contiguous, no gaps or overlaps
        per_phase = {}
        for phase, c0, c1, _w0, _w1 in intervals:
            per_phase[phase] = per_phase.get(phase, 0) + (c1 - c0)
        assert per_phase == {
            k: v for k, v in profiler.phase_cycles.items() if v
        }


class TestExitAgreement:
    def test_guard_exits_equal_event_fold(self):
        for source in (SIEVE, BRANCHY):
            _r, vm = run_profiled(source, VMConfig(capture_events=True))
            profiler = vm.profiler
            assert profiler.total_side_exits == vm.events.counts.get(
                "side-exit", 0
            ), source
            assert (
                profiler.total_side_exits == vm.stats.tracing.side_exits_taken
            ), source

    def test_per_loop_exit_totals_sum_to_event_fold(self):
        _r, vm = run_profiled(SIEVE, VMConfig(capture_events=True))
        total = sum(loop.total_exits for loop in vm.profiler.loops)
        assert total == vm.events.counts.get("side-exit", 0)

    def test_stitched_counts_match_stats(self):
        # Stitched transfers jump guard->branch without returning to the
        # monitor, so they are counted separately from side exits.
        _r, vm = run_profiled(BRANCHY)
        stitched = sum(
            guard.stitched for _loop, guard in vm.profiler.guards_ranked()
        )
        assert stitched == vm.stats.tracing.stitched_transfers

    def test_entries_match_trace_entry_counter(self):
        _r, vm = run_profiled(SIEVE)
        entries = sum(loop.entries for loop in vm.profiler.loops)
        assert entries == vm.stats.tracing.trace_entries

    def test_guard_profiles_carry_source_lines(self):
        _r, vm = run_profiled(SIEVE)
        ranked = vm.profiler.guards_ranked()
        assert ranked
        for loop, guard in ranked:
            assert isinstance(guard.line, int)
            assert guard.kind
            assert loop.code_name


class TestDisabledOverhead:
    def test_profiler_charges_no_simulated_cycles(self):
        plain = TracingVM()
        plain.run(SIEVE)
        _r, profiled = run_profiled(SIEVE)
        # The profiler must not perturb the cost model at all; the
        # ISSUE bound is <=2% but transition accounting costs zero.
        assert profiled.stats.ledger.total == plain.stats.ledger.total
        assert (
            profiled.stats.ledger.total
            <= plain.stats.ledger.total * 1.02
        )

    def test_disabled_vm_has_no_profiler(self):
        vm = TracingVM()
        vm.run(BRANCHY)
        assert vm.profiler is None
        assert vm.stats.profiler is None

    def test_results_identical_with_and_without(self):
        plain = TracingVM()
        expected = plain.run(SIEVE)
        result, _vm = run_profiled(SIEVE)
        assert repr(result) == repr(expected)


class TestProfilesSurviveFlush:
    def test_flushed_fragments_keep_profiles(self):
        config = VMConfig(code_cache_budget=300)
        source = (
            "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i;"
            " return s; }"
            "function g(n) { var s = 0; for (var i = 0; i < n; i++) s += 2;"
            " return s; }"
            "var t = 0;"
            "for (var r = 0; r < 10; r++) { t = t + f(30) + g(30); }"
            "t;"
        )
        _r, vm = run_profiled(source, config)
        assert vm.stats.tracing.cache_flushes >= 1
        retired = [loop for loop in vm.profiler.loops if loop.retired]
        assert retired  # flushed trees' profiles are retained, marked

    def test_new_tree_at_a_freed_trees_address_gets_its_own_profile(self):
        # Loop profiles are filed under id(tree), and a new tree can be
        # allocated where a retired, freed tree was.  Filing the old
        # profile under the new tree's id stands in for that reuse.
        class Tree:
            def __init__(self, header_pc):
                self.code = type("Code", (), {"name": "f"})()
                self.header_pc = header_pc
                self.loop_info = None
                self.entry_typemap = []
                self.profile = None

        profiler = PhaseProfiler(TracingVM())
        old = Tree(3)
        first = profiler.loop_profile(old)
        new = Tree(7)
        profiler._loops[id(new)] = first
        second = profiler.loop_profile(new)
        assert second is not first and second.header_pc == 7
        assert profiler.loop_profile(new) is second
        assert profiler.loops == [first, second]


class TestReports:
    def test_profile_report_sections(self):
        _r, vm = run_profiled(SIEVE)
        text = profile_report(vm)
        assert "phase breakdown" in text
        assert "hot loops" in text
        assert "top deopt sites" in text
        assert "100.0%" in text  # the fractions total line

    def test_report_without_profiler(self):
        vm = TracingVM()
        vm.run("1;")
        assert profile_report(vm) == "(profiling was not enabled)"

    def test_deopt_table_excludes_normal_loop_exits(self):
        import re

        _r, vm = run_profiled(SIEVE)
        from repro.obs.report import deopt_sites_lines

        for line in deopt_sites_lines(vm.profiler):
            if re.match(r"\s*\d+ ", line):  # ranked data rows only
                kind = line.split()[3]
                assert kind not in ("loop", "preempt"), line

    def test_profile_json_schema(self):
        _r, vm = run_profiled(SIEVE, timeline=True)
        doc = json.loads(profile_json(vm, program="sieve"))
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        assert doc["program"] == "sieve"
        assert doc["total_cycles"] == vm.stats.ledger.total
        assert {p["phase"] for p in doc["phases"]} == set(PHASES)
        assert abs(sum(p["fraction"] for p in doc["phases"]) - 1.0) < 1e-9
        assert doc["loops"]
        for loop in doc["loops"]:
            assert {"code", "header_pc", "line", "entries", "iterations",
                    "cycles_on_trace", "guards"} <= set(loop)
        # Loops are exported hottest-first.
        cycles = [loop["cycles_on_trace"] for loop in doc["loops"]]
        assert cycles == sorted(cycles, reverse=True)
        intervals = doc["timeline"]["intervals"]
        assert intervals
        assert all(len(interval) == 5 for interval in intervals)
        assert intervals[-1][2] == doc["total_cycles"]

    def test_timeline_renders(self):
        _r, vm = run_profiled(SIEVE, timeline=True)
        ascii_art = render_ascii(vm.profiler)
        assert "legend:" in ascii_art
        html = render_html(vm.profiler, title="sieve")
        assert html.startswith("<!DOCTYPE html>")
        assert "</html>" in html
        assert "seg" in html


class TestCLIProfileFlags:
    PROGRAM = "var s = 0; for (var i = 0; i < 80; i++) s += i; s;"

    def test_profile_flag_prints_report(self):
        out = io.StringIO()
        status = cli_main(["-e", self.PROGRAM, "--no-result", "--profile"],
                          out=out)
        assert status == 0
        text = out.getvalue()
        assert "phase breakdown" in text
        assert "hot loops" in text

    def test_profile_json_writes_file(self, tmp_path):
        target = tmp_path / "profile.json"
        status = cli_main(
            ["-e", self.PROGRAM, "--no-result", "--profile-json", str(target)],
            out=io.StringIO(),
        )
        assert status == 0
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        assert doc["total_cycles"] > 0

    def test_timeline_writes_html(self, tmp_path):
        target = tmp_path / "timeline.html"
        status = cli_main(
            ["-e", self.PROGRAM, "--no-result", "--timeline", str(target)],
            out=io.StringIO(),
        )
        assert status == 0
        assert target.read_text().startswith("<!DOCTYPE html>")

    def test_timeline_ascii_for_txt(self, tmp_path):
        target = tmp_path / "timeline.txt"
        status = cli_main(
            ["-e", self.PROGRAM, "--no-result", "--timeline", str(target)],
            out=io.StringIO(),
        )
        assert status == 0
        assert "legend:" in target.read_text()

    def test_profile_sieve_example_file(self, tmp_path):
        # The same run as CI's sieve profile artifacts: one --profile run
        # writes the report, the JSON document and the HTML timeline.
        out = io.StringIO()
        profile, timeline = tmp_path / "profile.json", tmp_path / "timeline.html"
        status = cli_main(["--profile", "--profile-json", str(profile),
                           "--timeline", str(timeline), "examples/sieve.js"],
                          out=out)
        assert status == 0
        text = out.getvalue()
        assert "phase breakdown" in text
        assert "top deopt sites" in text
        doc = json.loads(profile.read_text())
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        assert doc["program"] == "examples/sieve.js"
        assert timeline.read_text().rstrip().endswith("</html>")


class TestProfilerUnit:
    def test_set_recording_flips_innermost_phase(self):
        vm = TracingVM()
        profiler = PhaseProfiler(vm)
        profiler.start()
        profiler.set_recording(True)
        assert profiler._stack[-1] == "record"
        profiler.set_recording(False)
        assert profiler._stack[-1] == "interpret"
        profiler.finish()

    def test_finish_unwinds_nested_stack(self):
        vm = TracingVM()
        profiler = PhaseProfiler(vm)
        profiler.start()
        profiler.enter("monitor")
        profiler.enter("compile")
        profiler.finish()
        assert not profiler._active
        assert sum(profiler.phase_cycles.values()) == vm.stats.ledger.total
