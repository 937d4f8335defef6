"""Tests for the command-line interface."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


class TestBasicRuns:
    def test_inline_eval(self):
        status, output = run_cli(["-e", "1 + 2;"])
        assert status == 0
        assert output.strip() == "3"

    def test_file(self, tmp_path):
        script = tmp_path / "prog.js"
        script.write_text("var s = 0; for (var i = 0; i < 10; i++) s += i; s;")
        status, output = run_cli([str(script)])
        assert status == 0
        assert output.strip() == "45"

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["/nonexistent/prog.js"], out=io.StringIO())

    def test_no_input(self):
        with pytest.raises(SystemExit):
            main([], out=io.StringIO())

    def test_print_output_ordering(self):
        status, output = run_cli(["-e", "print('hello'); 42;"])
        assert output.splitlines() == ["hello", "42"]

    def test_no_result_flag(self):
        status, output = run_cli(["--no-result", "-e", "print('x'); 42;"])
        assert output.strip() == "x"

    def test_every_engine(self):
        for engine in ("baseline", "threaded", "methodjit", "tracing"):
            status, output = run_cli(["--engine", engine, "-e", "6 * 7;"])
            assert status == 0
            assert output.strip() == "42"


class TestErrorHandling:
    def test_syntax_error(self, capsys):
        status, _output = run_cli(["-e", "var = ;"])
        assert status == 1

    def test_uncaught_exception(self, capsys):
        status, _output = run_cli(["-e", "throw 'kaboom';"])
        assert status == 1
        assert "kaboom" in capsys.readouterr().err


class TestDiagnostics:
    def test_stats(self):
        status, output = run_cli(
            ["--stats", "-e", "var s = 0; for (var i = 0; i < 50; i++) s += i; s;"]
        )
        assert "total simulated cycles" in output
        assert "trees formed" in output

    def test_disasm(self):
        status, output = run_cli(["--disasm", "-e", "var x = 1 + 2;"])
        assert status == 0
        assert "LOOPHEADER" not in output  # no loop here
        assert "SETGLOBAL" in output

    def test_trace_dump(self):
        status, output = run_cli(
            ["--trace-dump", "-e", "var s = 0; for (var i = 0; i < 50; i++) s += i; s;"]
        )
        assert status == 0
        assert "=== tree" in output
        assert "LIR (as recorded," in output
        assert "LIR (optimized," in output
        assert "native:" in output

    def test_trace_dump_shows_hoisted_prologue(self):
        # The array load and its shape guard are loop-invariant, so the
        # optimized view splits into a once-per-entry prologue + body.
        status, output = run_cli(
            [
                "--trace-dump",
                "-e",
                "var a = [7]; var s = 0; "
                "for (var i = 0; i < 50; i++) s += a[0]; s;",
            ]
        )
        assert status == 0
        assert "-- prologue (once per trace entry) --" in output
        assert "-- loop body (every iteration) --" in output
        prologue = output.split("-- prologue (once per trace entry) --")[1]
        prologue = prologue.split("-- loop body (every iteration) --")[0]
        assert "gclass" in prologue  # invariant shape guard left the loop

    def test_trace_dump_no_traces(self):
        status, output = run_cli(["--trace-dump", "-e", "1 + 1;"])
        assert "(no traces were compiled)" in output

    def test_compare(self):
        status, output = run_cli(
            ["--compare", "-e", "var s = 0; for (var i = 0; i < 300; i++) s += i; s;"]
        )
        assert status == 0
        for engine in ("baseline", "threaded", "methodjit", "tracing"):
            assert engine in output
        assert "speedup" in output


class TestFleetBatch:
    """The batch subcommand's fleet flags (admission, chaos, exports)."""

    JOBS = [
        "var s = 0; for (var i = 0; i < 150; i = i + 1) s = s + i; s;",
        'print("hello"); 2 + 2;',
        "var a = []; for (var i = 0; i < 30; i = i + 1) a.push(i); a.length;",
    ]

    def _write_jobs(self, tmp_path):
        paths = []
        for index, source in enumerate(self.JOBS):
            path = tmp_path / f"job{index}.js"
            path.write_text(source)
            paths.append(str(path))
        return paths

    def test_dump_results_converges_across_worker_counts(self, tmp_path,
                                                         capsys):
        # The same results whether or not the batch VM crashes and
        # hangs along the way.
        import json

        paths = self._write_jobs(tmp_path)
        clean = tmp_path / "clean.json"
        chaos = tmp_path / "chaos.json"
        assert run_cli(["batch", "--dump-results", str(clean)] + paths)[0] == 0
        status, output = run_cli(
            ["batch", "--inject-fleet-fault", "fleet.worker_crash",
             "--inject-fleet-fault", "fleet.worker_hang:2",
             "--dump-results", str(chaos)] + paths)
        assert status == 0
        assert "fleet: 0 shed, 2 respawned, 0 retried" in output
        assert json.loads(clean.read_text()) == json.loads(chaos.read_text())

    def test_rate_flag_sheds(self, tmp_path, capsys):
        path = tmp_path / "j.js"
        path.write_text("1 + 1;")
        # All three jobs share the tenant (the file stem): rate 1/sec
        # admits the burst of one and sheds the rest.
        status, output = run_cli(
            ["batch", "--rate", "j=1", str(path), str(path), str(path)]
        )
        assert status == 0
        assert "shed" in output
        assert "`- shed: rate" in output

    def test_fleet_flags_work_without_workers(self, tmp_path, capsys):
        # A shed job is billed no retries.
        path = tmp_path / "j.js"
        path.write_text("1 + 1;")
        status, output = run_cli(
            ["batch", "--rate", "j=1", str(path), str(path), str(path)]
        )
        assert status == 0
        assert "fleet: 2 shed" in output
        tenant_row = output.splitlines()[-1]
        # tenant, jobs, ok, fault, retry
        assert tenant_row.split()[:5] == ["j", "3", "1", "2", "0"]

    @pytest.mark.parametrize("spec", ["j=0", "j=-2", "j=nan"])
    def test_nonpositive_rate_rejected(self, tmp_path, spec):
        path = tmp_path / "j.js"
        path.write_text("1;")
        with pytest.raises(SystemExit, match="R must be positive"):
            run_cli(["batch", "--rate", spec, str(path)])

    @pytest.mark.parametrize("flag, value, least", [
        ("--shed-after", "0", 1),
        ("--shed-after", "-1", 1),
        ("--max-retries", "-1", 0),
        ("--max-requeues", "-1", 0),
    ])
    def test_out_of_range_batch_flag_rejected(self, tmp_path, flag, value,
                                              least):
        # A queue bound below 1 would shed every job; negative retry and
        # requeue budgets mean nothing.
        path = tmp_path / "j.js"
        path.write_text("1;")
        with pytest.raises(SystemExit, match=(
                f"repro: bad {flag} {value}: must be at least {least}")):
            run_cli(["batch", flag, value, str(path)])

    def test_bad_rate_spec(self, tmp_path):
        path = tmp_path / "j.js"
        path.write_text("1;")
        with pytest.raises(SystemExit, match="TENANT=R"):
            run_cli(["batch", "--rate", "oops", str(path)])

    def test_fault_sites_lists_fleet_sites(self):
        status, output = run_cli(["--fault-sites"])
        assert status == 0
        for site in ("fleet.worker_crash", "fleet.worker_hang"):
            assert site in output

    def test_fleet_events_and_telemetry_artifacts(self, tmp_path, capsys):
        from repro.obs.validate import detect_and_validate

        paths = self._write_jobs(tmp_path)
        events = tmp_path / "fleet.jsonl"
        metrics = tmp_path / "fleet-metrics.json"
        trace = tmp_path / "fleet-trace.json"
        status, _output = run_cli(
            ["batch", "--inject-fleet-fault", "fleet.worker_crash:2",
             "--dump-events", str(events),
             "--metrics-json", str(metrics),
             "--trace-export", str(trace)] + paths
        )
        assert status == 0
        assert "events JSONL" in detect_and_validate(str(events))
        assert "metrics" in detect_and_validate(str(metrics))
        assert "Chrome trace" in detect_and_validate(str(trace))


class TestMethodJITTelemetry:
    """The method JIT has no profiler, metrics registry or span
    recorder: asking it for their output is a one-line usage error,
    refused before anything runs, never a traceback."""

    SINGLE_RUN = [
        ["--profile"],
        ["--profile-json", "p.json"],
        ["--timeline", "t.html"],
        ["--metrics-json", "m.json"],
        ["--metrics-prom", "m.prom"],
        ["--trace-export", "t.json"],
    ]
    BATCH = [
        ["--metrics-json", "m.json"],
        ["--metrics-prom", "m.prom"],
        ["--trace-export", "t.json"],
    ]

    @pytest.mark.parametrize("flags", SINGLE_RUN, ids=lambda f: f[0])
    def test_single_run_refuses(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=(
                f"^repro: --engine methodjit does not support {flags[0]}$")):
            run_cli(["--engine", "methodjit", *flags, "-e", "1;"])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", BATCH, ids=lambda f: f[0])
    def test_batch_refuses(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        job = tmp_path / "j.js"
        job.write_text("1;")
        with pytest.raises(SystemExit, match=(
                f"^repro: --engine methodjit does not support {flags[0]}$")):
            run_cli(["batch", "--engine", "methodjit", *flags, str(job)])
        assert [p.name for p in tmp_path.iterdir()] == ["j.js"]

    def test_every_refused_flag_is_named(self):
        with pytest.raises(SystemExit, match=(
                "does not support --profile, --metrics-prom$")):
            run_cli(["--engine", "methodjit", "--profile",
                     "--metrics-prom", "m.prom", "-e", "1;"])

    def test_other_engines_and_compare_still_accept_the_flags(self, capsys):
        status, _output = run_cli(["--engine", "baseline", "--profile",
                                   "-e", "1;"])
        assert status == 0
        status, _output = run_cli(["--engine", "methodjit", "--compare",
                                   "--profile", "-e", "1;"])
        assert status == 0

    def test_refusal_prints_no_traceback(self, tmp_path):
        sieve = pathlib.Path(__file__).parent.parent / "examples" / "sieve.js"
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(repro.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--engine", "methodjit",
             "--trace-export", str(tmp_path / "t.json"), str(sieve)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [
            "repro: --engine methodjit does not support --trace-export"
        ]
