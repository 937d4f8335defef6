"""Tests for the structured trace-lifecycle event stream and the
stats-as-a-fold wiring."""

import io
import json

from repro import TracingVM, VMConfig
from repro.cli import main as cli_main
from repro.core import events as eventkind
from repro.core.events import EventStream, TraceEvent
from tests.helpers import run_tracing

BRANCHY = (
    "var t = 0;"
    "for (var i = 0; i < 120; i++) { if (i % 4 == 0) t += 3; else t += 1; }"
    "t;"
)


class TestEventStream:
    def test_emit_dispatches_without_capture(self):
        stream = EventStream()
        seen = []
        stream.subscribe(seen.append)
        stream.emit(eventkind.FLUSH, reason="test")
        assert len(seen) == 1
        assert seen[0].kind == "flush"
        assert len(stream) == 0  # not retained
        assert stream.counts == {"flush": 1}

    def test_capture_retains_in_order(self):
        stream = EventStream(capture=True)
        stream.emit(eventkind.RECORD_START, code="f", pc=1)
        stream.emit(eventkind.COMPILE, fragment="root")
        assert [e.kind for e in stream] == ["record-start", "compile"]
        assert [e.seq for e in stream] == [1, 2]

    def test_capture_limit_keeps_most_recent(self):
        stream = EventStream(capture=True, limit=2)
        for pc in range(5):
            stream.emit(eventkind.SIDE_EXIT, pc=pc)
        assert [e.payload["pc"] for e in stream] == [3, 4]

    def test_jsonl_round_trip(self):
        stream = EventStream(capture=True)
        stream.emit(eventkind.LINK, fragment="branch", exit_id=7, code="f")
        record = json.loads(stream.to_jsonl())
        assert record == {
            "schema_version": eventkind.EVENT_SCHEMA_VERSION,
            "seq": 1,
            "kind": "link",
            "fragment": "branch",
            "exit_id": 7,
            "code": "f",
        }

    def test_every_record_carries_schema_version(self):
        stream = EventStream(capture=True)
        stream.emit(eventkind.RECORD_START, code="f", pc=1)
        stream.emit(eventkind.SIDE_EXIT, exit_id=0)
        for line in stream.to_jsonl().splitlines():
            assert (
                json.loads(line)["schema_version"]
                == eventkind.EVENT_SCHEMA_VERSION
            )

    def test_of_kind_and_clear(self):
        stream = EventStream(capture=True)
        stream.emit(eventkind.BACKOFF, pc=0)
        stream.emit(eventkind.FLUSH, reason="x")
        assert len(stream.of_kind(eventkind.FLUSH)) == 1
        stream.clear()
        assert len(stream) == 0

    def test_repr_is_informative(self):
        event = TraceEvent(3, "compile", {"code": "f"})
        assert "compile" in repr(event)
        assert "'f'" in repr(event)


class TestStatsFold:
    def test_counters_match_event_counts(self):
        config = VMConfig(capture_events=True)
        _r, vm = run_tracing(BRANCHY, config)
        counts = vm.events.counts
        tracing = vm.stats.tracing
        assert tracing.recordings_started == counts.get("record-start", 0)
        assert tracing.traces_completed == counts.get("compile", 0)
        assert tracing.side_exits_taken == counts.get("side-exit", 0)
        assert tracing.fragments_linked == counts.get("link", 0)
        assert tracing.traces_aborted == counts.get("record-abort", 0)
        assert tracing.blacklisted == counts.get("blacklist", 0)

    def test_every_run_emits_lifecycle_events(self):
        config = VMConfig(capture_events=True)
        _r, vm = run_tracing(BRANCHY, config)
        kinds = {e.kind for e in vm.events}
        assert eventkind.RECORD_START in kinds
        assert eventkind.COMPILE in kinds
        assert eventkind.LINK in kinds
        assert eventkind.SIDE_EXIT in kinds

    def test_abort_reasons_typed_and_folded(self):
        # `throw` inside a hot loop aborts recording.
        source = (
            "var t = 0;"
            "for (var i = 0; i < 40; i++) {"
            "  try { if (i == 1000) throw 'x'; t += 1; } catch (e) { t += 2; }"
            "}"
            "t;"
        )
        _r, vm = run_tracing(source, VMConfig(capture_events=True))
        tracing = vm.stats.tracing
        if tracing.traces_aborted:
            assert tracing.abort_reasons
            assert all(
                isinstance(k, str) and isinstance(v, int)
                for k, v in tracing.abort_reasons.items()
            )
            reasons = [e.payload["reason"] for e in vm.events.of_kind("record-abort")]
            assert sum(tracing.abort_reasons.values()) == len(reasons)

    def test_top_abort_reasons_in_summary(self):
        vm = TracingVM()
        vm.events.emit(eventkind.RECORD_ABORT, reason="rare")
        for _ in range(5):
            vm.events.emit(eventkind.RECORD_ABORT, reason="common")
        text = "\n".join(vm.stats.summary_lines())
        assert "top abort reasons" in text
        # Ranked by count: the common reason leads.
        top_line = next(l for l in text.splitlines() if "top abort" in l)
        assert top_line.index("common") < top_line.index("rare")
        assert vm.stats.tracing.top_abort_reasons(1) == [("common", 5)]

    def test_payloads_are_json_scalars(self):
        config = VMConfig(capture_events=True, code_cache_budget=300)
        _r, vm = run_tracing(
            "function f(n) { var s = 0; for (var i = 0; i < n; i++) s += i; "
            "return s; }"
            "function g(n) { var s = 0; for (var i = 0; i < n; i++) s += 2; "
            "return s; }"
            "var t = 0;"
            "for (var r = 0; r < 10; r++) { t = t + f(30) + g(30); }"
            "t;",
            config,
        )
        for event in vm.events:
            for key, value in event.payload.items():
                assert isinstance(value, (str, int, float, bool, type(None))), (
                    event.kind,
                    key,
                    value,
                )


class TestCLIEvents:
    PROGRAM = "var s = 0; for (var i = 0; i < 50; i++) s += i; s;"

    def test_events_flag_prints_jsonl(self):
        out = io.StringIO()
        status = cli_main(["-e", self.PROGRAM, "--no-result", "--events"], out=out)
        assert status == 0
        lines = [line for line in out.getvalue().splitlines() if line.strip()]
        assert lines
        records = [json.loads(line) for line in lines]
        assert any(r["kind"] == "record-start" for r in records)
        assert any(r["kind"] == "link" for r in records)

    def test_dump_events_writes_file(self, tmp_path):
        target = tmp_path / "events.jsonl"
        out = io.StringIO()
        status = cli_main(
            ["-e", self.PROGRAM, "--no-result", "--dump-events", str(target)],
            out=out,
        )
        assert status == 0
        records = [
            json.loads(line) for line in target.read_text().splitlines() if line
        ]
        assert records
        assert records[0]["seq"] == 1
        assert any(r["kind"] == "compile" for r in records)

    def test_events_on_baseline_engine_is_empty(self):
        out = io.StringIO()
        status = cli_main(
            ["-e", self.PROGRAM, "--no-result", "--events", "--engine", "baseline"],
            out=out,
        )
        assert status == 0
        assert out.getvalue().strip() == ""
