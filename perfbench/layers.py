"""Per-layer spans and counts for the traced run, recorded from outside.

:class:`LayerTracer` patches the public entry point of each layer of
``repro`` with a wrapper that opens a span on entry and closes it on
exit, and restores every original when the traced region ends.  Nothing
under ``src/`` changes.  A span's *self time* is its duration minus the
durations of the spans nested in it, so the self times of all spans,
the root spans included, add up exactly to the roots' wall time.

Spans are kept in memory (at most ``KEEP_PER_NAME`` per layer) and
written at the end of the run in the Chrome trace-event format
``--trace-export`` produces, so Perfetto opens them.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Spans retained per layer for the trace file; later calls still count
#: toward self times and call counts.
KEEP_PER_NAME = 2000

#: Span name -> the metric its summed self time is reported as.
SELF_TIME_METRICS = {
    "frontend.parse": "frontend.parse_s",
    "bytecode.compile": "bytecode.compile_s",
    "interp": "interp.self_s",
    "jit.monitor": "monitor.self_s",
    "jit.recorder": "recorder.self_s",
    "jit.optimizer": "optimizer.self_s",
    "jit.codegen": "codegen.self_s",
    "jit.pycompile": "pycompile.self_s",
    "jit.native": "native.self_s",
    "jit.exits": "exits.self_s",
}


def _layer_entry_points():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.bytecode import compiler
    from repro.core import tree
    from repro.core.monitor import TraceMonitor
    from repro.core.recorder import Recorder
    from repro.core.store import TraceStore
    from repro.exec.supervisor import Supervisor
    from repro.interp.interpreter import Interpreter
    from repro.jit import pycompile
    from repro.jit.native import NativeMachine
    import repro.vm as vm_module

    return [
        (compiler, "parse", "frontend.parse"),
        (vm_module, "compile_program", "bytecode.compile"),
        (Interpreter, "run_toplevel", "interp"),
        # A native re-entering the interpreter interprets too.
        (vm_module.VM, "reenter_call", "interp"),
        (TraceMonitor, "on_loop_header", "jit.monitor"),
        (Recorder, "record_op", "jit.recorder"),
        (tree, "optimize_fragment", "jit.optimizer"),
        (tree, "generate", "jit.codegen"),
        (pycompile, "compile_fragment_py", "jit.pycompile"),
        (pycompile, "compile_tree_py", "jit.pycompile"),
        (NativeMachine, "run", "jit.native"),
        (TraceMonitor, "handle_exit_event", "jit.exits"),
        (TraceStore, "preload", "store.preload"),
        (TraceStore, "persist", "store.persist"),
        (Supervisor, "_run_attempt", "exec.job"),
    ]


class LayerTracer:
    """Spans, self times and counts at the layer boundaries."""

    def __init__(self, track: str):
        self.track = track
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Durations of every closed job span (for the median job time).
        self.job_durations: List[float] = []
        #: Retained spans: (span id, name, start, end, parent id, run id).
        self.spans: List[tuple] = []
        self.dropped = 0
        self.run_id = 0
        self._kept: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[tuple] = []
        #: id()s of trees whose megafunction was built, per run.
        self._trees = set()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else None
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if name == "exec.job":
            self.job_durations.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if self._kept[name] < KEEP_PER_NAME:
            self._kept[name] += 1
            self.spans.append((span_id, name, start, end, parent, self.run_id))
        else:
            self.dropped += 1

    @contextmanager
    def root(self, name: str):
        """A root span: one program run or one batch, with its own run id."""
        self.run_id += 1
        self._trees.clear()
        self._open(name)
        try:
            yield
        finally:
            self._close()
            self.counts["pycompile.distinct_trees"] += len(self._trees)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def _count(self, owner, attr: str, after: Callable) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        from repro.jit import pycompile

        counts = self.counts

        def on_generate(args, result):
            counts["codegen.native_insns"] += len(result[0])

        def on_tree_build(args, result):
            counts["pycompile.tree_builds"] += 1
            self._trees.add(id(args[1]))

        def on_emit(args, result):
            counts["pycompile.emitted_bytes"] += len(result[0])

        def on_preload(args, result):
            counts["store.preload_hits"] += bool(result)

        def on_job(args, result):
            counts["exec.retries"] += args[2] > 1

        after = {
            "generate": on_generate,
            "compile_tree_py": on_tree_build,
            "preload": on_preload,
            "_run_attempt": on_job,
        }
        try:
            for owner, attr, name in _layer_entry_points():
                self._wrap(owner, attr, name, after.get(attr))
            self._count(pycompile, "emit_fragment", on_emit)
            self._count(pycompile, "emit_tree", on_emit)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def chrome_events(self, tid: int, t0: float) -> List[dict]:
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": self.track}},
        ]
        for span_id, name, start, end, parent, run in self.spans:
            args = {"run": run}
            if parent is not None:
                args["parent_span"] = f"{tid}:{parent}"
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".")[0],
                    "pid": 1,
                    "tid": tid,
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "id": f"{tid}:{span_id}",
                    "args": args,
                }
            )
        return events


def write_chrome_trace(path, tracers, t0: float, other: dict) -> None:
    """One Chrome trace-event document (the ``--trace-export`` shape,
    spans schema 1) holding every tracer's spans on its own track."""
    events = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "perfbench"}},
    ]
    for tid, tracer in enumerate(tracers, start=1):
        events.extend(tracer.chrome_events(tid, t0))
    doc = {
        "schema_version": 1,
        "displayTimeUnit": "ms",
        "otherData": dict(
            other,
            timebase="wall-clock-microseconds",
            truncated=any(t.dropped for t in tracers),
            dropped_spans=sum(t.dropped for t in tracers),
        ),
        "traceEvents": events,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")
