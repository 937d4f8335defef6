"""VM facade: configuration, the baseline VM, and the tracing VM.

This is the main public entry point::

    from repro import TracingVM

    vm = TracingVM()
    result = vm.run("var s = 0; for (var i = 0; i < 100; ++i) s += i; s;")
    print(result, vm.stats.summary_lines())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro import costs
from repro.bytecode.compiler import Code, compile_program
from repro.core.events import EventStream
from repro.core.preempt import PreemptionMixin
from repro.interp.interpreter import Interpreter
from repro.runtime.builtins import install_globals
from repro.runtime.values import Box
from repro.stats import VMStats

if TYPE_CHECKING:
    from repro.hardening.faults import FaultPlan


@dataclass
class VMConfig:
    """Tunables for the tracing JIT, defaulting to the paper's values.

    * ``hotness_threshold=2`` — "currently after 2 crossings" (Section 2);
    * ``blacklist_backoff=32`` and ``max_recording_failures=2`` — Section
      3.3's back-off counter and blacklist threshold;
    * ``exit_hotness_threshold=2`` — side exits become hot like loops do;
    * ``code_cache_budget`` — simulated bytes of native code the trace
      cache may hold; on overflow the whole cache is flushed, like
      nanojit's code cache (0 = unlimited);
    * ``capture_events`` — retain the structured trace-lifecycle event
      stream for JSONL export (events are always *tallied* and
      dispatched; capture only controls retention);
    * ``profile`` — attach a :class:`repro.obs.profiler.PhaseProfiler`
      at construction;
    * ``enable_jit_firewall`` / ``max_internal_failures`` — the JIT
      firewall (:mod:`repro.hardening`) contains internal JIT failures
      and, after ``max_internal_failures`` trips, flips the VM into
      safe mode (tracing off for the rest of the run);
    * ``native_insn_budget`` — simulated native instructions one trace
      invocation may execute; checked at loop back-edges so overrunning
      it is a graceful deopt, not a crash;
    * ``fault_plan`` / ``chaos_seed`` — deterministic fault injection
      (a :class:`repro.hardening.FaultPlan`, or a seed from which one
      is derived) for the chaos harness;
    * the ``enable_*`` flags exist for the ablation benchmarks.
    """

    hotness_threshold: int = 2
    exit_hotness_threshold: int = 2
    blacklist_backoff: int = 32
    max_recording_failures: int = 2
    max_trace_length: int = 6000
    max_inline_depth: int = 8
    max_peer_trees: int = 12
    max_branch_traces: int = 64
    code_cache_budget: int = 0
    capture_events: bool = False
    profile: bool = False
    enable_tracing: bool = True
    enable_nesting: bool = True
    enable_oracle: bool = True
    enable_blacklisting: bool = True
    enable_cse: bool = True
    enable_exprsimp: bool = True
    enable_dse: bool = True
    enable_dce: bool = True
    enable_softfloat: bool = False
    #: Whole-trace passes (``jit/optimizer.py``): tree-wide CSE /
    #: guard entailment and loop-invariant hoisting.  With both off,
    #: only the streaming filters and the backward pass run.
    enable_tree_cse: bool = True
    enable_hoisting: bool = True
    enable_jit_firewall: bool = True
    max_internal_failures: int = 3
    native_insn_budget: int = 200_000_000
    #: Trace execution backend: ``"py"`` compiles each fragment's
    #: NativeInsn sequence to a real Python function (fast wall clock);
    #: ``"step"`` interprets the sequence.  Simulated cycles, events,
    #: and stats are byte-identical either way.
    native_backend: str = "py"
    #: Directory of the persistent trace store (``--trace-store DIR``);
    #: None disables warm start.  See :mod:`repro.core.store`.
    trace_store: Optional[str] = None
    #: Store size budget in entry bytes (0 = unlimited); on overflow the
    #: oldest-generation entries are evicted at save time.
    trace_store_budget: int = 0
    fault_plan: Optional["FaultPlan"] = None
    chaos_seed: Optional[int] = None
    dispatch_cost: int = costs.DISPATCH


class VM(PreemptionMixin):
    """A JSLite virtual machine.

    With ``config.enable_tracing`` false this is the plain SpiderMonkey-like
    baseline interpreter; with it true (the default) it is TraceMonkey.
    Preemption, cancellation, and supervisor metering come from
    :class:`repro.core.preempt.PreemptionMixin` (shared with the
    method-JIT baseline).
    """

    def __init__(self, config: Optional[VMConfig] = None):
        self.config = config or VMConfig()
        self.stats = VMStats()
        #: Structured trace-lifecycle event stream; its tally holds the
        #: stats' event counters (see repro.core.events).
        self.events = EventStream(capture=self.config.capture_events)
        self.stats.tracing.attach(self.events)
        self.globals: dict = {}
        self.output: List[str] = []
        self._init_preemption()
        self.array_prototype = None
        self.rng = None
        install_globals(self)
        #: Optional :class:`repro.obs.profiler.PhaseProfiler`; ``None``
        #: (the default) keeps every hook site to one attribute test.
        self.profiler = None
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; None by
        #: default.  Its per-VM families are views of the stats and the
        #: event tally, so no run-time path consults it except the
        #: pycompile wall histogram; zero simulated cycles always.
        self.metrics = None
        #: Optional :class:`repro.obs.spans.SpanRecorder`; ditto.
        self.span_recorder = None
        self.interpreter = Interpreter(self, self.config.dispatch_cost)
        self.recorder = None
        #: Depth of native trace execution (for reentry detection).
        self.native_depth = 0
        self.trace_reentered = False
        #: True once the safe-mode circuit breaker tripped.
        self.in_safe_mode = False
        #: Deterministic fault injector (chaos testing); ``None`` unless
        #: a fault plan or chaos seed was configured, so the happy path
        #: pays one attribute test per site.
        self.faults = None
        if self.config.fault_plan is not None or self.config.chaos_seed is not None:
            from repro.hardening.faults import FaultInjector, FaultPlan

            plan = self.config.fault_plan
            if plan is None:
                plan = FaultPlan.from_seed(self.config.chaos_seed)
            elif not isinstance(plan, FaultPlan):
                plan = FaultPlan(plan)
            self.faults = FaultInjector(plan, self.events)
        if self.config.enable_tracing:
            from repro.core.monitor import TraceMonitor

            self.monitor = TraceMonitor(self)
        else:
            self.monitor = None
        #: Optional :class:`repro.core.store.TraceStore` (persistent
        #: cross-process trace cache); None unless configured.
        self.trace_store = None
        if self.config.trace_store and self.monitor is not None:
            from repro.core.store import TraceStore

            self.trace_store = TraceStore(
                self.config.trace_store,
                self.config,
                budget=self.config.trace_store_budget,
            )
            self.monitor.cache.store = self.trace_store
        if self.config.profile:
            self.enable_profiling()

    @property
    def firewall(self):
        """The monitor's :class:`repro.hardening.JITFirewall` (or None)."""
        return self.monitor.firewall if self.monitor is not None else None

    # -- profiling -----------------------------------------------------------

    def enable_profiling(self, timeline: bool = False):
        """Attach (or return) the VM's phase profiler.

        Must be called before running code for the timeline to cover
        the whole run.  ``timeline=True`` additionally retains the
        per-span intervals for :mod:`repro.obs.timeline`.
        """
        if self.profiler is None:
            from repro.obs.profiler import PhaseProfiler

            self.profiler = PhaseProfiler(self, capture_timeline=timeline)
            self.stats.profiler = self.profiler
        elif timeline:
            self.profiler.capture_timeline = True
        return self.profiler

    # -- telemetry -----------------------------------------------------------

    def enable_metrics(self):
        """Attach (or return) the VM's live metrics registry.

        The registry computes its per-VM counter families from the
        stats and the event tally, and samples the ledger / cache / store
        gauges, whenever it is read; a registry attached after the VM has
        run therefore reports counts since VM start.  Zero simulated
        cycles always.
        """
        if self.metrics is None:
            from repro.obs.metrics import MetricsRegistry, attach_vm_collector

            self.metrics = MetricsRegistry()
            attach_vm_collector(self.metrics, self)
        return self.metrics

    def enable_span_tracing(self):
        """Attach (or return) the VM's span recorder (``--trace-export``).

        Also enables profiling with the interval timeline: the exported
        Chrome trace derives its VM-phase lane from the profiler's
        retained intervals rather than re-instrumenting the phases.
        """
        if self.span_recorder is None:
            from repro.obs.spans import SpanRecorder

            self.enable_profiling(timeline=True)
            self.span_recorder = SpanRecorder(self)
            self.events.subscribe(self.span_recorder.apply_event)
        return self.span_recorder

    # -- running code -----------------------------------------------------------

    def compile(self, source: str, name: str = "<program>") -> Code:
        return compile_program(source, name)

    def run(self, source: str, name: str = "<program>") -> Box:
        """Compile and run a program; returns its completion value.

        With a trace store configured, persisted traces for this source
        are preloaded before the run (warm start) and the post-run trace
        state is persisted after a normal completion.  Both paths are
        contained: store trouble degrades to cold tracing.
        """
        code = self.compile(source, name)
        store = self.trace_store
        if store is not None:
            store.preload(self, source, code)
        result = self.run_code(code)
        if store is not None:
            store.persist(self, source, code)
        return result

    def run_code(self, code: Code) -> Box:
        return self.interpreter.run_toplevel(code)

    # -- host callbacks -----------------------------------------------------------

    def reenter_call(self, fn, this_box: Box, args: List[Box]) -> Box:
        """Reenter the interpreter from a native (Section 6.5).

        If a compiled trace is currently running, set the reentry flag so
        the trace exits right after the native call returns.
        """
        if self.native_depth > 0:
            self.trace_reentered = True
        profiler = self.profiler
        if profiler is not None:
            # The nested activation interprets even if it was reached
            # from native code or mid-recording.
            from repro.obs.profiler import PHASE_INTERPRET

            profiler.enter(PHASE_INTERPRET)
        try:
            recorder = self.recorder
            if recorder is not None:
                # A native re-entering the interpreter mid-recording must
                # not feed the recorder bytecodes from the nested
                # activation; the nested execution is subsumed by the
                # recorded native call.
                recorder.suspended += 1
                try:
                    return self.interpreter.call_function(fn, this_box, args)
                finally:
                    recorder.suspended -= 1
            return self.interpreter.call_function(fn, this_box, args)
        finally:
            if profiler is not None:
                profiler.exit()


class TracingVM(VM):
    """The TraceMonkey-equivalent VM (tracing enabled)."""

    def __init__(self, config: Optional[VMConfig] = None):
        config = config or VMConfig()
        config.enable_tracing = True
        super().__init__(config)


class BaselineVM(VM):
    """The SpiderMonkey-equivalent baseline (pure interpreter)."""

    def __init__(self, config: Optional[VMConfig] = None):
        config = config or VMConfig()
        config.enable_tracing = False
        super().__init__(config)


class ThreadedVM(VM):
    """The SquirrelFish-Extreme-like baseline: a call-threaded interpreter.

    Identical semantics; the call-threading removes most of the dispatch
    overhead (modeled by :data:`repro.costs.DISPATCH_THREADED`).
    """

    def __init__(self, config: Optional[VMConfig] = None):
        config = config or VMConfig()
        config.enable_tracing = False
        config.dispatch_cost = costs.DISPATCH_THREADED
        super().__init__(config)
