"""Live metrics registry: counters, gauges, histograms for serving.

The profiler (:mod:`repro.obs.profiler`) answers "where did the cycles
of *this finished run* go"; a serving tier needs the complementary
question answered continuously: "what is the VM doing *right now*, and
at what rate".  This module is that layer — a low-overhead registry of
named instruments in the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (side exits taken,
  recordings aborted by reason, jobs completed by tenant and status);
* :class:`Gauge` — point-in-time levels (trace-cache code bytes, queue
  depth, simulated cycles by activity);
* :class:`Histogram` — fixed-bucket distributions (pycompile wall time).

Every instrument is a *family*: one name + help string, with one series
per distinct label combination (``repro_side_exits_total{kind="type"}``).

The per-VM counter families are **views** of the VM's store (the event
tally of :mod:`repro.core.events`, :class:`repro.stats.TraceStats` and
the trace cache), computed whenever the registry is read, so they
cannot drift and nothing on the run-time path updates them; a registry
attached after the VM has run reports counts since VM start.  Levels
(ledger cycles, cache residency, store size) are sampled by
**collectors** at snapshot time.  Direct instruments remain only for
facts with no other home: the pycompile wall histogram, the
supervisor's jobs, billing, queue depth and meter polls.  The registry
charges **zero simulated cycles**.

Exports: :meth:`MetricsRegistry.snapshot` (JSON document, schema v1,
CLI ``--metrics-json``) and :meth:`MetricsRegistry.to_prometheus`
(text exposition format, CLI ``--metrics-prom``).  See
docs/INTERNALS.md section 14 for the instrument catalogue and schemas.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import events as eventkind

#: Version of the metrics snapshot JSON document (see INTERNALS §14).
METRICS_SCHEMA_VERSION = 1

#: Wall-seconds buckets for compile-time histograms (pycompile is a
#: sub-millisecond affair per fragment; the tail buckets catch
#: pathological emissions).
COMPILE_WALL_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _series_name(name: str, label_names: Sequence[str],
                 label_values: Tuple[str, ...]) -> str:
    """Prometheus-style series identity, e.g. ``foo_total{kind="type"}``."""
    if not label_names:
        return name
    inner = ",".join(
        f'{label}="{_escape_label_value(value)}"'
        for label, value in zip(label_names, label_values)
    )
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared family plumbing: name, help, label names, series table."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        #: The owning registry, whose views refresh before a read.
        self.registry: Optional["MetricsRegistry"] = None

    def _key(self, labels: dict) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            missing = set(self.label_names) - set(labels)
            extra = set(labels) - set(self.label_names)
            raise ValueError(
                f"{self.name}: labels mismatch (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        return tuple(str(labels[label]) for label in self.label_names)


class Counter(_Instrument):
    """A monotonically increasing total (one series per label set)."""

    kind = "counter"

    def __init__(self, name, help, label_names=()):
        super().__init__(name, help, label_names)
        self.values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up ({amount})")
        key = self._key(labels)
        self.values[key] = self.values.get(key, 0) + amount

    def value(self, **labels) -> float:
        if self.registry is not None:
            self.registry.refresh()
        return self.values.get(self._key(labels), 0)

    @property
    def total(self) -> float:
        """Sum over every series of the family."""
        if self.registry is not None:
            self.registry.refresh()
        return sum(self.values.values())

    def series(self) -> List[dict]:
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "value": value,
            }
            for key, value in sorted(self.values.items())
        ]

    def expose(self, lines: List[str]) -> None:
        for key, value in sorted(self.values.items()):
            lines.append(
                f"{_series_name(self.name, self.label_names, key)} {_num(value)}"
            )


class Gauge(Counter):
    """A point-in-time level; settable, and may go down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.values[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self.values[key] = self.values.get(key, 0) + amount


class Histogram(_Instrument):
    """Fixed-bucket distribution with a sum and a count per series."""

    kind = "histogram"

    def __init__(self, name, help, buckets: Sequence[float], label_names=()):
        super().__init__(name, help, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"{self.name}: buckets must be sorted, non-empty")
        self.buckets = tuple(buckets)
        #: key -> [per-bucket counts..., overflow count, sum, count]
        self.values: Dict[Tuple[str, ...], list] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        cells = self.values.get(key)
        if cells is None:
            cells = [0] * (len(self.buckets) + 1) + [0.0, 0]
            self.values[key] = cells
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                cells[index] += 1
                break
        else:
            cells[len(self.buckets)] += 1
        cells[-2] += value
        cells[-1] += 1

    def series(self) -> List[dict]:
        out = []
        for key, cells in sorted(self.values.items()):
            cumulative = 0
            buckets = []
            for index, bound in enumerate(self.buckets):
                cumulative += cells[index]
                buckets.append({"le": bound, "count": cumulative})
            buckets.append(
                {"le": "+Inf", "count": cumulative + cells[len(self.buckets)]}
            )
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "buckets": buckets,
                    "sum": cells[-2],
                    "count": cells[-1],
                }
            )
        return out

    def expose(self, lines: List[str]) -> None:
        for entry in self.series():
            key = tuple(entry["labels"].get(n, "") for n in self.label_names)
            for bucket in entry["buckets"]:
                le = bucket["le"]
                le_str = "+Inf" if le == "+Inf" else _num(le)
                bucket_key = key + (le_str,)
                bucket_labels = self.label_names + ("le",)
                lines.append(
                    f"{_series_name(self.name + '_bucket', bucket_labels, bucket_key)}"
                    f" {bucket['count']}"
                )
            lines.append(
                f"{_series_name(self.name + '_sum', self.label_names, key)}"
                f" {_num(entry['sum'])}"
            )
            lines.append(
                f"{_series_name(self.name + '_count', self.label_names, key)}"
                f" {entry['count']}"
            )


def _num(value) -> str:
    """Render ints without a trailing ``.0`` (Prometheus accepts both;
    integers keep the exposition diff-friendly)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """All instruments of one VM, plus its views and collectors.

    Attach with :meth:`repro.vm.VM.enable_metrics`; the full instrument
    catalogue is pre-registered here so hook sites grab attributes
    instead of doing name lookups, and so snapshots always list every
    family (empty families export their HELP/TYPE header only).
    """

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}
        self._views: List[Callable[["MetricsRegistry"], None]] = []
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

        # -- monitor / dispatch ------------------------------------------------
        self.trace_lookups = self.counter(
            "repro_trace_lookups_total",
            "Monitor lookups at loop headers, by result (hit = a compiled "
            "tree matched and ran).",
            ("result",),
        )
        self.recordings = self.counter(
            "repro_recordings_total",
            "Trace recordings started, by fragment kind (root/branch).",
            ("fragment",),
        )
        self.record_aborts = self.counter(
            "repro_record_aborts_total",
            "Trace recordings abandoned, by abort reason.",
            ("reason",),
        )
        self.compiles = self.counter(
            "repro_compiles_total",
            "Fragments compiled (whole-trace optimizer + codegen), by kind.",
            ("fragment",),
        )
        self.compiled_code_bytes = self.counter(
            "repro_compiled_code_bytes_total",
            "Simulated native code bytes emitted by all compilations.",
        )
        self.side_exits = self.counter(
            "repro_side_exits_total",
            "Side exits that returned control to the monitor, by guard kind.",
            ("kind",),
        )
        self.exit_surfacings = self.counter(
            "repro_exit_surfacings_total",
            "Exit tuples that surfaced all the way to the monitor (the "
            "transition direct fragment linking exists to avoid), by "
            "guard kind.",
            ("kind",),
        )
        self.fragment_transfers = self.counter(
            "repro_fragment_transfers_total",
            "Fragment-to-fragment transfers that stayed native, by mode "
            "(direct = into a branch inlined in the function; stitched = "
            "mediated by the backend driver's stitch loop).",
            ("mode",),
        )
        self.unstable_links = self.counter(
            "repro_unstable_links_total",
            "Type-unstable exits chained directly into a complementary peer.",
        )
        self.backoffs = self.counter(
            "repro_backoffs_total",
            "Headers backing off after recording failures/blacklist checks.",
        )
        self.blacklists = self.counter(
            "repro_blacklists_total",
            "Loop headers blacklisted (LOOPHEADER patched to a NOP).",
        )
        self.capacity_refusals = self.counter(
            "repro_capacity_refusals_total",
            "Recordings refused by capacity caps (peer-overflow/branch-cap).",
            ("kind",),
        )

        # -- trace cache -------------------------------------------------------
        self.fragments_linked = self.counter(
            "repro_fragments_linked_total",
            "Fragments linked into the trace cache, by kind.",
            ("fragment",),
        )
        self.fragments_retired = self.counter(
            "repro_fragments_retired_total",
            "Fragments evicted from the cache, by eviction path "
            "(flush:<reason> or invalidate:<reason>).",
            ("reason",),
        )
        self.cache_flushes = self.counter(
            "repro_cache_flushes_total",
            "Whole-cache flushes, by reason.",
            ("reason",),
        )
        self.cache_code_size = self.gauge(
            "repro_cache_code_size_bytes",
            "Simulated native code bytes currently linked in the cache.",
        )
        self.cache_trees = self.gauge(
            "repro_cache_trees",
            "Trace trees currently resident in the cache.",
        )
        self.cache_fragments = self.gauge(
            "repro_cache_fragments",
            "Linked fragments currently resident (trunks + branches).",
        )

        # -- firewall / chaos --------------------------------------------------
        self.firewall_trips = self.counter(
            "repro_firewall_trips_total",
            "Internal JIT failures contained, by phase boundary.",
            ("boundary",),
        )
        self.safe_mode_entries = self.counter(
            "repro_safe_mode_entries_total",
            "Safe-mode circuit-breaker trips (tracing disabled for the run).",
        )
        self.faults_injected = self.counter(
            "repro_faults_injected_total",
            "Chaos-harness faults injected, by site.",
            ("site",),
        )

        # -- pycompile ---------------------------------------------------------
        self.pycompile_fragments = self.counter(
            "repro_pycompile_fragments_total",
            "Python functions successfully compiled, one per fragment: "
            "each fragment's only build, a trunk's with its links inlined "
            "when its tree already has some.",
        )
        self.pycompile_failures = self.counter(
            "repro_pycompile_failures_total",
            "Fragment-to-Python emissions that failed (step fallback).",
        )
        self.pycompile_wall = self.histogram(
            "repro_pycompile_wall_seconds",
            "Wall seconds per Python compilation (one per fragment).",
            COMPILE_WALL_BUCKETS,
        )

        # -- supervisor / metering ---------------------------------------------
        self.guest_faults = self.counter(
            "repro_guest_faults_total",
            "Guest resource-policy violations, by fault kind.",
            ("kind",),
        )
        self.quota_breaches = self.counter(
            "repro_quota_breaches_total",
            "Quota breaches, by resource (heap-cells, output-bytes, ...).",
            ("resource",),
        )
        self.meter_polls = self.counter(
            "repro_meter_polls_total",
            "Safe-point polls executed by installed script meters.",
        )
        self.jobs = self.counter(
            "repro_jobs_total",
            "Supervisor jobs completed, by tenant and final status.",
            ("tenant", "status"),
        )
        self.job_retries = self.counter(
            "repro_job_retries_total",
            "Supervisor jobs re-queued after cache-pressure breaches.",
            ("tenant",),
        )
        self.billed_cycles = self.counter(
            "repro_billed_cycles_total",
            "Simulated cycles billed to jobs, by tenant.",
            ("tenant",),
        )
        self.billed_heap_cells = self.counter(
            "repro_billed_heap_cells_total",
            "Heap cells billed to jobs, by tenant.",
            ("tenant",),
        )
        self.billed_output_bytes = self.counter(
            "repro_billed_output_bytes_total",
            "Output bytes billed to jobs, by tenant.",
            ("tenant",),
        )
        self.queue_depth = self.gauge(
            "repro_queue_depth",
            "Jobs waiting in the supervisor queue.",
        )
        self.degraded_tenants = self.gauge(
            "repro_degraded_tenants",
            "Tenants currently demoted to interpreter-only mode.",
        )
        self.tenant_probations = self.counter(
            "repro_tenant_probations_total",
            "Degraded-tenant probation transitions, by phase "
            "(enter = JIT re-enabled half-open, restored = first clean "
            "JIT job, redegraded = breached while on probation).",
            ("tenant", "phase"),
        )

        # -- the fleet ---------------------------------------------------------
        self.fleet_sheds = self.counter(
            "repro_fleet_sheds_total",
            "Jobs refused by fleet admission control, by tenant and "
            "reason (rate, queue-full, deadline).",
            ("tenant", "reason"),
        )
        self.fleet_respawns = self.counter(
            "repro_fleet_respawns_total",
            "Dead fleet workers replaced with a fresh VM, by cause.",
            ("reason",),
        )

        # -- the persistent trace store ----------------------------------------
        self.store_loads = self.counter(
            "repro_store_loads_total",
            "Trace-store preload attempts, by result (hit/miss).",
            ("result",),
        )
        self.store_load_failures = self.counter(
            "repro_store_load_failures_total",
            "Trace-store loads refused or failed, by reason "
            "(checksum-mismatch, fingerprint-mismatch, decode-error, ...).",
            ("reason",),
        )
        self.store_saves = self.counter(
            "repro_store_saves_total",
            "Trace-store entries written.",
        )
        self.store_entries = self.gauge(
            "repro_store_entries",
            "Live (non-superseded) entries in the persistent trace store "
            "(sampled from the manifest at snapshot time).",
        )
        self.store_bytes = self.gauge(
            "repro_store_bytes",
            "Total bytes of live trace-store entries (sampled).",
        )

        # -- the ledger (sampled) ----------------------------------------------
        self.simulated_cycles = self.gauge(
            "repro_simulated_cycles",
            "Simulated cycles consumed so far, by VM activity (sampled "
            "from the cycle ledger at snapshot time; the sum across "
            "activities equals the ledger total exactly).",
            ("activity",),
        )

    # -- registration ----------------------------------------------------------

    def _register(self, instrument: _Instrument) -> _Instrument:
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if (
                type(existing) is not type(instrument)
                or existing.label_names != instrument.label_names
            ):
                raise ValueError(
                    f"instrument {instrument.name!r} re-registered with a "
                    f"different type or label set"
                )
            return existing
        self._instruments[instrument.name] = instrument
        instrument.registry = self
        return instrument

    def counter(self, name, help, label_names=()) -> Counter:
        return self._register(Counter(name, help, label_names))

    def gauge(self, name, help, label_names=()) -> Gauge:
        return self._register(Gauge(name, help, label_names))

    def histogram(self, name, help, buckets, label_names=()) -> Histogram:
        return self._register(Histogram(name, help, buckets, label_names))

    def add_view(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a function that recomputes counter families (and
        histograms) from their home whenever the registry is read."""
        self._views.append(fn)

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a sampler run before every snapshot/exposition.

        Collectors set gauges from live VM state (ledger totals, cache
        residency) so the hot path never maintains them.
        """
        self._collectors.append(fn)

    def refresh(self) -> None:
        """Recompute every view family from its home."""
        for view in self._views:
            view(self)

    def collect(self) -> None:
        """Refresh the views and sample every gauge."""
        self.refresh()
        for collector in self._collectors:
            collector(self)

    # -- export ------------------------------------------------------------------

    def snapshot(self, program: Optional[str] = None) -> dict:
        """Point-in-time JSON document (schema v1; CLI ``--metrics-json``)."""
        self.collect()
        counters, gauges, histograms = [], [], []
        for instrument in self._instruments.values():
            entry = {
                "name": instrument.name,
                "help": instrument.help,
                "label_names": list(instrument.label_names),
                "series": instrument.series(),
            }
            if instrument.kind == "counter":
                counters.append(entry)
            elif instrument.kind == "gauge":
                gauges.append(entry)
            else:
                histograms.append(entry)
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "program": program,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (CLI ``--metrics-prom``)."""
        self.collect()
        lines: List[str] = []
        for instrument in self._instruments.values():
            lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            instrument.expose(lines)
        lines.append("")
        return "\n".join(lines)

    def flat_counters(self) -> Dict[str, float]:
        """Every counter series as ``{series-name: value}``.

        The supervisor diffs two of these around a job attempt to build
        the per-job metrics delta carried on :class:`repro.exec.JobResult`.
        Refreshes the counter views only: gauges are not sampled (the
        store gauges read the manifest from disk).
        """
        self.refresh()
        flat: Dict[str, float] = {}
        for instrument in self._instruments.values():
            if instrument.kind != "counter":
                continue
            for key, value in instrument.values.items():
                flat[_series_name(instrument.name, instrument.label_names, key)] = value
        return flat

    @staticmethod
    def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        """Changed counter series between two :meth:`flat_counters` maps."""
        out = {}
        for name, value in after.items():
            diff = value - before.get(name, 0)
            if diff:
                out[name] = diff
        return out


# -- views --------------------------------------------------------------------------

#: ``(family, event kind, key map)``: the family's series are the kind's
#: tally, each tally key turned into label values by the map (``None``
#: keeps the key; a map returning ``None`` drops it).  Series exist
#: exactly when their fact has happened, as if counted at each site.
EVENT_VIEWS = (
    ("repro_recordings_total", eventkind.RECORD_START, None),
    ("repro_record_aborts_total", eventkind.RECORD_ABORT, None),
    ("repro_compiles_total", eventkind.COMPILE, None),
    ("repro_side_exits_total", eventkind.SIDE_EXIT, None),
    # Every side exit surfaces its exit tuple to the monitor.
    ("repro_exit_surfacings_total", eventkind.SIDE_EXIT, None),
    ("repro_unstable_links_total", eventkind.UNSTABLE_LINK, None),
    ("repro_backoffs_total", eventkind.BACKOFF, None),
    ("repro_blacklists_total", eventkind.BLACKLIST, None),
    ("repro_capacity_refusals_total", eventkind.PEER_OVERFLOW,
     lambda key: ("peer-overflow",)),
    ("repro_capacity_refusals_total", eventkind.BRANCH_CAP,
     lambda key: ("branch-cap",)),
    ("repro_fragments_linked_total", eventkind.LINK, None),
    ("repro_cache_flushes_total", eventkind.FLUSH, None),
    ("repro_firewall_trips_total", eventkind.JIT_INTERNAL_FAILURE, None),
    # A pycompile failure is a firewall trip at the pycompile boundary.
    ("repro_pycompile_failures_total", eventkind.JIT_INTERNAL_FAILURE,
     lambda key: () if key == ("pycompile",) else None),
    ("repro_safe_mode_entries_total", eventkind.SAFE_MODE, None),
    ("repro_faults_injected_total", eventkind.FAULT_INJECTED, None),
    ("repro_guest_faults_total", eventkind.SCRIPT_DEADLINE,
     lambda key: ("deadline",)),
    ("repro_guest_faults_total", eventkind.QUOTA_EXCEEDED,
     lambda key: ("quota",)),
    ("repro_guest_faults_total", eventkind.SCRIPT_CANCELLED,
     lambda key: ("cancelled",)),
    ("repro_quota_breaches_total", eventkind.QUOTA_EXCEEDED, None),
    ("repro_job_retries_total", eventkind.JOB_RETRIED, None),
    ("repro_tenant_probations_total", eventkind.TENANT_PROBATION, None),
    ("repro_fleet_sheds_total", eventkind.JOB_SHED, None),
    ("repro_fleet_respawns_total", eventkind.WORKER_RESPAWN, None),
    ("repro_store_loads_total", eventkind.STORE_LOAD, None),
    ("repro_store_load_failures_total", eventkind.STORE_FALLBACK,
     lambda key: key[1:] if key[0] == "store.load" else None),
    ("repro_store_saves_total", eventkind.STORE_SAVE, None),
)


def stream_series(stream) -> Dict[str, dict]:
    """The event-view families of one stream, from its tally."""
    series: Dict[str, dict] = {}
    for name, kind, key_map in EVENT_VIEWS:
        for key, count in stream.tally.get(kind, {}).items():
            labels = key if key_map is None else key_map(key)
            if labels is not None:
                family = series.setdefault(name, {})
                labels = tuple(str(value) for value in labels)
                family[labels] = family.get(labels, 0) + count
    return series


def vm_series(vm) -> Dict[str, dict]:
    """The per-VM counter families of ``vm`` that have series: its
    stream's event views plus the facts kept in its stats and cache."""
    series = stream_series(vm.events)
    tracing = vm.stats.tracing
    monitor = getattr(vm, "monitor", None)
    for reason, count in tracing.flush_retired.items():
        series.setdefault("repro_fragments_retired_total", {})[
            ("flush:" + reason,)] = count
    for reason, count in (monitor.cache.invalidated if monitor else {}).items():
        series.setdefault("repro_fragments_retired_total", {})[
            ("invalidate:" + reason,)] = count
    if eventkind.COMPILE in vm.events.tally:
        series["repro_compiled_code_bytes_total"] = {
            (): tracing.compiled_code_bytes}
    for name, key, value in (
        ("repro_trace_lookups_total", ("hit",), tracing.lookup_hits),
        ("repro_trace_lookups_total", ("miss",), tracing.loops_seen),
        ("repro_fragment_transfers_total", ("direct",),
         tracing.direct_transfers),
        ("repro_fragment_transfers_total", ("stitched",),
         tracing.driver_transfers),
        ("repro_pycompile_fragments_total", (),
         tracing.pycompile_fragments + tracing.pycompile_tree_builds),
    ):
        if value:
            series.setdefault(name, {})[key] = value
    return series


def attach_vm_collector(registry: MetricsRegistry, vm) -> None:
    """Compute the per-VM counter families from ``vm``'s store, and
    sample its ledger, cache and store levels into gauges, whenever the
    registry is read."""

    def _collect(reg: MetricsRegistry) -> None:
        for activity, cycles in vm.stats.ledger.by_activity.items():
            reg.simulated_cycles.set(cycles, activity=activity.value)
        monitor = getattr(vm, "monitor", None)
        if monitor is not None:
            cache = monitor.cache
            reg.cache_code_size.set(cache.code_size_used)
            reg.cache_trees.set(cache.tree_count)
            reg.cache_fragments.set(cache.fragment_count)
        store = getattr(vm, "trace_store", None)
        if store is not None:
            entries, nbytes = store.stats()
            reg.store_entries.set(entries)
            reg.store_bytes.set(nbytes)

    def _view(reg: MetricsRegistry) -> None:
        # Counts only grow, so a family without series here has none.
        for name, values in vm_series(vm).items():
            reg._instruments[name].values = values

    registry.add_view(_view)
    registry.add_collector(_collect)


def attach_fleet_views(registry: MetricsRegistry, stream,
                       vm_registries: Callable[[], List[MetricsRegistry]]
                       ) -> None:
    """Fill a fleet registry whenever it is read.  Counters and
    histograms are the fleet stream's event view plus the series of
    every VM registry — live and replaced, oldest first — summed per
    label set.  Gauges are levels, so they are the live VM's (the last
    registry)."""

    def _totals(reg: MetricsRegistry) -> None:
        sources = vm_registries()
        for source in sources:
            source.refresh()
        series = stream_series(stream)
        for name, instrument in reg._instruments.items():
            if instrument.kind == "gauge":
                continue
            values = dict(series.get(name, {}))
            for source in sources:
                for key, value in source._instruments[name].values.items():
                    if isinstance(value, list):  # histogram cells
                        old = values.get(key, [0] * len(value))
                        values[key] = [a + b for a, b in zip(old, value)]
                    else:
                        values[key] = values.get(key, 0) + value
            instrument.values = values

    def _levels(reg: MetricsRegistry) -> None:
        live = vm_registries()[-1]
        live.collect()
        for name, instrument in reg._instruments.items():
            if instrument.kind == "gauge":
                instrument.values = dict(live._instruments[name].values)

    registry.add_view(_totals)
    registry.add_collector(_levels)


def write_metrics_json(registry: MetricsRegistry, path: str,
                       program: Optional[str] = None) -> None:
    with open(path, "w") as handle:
        json.dump(registry.snapshot(program=program), handle, indent=2)
        handle.write("\n")


def write_metrics_prom(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(registry.to_prometheus())
