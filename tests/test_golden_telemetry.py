"""The golden telemetry table: every counter a run reports, pinned.

The same VM facts surface in four exports: the ``--stats`` lines, the
``--profile-json`` document, the metrics snapshot (``--metrics-json``)
and the Prometheus text (``--metrics-prom``); a supervised batch adds
its job table and the per-job metrics deltas.  This table pins all of
them for a fixed set of runs, so a change to how the counters are kept
cannot move what any export says.

Runs:

* seven programs (the sieve, regexp-dna-lite, crypto-sha1,
  bitops-bits-in-byte, access-binary-trees, controlflow-recursive,
  date-format-xparb) under the default configuration, ``chaos_seed``
  1-3, a 2,000-byte code cache and the step backend;
* single runs that reach the remaining counters: capacity caps, native
  and pycompile fault plans (safe mode, invalidation, pycompile
  failures), and a trace-store cold run, warm preload and
  truncated-manifest fallback;
* one supervised batch (retry under cache pressure, a degraded tenant
  on probation, deadline, heap and cancellation faults);
* one fleet batch with rate sheds and a VM respawn, pinning the
  fleet's own families.

Wall-clock values are not pinned: the profile's wall fields and the
bucket counts and sums of ``repro_pycompile_wall_seconds`` are blanked.
Side-exit ids come from a process-wide counter, so they are renumbered
per run in creation order; trace-store entries serialize them, so the
``repro_store_bytes`` level is blanked too.

A change that moves these outputs on purpose regenerates the table by
running this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden_telemetry.py

and commits the rewritten ``tests/golden_telemetry.json`` with the reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import tempfile

from repro.exec import Job, ResourceLimits, Supervisor
from repro.hardening import FaultPlan
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM, VMConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden_telemetry.json"
SIEVE_PATH = ROOT / "examples" / "sieve.js"

PROGRAM_NAMES = (
    "sieve",
    "regexp-dna-lite",
    "crypto-sha1",
    "bitops-bits-in-byte",
    "access-binary-trees",
    "controlflow-recursive",
    "date-format-xparb",
)

CONFIGS = {
    "default": {},
    "chaos-1": {"chaos_seed": 1},
    "chaos-2": {"chaos_seed": 2},
    "chaos-3": {"chaos_seed": 3},
    "budget-2000": {"code_cache_budget": 2000},
    "step": {"native_backend": "step"},
}

#: Single runs for counters the matrix above never reaches.
EXTRA_RUNS = {
    "crypto-sha1/caps": (
        "crypto-sha1", {"max_branch_traces": 2, "max_peer_trees": 1}
    ),
    "sieve/fault-native": (
        "sieve", {"fault_plan": ["native.loop-edge:*"]}
    ),
    "sieve/fault-pycompile": (
        "sieve", {"fault_plan": ["pycompile.emit:*"]}
    ),
    "regexp-dna-lite/fault-link": (
        "regexp-dna-lite", {"fault_plan": ["pycompile.link:*"]}
    ),
}

#: The histogram whose bucket counts and sum are wall-clock readings.
WALL_HISTOGRAM = "repro_pycompile_wall_seconds"

#: The gauge whose level depends on the process-wide exit-id counter.
STORE_BYTES = "repro_store_bytes"

#: Profile fields that hold wall-clock seconds.
PROFILE_WALL_KEYS = (
    "wall_seconds",
    "wall",
    "compile_wall_seconds",
    "wall_per_iteration",
)

_UNPINNED_PROM_LINE = re.compile(
    rf"^({WALL_HISTOGRAM}_(?:bucket|sum)(?:\{{[^}}]*\}})?|{STORE_BYTES}) \S+$"
)


def _sources() -> dict:
    sources = {program.name: program.source for program in PROGRAMS}
    sources["sieve"] = SIEVE_PATH.read_text()
    return sources


def _config(overrides: dict) -> VMConfig:
    config = VMConfig()
    for name, value in overrides.items():
        if name == "fault_plan":
            value = FaultPlan.parse(value)
        setattr(config, name, value)
    return config


# -- normalisation ---------------------------------------------------------------


def _blank_walls(node):
    if isinstance(node, dict):
        return {
            key: ("*" if key in PROFILE_WALL_KEYS else _blank_walls(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_blank_walls(value) for value in node]
    return node


def _profile_view(vm) -> dict:
    doc = _blank_walls(vm.profiler.to_dict(program="golden"))
    ids = sorted(
        guard["exit_id"] for loop in doc["loops"] for guard in loop["guards"]
    )
    renumber = {exit_id: index for index, exit_id in enumerate(ids, start=1)}
    for loop in doc["loops"]:
        for guard in loop["guards"]:
            guard["exit_id"] = renumber[guard["exit_id"]]
    doc["timeline"]["intervals"] = [
        interval[:3] for interval in doc["timeline"]["intervals"]
    ]
    return doc


def _snapshot_view(registry, program: str) -> dict:
    doc = registry.snapshot(program=program)
    for family in doc["gauges"]:
        if family["name"] == STORE_BYTES:
            for series in family["series"]:
                series["value"] = "*"
    for family in doc["histograms"]:
        if family["name"] != WALL_HISTOGRAM:
            continue
        for series in family["series"]:
            series["sum"] = "*"
            for bucket in series["buckets"]:
                bucket["count"] = "*"
    return doc


def _prometheus_view(registry) -> str:
    return "\n".join(
        _UNPINNED_PROM_LINE.sub(r"\1 *", line)
        for line in registry.to_prometheus().split("\n")
    )


def _metrics_view(registry, program: str) -> dict:
    snapshot = _snapshot_view(registry, program)
    prometheus = _prometheus_view(registry)
    return {
        # Families and help texts are the same in every run: keep only
        # the series, plus a digest of the whole text exposition.
        "series": {
            family["name"]: family["series"]
            for section in ("counters", "gauges", "histograms")
            for family in snapshot[section]
            if family["series"]
        },
        "catalogue": hashlib.sha256(
            json.dumps(
                [
                    [family["name"], family["help"], family["label_names"]]
                    for section in ("counters", "gauges", "histograms")
                    for family in snapshot[section]
                ]
            ).encode()
        ).hexdigest(),
        "prometheus_sha256": hashlib.sha256(prometheus.encode()).hexdigest(),
    }


def _vm_view(vm, program: str) -> dict:
    return {
        "stats": vm.stats.summary_lines(),
        "profile": _profile_view(vm),
        "metrics": _metrics_view(vm.metrics, program),
    }


# -- the runs ----------------------------------------------------------------------


def observe_run(source: str, overrides: dict, program: str) -> dict:
    vm = TracingVM(_config(overrides))
    vm.enable_profiling()
    vm.enable_metrics()
    vm.run(source, name=program)
    return _vm_view(vm, program)


def observe_store_runs(source: str) -> dict:
    """Cold run into an empty store, warm preload, then a preload from
    a truncated manifest (fallback, store rewritten)."""
    from repro.core.store import MANIFEST_NAME

    out = {}
    with tempfile.TemporaryDirectory() as store:
        for phase in ("cold", "warm", "truncated-manifest"):
            if phase == "truncated-manifest":
                path = os.path.join(store, MANIFEST_NAME)
                data = pathlib.Path(path).read_bytes()
                pathlib.Path(path).write_bytes(data[: len(data) // 2])
            out[f"sieve/store-{phase}"] = observe_run(
                source, {"trace_store": store}, "sieve"
            )
    return out


LOOPY = "var s = 0; for (var i = 0; i < 300; i = i + 1) s = s + i; s;"
NESTED = (
    "var total = 0;"
    "for (var i = 0; i < 200; i = i + 1) {"
    "  for (var j = 0; j < 40; j = j + 1) { total = total + j; }"
    "  var s = ''; for (var k = 0; k < 4; k = k + 1) { s = s + 'x'; }"
    "}"
    "total;"
)


def _batch_jobs():
    compile_capped = ResourceLimits(compile_quota=1)
    return [
        Job("pressured", NESTED, tenant="cache"),
        Job("b0", LOOPY, tenant="t", limits=compile_capped),
        Job("c1", LOOPY + " s + 'c1';", tenant="t", limits=compile_capped),
        Job("r0", LOOPY + " s;", tenant="t", limits=compile_capped),
        Job("c2", LOOPY + " s + 'c2';", tenant="t", limits=compile_capped),
        Job("clean", "6 * 7;", tenant="t"),
        Job("hang", "var i = 0; while (true) { i = i + 1; }", tenant="bad",
            limits=ResourceLimits(deadline_cycles=50_000)),
        Job("hog", "var a = []; while (true) { a.push(1); }", tenant="bad",
            limits=ResourceLimits(heap_quota=200)),
        Job("cancel", "var i = 0; while (true) { i = i + 1; }", tenant="bad",
            limits=ResourceLimits(cancel_at_cycles=20_000)),
        Job("print", 'print("hi"); 1;', tenant="ok"),
        Job("r1", LOOPY + " s + 1;", tenant="t", limits=compile_capped),
    ]


def observe_batch() -> dict:
    """One supervised batch: the job table, per-job metrics deltas and
    the VM's exports."""
    supervisor = Supervisor(
        config=VMConfig(code_cache_budget=400),
        limits=ResourceLimits(deadline_cycles=150_000),
        max_retries=2,
        degrade_after=1,
        probation_after=1,
        capture_metrics=True,
    )
    vm = supervisor.vm
    vm.enable_profiling()
    results = supervisor.run(_batch_jobs())
    view = _vm_view(vm, "batch")
    view["table"] = [
        {
            "job": result.job_id,
            "tenant": result.tenant,
            "status": result.status,
            "attempts": result.attempts,
            "mode": result.engine_mode,
            "cycles": result.usage.cycles,
            "heap": result.usage.heap_cells,
            "out": result.usage.output_bytes,
            "fault": result.fault,
        }
        for result in results
    ]
    view["job_metrics"] = {
        result.job_id: dict(sorted(result.metrics.items()))
        for result in results
    }
    return view


def observe_fleet() -> dict:
    """A fleet batch: rate sheds on a frozen clock and one injected VM
    crash.  Only the fleet's own families are pinned."""
    now = [100.0]
    jobs = [Job(f"s{i}", "1 + 1;", tenant="spammy") for i in range(4)]
    fleet = Supervisor(rates={"spammy": 1.0}, clock=lambda: now[0],
                       fault_plan=FaultPlan({"fleet.worker_crash": 1}),
                       capture_metrics=True)
    results = fleet.run(jobs)
    snapshot = _snapshot_view(fleet.metrics, "fleet")
    return {
        "statuses": [result.status for result in results],
        "counts": dict(sorted(fleet.counts().items())),
        "fleet_series": {
            family["name"]: family["series"]
            for section in ("counters", "gauges")
            for family in snapshot[section]
            if family["name"].startswith("repro_fleet_")
        },
    }


def build_table() -> dict:
    sources = _sources()
    table = {}
    for config_name, overrides in CONFIGS.items():
        for name in PROGRAM_NAMES:
            table[f"{name}/{config_name}"] = observe_run(
                sources[name], overrides, name
            )
    for key, (name, overrides) in EXTRA_RUNS.items():
        table[key] = observe_run(sources[name], overrides, name)
    table.update(observe_store_runs(sources["sieve"]))
    table["batch"] = observe_batch()
    table["fleet"] = observe_fleet()
    return table


#: Families fed by an event or a direct hook; each must have a non-zero
#: series in at least one pinned run, so the table covers all of them.
FED_FAMILIES = (
    "repro_trace_lookups_total",
    "repro_recordings_total",
    "repro_record_aborts_total",
    "repro_compiles_total",
    "repro_compiled_code_bytes_total",
    "repro_side_exits_total",
    "repro_exit_surfacings_total",
    "repro_fragment_transfers_total",
    "repro_unstable_links_total",
    "repro_backoffs_total",
    "repro_blacklists_total",
    "repro_capacity_refusals_total",
    "repro_fragments_linked_total",
    "repro_fragments_retired_total",
    "repro_cache_flushes_total",
    "repro_firewall_trips_total",
    "repro_safe_mode_entries_total",
    "repro_faults_injected_total",
    "repro_pycompile_fragments_total",
    "repro_pycompile_failures_total",
    "repro_pycompile_wall_seconds",
    "repro_guest_faults_total",
    "repro_quota_breaches_total",
    "repro_meter_polls_total",
    "repro_jobs_total",
    "repro_job_retries_total",
    "repro_billed_cycles_total",
    "repro_billed_heap_cells_total",
    "repro_billed_output_bytes_total",
    "repro_degraded_tenants",
    "repro_tenant_probations_total",
    "repro_store_loads_total",
    "repro_store_load_failures_total",
    "repro_store_saves_total",
    "repro_store_entries",
    "repro_store_bytes",
)


def _nonzero(series) -> bool:
    return any(
        entry.get("value", entry.get("count")) not in (0, None)
        for entry in series
    )


def test_every_fed_family_is_exercised():
    golden = json.loads(GOLDEN_PATH.read_text())
    seen = set()
    for key, run in golden.items():
        if key.startswith("fleet"):
            continue
        for name, series in run["metrics"]["series"].items():
            if _nonzero(series):
                seen.add(name)
    fleet = golden["fleet"]["fleet_series"]
    assert _nonzero(fleet["repro_fleet_sheds_total"])
    assert _nonzero(fleet["repro_fleet_respawns_total"])
    missing = [name for name in FED_FAMILIES if name not in seen]
    assert not missing, f"no pinned run reaches {missing}"


def test_every_run_matches_the_golden_table():
    golden = json.loads(GOLDEN_PATH.read_text())
    table = json.loads(json.dumps(build_table()))
    assert sorted(table) == sorted(golden), "the set of runs changed"
    moved = []
    for key in golden:
        if table[key] == golden[key]:
            continue
        for part in golden[key]:
            if table[key].get(part) != golden[key][part]:
                moved.append(f"{key}: {part}")
    assert not moved, "telemetry moved: " + "; ".join(moved[:10])


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(build_table(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
