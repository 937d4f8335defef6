"""Differential chaos sweep: injected faults must never change results.

For every registered fault site x every suite benchmark, run the
tracing VM with a fault injected at that site and assert the
observation (result, print output, user heap) is byte-identical to the
pure interpreter's.  The native sites are swept on the step backend
too.  This is the testable form of the paper's
graceful-degradation property: a JIT-internal failure may cost
performance, never correctness.
"""

from __future__ import annotations

import pytest

from repro import TracingVM, VMConfig
from repro.core import events
from repro.hardening import FAULT_SITES, FaultPlan
from repro.hardening import faults as sites
from repro.hardening.chaos import differential_check, run_and_observe
from repro.suite.programs import PROGRAMS

PROGRAMS_BY_NAME = {program.name: program for program in PROGRAMS}

#: Baseline observations, computed once per program for the whole sweep.
_BASELINES = {}


def baseline_for(name: str):
    if name not in _BASELINES:
        observation, _vm = run_and_observe(
            PROGRAMS_BY_NAME[name].source, engine="baseline"
        )
        _BASELINES[name] = observation
    return _BASELINES[name]


def assert_contained(vm):
    """If any fault actually fired, the firewall must have contained it."""
    tracing = vm.stats.tracing
    if tracing.faults_injected == 0:
        return
    assert tracing.internal_failures >= 1
    assert vm.events.counts.get(events.FAULT_INJECTED, 0) >= 1
    assert vm.events.counts.get(events.JIT_INTERNAL_FAILURE, 0) >= 1
    for event in vm.events.events:
        if event.kind == events.JIT_INTERNAL_FAILURE:
            assert event.payload["injected"] is True
            assert event.payload["site"] in FAULT_SITES


@pytest.mark.parametrize("site", FAULT_SITES)
@pytest.mark.parametrize("name", sorted(PROGRAMS_BY_NAME))
def test_single_fault_sweep(site, name):
    config = VMConfig(fault_plan={site: 1}, capture_events=True)
    vm = differential_check(
        PROGRAMS_BY_NAME[name].source, config, baseline=baseline_for(name)
    )
    assert_contained(vm)


#: The sites that fire inside native execution: the step machine's own
#: guard arms and loop edges run between them.
NATIVE_SITES = (
    sites.NATIVE_ENTRY,
    sites.NATIVE_LOOP_EDGE,
    sites.NATIVE_EXIT_RESTORE,
)


@pytest.mark.parametrize("site", NATIVE_SITES)
@pytest.mark.parametrize("name", sorted(PROGRAMS_BY_NAME))
def test_native_fault_sweep_on_the_step_backend(site, name):
    # The sweep above runs the default py backend; the step machine
    # settles exits and takes commits on code paths of its own.
    config = VMConfig(
        fault_plan={site: 1}, capture_events=True, native_backend="step"
    )
    vm = differential_check(
        PROGRAMS_BY_NAME[name].source, config, baseline=baseline_for(name)
    )
    assert_contained(vm)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_chaos_plans(seed):
    # Seeded pseudo-random plans (the --chaos-seed path), on a workload
    # with nested loops, doubles, and calls so most sites are reachable.
    name = "3d-morph"
    config = VMConfig(chaos_seed=seed, capture_events=True)
    vm = differential_check(
        PROGRAMS_BY_NAME[name].source, config, baseline=baseline_for(name)
    )
    assert_contained(vm)
    # Same seed => same plan: determinism of the harness itself.
    assert repr(FaultPlan.from_seed(seed)) == repr(vm.faults.plan)


def test_every_hit_plan_drives_vm_into_safe_mode():
    # A fault on *every* compilation attempt trips the breaker: after
    # max_internal_failures containments the VM stops tracing entirely
    # -- and the program still computes the right answer.
    config = VMConfig(
        fault_plan={"compile.assemble": "*"},
        max_internal_failures=2,
        capture_events=True,
    )
    vm = differential_check(
        PROGRAMS_BY_NAME["access-nsieve"].source,
        config,
        baseline=baseline_for("access-nsieve"),
    )
    tracing = vm.stats.tracing
    assert tracing.safe_mode is True
    assert tracing.internal_failures >= 2
    assert vm.in_safe_mode is True
    assert vm.config.enable_tracing is False
    assert vm.monitor.disabled is True
    assert vm.events.counts.get(events.SAFE_MODE, 0) == 1


def test_repeated_single_site_faults_stay_contained():
    # Multiple distinct sites in one plan, each firing several times.
    config = VMConfig(
        fault_plan={"native.loop-edge": (2, 5), "record.op": 3},
        capture_events=True,
    )
    vm = differential_check(PROGRAMS_BY_NAME["bitops-nsieve-bits"].source, config)
    assert_contained(vm)


def test_chaos_run_emits_v3_schema_events():
    config = VMConfig(fault_plan={"compile.assemble": 1}, capture_events=True)
    vm = TracingVM(config)
    vm.run("var s = 0; for (var i = 0; i < 100; ++i) s += i; s;")
    lines = vm.events.to_jsonl().splitlines()
    assert lines
    import json

    first = json.loads(lines[0])
    assert first["schema_version"] == events.EVENT_SCHEMA_VERSION


# -- chaos composed with the execution supervisor ----------------------------
#
# The two failure domains must compose: injected JIT-internal faults go
# to the firewall, resource breaches go to the guest as typed faults,
# and generous limits must not perturb a chaos run's observable result.


@pytest.mark.parametrize("seed", range(4))
def test_seeded_chaos_with_generous_quotas_is_byte_identical(seed):
    from repro.exec import ResourceLimits

    name = "3d-morph"
    source = PROGRAMS_BY_NAME[name].source
    config = VMConfig(chaos_seed=seed, capture_events=True)
    vm = TracingVM(config)
    vm.install_meter(
        ResourceLimits(deadline_cycles=10**9, heap_quota=10**9,
                       output_quota=10**9, stack_quota=10**6)
    )
    result = vm.run(source)
    from repro.hardening.chaos import observe

    assert observe(vm, result) == baseline_for(name)
    assert_contained(vm)
    assert vm.meter.pending is None


@pytest.mark.parametrize("site", ["compile.assemble", "native.loop-edge",
                                  "record.op", "native.exit-restore"])
def test_injected_fault_inside_quota_limited_job_keeps_typed_fault(site):
    from repro.errors import ScriptTimeout
    from repro.exec import ResourceLimits

    config = VMConfig(fault_plan={site: (1, 2)}, capture_events=True)
    vm = TracingVM(config)
    vm.install_meter(ResourceLimits(deadline_cycles=250_000))
    with pytest.raises(ScriptTimeout):
        vm.run("var i = 0; while (true) { i = i + 1; }")
    # The injected internal fault was contained by the firewall while
    # the deadline still surfaced as the guest-fault domain's exception.
    assert_contained(vm)
    assert vm.stats.tracing.script_deadlines == 1
    assert vm.events.counts.get(events.SCRIPT_DEADLINE, 0) == 1


def test_supervisor_contains_chaos_jobs():
    from repro.exec import Job, ResourceLimits, Supervisor

    config = VMConfig(chaos_seed=3, capture_events=True)
    sup = Supervisor(
        config=config,
        limits=ResourceLimits(deadline_cycles=300_000),
    )
    results = sup.run([
        Job("fine", PROGRAMS_BY_NAME["bitops-bitwise-and"].source),
        Job("hang", "while (true) {}"),
    ])
    assert results[0].status == "ok"
    assert results[1].status == "timeout"
    assert_contained(sup.vm)
