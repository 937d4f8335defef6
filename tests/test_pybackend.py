"""Unit tests for the generated-Python trace backend (repro.jit.pycompile).

The differential suite (test_backend_differential.py) proves whole-run
equivalence; these tests pin the backend's lifecycle contract: callables
are cached per fragment, dropped on retirement and cache flushes,
emission faults fall back to the step interpreter without advancing the
firewall breaker, and the emitted source actually compiles.
"""

from __future__ import annotations

import pytest

from repro.core import events as eventkind
from repro.core.cache import FragmentState
from repro.hardening import FaultPlan
from repro.hardening.faults import InjectedFault
from repro.jit.pycompile import PyEmitError, emit_fragment
from repro.vm import TracingVM, VMConfig

HOT_LOOP = "var s = 0; for (var i = 0; i < 500; i++) s += i; s;"


def _py_vm(**overrides) -> TracingVM:
    config = VMConfig()
    config.native_backend = "py"
    for name, value in overrides.items():
        setattr(config, name, value)
    return TracingVM(config)


def _compiled_fragments(vm):
    fragments = []
    for tree in vm.monitor.cache.all_trees():
        fragments.append(tree.fragment)
        fragments.extend(tree.branches)
    return [f for f in fragments if f.native]


# -- compilation and caching -------------------------------------------------


def test_hot_loop_compiles_and_caches_callable():
    vm = _py_vm()
    result = vm.run(HOT_LOOP)
    assert result.payload == sum(range(500))
    fragments = _compiled_fragments(vm)
    assert fragments, "expected at least one compiled fragment"
    trunk = fragments[0]
    assert trunk.py_func is not None
    assert trunk.py_consts is not None
    assert not trunk.py_failed


def test_callable_is_compiled_once_and_reused():
    vm = _py_vm()
    vm.run(HOT_LOOP)
    trunk = _compiled_fragments(vm)[0]
    cached = trunk.py_func
    # Re-entering the loop must reuse the cached function object.
    vm.run(HOT_LOOP)
    assert trunk.py_func is cached


def test_emitted_source_is_python():
    vm = _py_vm()
    vm.run(HOT_LOOP)
    trunk = _compiled_fragments(vm)[0]
    source, consts = emit_fragment(trunk)
    assert source.startswith("def _fragment_fn(machine, executed, cycles):")
    compile(source, "<test>", "exec")  # must be valid Python
    assert isinstance(consts, tuple)


def test_emitted_exits_are_one_line_and_skip_machine_registers(monkeypatch):
    """Every failed guard leaves through the shared exit helper: the
    generated code never builds an ``ExitEvent``, never touches
    ``machine.regs`` or ``machine.ovf``, and a plain exit is one
    ``return leave(...)`` statement."""
    from repro.jit import pycompile
    from repro.suite.programs import PROGRAMS

    sources = []
    for name in ("emit_fragment", "emit_tree"):
        emit = getattr(pycompile, name)

        def capturing(owner, emit=emit):
            source, consts = emit(owner)
            sources.append(source)
            return source, consts

        monkeypatch.setattr(pycompile, name, capturing)
    program = next(p for p in PROGRAMS if p.name == "crypto-sha1")
    vm = _py_vm()
    vm.run(program.source)
    assert vm.stats.tracing.pycompile_tree_builds > 0
    assert vm.stats.tracing.direct_transfers > 0
    text = "\n".join(sources)
    for banned in ("regs", "machine.ovf", "ExitEvent", "finish_exit"):
        assert banned not in text, banned
    leaves = [line.strip() for line in text.splitlines() if "leave(" in line]
    plain = [line for line in leaves if line.startswith("return leave(machine, ")]
    # An exit whose branch the function inlines falls into it.
    inlined = [line for line in leaves if line.startswith("out = leave(machine, ")]
    assert plain and inlined
    assert len(plain) + len(inlined) == len(leaves)


def test_static_boxing_returns_the_interpreters_boxes(monkeypatch):
    """``boxv`` of a bool or an int boxes without ``box_for_type``'s
    type dispatch, into the same objects: the pooled booleans and the
    small-int cache, and ``make_number`` past it."""
    from repro.jit import pycompile
    from repro.runtime.values import FALSE, TRUE, make_number

    sources = []
    emit = pycompile.emit_fragment

    def capturing(fragment):
        source, consts = emit(fragment)
        sources.append(source)
        return source, consts

    monkeypatch.setattr(pycompile, "emit_fragment", capturing)
    vm = _py_vm()
    vm.run(
        "var a = []; var b = [];"
        "for (var i = 0; i < 600; i++) { a[i] = i % 3 == 0; b[i] = i - 1; }"
        "a.length + b.length;"
    )
    text = "\n".join(sources)
    assert "TRUE if " in text and "SMALL_INTS[" in text
    assert "box_for_type(" not in text
    flags = vm.globals["a"].payload.elements
    ints = vm.globals["b"].payload.elements
    assert all(box is (TRUE if i % 3 == 0 else FALSE)
               for i, box in enumerate(flags))
    assert all(box is make_number(i - 1) for i, box in enumerate(ints[:258]))
    assert all(box == make_number(i - 1) for i, box in enumerate(ints))


def test_megafunction_rebuilds_grow_logarithmically_with_links():
    """A 32-way ``if``/``else if`` chain grows one tree 31 stitched
    links.  Its megafunction is rebuilt only when the link count has
    doubled (at 1, 2, 4, 8 and 16 links: 5 builds), not once per link."""
    arms = " else ".join(f"if (k == {n}) t += {n + 1};" for n in range(32))
    source = (
        "var t = 0;"
        f"for (var i = 0; i < 2000; i++) {{ var k = i % 32; {arms} }} t;"
    )
    vm = _py_vm()
    vm.enable_profiling()
    vm.run(source)
    (tree,) = vm.monitor.cache.all_trees()
    links = tree.link_version
    section = vm.profiler.to_dict()["pycompile"]
    # floor(log2 links) + 1 == links.bit_length()
    assert 1 < section["tree_builds"] <= links.bit_length(), (links, section)
    # Megafunction builds are not fragment functions.
    assert section["fragments"] == vm.stats.tracing.pycompile_fragments


BRANCHY_LOOP = (
    "var a = 0;"
    "for (var i = 0; i < 500; i++) { if (i % 2) a += 1; else a += 2; } a;"
)


def test_trunk_function_grows_an_outer_loop_only_when_it_inlines(monkeypatch):
    """A trunk's first build, before any link, is one loop; its rebuild
    inlines the branch, whose ``jtree`` breaks out to an outer loop
    instead of returning a transfer."""
    from repro.jit import pycompile

    built = []
    for name in ("emit_fragment", "emit_tree"):
        emit = getattr(pycompile, name)

        def capturing(owner, emit=emit, name=name):
            source, consts = emit(owner)
            built.append((name, source))
            return source, consts

        monkeypatch.setattr(pycompile, name, capturing)
    vm = _py_vm()
    vm.run(BRANCHY_LOOP)
    (tree,) = vm.monitor.cache.all_trees()
    assert tree.link_version == 1 and tree.fragment.py_links == 1
    assert [name for name, _source in built] == ["emit_fragment", "emit_tree"]
    (_, first), (_, rebuilt) = built
    assert first.count("while 1:") == 1 and "break" not in first
    assert rebuilt.count("while 1:") == 2 and "break" in rebuilt
    assert f"return ({pycompile.TRANSFER}," not in rebuilt


def test_failed_rebuild_keeps_the_trunks_last_function():
    """A ``pycompile.link`` fault fails the rebuild at the first link:
    the trunk keeps its first build's function, latched so it is not
    rebuilt again, and reaches its branch through the driver."""
    vm = _py_vm(fault_plan=FaultPlan.parse(["pycompile.link:*"]))
    assert repr(vm.run(BRANCHY_LOOP)) == repr(_py_vm().run(BRANCHY_LOOP))
    (tree,) = vm.monitor.cache.all_trees()
    trunk = tree.fragment
    assert tree.link_version == 1 and trunk.py_links == 0
    assert trunk.py_failed and trunk.py_func is not None
    assert vm.stats.tracing.pycompile_tree_builds == 0
    assert vm.stats.tracing.direct_transfers == 0
    assert vm.stats.tracing.driver_transfers > 0


def test_emit_empty_fragment_raises():
    class Empty:
        native = []
        anchor_exit = None

    with pytest.raises(PyEmitError):
        emit_fragment(Empty())


# -- invalidation ------------------------------------------------------------


def test_retirement_drops_compiled_callable():
    vm = _py_vm()
    vm.run(HOT_LOOP)
    trunk = _compiled_fragments(vm)[0]
    assert trunk.py_func is not None
    trunk_tree = vm.monitor.cache.all_trees()[0]
    trunk_tree.retire()
    assert trunk.state is FragmentState.RETIRED
    assert trunk.py_func is None
    assert trunk.py_consts is None


def test_cache_flush_under_budget_pressure_drops_callables():
    """Regression: a code_cache_budget flush must drop every compiled
    callable, and the program must still run correctly afterwards by
    re-tracing and re-compiling."""
    config = VMConfig()
    config.native_backend = "py"
    config.code_cache_budget = 1  # any compilation overflows instantly
    vm = TracingVM(config)
    vm.events.capture = True

    source = """
var a = 0;
for (var i = 0; i < 300; i++) a += i;
var b = 0;
for (var j = 0; j < 300; j++) b += 2;
a + b;
"""
    # The flush clears the peer table, so keep our own references to
    # every tree that ever lived in the cache.
    seen = {}
    vm.events.subscribe(
        lambda _event: seen.update(
            (id(t), t) for t in vm.monitor.cache.all_trees()
        )
    )
    result = vm.run(source)
    assert result.payload == sum(range(300)) + 600
    assert vm.stats.tracing.cache_flushes >= 1
    # Eviction dropped the callables (the eviction-site assertion in
    # TraceCache._check_callables_dropped did not fire), and nothing
    # retired still holds one.
    retired = [
        fragment
        for tree in seen.values()
        for fragment in [tree.fragment] + tree.branches
        if fragment.state is FragmentState.RETIRED
    ]
    assert retired, "budget pressure must have retired at least one fragment"
    for fragment in retired:
        assert fragment.py_func is None
        assert fragment.py_consts is None

    # Re-execution after the flush recompiles from scratch.
    vm2 = _py_vm(code_cache_budget=1)
    assert vm2.run(source).payload == result.payload


def test_eviction_assertion_trips_on_retained_callable():
    from repro.core.cache import TraceCache

    vm = _py_vm()
    vm.run(HOT_LOOP)
    tree = vm.monitor.cache.all_trees()[0]
    fragment = tree.fragment
    tree.retire()
    fragment.py_func = lambda machine, executed, cycles: None  # simulate a leak
    with pytest.raises(AssertionError):
        TraceCache._check_callables_dropped(tree)


# -- fault containment -------------------------------------------------------


def test_emission_fault_is_contained_and_does_not_strike_breaker():
    config = VMConfig()
    config.native_backend = "py"
    config.fault_plan = FaultPlan.parse(["pycompile.emit"])  # first hit only
    vm = TracingVM(config)
    vm.events.capture = True
    result = vm.run(HOT_LOOP)
    assert result.payload == sum(range(500))

    failures = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert len(failures) == 1
    assert failures[0].payload["boundary"] == "pycompile"
    assert vm.firewall.failures == 0, "fallback must not advance the breaker"
    assert not vm.in_safe_mode
    # The failed fragment is latched so it is not re-attempted.
    assert any(f.py_failed for f in _compiled_fragments(vm))


def test_emission_fault_escapes_with_firewall_disabled():
    """Negative control: --no-jit-firewall means injected emission faults
    must escape (proving containment is the firewall's doing)."""
    config = VMConfig()
    config.native_backend = "py"
    config.enable_jit_firewall = False
    config.fault_plan = FaultPlan.parse(["pycompile.emit"])
    vm = TracingVM(config)
    with pytest.raises(InjectedFault):
        vm.run(HOT_LOOP)


# -- budget equivalence ------------------------------------------------------


def test_native_insn_budget_deopt_matches_step_backend():
    results = {}
    for backend in ("py", "step"):
        config = VMConfig()
        config.native_backend = backend
        config.native_insn_budget = 50  # overruns at the first back-edge
        vm = TracingVM(config)
        vm.events.capture = True
        result = vm.run(HOT_LOOP)
        results[backend] = (
            repr(result),
            vm.stats.total_cycles,
            dict(vm.events.counts),
        )
    assert results["py"] == results["step"]


# -- micro-differentials -----------------------------------------------------

MICRO_PROGRAMS = {
    "nan-compare": """
var nan = 0 / 0;
var hits = 0;
for (var i = 0; i < 200; i++) {
    if (nan < i) hits += 1;
    if (nan == nan) hits += 100;
}
hits;
""",
    "int-overflow": """
var x = 2147483600;
for (var i = 0; i < 200; i++) x = x + 7;
x;
""",
    "string-concat": """
var s = "";
for (var i = 0; i < 150; i++) s = s + "ab";
s.length;
""",
    "double-mix": """
var total = 0.5;
for (var i = 0; i < 250; i++) total = total * 1.01 + i;
total;
""",
}


@pytest.mark.parametrize("name", sorted(MICRO_PROGRAMS))
def test_micro_program_identical_across_backends(name):
    source = MICRO_PROGRAMS[name]
    outcomes = {}
    for backend in ("py", "step"):
        config = VMConfig()
        config.native_backend = backend
        vm = TracingVM(config)
        result = vm.run(source)
        outcomes[backend] = (repr(result), vm.stats.total_cycles)
    assert outcomes["py"] == outcomes["step"], name
