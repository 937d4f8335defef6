"""Unit tests for the generated-Python trace backend (repro.jit.pycompile).

The differential suite (test_backend_differential.py) proves whole-run
equivalence; these tests pin the backend's lifecycle contract: callables
are built once per fragment, dropped on retirement and cache flushes,
emission faults fall back to the step interpreter without advancing the
firewall breaker, and the emitted source actually compiles.
"""

from __future__ import annotations

import re

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


def _warm_pair(source, store, **overrides):
    """Fill ``store`` from a cold py run of ``source``, then warm-start a
    second VM (configured with ``overrides``) from it; returns both VMs
    and the warm run's result."""
    cold = _py_vm(trace_store=str(store))
    cold.run(source)
    warm = _py_vm(trace_store=str(store), **overrides)
    warm.events.capture = True
    result = warm.run(source)
    return cold, warm, result


def _capture_builds(monkeypatch):
    """Record ``(emitter name, built fragment, source)`` per build."""
    from repro.jit import pycompile

    built = []
    for name in ("emit_fragment", "emit_tree"):
        emit = getattr(pycompile, name)

        def capturing(owner, emit=emit, name=name):
            source, consts = emit(owner)
            fragment = owner.fragment if name == "emit_tree" else owner
            built.append((name, fragment, source))
            return source, consts

        monkeypatch.setattr(pycompile, name, capturing)
    return built


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
    """The source is a factory that takes the constants once, as
    closure cells, and returns the fragment's function."""
    vm = _py_vm()
    vm.run(HOT_LOOP)
    trunk = _compiled_fragments(vm)[0]
    source, consts = emit_fragment(trunk)
    lines = source.splitlines()
    assert lines[1] == "    def _fragment_fn(machine, executed, cycles):"
    assert lines[-1] == "    return _fragment_fn"
    assert "_consts" not in source
    namespace = {}
    exec(compile(source, "<test>", "exec"), namespace)  # valid Python
    assert isinstance(consts, tuple) and consts
    fn = namespace["_make"](*consts)
    assert fn.__code__.co_argcount == 3
    # Every constant is a cell of the function, none a local it unpacks.
    cells = {id(cell.cell_contents) for cell in fn.__closure__}
    assert {id(value) for value in consts} <= cells
    assert not set(fn.__code__.co_freevars) & set(fn.__code__.co_varnames)


def _leave_lines(sources):
    return [
        line.strip()
        for source in sources
        for line in source.splitlines()
        if "leave(" in line
    ]


def test_emitted_exits_are_one_line_and_skip_machine_registers(
    monkeypatch, tmp_path
):
    """Every failed guard leaves through the shared exit helper: the
    generated code never builds an ``ExitEvent``, never touches
    ``machine.regs`` or ``machine.ovf``, and a plain exit is one
    ``return leave(...)`` statement.  A cold run inlines nothing; a warm
    start's trunks fall into their inlined branches."""
    from repro.suite.programs import PROGRAMS

    built = _capture_builds(monkeypatch)
    program = next(p for p in PROGRAMS if p.name == "crypto-sha1")
    cold, warm, _result = _warm_pair(program.source, tmp_path)
    cold_sources = [source for _, _, source in built[: cold.stats.tracing
                                                     .pycompile_fragments]]
    assert cold.stats.tracing.pycompile_tree_builds == 0
    assert cold.stats.tracing.direct_transfers == 0
    cold_leaves = _leave_lines(cold_sources)
    assert cold_leaves
    assert all(line.startswith("return leave(machine, ") for line in cold_leaves)
    assert warm.stats.tracing.pycompile_tree_builds > 0
    assert warm.stats.tracing.direct_transfers > 0
    text = "\n".join(source for _, _, source in built)
    for banned in ("regs", "machine.ovf", "ExitEvent", "finish_exit"):
        assert banned not in text, banned
    leaves = _leave_lines(source for _, _, source in built)
    plain = [line for line in leaves if line.startswith("return leave(machine, ")]
    # An exit whose branch the function inlines falls into it.
    inlined = [line for line in leaves if line.startswith("out = leave(machine, ")]
    assert plain and inlined
    assert len(plain) + len(inlined) == len(leaves)


def _hoists_and_reads(source):
    """The machine/VM names a function hoists, and the ones its body
    and its hoists read."""
    from repro.jit.pycompile import _HOISTS

    hoist_lines = {f"{name} = {expr}": name for name, expr in _HOISTS}
    hoisted, body = set(), []
    for line in source.splitlines()[2:]:
        if line.strip() in hoist_lines:
            hoisted.add(hoist_lines[line.strip()])
        body.append(line)
    names = {name for name, _ in _HOISTS}
    reads = set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", "\n".join(body)))
    return hoisted, reads & names


#: Sources whose functions between them read every hoisted name: a
#: nested tree call, boxed FFI calls, a state-accessing native's global
#: flush and a re-entering native's flag.
HOIST_SOURCES = {
    "crypto-crc32": None,
    "crypto-sha1": None,
    "state-native": (
        "var g = 0; var t = 0; for (var i = 0; i < 60; i++)"
        " { writeGlobal('g', i); t += readGlobal('g'); } t;"
    ),
    "reentering-native": (
        "function cb() { return 3; }"
        "var t = 0; for (var i = 0; i < 60; i++) t += reenter(cb); t;"
    ),
}


@pytest.mark.parametrize("name", sorted(HOIST_SOURCES))
def test_every_function_hoists_exactly_the_names_it_reads(monkeypatch, name):
    """No function reads a machine/VM name it did not hoist (which would
    raise at run time), and none hoists a name nothing reads."""
    from repro.suite.programs import PROGRAMS

    built = _capture_builds(monkeypatch)
    source = HOIST_SOURCES[name] or next(
        p for p in PROGRAMS if p.name == name
    ).source
    _py_vm().run(source)
    assert built
    for _, _, source in built:
        hoisted, reads = _hoists_and_reads(source)
        assert hoisted == reads, source


def test_functions_hoist_only_the_names_they_read(monkeypatch):
    """A loop over locals hoists no global-area name; a loop over
    globals does, and neither hoists the ledger's ``charge``, which only
    the rare flush paths read."""
    built = _capture_builds(monkeypatch)
    local_loop = (
        "function f(n) { var s = 0;"
        " for (var i = 0; i < n; i++) s += i; return s; } f(500);"
    )
    _py_vm().run(local_loop)
    ((_, _, local_source),) = built
    assert "ar_slots = ar.slots" in local_source
    assert "area" not in local_source
    built.clear()
    _py_vm().run(HOT_LOOP)
    ((_, _, global_source),) = built
    assert "area_values = area.values" in global_source
    for source in (local_source, global_source):
        assert "charge =" not in source
        assert "run_inner" not in source


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


def test_link_chain_builds_each_fragment_once(monkeypatch):
    """A 32-way ``if``/``else if`` chain grows one tree 31 stitched
    links.  The trunk is built once, before any of them, and is never
    rebuilt; each branch the run stitches into is built once, when it is
    first reached, and nothing is inlined."""
    built = _capture_builds(monkeypatch)
    arms = " else ".join(f"if (k == {n}) t += {n + 1};" for n in range(32))
    source = (
        "var t = 0;"
        f"for (var i = 0; i < 2000; i++) {{ var k = i % 32; {arms} }} t;"
    )
    vm = _py_vm()
    vm.enable_profiling()
    vm.run(source)
    (tree,) = vm.monitor.cache.all_trees()
    assert tree.link_version == 31
    tracing = vm.stats.tracing
    assert tracing.pycompile_tree_builds == 0
    assert tracing.direct_transfers == 0 and tracing.driver_transfers > 0
    assert all(name == "emit_fragment" for name, _, _ in built)
    fragments = [fragment for _, fragment, _ in built]
    assert len({id(fragment) for fragment in fragments}) == len(fragments)
    assert fragments[0] is tree.fragment
    taken = [branch for branch in tree.branches if branch.py_func is not None]
    assert len(taken) == 31
    assert {id(f) for f in fragments[1:]} == {id(f) for f in taken}
    section = vm.profiler.to_dict()["pycompile"]
    assert section["fragments"] == len(built) == tracing.pycompile_fragments
    assert section["tree_builds"] == 0


BRANCHY_LOOP = (
    "var a = 0;"
    "for (var i = 0; i < 500; i++) { if (i % 2) a += 1; else a += 2; } a;"
)


def test_trunk_function_grows_an_outer_loop_only_when_it_inlines(
    monkeypatch, tmp_path
):
    """A cold trunk is built before its branch exists: one loop, which
    reaches the branch through the driver, and the branch is built on
    its own.  A warm start builds the trunk once, with the preloaded
    branch inlined, whose ``jtree`` breaks out to an outer loop instead
    of returning a transfer."""
    from repro.jit import pycompile

    expected = repr(_py_vm().run(BRANCHY_LOOP))
    built = _capture_builds(monkeypatch)
    cold, warm, result = _warm_pair(BRANCHY_LOOP, tmp_path)
    assert repr(result) == expected
    (tree,) = cold.monitor.cache.all_trees()
    assert tree.link_version == 1
    assert [name for name, _, _ in built] == [
        "emit_fragment", "emit_fragment", "emit_tree"
    ]
    (_, _, trunk), (_, _, branch), (_, _, warm_trunk) = built
    assert trunk.count("while 1:") == 1 and "break" not in trunk
    assert "while 1:" not in branch
    assert f"return ({pycompile.TRANSFER}," in branch
    assert warm_trunk.count("while 1:") == 2 and "break" in warm_trunk
    assert f"return ({pycompile.TRANSFER}," not in warm_trunk
    assert cold.stats.tracing.direct_transfers == 0
    assert cold.stats.tracing.driver_transfers > 0
    assert warm.stats.tracing.pycompile_tree_builds == 1
    assert warm.stats.tracing.pycompile_fragments == 0
    assert warm.stats.tracing.direct_transfers > 0
    assert warm.stats.tracing.driver_transfers == 0


def test_failed_warm_tree_build_is_contained(tmp_path):
    """A ``pycompile.link`` fault fails a warm start's tree build: the
    failure is reported at the ``pycompile`` boundary without a breaker
    strike, the trunk is latched and runs on the step machine, and the
    run matches a clean warm start's result, output and cycles."""
    _cold, clean, clean_result = _warm_pair(BRANCHY_LOOP, tmp_path / "clean")
    _cold, vm, result = _warm_pair(
        BRANCHY_LOOP, tmp_path / "faulted",
        fault_plan=FaultPlan.parse(["pycompile.link:*"]),
    )
    assert repr(result) == repr(clean_result)
    assert vm.output == clean.output
    assert vm.stats.total_cycles == clean.stats.total_cycles
    (tree,) = vm.monitor.cache.all_trees()
    trunk = tree.fragment
    assert trunk.py_failed and trunk.py_func is None
    failures = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert len(failures) == 1
    assert failures[0].payload["boundary"] == "pycompile"
    assert vm.firewall.failures == 0 and not vm.in_safe_mode
    assert vm.stats.tracing.pycompile_tree_builds == 0
    assert vm.stats.tracing.direct_transfers == 0
    assert vm.stats.tracing.driver_transfers > 0
    assert clean.stats.tracing.direct_transfers > 0


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
