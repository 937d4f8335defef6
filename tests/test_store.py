"""The persistent trace store: warm start, corruption tolerance, chaos.

The robustness contract under test (see docs/INTERNALS.md, The
persistent trace store):

* **Differential warm start** — a fresh VM preloading a source's
  persisted traces must be observationally identical to the same VM
  having traced that source itself and run it a second time: same
  result, same simulated-cycle bill, same output, same trace-lifecycle
  event stream (modulo the store's own events and the process-global
  exit-id counter).
* **Containment** — every store failure (truncation, bit flips, stale
  schema/fingerprint, partial writes, load races, injected chaos) is a
  ``store.*`` firewall boundary: the run falls back to cold tracing
  with a typed ``store-fallback`` event and an unchanged result.
* **Coherence** — cache flush / header invalidation supersede the
  persisted entries, saves onto a foreign store reinitialize it, and
  the size budget evicts oldest-generation entries first.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core import events as eventkind
from repro.core.store import (
    MANIFEST_NAME,
    STORE_SCHEMA,
    config_fingerprint,
    source_sha,
)
from repro.hardening import FaultPlan
from repro.hardening import faults as fault_sites
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM, VMConfig

SIEVE_PATH = pathlib.Path(__file__).parent.parent / "examples" / "sieve.js"

#: The store's own event kinds, absent from a cold reference stream.
STORE_KINDS = {
    eventkind.STORE_SAVE,
    eventkind.STORE_LOAD,
    eventkind.STORE_FALLBACK,
}

LOOP_SOURCE = "var s = 0; for (var i = 0; i < 2000; i++) s += i; s;"
OTHER_SOURCE = "var p = 1; for (var i = 1; i < 900; i++) p = (p + i) % 97; p;"
THIRD_SOURCE = "var t = 0; for (var i = 0; i < 1200; i++) t += i % 7; t;"


def _config(store=None, backend="py", **overrides):
    config = VMConfig()
    config.native_backend = backend
    if store is not None:
        config.trace_store = str(store)
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


def _normalized_events(vm, skip_store: bool):
    """(kind, payload-json) pairs, raw exit ids included: a warm VM
    numbers its new exits exactly as a second run in the writing VM."""
    return [
        (event.kind, json.dumps(event.payload, sort_keys=True, default=repr))
        for event in vm.events.events
        if not (skip_store and event.kind in STORE_KINDS)
    ]


def _second_run_reference(source: str, name: str, backend: str):
    """Trace ``source`` on one VM, then run the *same Code* again after a
    guest-state reset: the in-memory warm run a preloaded VM must match."""
    vm = TracingVM(_config(backend=backend))
    vm.events.capture = True
    code = vm.compile(source, name=name)
    vm.run_code(code)
    cycles_before = vm.stats.total_cycles
    vm.events.clear()
    vm.reset_guest_state()
    result = vm.run_code(code)
    return {
        "result": repr(result),
        "cycles": vm.stats.total_cycles - cycles_before,
        "output": list(vm.output),
        "events": _normalized_events(vm, skip_store=False),
    }


def _warm_run(store_dir, source: str, name: str, backend: str,
              writer_backend=None):
    """Populate the store cold (on ``writer_backend``, default
    ``backend``), then run once on a fresh preloaded VM."""
    writer = TracingVM(_config(store_dir, writer_backend or backend))
    writer.run(source, name=name)
    warm = TracingVM(_config(store_dir, backend))
    warm.events.capture = True
    cycles_before = warm.stats.total_cycles
    result = warm.run(source, name=name)
    return {
        "result": repr(result),
        "cycles": warm.stats.total_cycles - cycles_before,
        "output": list(warm.output),
        "events": _normalized_events(warm, skip_store=True),
    }, warm


def _assert_warm_identical(store_dir, source: str, name: str, backend: str,
                           writer_backend=None):
    reference = _second_run_reference(source, name, backend)
    warm, warm_vm = _warm_run(store_dir, source, name, backend, writer_backend)

    loads = warm_vm.events.of_kind(eventkind.STORE_LOAD)
    assert loads and loads[0].payload["result"] == "hit", name
    assert not warm_vm.events.of_kind(eventkind.STORE_FALLBACK), name

    assert warm["result"] == reference["result"], name
    assert warm["cycles"] == reference["cycles"], name
    assert warm["output"] == reference["output"], name
    assert warm["events"] == reference["events"], name


# -- the differential proof -------------------------------------------------------


@pytest.mark.parametrize("backend", ("py", "step"))
@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_warm_start_identical_to_second_run(program, backend, tmp_path):
    _assert_warm_identical(tmp_path, program.source, program.name, backend)


@pytest.mark.parametrize("backend", ("py", "step"))
def test_sieve_warm_start_identical(backend, tmp_path):
    _assert_warm_identical(tmp_path, SIEVE_PATH.read_text(), "sieve.js", backend)


@pytest.mark.parametrize("writer,reader", (("py", "step"), ("step", "py")))
@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_cross_backend_warm_start(program, writer, reader, tmp_path):
    """An entry holds no generated Python, so a store written on one
    backend warm-starts the other exactly like its own second run."""
    _assert_warm_identical(tmp_path, program.source, program.name, reader,
                           writer_backend=writer)


def test_persist_leaves_value_numbering_untouched(tmp_path):
    """Saving reads each tree's value-numbering state without using it:
    persisting twice leaves every tree's next value number unchanged."""
    vm = TracingVM(_config(tmp_path))
    code = vm.compile(LOOP_SOURCE, name="loop")
    vm.run_code(code)
    trees = vm.monitor.cache.all_trees()
    before = [tree.opt_vn.next_vn for tree in trees]
    assert trees and vm.trace_store.persist(vm, LOOP_SOURCE, code)
    vm.trace_store.persist(vm, LOOP_SOURCE, code)
    assert [tree.opt_vn.next_vn for tree in trees] == before


def test_rerun_determinism_regression(tmp_path):
    """regexp-dna-lite regression: an outer tree recorded while its inner
    tree had no branches must not bake pre-call global constants across
    the tree call (the inner tree later grows a branch that writes
    them).  Warm start surfaced this as run-2 diverging from run-1."""
    program = next(p for p in PROGRAMS if p.name == "regexp-dna-lite")
    vm = TracingVM(_config())
    code = vm.compile(program.source, name=program.name)
    first = vm.run_code(code)
    vm.reset_guest_state()
    second = vm.run_code(code)
    assert repr(first) == repr(second)
    _assert_warm_identical(tmp_path, program.source, program.name, "py")


# -- chaos sites ------------------------------------------------------------------

CHAOS_PROGRAMS = [
    p for p in PROGRAMS
    if p.name in ("bitops-bitwise-and", "math-cordic", "string-fasta",
                  "controlflow-recursive", "regexp-dna-lite")
]


@pytest.mark.parametrize("program", CHAOS_PROGRAMS, ids=lambda p: p.name)
@pytest.mark.parametrize("site", (fault_sites.STORE_CORRUPT_ENTRY,
                                  fault_sites.STORE_LOAD_RACE))
def test_load_chaos_contained(site, program, tmp_path):
    """An injected fault while loading degrades to cold tracing with a
    typed fallback — the result must not change."""
    reference = TracingVM(_config())
    expected = repr(reference.run(program.source, name=program.name))

    writer = TracingVM(_config(tmp_path))
    writer.run(program.source, name=program.name)

    config = _config(tmp_path)
    config.fault_plan = FaultPlan.parse([f"{site}:1"])
    vm = TracingVM(config)
    vm.events.capture = True
    result = vm.run(program.source, name=program.name)

    assert repr(result) == expected
    fallbacks = vm.events.of_kind(eventkind.STORE_FALLBACK)
    assert fallbacks and fallbacks[0].payload["boundary"] == "store.load"
    internal = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert any(e.payload["boundary"] == "store.load" and e.payload["injected"]
               for e in internal)
    assert vm.events.of_kind(eventkind.FAULT_INJECTED)
    assert not vm.in_safe_mode


@pytest.mark.parametrize("program", CHAOS_PROGRAMS, ids=lambda p: p.name)
def test_partial_write_chaos_contained(program, tmp_path):
    """A writer dying between the temp write and the rename leaves no
    torn entry: the save is refused, the run is unaffected, and a later
    reader sees either nothing or a fully consistent store."""
    reference = TracingVM(_config())
    expected = repr(reference.run(program.source, name=program.name))

    config = _config(tmp_path)
    config.fault_plan = FaultPlan.parse(
        [f"{fault_sites.STORE_PARTIAL_WRITE}:1"])
    writer = TracingVM(config)
    writer.events.capture = True
    result = writer.run(program.source, name=program.name)

    assert repr(result) == expected
    fallbacks = writer.events.of_kind(eventkind.STORE_FALLBACK)
    assert fallbacks and fallbacks[0].payload["boundary"] == "store.save"
    # No manifest was written, so a fresh VM gets a clean miss and a
    # correct cold run — never a torn entry.
    warm = TracingVM(_config(tmp_path))
    warm.events.capture = True
    assert repr(warm.run(program.source, name=program.name)) == expected
    loads = warm.events.of_kind(eventkind.STORE_LOAD)
    assert loads and loads[0].payload["result"] == "miss"
    assert not warm.events.of_kind(eventkind.STORE_FALLBACK)


def test_store_fault_escapes_without_firewall(tmp_path):
    """Like every other site: with the firewall down, injected store
    faults must escape (chaos runs prove containment is real)."""
    from repro.hardening.faults import InjectedFault

    writer = TracingVM(_config(tmp_path))
    writer.run(LOOP_SOURCE, name="loop")

    config = _config(tmp_path)
    config.enable_jit_firewall = False
    config.fault_plan = FaultPlan.parse(
        [f"{fault_sites.STORE_CORRUPT_ENTRY}:1"])
    vm = TracingVM(config)
    with pytest.raises(InjectedFault):
        vm.run(LOOP_SOURCE, name="loop")


# -- corruption and refusal -------------------------------------------------------


def _populate(store_dir, source=LOOP_SOURCE, name="loop", **overrides):
    writer = TracingVM(_config(store_dir, **overrides))
    writer.run(source, name=name)
    return writer


def _warm_vm(store_dir, source=LOOP_SOURCE, name="loop", **overrides):
    vm = TracingVM(_config(store_dir, **overrides))
    vm.events.capture = True
    result = vm.run(source, name=name)
    return result, vm


def _entry_path(store_dir, source=LOOP_SOURCE):
    return os.path.join(str(store_dir), f"e-{source_sha(source)}.pickle")


def _fallback_reasons(vm):
    return [e.payload["reason"]
            for e in vm.events.of_kind(eventkind.STORE_FALLBACK)]


def test_truncated_entry_refused(tmp_path):
    _populate(tmp_path)
    path = _entry_path(tmp_path)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    result, vm = _warm_vm(tmp_path)
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))
    assert _fallback_reasons(vm) == ["checksum-mismatch"]


def test_bitflipped_entry_refused(tmp_path):
    _populate(tmp_path)
    path = _entry_path(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0x40
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["checksum-mismatch"]


def test_valid_checksum_garbage_entry_refused(tmp_path):
    """Corruption the checksum cannot catch (a writer bug) still fails
    closed at the JSON/schema layer."""
    import hashlib

    _populate(tmp_path)
    path = _entry_path(tmp_path)
    garbage = b"not json at all"
    with open(path, "wb") as handle:
        handle.write(garbage)
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    record = manifest["entries"][source_sha(LOOP_SOURCE)]
    record["sha256"] = hashlib.sha256(garbage).hexdigest()
    record["size"] = len(garbage)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["corrupt-entry"]


def test_missing_entry_file_refused(tmp_path):
    _populate(tmp_path)
    os.remove(_entry_path(tmp_path))
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["entry-missing"]


def test_truncated_manifest_refuses_store_and_save_reinitializes(tmp_path):
    _populate(tmp_path)
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    data = open(manifest_path, "rb").read()
    with open(manifest_path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    result, vm = _warm_vm(tmp_path)
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))
    assert _fallback_reasons(vm) == ["manifest-corrupt"]
    # The same run's exit save reinitialized the store: the manifest is
    # whole again and the next VM warm-starts cleanly.
    manifest = json.load(open(manifest_path))
    assert manifest["schema"] == STORE_SCHEMA
    _result, fresh = _warm_vm(tmp_path)
    loads = fresh.events.of_kind(eventkind.STORE_LOAD)
    assert loads and loads[0].payload["result"] == "hit"
    assert not fresh.events.of_kind(eventkind.STORE_FALLBACK)


def test_stale_schema_refused(tmp_path):
    _populate(tmp_path)
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    manifest["schema"] = STORE_SCHEMA + 1
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["schema-mismatch"]


@pytest.mark.parametrize("overrides", (
    {"enable_hoisting": False},
    {"hotness_threshold": 17},
), ids=("hoisting", "cost-knob"))
def test_fingerprint_mismatch_refused(overrides, tmp_path):
    """Traces persisted under one configuration must never link into a
    VM whose config-cost fingerprint differs."""
    _populate(tmp_path)  # defaults: every optimizer pass on
    _result, vm = _warm_vm(tmp_path, **overrides)
    assert _fallback_reasons(vm) == ["fingerprint-mismatch"]


def test_cost_model_change_refused(tmp_path, monkeypatch):
    """A rebuilt cost table silently changes every cycle bill; the
    fingerprint folds the table in, so old stores are refused."""
    from repro import costs

    _populate(tmp_path)
    monkeypatch.setattr(costs, "NATIVE_CALL", costs.NATIVE_CALL + 1)
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["fingerprint-mismatch"]


def test_class_layout_change_refused(tmp_path, monkeypatch):
    """Unpickling skips ``__init__``, so an entry pickled before a trace
    class gained a field would load without it; the fingerprint folds
    in every allowlisted class's fields, so such a store is refused."""
    from repro.core.exits import SideExit

    _populate(tmp_path)
    monkeypatch.setattr(SideExit, "__slots__",
                        SideExit.__slots__ + ("added_field",))
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["fingerprint-mismatch"]


class _Call:
    """Pickles as a call of ``fn(*args)``: what a tampered entry holds."""

    def __init__(self, fn, *args):
        self.fn = fn
        self.args = args

    def __reduce__(self):
        return self.fn, self.args


def _rewrite_entry(store_dir, data: bytes, source=LOOP_SOURCE) -> None:
    """Replace the entry file and re-checksum it in the manifest."""
    import hashlib

    with open(_entry_path(store_dir, source), "wb") as handle:
        handle.write(data)
    manifest_path = os.path.join(str(store_dir), MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    record = manifest["entries"][source_sha(source)]
    record["sha256"] = hashlib.sha256(data).hexdigest()
    record["size"] = len(data)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)


def _retreed(store_dir, trees: bytes, source=LOOP_SOURCE) -> None:
    """Rewrite the entry of ``source`` with ``trees`` as its tree stream."""
    import pickle

    entry = pickle.loads(open(_entry_path(store_dir, source), "rb").read())
    entry["trees"] = trees
    _rewrite_entry(store_dir, pickle.dumps(entry, protocol=5), source)


def test_envelope_naming_a_global_refused(tmp_path):
    """A checksum-valid entry whose envelope calls ``os.system`` is
    refused before anything runs."""
    import pickle

    marker = tmp_path / "envelope-ran"
    _populate(tmp_path / "store")
    evil = _Call(os.system, f"touch {marker}")
    _rewrite_entry(tmp_path / "store", pickle.dumps(evil, protocol=5))
    result, vm = _warm_vm(tmp_path / "store")
    assert not marker.exists()
    assert _fallback_reasons(vm) == ["forbidden-global"]
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))


def test_tree_stream_naming_a_global_refused(tmp_path):
    """A checksum-valid entry whose tree stream names ``builtins.eval``
    passes every envelope check and is refused at the allowlist."""
    import pickle

    marker = tmp_path / "stream-ran"
    _populate(tmp_path / "store")
    _retreed(tmp_path / "store", pickle.dumps(
        _Call(eval, f"open({str(marker)!r}, 'w').close()"), protocol=5))
    result, vm = _warm_vm(tmp_path / "store")
    assert not marker.exists()
    assert _fallback_reasons(vm) == ["forbidden-global"]
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))


class _Tripwire:
    """Creates ``marker`` when unpickled: a class outside the trace
    classes that a tampered tree stream builds with NEWOBJ."""

    def __init__(self, marker):
        self.marker = marker

    def __setstate__(self, state):
        open(state["marker"], "w").close()


def test_tree_stream_newobj_outside_trace_classes_refused(tmp_path):
    """A stream that builds an object of a class outside the trace
    classes with NEWOBJ, as the stream builds its own, is refused at
    the allowlist before the class is looked up."""
    import pickle
    import pickletools

    marker = tmp_path / "newobj-ran"
    stream = pickle.dumps([_Tripwire(str(marker))], protocol=5)
    assert "NEWOBJ" in {op.name for op, _arg, _pos in pickletools.genops(stream)}
    _populate(tmp_path / "store")
    _retreed(tmp_path / "store", stream)
    result, vm = _warm_vm(tmp_path / "store")
    assert not marker.exists()
    assert _fallback_reasons(vm) == ["forbidden-global"]
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))


@pytest.mark.parametrize("ref", (
    (), ("code", 99), ("code", -1), ("code", True), ("loop", 0, 12345),
    ("fn", 0, 0), ("native",), ("native", 7), ("dead", "extra"), ("nope",),
    (["unhashable"],),
), ids=repr)
def test_loader_hook_with_malformed_reference_refused(ref, tmp_path):
    """The loader hook resolves only well-formed references into the
    loading program; anything else is a ``decode-error``."""
    import pickle

    from repro.core import store

    _populate(tmp_path)
    _retreed(tmp_path, pickle.dumps([_Call(store._process_ref, *ref)], protocol=5))
    result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["decode-error"]
    assert repr(result) == repr(TracingVM(_config()).run(LOOP_SOURCE))


def test_malformed_value_numbering_list_refused(tmp_path):
    """A checksum-valid math-partial-sums entry whose opt_vn list holds
    ints must be refused at load (a ``store-fallback``), not linked and
    left to fail at the next compile as an internal JIT failure."""
    import pickle
    import pickletools

    from repro.core import store

    program = next(p for p in PROGRAMS if p.name == "math-partial-sums")
    writer = _populate(tmp_path, program.source, program.name)
    entry = pickle.loads(open(_entry_path(tmp_path, program.source), "rb").read())
    stream = entry["trees"]
    trees = store._TreeUnpickler(stream, store.enumerate_codes(
        writer.compile(program.source, name=program.name))).load()
    # The trees end at the stream's first STOP; the opt_vn list follows.
    trees_end = next(pos + 1 for op, _arg, pos in pickletools.genops(stream)
                     if op.name == "STOP")
    _retreed(tmp_path, stream[:trees_end] + pickle.dumps([42] * len(trees), protocol=5),
             program.source)
    result, vm = _warm_vm(tmp_path, program.source, program.name)
    assert _fallback_reasons(vm) == ["decode-error"]
    assert not [event for event in vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
                if event.payload["boundary"] != "store.load"]
    assert repr(result) == repr(TracingVM(_config()).run(program.source))


@pytest.mark.parametrize("where", ("store", "entry"))
def test_schema_3_entry_refused_and_rewritten(where, tmp_path):
    """An entry written at schema 3 (persistent ids, dict states) is
    refused with ``schema-mismatch``, whether its whole store or only
    the entry says so, and the same run's save rewrites it at the
    current schema."""
    import pickle

    _populate(tmp_path)
    path = _entry_path(tmp_path)
    entry = pickle.loads(open(path, "rb").read())
    entry["schema"] = 3
    _rewrite_entry(tmp_path, pickle.dumps(entry, protocol=5))
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    if where == "store":
        manifest = json.load(open(manifest_path))
        manifest["schema"] = 3
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
    _result, vm = _warm_vm(tmp_path)
    assert _fallback_reasons(vm) == ["schema-mismatch"]
    assert json.load(open(manifest_path))["schema"] == STORE_SCHEMA == 4
    assert pickle.loads(open(path, "rb").read())["schema"] == STORE_SCHEMA
    _result, fresh = _warm_vm(tmp_path)
    loads = fresh.events.of_kind(eventkind.STORE_LOAD)
    assert loads and loads[0].payload["result"] == "hit"
    assert not fresh.events.of_kind(eventkind.STORE_FALLBACK)


def test_tree_stream_pickles_plain_values_without_the_hook(monkeypatch):
    """The cost guard: pickle writes plain values itself, so the hook
    that names trace and process-local objects never sees one."""
    from repro.core import store

    seen = set()
    reducer_override = store._TreePickler.reducer_override

    def spy(pickler, obj):
        seen.add(type(obj))
        return reducer_override(pickler, obj)

    monkeypatch.setattr(store._TreePickler, "reducer_override", spy)
    program = next(p for p in PROGRAMS if p.name == "crypto-sha1")
    vm = TracingVM(_config())
    code = vm.compile(program.source, name=program.name)
    vm.run_code(code)
    store.build_entry(vm, program.source, code, config_fingerprint(vm.config))
    assert {store.NativeInsn, store.SideExit, store.TraceTree} <= seen
    assert not seen & {int, str, tuple, type(None), list, dict}


def test_positional_states_follow_slot_order():
    """Each positionally pickled class takes its state back slot by
    slot in ``__slots__`` order, the order the layout fingerprint
    folds in."""
    from repro.core import store

    for cls in store._POSITIONAL:
        values = tuple(object() for _ in cls.__slots__)
        obj = cls.__new__(cls)
        obj.__setstate__(values)
        assert store._POSITIONAL[cls](obj) == values, cls.__name__


def test_tree_unpickler_admits_trace_classes_and_the_hook_only():
    from repro.core import store

    unpickler = store._TreeUnpickler(b"", [])
    for cls in store.TRACE_CLASSES:
        assert unpickler.find_class(cls.__module__, cls.__qualname__) is cls
    hook = unpickler.find_class("repro.core.store", "_process_ref")
    assert hook == unpickler._resolve
    for module, name in (("copyreg", "__newobj__"), ("builtins", "getattr"),
                         ("repro.core.store", "_DeadKey"),
                         ("repro.core.store", "_TreeUnpickler")):
        with pytest.raises(store.StoreError) as refusal:
            unpickler.find_class(module, name)
        assert refusal.value.reason == "forbidden-global"


def test_save_onto_foreign_store_reinitializes(tmp_path):
    """Writing with a different fingerprint reinitializes the store
    rather than mixing incompatible entries."""
    _populate(tmp_path)  # fingerprint A
    old_entry = _entry_path(tmp_path)
    assert os.path.exists(old_entry)

    writer = _populate(tmp_path, source=OTHER_SOURCE, name="other",
                       enable_hoisting=False)  # fingerprint B
    manifest = json.load(open(os.path.join(str(tmp_path), MANIFEST_NAME)))
    assert manifest["fingerprint"] == config_fingerprint(writer.config)
    assert list(manifest["entries"]) == [source_sha(OTHER_SOURCE)]
    assert not os.path.exists(old_entry)


# -- supersede (cache flush / invalidation) ---------------------------------------


def test_flush_supersedes_persisted_entries(tmp_path):
    writer = _populate(tmp_path)
    writer.monitor.cache.flush("test-flush")
    manifest = json.load(open(os.path.join(str(tmp_path), MANIFEST_NAME)))
    record = manifest["entries"][source_sha(LOOP_SOURCE)]
    assert record["superseded"] is True
    # A superseded entry is a plain miss, not an error.
    _result, vm = _warm_vm(tmp_path)
    loads = vm.events.of_kind(eventkind.STORE_LOAD)
    assert loads and loads[0].payload["result"] == "miss"
    assert not vm.events.of_kind(eventkind.STORE_FALLBACK)


def test_invalidate_header_supersedes_entry(tmp_path):
    writer = _populate(tmp_path)
    cache = writer.monitor.cache
    tree = cache.all_trees()[0]
    cache.invalidate_header(tree.code, tree.header_pc, "test")
    manifest = json.load(open(os.path.join(str(tmp_path), MANIFEST_NAME)))
    record = manifest["entries"][source_sha(LOOP_SOURCE)]
    assert record["superseded"] is True


def test_warm_start_cannot_resurrect_flushed_traces(tmp_path):
    writer = _populate(tmp_path)
    writer.monitor.cache.flush("test-flush")
    _result, vm = _warm_vm(tmp_path)
    assert not vm.events.of_kind(eventkind.STORE_FALLBACK)
    # The warm VM re-traced from scratch (and re-persisted): its run
    # recorded a root trace instead of loading one.
    assert vm.events.counts.get(eventkind.RECORD_START, 0) > 0


# -- eviction and concurrency -----------------------------------------------------


def test_eviction_oldest_generation_first(tmp_path):
    sources = [(LOOP_SOURCE, "loop"), (OTHER_SOURCE, "other"),
               (THIRD_SOURCE, "third")]
    probe = TracingVM(_config(tmp_path))
    probe.run(LOOP_SOURCE, name="loop")
    entry_size = os.path.getsize(_entry_path(tmp_path))

    store_dir = tmp_path / "budgeted"
    budget = int(entry_size * 2.5)
    for source, name in sources:
        vm = TracingVM(_config(store_dir, trace_store_budget=budget))
        vm.events.capture = True
        vm.run(source, name=name)
    manifest = json.load(open(os.path.join(str(store_dir), MANIFEST_NAME)))
    kept = set(manifest["entries"])
    assert source_sha(THIRD_SOURCE) in kept  # newest is never evicted
    assert source_sha(LOOP_SOURCE) not in kept  # oldest went first
    saves = vm.events.of_kind(eventkind.STORE_SAVE)
    assert saves and saves[-1].payload["evicted"] >= 1
    # No orphaned entry files remain behind the manifest.
    on_disk = {name for name in os.listdir(str(store_dir))
               if name.startswith("e-")}
    assert on_disk == {rec["file"] for rec in manifest["entries"].values()}


def test_concurrent_writers_merge(tmp_path):
    """Two VMs sharing one store directory: each save re-reads and
    merges the manifest, so neither writer's entries are lost."""
    vm_a = TracingVM(_config(tmp_path))
    vm_b = TracingVM(_config(tmp_path))
    vm_a.run(LOOP_SOURCE, name="a")
    vm_b.run(OTHER_SOURCE, name="b")
    vm_a.run(THIRD_SOURCE, name="a2")
    manifest = json.load(open(os.path.join(str(tmp_path), MANIFEST_NAME)))
    assert set(manifest["entries"]) == {
        source_sha(LOOP_SOURCE), source_sha(OTHER_SOURCE),
        source_sha(THIRD_SOURCE),
    }
    for source, name in ((LOOP_SOURCE, "a"), (OTHER_SOURCE, "b"),
                         (THIRD_SOURCE, "a2")):
        _result, vm = _warm_vm(tmp_path, source=source, name=name)
        loads = vm.events.of_kind(eventkind.STORE_LOAD)
        assert loads and loads[0].payload["result"] == "hit", name


# -- supervisor and fleet ---------------------------------------------------------


def _jobs(count=4):
    from repro.exec import Job

    picked = PROGRAMS[:count]
    return [Job(job_id=p.name, source=p.source, tenant=p.category,
                name=p.name) for p in picked]


def _canonical(results):
    return [
        {"job": r.job_id, "status": r.status, "result": r.result,
         "output": list(r.output)}
        for r in sorted(results, key=lambda r: r.job_id)
    ]


def test_supervisor_warm_start_from_store(tmp_path):
    from repro.exec import Supervisor

    cold_results = Supervisor(config=_config(tmp_path)).run(_jobs())

    warm = Supervisor(config=_config(tmp_path))
    sources, fragments = warm.warm_start_from_store()
    assert sources == len({p.source for p in PROGRAMS[:4]})
    assert fragments > 0
    assert warm.vm.monitor.cache.fragment_count > 0
    warm_results = warm.run(_jobs())
    assert _canonical(warm_results) == _canonical(cold_results)


def test_supervisor_without_store_warm_start_noop():
    from repro.exec import Supervisor

    supervisor = Supervisor()
    assert supervisor.warm_start_from_store() == (0, 0)


def test_fleet_respawn_warm_starts_from_store(tmp_path):
    """A replacement VM preloads every stored source and announces it;
    the batch converges byte-identically even when the store feeds it a
    corrupt entry during the warm start."""
    from repro.exec import Supervisor

    jobs = _jobs(6)

    def run_fleet(config, fleet_plan):
        fleet = Supervisor(config=config, fault_plan=fleet_plan,
                           capture_events=True)
        results = fleet.run(jobs)
        return fleet, _canonical(results)

    _fleet, baseline = run_fleet(_config(tmp_path), None)  # populates store

    config = _config(tmp_path)
    config.fault_plan = FaultPlan.parse(
        [f"{fault_sites.STORE_CORRUPT_ENTRY}:1"])
    fleet, chaotic = run_fleet(
        config, FaultPlan.parse(["fleet.worker_crash:1"]))
    assert chaotic == baseline
    assert fleet.events.counts.get(eventkind.WORKER_RESPAWN, 0) >= 1
    warm_starts = fleet.events.of_kind(eventkind.WORKER_WARM_START)
    assert warm_starts, "a replacement VM must warm-start from the store"
    assert warm_starts[0].payload["sources"] >= 1
    assert warm_starts[0].payload["fragments"] >= 0


def test_fleet_initial_spawn_does_not_warm_start(tmp_path):
    from repro.exec import Supervisor

    TracingVM(_config(tmp_path)).run(LOOP_SOURCE, name="loop")
    fleet = Supervisor(config=_config(tmp_path), capture_events=True)
    fleet.run(_jobs(2))
    assert not fleet.events.of_kind(eventkind.WORKER_WARM_START)


# -- metrics and validation -------------------------------------------------------


def test_store_metrics_families(tmp_path):
    writer = TracingVM(_config(tmp_path, capture_events=True))
    writer.enable_metrics()
    writer.run(LOOP_SOURCE, name="loop")
    warm = TracingVM(_config(tmp_path, capture_events=True))
    warm.enable_metrics()
    warm.run(LOOP_SOURCE, name="loop")

    warm.metrics.collect()
    snapshot = warm.metrics.snapshot()
    by_name = {family["name"]: family
               for section in ("counters", "gauges")
               for family in snapshot[section]}
    loads = by_name["repro_store_loads_total"]
    assert any(series["labels"] == {"result": "hit"} and series["value"] == 1
               for series in loads["series"])
    assert by_name["repro_store_entries"]["series"][0]["value"] >= 1
    assert by_name["repro_store_bytes"]["series"][0]["value"] > 0
    # The failure counter exists (empty here) so dashboards can rate it.
    assert "repro_store_load_failures_total" in by_name

    writer.metrics.collect()
    writer_snapshot = writer.metrics.snapshot()
    writer_by_name = {family["name"]: family
                     for family in writer_snapshot["counters"]}
    saves = writer_by_name["repro_store_saves_total"]
    assert saves["series"] and saves["series"][0]["value"] >= 1


def test_store_load_failure_metric_by_reason(tmp_path):
    _populate(tmp_path)
    path = _entry_path(tmp_path)
    with open(path, "wb") as handle:
        handle.write(b"torn")
    vm = TracingVM(_config(tmp_path, capture_events=True))
    vm.enable_metrics()
    vm.run(LOOP_SOURCE, name="loop")
    snapshot = vm.metrics.snapshot()
    failures = next(f for f in snapshot["counters"]
                    if f["name"] == "repro_store_load_failures_total")
    assert any(series["labels"] == {"reason": "checksum-mismatch"}
               and series["value"] == 1 for series in failures["series"])


def test_validate_store_manifest(tmp_path):
    from repro.obs.validate import (ValidationError, detect_and_validate,
                                    validate_store_manifest)

    _populate(tmp_path)
    manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    assert validate_store_manifest(manifest) == 1
    assert "trace-store manifest" in detect_and_validate(manifest_path)

    broken = json.loads(json.dumps(manifest))
    broken["schema"] = 99
    with pytest.raises(ValidationError):
        validate_store_manifest(broken)
    broken = json.loads(json.dumps(manifest))
    next(iter(broken["entries"].values()))["sha256"] = "zz"
    with pytest.raises(ValidationError):
        validate_store_manifest(broken)


def test_validate_bench_warmstart():
    from repro.obs.validate import ValidationError, validate_bench_warmstart

    doc = {
        "schema": 2, "bench": "warmstart", "backend": "py", "runs": 1,
        "programs": [
            {"name": "a", "cold_seconds": 2.0, "warm_seconds": 0.5,
             "persist_seconds": 0.25, "fragments": 3},
            {"name": "b", "cold_seconds": 1.0, "warm_seconds": 0.5,
             "persist_seconds": 0.125, "fragments": 1},
        ],
        "cold_seconds": 3.0, "warm_seconds": 1.0, "persist_seconds": 0.375,
        "speedup": 3.0,
    }
    assert validate_bench_warmstart(doc) == 2

    slow = dict(doc, speedup=0.5, warm_seconds=6.0)
    slow["programs"] = [
        dict(doc["programs"][0], warm_seconds=4.0),
        dict(doc["programs"][1], warm_seconds=2.0),
    ]
    with pytest.raises(ValidationError):
        validate_bench_warmstart(slow)

    for broken in (
        dict(doc, speedup=9.0),
        dict(doc, persist_seconds=0.5),
        dict(doc, schema=1),
        dict(doc, programs=[doc["programs"][0],
                            dict(doc["programs"][1], persist_seconds=None)]),
    ):
        with pytest.raises(ValidationError):
            validate_bench_warmstart(broken)


def test_store_stats_and_warm_sources(tmp_path):
    store_dir = tmp_path / "s"
    vm = TracingVM(_config(store_dir))
    assert vm.trace_store is not None
    assert vm.trace_store.stats() == (0, 0)
    assert vm.trace_store.warm_sources() == []
    vm.run(LOOP_SOURCE, name="loop")
    vm.run(OTHER_SOURCE, name="other")
    entries, nbytes = vm.trace_store.stats()
    assert entries == 2 and nbytes > 0
    warm = vm.trace_store.warm_sources()
    assert [name for _src, name in warm] == ["loop", "other"]
    assert warm[0][0] == LOOP_SOURCE
