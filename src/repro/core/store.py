"""Crash-safe persistent trace store (cross-process warm start).

Hot traces are expensive to discover and cheap to reuse; without this
module every fresh VM — a cold batch start, and worst of all every
VM respawn in :mod:`repro.exec.supervisor` — re-records and re-compiles
the same loops.  :class:`TraceStore` persists LINKED trace trees to
disk and lets a fresh VM preload them instead of re-tracing.  The py
backend's generated Python is not stored: a warm VM builds it on first
run, as a cold VM does, so an entry does not depend on the backend.

The robustness contract is the headline, not the serialization:

* **writes are atomic** — every file (entry and manifest) is written to
  a temp name and ``os.replace``\\ d into place, with a sha256 checksum
  and size recorded in a versioned manifest;
* **loads distrust everything** — checksum, store schema version, the
  config/cost-model/class-layout fingerprint, the classes the entry
  names, and semantic sanity (code shapes, loop headers) are validated
  before anything is linked, and linking itself is transactional (an
  undo log rolls the cache/monitor back on any mid-link failure);
* **any failure degrades to cold tracing** — truncation, bit-flips,
  stale schemas, partial writes, and concurrent writers are all
  contained at the ``store.load`` / ``store.save`` firewall boundary
  with a typed ``store-fallback`` event; a corrupt cache can never
  crash, wedge, or mis-execute a worker (soundness per the
  abstract-interpretation model of tracing JITs: when in doubt about a
  persisted entry, re-trace, never trust).

The **fallback ladder** on load, from benign to contained:

1. no manifest / no entry / entry superseded — a plain miss
   (``store-load`` with ``result=miss``), no fallback event;
2. manifest unreadable, wrong schema, wrong fingerprint — refuse the
   whole store (``store-fallback`` with the reason);
3. entry checksum mismatch, unreadable pickle, a forbidden global,
   decode/sanity failure, mid-link fault — roll back, refuse the entry
   (``store-fallback``), cold-trace.

Three deterministic chaos sites drive the differential harness:
``store.corrupt_entry`` (fires mid-link at load), ``store.partial_write``
(fires between the temp write and the rename), and ``store.load_race``
(fires between the manifest read and the entry read).

**The entry format.**  An entry file is one protocol-5 pickle of a
plain dict, the *envelope*: schema, fingerprint, source, code sanity,
the monitor's global slot table, blacklist/oracle/hotness bookkeeping,
and under ``trees`` the *tree stream* as bytes.  The envelope is read
by an unpickler that admits no global at all.  The tree stream pickles
the trace trees themselves — fragments, ``NativeInsn`` code, entry type
maps, side exits with their ids, livemaps and links, and then the
tree-wide value-numbering tables — and pickle keeps the recorded
graph's sharing by construction.  It is read by an unpickler whose
``find_class`` admits only the trace classes (:data:`TRACE_CLASSES`)
and one loader hook: objects that belong to one process (code objects,
const-pool functions, natives, helpers, box singletons, loop
descriptors) travel as calls of the hook with a reference, which the
unpickler resolves in the loading VM.  Everything
needed for a preloaded VM to be byte-identical (results, simulated
cycles, stats, events modulo exit-id renumbering) to a VM that
self-traced the same program once before is in one of the two.
"""

from __future__ import annotations

import copyreg
import enum
import hashlib
import io
import itertools
import json
import operator
import os
import pickle
from typing import Dict, List, Optional, Tuple

from repro.core import events as eventkind
from repro.core import helpers
from repro.core.cache import FragmentState
from repro.core.exits import CallTreeSite, FrameSnapshot, SideExit
from repro.core.tree import Fragment, TraceTree
from repro.core.typemap import TraceType
from repro.errors import VMInternalError
from repro.hardening import faults as fault_sites
from repro.jit.native import CallSpec, NativeInsn
from repro.jit.optimizer import TreeValueState
from repro.runtime.builtins import STRING_METHODS
from repro.runtime.objects import JSArray, JSFunction, NativeFunction
from repro.runtime.values import FALSE, NULL, TRUE, UNDEFINED

#: Version of what a stored entry *means*: its on-disk format or the
#: recording rules that produced its traces.  Bump it when either
#: changes, so that an entry written before is refused, not replayed.
#: Checked on every load; carried in the manifest, every entry, and
#: folded into the config fingerprint.  2: ``+ - * -x`` specialize to
#: int only when the observed result is an int.  3: entries are
#: pickles and hold no generated Python.  4: the tree stream names
#: process-local objects through one loader hook and holds the slotted
#: trace objects as positional states.
STORE_SCHEMA = 4

MANIFEST_NAME = "manifest.json"

#: VMConfig fields that change what a compiled trace *is* (code layout,
#: costs, policy thresholds) and therefore key the store: an entry
#: written under one fingerprint is never loaded under another.
FINGERPRINT_FIELDS = (
    "hotness_threshold",
    "exit_hotness_threshold",
    "blacklist_backoff",
    "max_recording_failures",
    "max_trace_length",
    "max_inline_depth",
    "max_peer_trees",
    "max_branch_traces",
    "code_cache_budget",
    "enable_nesting",
    "enable_oracle",
    "enable_blacklisting",
    "enable_cse",
    "enable_exprsimp",
    "enable_dse",
    "enable_dce",
    "enable_softfloat",
    "enable_tree_cse",
    "enable_hoisting",
    "dispatch_cost",
)

#: The only classes a tree stream may name.  Unpickling skips
#: ``__init__`` (``TraceTree`` and ``Fragment`` run theirs from
#: ``__setstate__`` for their run-time-only fields), so each class's
#: field list is folded into the config fingerprint: every one of them
#: declares ``__slots__`` (the slotted dataclasses list their fields
#: there), and the enums contribute their values.
TRACE_CLASSES = (
    TraceTree,
    Fragment,
    SideExit,
    FrameSnapshot,
    CallTreeSite,
    NativeInsn,
    CallSpec,
    TreeValueState,
    TraceType,
    FragmentState,
)
_ALLOWED = {(cls.__module__, cls.__qualname__): cls for cls in TRACE_CLASSES}
_ALLOWED_CLASSES = frozenset(TRACE_CLASSES)

_HELPER_NAMES = (
    "ARRAY_SET",
    "ADD_PROPERTY",
    "NEW_OBJECT",
    "NEW_OBJECT_WITH_PROTO",
    "NEW_ARRAY",
    "CONCAT",
    "NUM_TO_STR_I",
    "NUM_TO_STR_D",
    "CHAR_AT",
    "BOOL_TO_STR",
)

#: Process-wide objects a trace can hold, by reference: runtime
#: helpers, string methods and their callables, the box singletons and
#: the one class a guard immediate holds.  The loader looks each up by
#: name in its own process.
_PROCESS_OBJECTS = {
    **{("helper", name): getattr(helpers, name) for name in _HELPER_NAMES},
    **{("strm", name): method for name, method in STRING_METHODS.items()},
    **{("strmfn", name): method.fn for name, method in STRING_METHODS.items()},
    ("singleton", "UNDEFINED"): UNDEFINED,
    ("singleton", "NULL"): NULL,
    ("singleton", "TRUE"): TRUE,
    ("singleton", "FALSE"): FALSE,
    ("singleton", "JSArray"): JSArray,
}
_PROCESS_REFS = {id(obj): ref for ref, obj in _PROCESS_OBJECTS.items()}


class StoreError(Exception):
    """A typed store refusal; ``reason`` labels the ``store-fallback``
    event (and the ``store_load_failures`` metric)."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _costs_fingerprint() -> str:
    """Hash of the simulated cost model: any constant change invalidates
    every persisted cycle-identical trace."""
    from repro import costs

    items = [
        (name, value)
        for name, value in sorted(vars(costs).items())
        if name.isupper() and isinstance(value, int) and not isinstance(value, bool)
    ]
    return hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()[:16]


def _layout_fingerprint() -> str:
    """Hash of the field lists of the classes a tree stream holds: an
    entry pickled before a field changed would load without it."""
    layout = [
        [
            f"{cls.__module__}.{cls.__qualname__}",
            [member.value for member in cls]
            if issubclass(cls, enum.Enum)
            else list(cls.__slots__),
        ]
        for cls in TRACE_CLASSES
    ]
    return hashlib.sha256(json.dumps(layout).encode("utf-8")).hexdigest()[:16]


def config_fingerprint(config) -> str:
    """The store key for one VM configuration: schema + the trace-shaping
    config fields + the cost model + the trace classes' layout."""
    record: Dict[str, object] = {
        "store_schema": STORE_SCHEMA,
        "costs": _costs_fingerprint(),
        "layout": _layout_fingerprint(),
    }
    for name in FINGERPRINT_FIELDS:
        record[name] = getattr(config, name)
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")
    ).hexdigest()[:32]


def enumerate_codes(root) -> List[object]:
    """Deterministic DFS over the const-pool function graph: index 0 is
    the toplevel, nested functions follow in pool order.  Both the
    writer and the loader compile the same source, so indexes agree."""
    codes: List[object] = []
    seen = set()

    def walk(code) -> None:
        if id(code) in seen:
            return
        seen.add(id(code))
        codes.append(code)
        for box in code.consts:
            payload = getattr(box, "payload", None)
            if isinstance(payload, JSFunction):
                walk(payload.code)

    walk(root)
    return codes


def _code_sanity(code) -> Dict[str, object]:
    return {
        "name": code.name,
        "n_insns": len(code.insns),
        "n_consts": len(code.consts),
        "n_loops": len(code.loops),
        "n_locals": code.n_locals,
    }


class _DeadKey:
    """A value-numbering snapshot key whose identity did not survive the
    process boundary (e.g. a per-VM native function).  Each instance is
    unique, so lookups always miss — exactly what a warm second run in
    the *same* process observes for per-VM identities."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<store-dead-key>"


def _native_sentinel(name: str) -> NativeFunction:
    """Stand-in for a per-VM native whose identity cannot be persisted.

    It only ever feeds an ``eqp`` callee guard, which *fails* against
    the warm VM's fresh native — the same miss a warm second run in one
    process observes — so the sentinel's body is unreachable; if a load
    bug ever invoked it anyway, the firewall contains the error."""

    def _stale(vm, this_box, args):
        raise VMInternalError(f"stale persisted native {name!r} invoked")

    return NativeFunction(name, _stale)


def _callable_sentinel(name: str):
    """Stand-in for a per-VM native's Python callable (a ``CallSpec``
    target), reached only behind a failing callee guard like
    :func:`_native_sentinel`; takes either FFI calling convention."""

    def _stale(*args):
        raise VMInternalError(f"stale persisted native {name!r} invoked")

    return _stale


_SENTINELS = {"native": _native_sentinel, "callable": _callable_sentinel}


# -- the tree stream ---------------------------------------------------------------


def _process_ref(*ref):
    """The tree stream's one loader hook.  A process-local object is
    pickled as a call of this function with its reference; the tree
    unpickler maps the name to its own resolver
    (:meth:`_TreeUnpickler._resolve`), so this body runs only when a
    stream is read some other way."""
    raise StoreError("decode-error", f"process reference {ref!r} outside a tree stream")


_HOOK_NAME = (_process_ref.__module__, _process_ref.__qualname__)

#: Trace classes pickled as NEWOBJ plus a BUILD state holding their slot
#: values in ``__slots__`` order (each class's ``__setstate__`` takes it
#: back); a state, not constructor arguments, because exits, fragments
#: and instructions reference one another.  The other trace classes
#: keep pickle's own reduction (``TraceTree``/``Fragment`` through their
#: ``__getstate__``).
_POSITIONAL = {
    cls: operator.attrgetter(*cls.__slots__)
    for cls in (NativeInsn, SideExit, FrameSnapshot, CallSpec, CallTreeSite)
}


class _TreePickler(pickle.Pickler):
    """Pickles trace trees.  Pickle writes plain values itself and asks
    ``reducer_override`` only about other objects it has not memoized
    yet: a trace class is written as itself, an object that belongs to
    this process as a call of the loader hook with the reference the
    loader finds it again by, and anything else refuses the save.

    The trees are dumped first; the opt_vn tables follow as a second
    object on the same pickler with ``in_key`` set, because inside a
    snapshot key an identity that cannot be named becomes a dead key
    (an always-miss) instead of a refusal.  The memo spans both dumps,
    so an object the first dump named keeps that name in the second."""

    def __init__(self, file, codes: List[object]):
        super().__init__(file, protocol=5)
        #: id -> reference: the process-wide objects, then this
        #: program's code objects, loops and const-pool functions.
        self.refs = dict(_PROCESS_REFS)
        for ci, code in enumerate(codes):
            self.refs[id(code)] = ("code", ci)
            for loop in code.loops:
                self.refs[id(loop)] = ("loop", ci, loop.header_pc)
            for ki, box in enumerate(code.consts):
                payload = getattr(box, "payload", None)
                if isinstance(payload, JSFunction):
                    self.refs.setdefault(id(payload), ("fn", ci, ki))
        self.in_key = False
        self.max_exit_id = 0

    def reducer_override(self, obj):
        ref = self.refs.get(id(obj))
        if ref is not None:
            return _process_ref, ref  # helpers are CallSpecs: refs come first
        cls = type(obj)
        slot_values = _POSITIONAL.get(cls)
        if slot_values is not None:
            if cls is SideExit and obj.exit_id > self.max_exit_id:
                self.max_exit_id = obj.exit_id
            return copyreg.__newobj__, (cls,), slot_values(obj)
        if cls in _ALLOWED_CLASSES or obj is _process_ref:
            return NotImplemented
        if isinstance(obj, type) and obj in _ALLOWED_CLASSES:
            return NotImplemented  # the class of a trace object being pickled
        if self.in_key:
            return _process_ref, ("dead",)
        if isinstance(obj, JSFunction):
            raise StoreError(
                "unencodable-const", f"JSFunction {obj.name!r} is not in a const pool"
            )
        if isinstance(obj, NativeFunction):
            # A per-VM native (Math.*, globals): only its *identity*
            # matters on trace (eqp callee guards), and that identity
            # does not survive the process boundary — persist a sentinel
            # that fails the guard, like a warm second run would.
            return _process_ref, ("native", obj.name)
        if callable(obj) and not isinstance(obj, type):
            return _process_ref, ("callable", getattr(obj, "__name__", "?"))
        raise StoreError("unencodable-const", f"cannot persist {cls.__name__}")


class _EnvelopeUnpickler(pickle.Unpickler):
    """Reads an entry's envelope, which holds plain values only."""

    def find_class(self, module, name):
        raise StoreError("forbidden-global", f"{module}.{name}")


class _TreeUnpickler(pickle.Unpickler):
    """Reads a tree stream: admits the trace classes and the loader
    hook, which it resolves in the loading VM."""

    def __init__(self, data: bytes, codes: List[object]):
        super().__init__(io.BytesIO(data))
        self.codes = codes

    def find_class(self, module, name):
        if (module, name) == _HOOK_NAME:
            return self._resolve
        cls = _ALLOWED.get((module, name))
        if cls is None:
            raise StoreError("forbidden-global", f"{module}.{name}")
        return cls

    def _resolve(self, *ref):
        try:
            return self._lookup(ref)
        except (LookupError, TypeError, ValueError, AttributeError) as error:
            raise StoreError("decode-error", f"bad process reference {ref!r}: {error}")

    def _lookup(self, ref):
        obj = _PROCESS_OBJECTS.get(ref)
        if obj is not None:
            return obj
        kind = ref[0]
        if kind == "code":
            return _item(self.codes, ref[1])
        if kind == "loop":
            loop = _item(self.codes, ref[1]).loop_at_header(ref[2])
            if loop is None:
                raise StoreError("decode-error", "tree header has no loop")
            return loop
        if kind == "fn":
            payload = _item(_item(self.codes, ref[1]).consts, ref[2]).payload
            if not isinstance(payload, JSFunction):
                raise StoreError("decode-error", "const ref is not a function")
            return payload
        if kind == "dead" and len(ref) == 1:
            return _DeadKey()
        if kind in _SENTINELS:
            (name,) = ref[1:]
            if type(name) is str:
                return _SENTINELS[kind](name)
        raise StoreError("decode-error", f"bad process reference {ref!r}")


def _item(items, index):
    """``items[index]`` for a non-negative int index only."""
    if type(index) is not int or index < 0:
        raise IndexError(f"index {index!r}")
    return items[index]


def _dump_trees(codes: List[object], trees: List[TraceTree]) -> Tuple[bytes, int]:
    """The tree stream for ``trees``, and the largest exit id in it."""
    stream = io.BytesIO()
    pickler = _TreePickler(stream, codes)
    pickler.dump(trees)
    pickler.in_key = True
    pickler.dump([tree.opt_vn for tree in trees])
    return stream.getvalue(), pickler.max_exit_id


def build_entry(vm, source: str, code, fingerprint: str) -> Tuple[dict, int, int]:
    """Everything warm-start needs for ``source``, as the envelope dict;
    returns ``(entry, resident_tree_count, resident_fragment_count)``."""
    monitor = vm.monitor
    cache = monitor.cache
    codes = enumerate_codes(code)
    code_idx = {id(c): i for i, c in enumerate(codes)}

    trees: List[TraceTree] = [
        tree
        for _key, peers in cache.items()
        for tree in peers
        if id(tree.code) in code_idx
    ]
    resident = len(trees)
    # Transitive closure over calltree references: an outer trace may
    # still call a tree that was individually invalidated; persist it
    # (non-resident, after the resident trees) so the warm machine
    # behaves like the warm process.
    tree_ids = {id(tree) for tree in trees}
    queue = list(trees)
    while queue:
        tree = queue.pop(0)
        for fragment in [tree.fragment] + tree.branches:
            for ins in fragment.native:
                if isinstance(ins.aux, CallTreeSite):
                    inner = ins.aux.tree
                    if id(inner) in tree_ids:
                        continue
                    if id(inner.code) not in code_idx:
                        raise StoreError(
                            "unencodable-aux", "calltree crosses programs"
                        )
                    tree_ids.add(id(inner))
                    trees.append(inner)
                    queue.append(inner)

    tree_stream, max_exit_id = _dump_trees(codes, trees)

    blacklist = monitor.blacklist
    blacklist_records = []
    for (cid, pc), record in blacklist.records.items():
        if cid not in code_idx:
            continue
        waiting = [
            [code_idx[wcid], wpc]
            for wcid, wpc in record.waiting_outers
            if wcid in code_idx
        ]
        blacklist_records.append(
            {
                "code": code_idx[cid],
                "pc": pc,
                "failures": record.failures,
                "backoff": record.backoff_remaining,
                "blacklisted": record.blacklisted,
                "waiting": sorted(waiting),
            }
        )
    blacklisted_headers = sorted(
        [code_idx[id(c)], pc] for c in codes for pc in c.blacklisted_headers
    )

    oracle = monitor.oracle
    oracle_locals = []
    oracle_globals = []
    for key in oracle._demoted:
        if key[0] == "local":
            if key[1] in code_idx:
                oracle_locals.append([code_idx[key[1]], key[2]])
        else:
            oracle_globals.append(key[1])

    hotness = sorted(
        [code_idx[cid], pc, count]
        for (cid, pc), count in cache._hot_counters.items()
        if cid in code_idx
    )

    entry = {
        "schema": STORE_SCHEMA,
        "fingerprint": fingerprint,
        "source_sha": source_sha(source),
        "name": code.name,
        "source": source,
        "global_names": list(monitor.global_names),
        "codes": [_code_sanity(c) for c in codes],
        # Past every id this VM handed out, aborted recordings
        # included, so a warm VM numbers new exits like this one would.
        "exit_counter": max(max_exit_id, monitor.next_exit_id - 1),
        "blacklist": blacklist_records,
        "blacklisted_headers": blacklisted_headers,
        "oracle": {
            "locals": sorted(oracle_locals),
            "globals": sorted(oracle_globals),
            "marks": oracle.marks,
        },
        "hotness": hotness,
        "resident": resident,
        "trees": tree_stream,
    }
    fragments = sum(1 + len(tree.branches) for tree in trees[:resident])
    return entry, resident, fragments


def _load_envelope(raw: bytes):
    """An entry file's envelope; an unreadable pickle is ``corrupt-entry``."""
    try:
        return _EnvelopeUnpickler(io.BytesIO(raw)).load()
    except StoreError:
        raise
    except Exception as error:
        raise StoreError("corrupt-entry", str(error))


# -- entry loading + transactional linking ----------------------------------------


class _EntryLoader:
    """Loads one entry's trees and links them into a live VM,
    transactionally: every VM/cache mutation is journaled and undone on
    any failure, so a corrupt entry (or an injected mid-link fault)
    leaves the VM exactly as cold as it started."""

    def __init__(self, vm, source: str, code, entry: dict, fingerprint: str):
        self.vm = vm
        self.source = source
        self.code = code
        self.entry = entry
        self.fingerprint = fingerprint
        self.codes: List[object] = []
        self.trees: List[TraceTree] = []
        # Undo journal.
        self._added_globals = 0
        self._linked: List[Tuple[tuple, TraceTree]] = []
        self._high_water = 0
        self._patched_headers: List[Tuple[object, int, list]] = []
        self._blacklist_saved: List[Tuple[tuple, object]] = []
        self._oracle_added: List[tuple] = []
        self._oracle_marks = 0
        self._hotness_saved: List[Tuple[tuple, Optional[int]]] = []

    # -- public -----------------------------------------------------------------

    def load(self) -> int:
        """Returns the number of fragments linked; raises StoreError (or
        an injected fault) with the VM rolled back on any failure."""
        self._validate()
        try:
            self._replay_globals()
            self._load_trees()
            fragments = self._link()
            self._replay_bookkeeping()
        except BaseException:
            self._rollback()
            raise
        # New exits recorded by the warm VM must not collide with the
        # preserved ids.
        monitor = self.vm.monitor
        monitor.next_exit_id = max(
            monitor.next_exit_id, self.entry["exit_counter"] + 1
        )
        return fragments

    # -- validation ---------------------------------------------------------------

    def _validate(self) -> None:
        entry = self.entry
        if not isinstance(entry, dict):
            raise StoreError("corrupt-entry", "entry is not an object")
        if entry.get("schema") != STORE_SCHEMA:
            raise StoreError(
                "schema-mismatch", f"entry schema {entry.get('schema')!r}"
            )
        if entry.get("fingerprint") != self.fingerprint:
            raise StoreError("fingerprint-mismatch", "entry fingerprint")
        if entry.get("source") != self.source:
            raise StoreError("source-mismatch", "entry source text differs")
        self.codes = enumerate_codes(self.code)
        sanity = entry.get("codes")
        if not isinstance(sanity, list) or len(sanity) != len(self.codes):
            raise StoreError("code-mismatch", "function count differs")
        for code, record in zip(self.codes, sanity):
            if _code_sanity(code) != record:
                raise StoreError("code-mismatch", code.name)

    # -- monitor global slot table -------------------------------------------------

    def _replay_globals(self) -> None:
        monitor = self.vm.monitor
        for index, name in enumerate(self.entry["global_names"]):
            existing = monitor.global_slot_of.get(name)
            if existing is None:
                if len(monitor.global_names) != index:
                    raise StoreError("global-table-conflict", name)
                monitor.global_slot_of[name] = index
                monitor.global_names.append(name)
                self._added_globals += 1
            elif existing != index:
                raise StoreError("global-table-conflict", name)

    # -- the tree stream ------------------------------------------------------------

    def _load_trees(self) -> None:
        unpickler = _TreeUnpickler(self.entry["trees"], self.codes)
        try:
            trees = unpickler.load()
            opt_vns = unpickler.load()
        except StoreError:
            raise
        except Exception as error:
            raise StoreError("corrupt-entry", f"tree stream: {error}")
        if (
            not isinstance(trees, list)
            or not isinstance(opt_vns, list)
            or len(opt_vns) != len(trees)
            or not all(type(tree) is TraceTree for tree in trees)
        ):
            raise StoreError("decode-error", "tree stream is not a tree list")
        for tree, opt_vn in zip(trees, opt_vns):
            if opt_vn is not None and type(opt_vn) is not TreeValueState:
                raise StoreError("decode-error", "opt_vn is not a value state")
            tree.opt_vn = opt_vn
        self.trees = trees

    # -- linking + bookkeeping -------------------------------------------------------

    def _link(self) -> int:
        vm = self.vm
        cache = vm.monitor.cache
        self._high_water = cache.code_size_high_water
        fragments = 0
        fired = False
        for tree in self.trees[: self.entry["resident"]]:
            key = cache.key(tree.code, tree.header_pc)
            cache._trees.setdefault(key, []).append(tree)
            cache._code_refs.append(tree.code)
            cache.code_size_used += tree.code_size_total
            if cache.code_size_used > cache.code_size_high_water:
                cache.code_size_high_water = cache.code_size_used
            self._linked.append((key, tree))
            fragments += 1 + len(tree.branches)
            if not fired and vm.faults is not None:
                fired = True
                vm.faults.fire(fault_sites.STORE_CORRUPT_ENTRY)
        if not fired and vm.faults is not None:
            vm.faults.fire(fault_sites.STORE_CORRUPT_ENTRY)
        return fragments

    def _replay_bookkeeping(self) -> None:
        monitor = self.vm.monitor
        cache = monitor.cache
        for ci, pc in self.entry["blacklisted_headers"]:
            code = self.codes[ci]
            if pc in code.blacklisted_headers:
                continue
            saved = list(code.insns[pc])
            code.blacklist_header(pc)
            self._patched_headers.append((code, pc, saved))
        blacklist = monitor.blacklist
        for record in self.entry["blacklist"]:
            code = self.codes[record["code"]]
            key = blacklist.key(code, record["pc"])
            self._blacklist_saved.append((key, blacklist.records.get(key)))
            fresh = blacklist.record_for(code, record["pc"])
            fresh.failures = record["failures"]
            fresh.backoff_remaining = record["backoff"]
            fresh.blacklisted = record["blacklisted"]
            fresh.waiting_outers = {
                (id(self.codes[wci]), wpc) for wci, wpc in record["waiting"]
            }
        oracle = monitor.oracle
        self._oracle_marks = oracle.marks
        for ci, index in self.entry["oracle"]["locals"]:
            key = ("local", id(self.codes[ci]), index)
            if key not in oracle._demoted:
                oracle._demoted.add(key)
                self._oracle_added.append(key)
        for name in self.entry["oracle"]["globals"]:
            key = ("global", name)
            if key not in oracle._demoted:
                oracle._demoted.add(key)
                self._oracle_added.append(key)
        oracle.marks = max(oracle.marks, self.entry["oracle"]["marks"])
        for ci, pc, count in self.entry["hotness"]:
            key = (id(self.codes[ci]), pc)
            self._hotness_saved.append((key, cache._hot_counters.get(key)))
            cache._hot_counters[key] = count

    # -- rollback --------------------------------------------------------------------

    def _rollback(self) -> None:
        vm = self.vm
        monitor = vm.monitor
        cache = monitor.cache
        for key, old_count in reversed(self._hotness_saved):
            if old_count is None:
                cache._hot_counters.pop(key, None)
            else:
                cache._hot_counters[key] = old_count
        oracle = monitor.oracle
        for key in self._oracle_added:
            oracle._demoted.discard(key)
        if self._oracle_added or oracle.marks != self._oracle_marks:
            oracle.marks = self._oracle_marks
        blacklist = monitor.blacklist
        for key, old_record in reversed(self._blacklist_saved):
            if old_record is None:
                blacklist.records.pop(key, None)
            else:
                blacklist.records[key] = old_record
        for code, pc, saved in reversed(self._patched_headers):
            code.insns[pc][0] = saved[0]
            code.insns[pc][1] = saved[1]
            code.blacklisted_headers.discard(pc)
        for key, tree in reversed(self._linked):
            peers = cache._trees.get(key)
            if peers is not None and tree in peers:
                peers.remove(tree)
                if not peers:
                    del cache._trees[key]
            cache.code_size_used -= tree.code_size_total
            for index in range(len(cache._code_refs) - 1, -1, -1):
                if cache._code_refs[index] is tree.code:
                    del cache._code_refs[index]
                    break
        cache.code_size_high_water = max(
            self._high_water, cache.code_size_used
        )
        globals_table = monitor.global_names
        for _ in range(self._added_globals):
            name = globals_table.pop()
            monitor.global_slot_of.pop(name, None)


# -- the store ---------------------------------------------------------------------


class TraceStore:
    """One on-disk trace store directory (manifest + entry files).

    All public methods are contained: they never raise into the caller
    (unless the JIT firewall is explicitly disabled, where injected
    faults must escape like at every other site)."""

    def __init__(self, root: str, config, budget: int = 0):
        self.root = root
        self.budget = budget
        self.fingerprint = config_fingerprint(config)
        #: id(code) -> source sha, for the cache's supersede hooks.
        self._bound: Dict[int, str] = {}
        self._bound_codes: List[object] = []
        self._temp_seq = itertools.count(1)

    # -- paths and files -----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _entry_name(self, sha: str) -> str:
        return f"e-{sha}.pickle"

    def _atomic_write(self, path: str, data: bytes, vm=None, site=None) -> None:
        temp = f"{path}.tmp.{os.getpid()}.{next(self._temp_seq)}"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if site is not None and vm is not None and vm.faults is not None:
            # A writer dying here leaves a stray temp file and an
            # untouched manifest — the crash window the rename closes.
            vm.faults.fire(site)
        os.replace(temp, path)

    def _fresh_manifest(self) -> dict:
        return {
            "schema": STORE_SCHEMA,
            "fingerprint": self.fingerprint,
            "generation": 0,
            "entries": {},
        }

    def _read_manifest_strict(self) -> Optional[dict]:
        """For loads: None = no store here (a plain miss); any other
        problem is a typed refusal of the whole store."""
        path = self._manifest_path()
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                doc = json.loads(handle.read().decode("utf-8"))
        except Exception as error:
            raise StoreError("manifest-corrupt", str(error))
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            raise StoreError("manifest-corrupt", "missing fields")
        if doc.get("schema") != STORE_SCHEMA:
            raise StoreError(
                "schema-mismatch", f"manifest schema {doc.get('schema')!r}"
            )
        if doc.get("fingerprint") != self.fingerprint:
            raise StoreError("fingerprint-mismatch", "manifest fingerprint")
        return doc

    def _read_manifest_for_save(self) -> dict:
        """For saves: an unreadable or incompatible manifest means the
        store belongs to another configuration (or is wrecked) — the
        documented behavior is to reinitialize it for this config."""
        try:
            manifest = self._read_manifest_strict()
        except StoreError:
            manifest = None
            self._clear_entry_files()
        if manifest is None:
            manifest = self._fresh_manifest()
        return manifest

    def _clear_entry_files(self) -> None:
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if name.startswith("e-"):
                try:
                    os.remove(os.path.join(self.root, name))
                except OSError:
                    pass

    # -- containment ----------------------------------------------------------------

    def _contain(self, vm, boundary: str, error: BaseException, source_name) -> None:
        """The ``store.*`` firewall boundary: like pycompile, a store
        failure costs only performance (the VM cold-traces), so no
        safe-mode strike — emit the typed events, record the trip,
        re-raise only when the firewall is disabled."""
        firewall = vm.firewall
        if not firewall.enabled:
            raise error
        firewall.report(boundary, error, source_name, None, trip="store")
        vm.events.emit(
            eventkind.STORE_FALLBACK,
            boundary=boundary,
            reason=getattr(error, "reason", None) or type(error).__name__,
            source=source_name,
        )

    # -- load -----------------------------------------------------------------------

    def preload(self, vm, source: str, code) -> bool:
        """Link this source's persisted traces into a live VM.

        ``code`` is freshly compiled, so no tree of ``vm`` is keyed on
        it yet; every caller preloads a source right after compiling
        it.  Returns True on a hit.  Misses emit ``store-load`` with
        ``result=miss``; refusals/corruption emit ``store-fallback``
        and leave the VM fully cold (transactional rollback)."""
        if vm.monitor is None:
            return False
        try:
            fragments = self._load(vm, source, code)
        except Exception as error:
            self._contain(vm, "store.load", error, code.name)
            return False
        if fragments is None:
            vm.events.emit(
                eventkind.STORE_LOAD, source=code.name, result="miss", fragments=0
            )
            return False
        vm.events.emit(
            eventkind.STORE_LOAD,
            source=code.name,
            result="hit",
            fragments=fragments,
        )
        return True

    def _load(self, vm, source: str, code) -> Optional[int]:
        sha = source_sha(source)
        manifest = self._read_manifest_strict()
        if manifest is None:
            return None
        record = manifest["entries"].get(sha)
        if not isinstance(record, dict) or record.get("superseded"):
            return None
        if vm.faults is not None:
            # A concurrent writer may swap manifest/entry between these
            # two reads; the checksum below catches the torn state.
            vm.faults.fire(fault_sites.STORE_LOAD_RACE)
        path = os.path.join(self.root, str(record.get("file", "")))
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise StoreError("entry-missing", str(error))
        if len(raw) != record.get("size") or hashlib.sha256(
            raw
        ).hexdigest() != record.get("sha256"):
            raise StoreError("checksum-mismatch", os.path.basename(path))
        entry = _load_envelope(raw)
        fragments = _EntryLoader(vm, source, code, entry, self.fingerprint).load()
        self._bind(code, sha)
        return fragments

    # -- save -----------------------------------------------------------------------

    def persist(self, vm, source: str, code) -> bool:
        """Write this source's current trace state; returns True when an
        entry was written (False: skip-if-unchanged, or contained
        failure)."""
        if vm.monitor is None or code is None:
            return False
        try:
            outcome = self._save(vm, source, code)
        except Exception as error:
            self._contain(vm, "store.save", error, code.name)
            return False
        if outcome is None:
            return False
        trees, fragments, nbytes, evicted = outcome
        vm.events.emit(
            eventkind.STORE_SAVE,
            source=code.name,
            trees=trees,
            fragments=fragments,
            bytes=nbytes,
            evicted=evicted,
        )
        return True

    def _save(self, vm, source: str, code):
        sha = source_sha(source)
        entry, trees, fragments = build_entry(vm, source, code, self.fingerprint)
        data = pickle.dumps(entry, protocol=5)
        digest = hashlib.sha256(data).hexdigest()
        os.makedirs(self.root, exist_ok=True)
        manifest = self._read_manifest_for_save()
        self._bind(code, sha)
        existing = manifest["entries"].get(sha)
        if (
            isinstance(existing, dict)
            and existing.get("sha256") == digest
            and not existing.get("superseded")
        ):
            return None  # unchanged since the last save
        filename = self._entry_name(sha)
        self._atomic_write(
            os.path.join(self.root, filename),
            data,
            vm=vm,
            site=fault_sites.STORE_PARTIAL_WRITE,
        )
        generation = int(manifest.get("generation", 0)) + 1
        manifest["generation"] = generation
        manifest["entries"][sha] = {
            "file": filename,
            "sha256": digest,
            "size": len(data),
            "generation": generation,
            "superseded": False,
        }
        evicted = self._evict(manifest, keep=sha)
        self._atomic_write(
            self._manifest_path(),
            json.dumps(manifest, separators=(",", ":")).encode("utf-8"),
        )
        return trees, fragments, len(data), evicted

    def _evict(self, manifest: dict, keep: str) -> int:
        """Oldest-manifest-generation first (superseded entries before
        live ones), never the entry just written."""
        if self.budget <= 0:
            return 0
        entries = manifest["entries"]
        total = sum(int(rec.get("size", 0)) for rec in entries.values())
        victims = sorted(
            (sha for sha in entries if sha != keep),
            key=lambda sha: (
                not entries[sha].get("superseded", False),
                int(entries[sha].get("generation", 0)),
            ),
        )
        evicted = 0
        for sha in victims:
            if total <= self.budget:
                break
            record = entries.pop(sha)
            total -= int(record.get("size", 0))
            try:
                os.remove(os.path.join(self.root, str(record.get("file", ""))))
            except OSError:
                pass
            evicted += 1
        return evicted

    # -- supersede hooks (TraceCache) ------------------------------------------------

    def _bind(self, code, sha: str) -> None:
        if id(code) not in self._bound:
            self._bound_codes.append(code)
        self._bound[id(code)] = sha

    def note_invalidated(self, code) -> None:
        """A header of ``code`` was invalidated for cause: mark its
        persisted entry superseded so a later warm start cannot
        resurrect the retired fragments.  Best-effort: store trouble
        must never break cache maintenance."""
        sha = self._bound.get(id(code))
        if sha is None:
            return
        try:
            self._supersede([sha])
        except Exception:
            pass

    def note_flushed(self) -> None:
        """The whole cache was flushed: supersede every entry this VM
        has loaded or saved."""
        try:
            self._supersede(sorted(set(self._bound.values())))
        except Exception:
            pass

    def _supersede(self, shas) -> None:
        try:
            manifest = self._read_manifest_strict()
        except StoreError:
            return
        if manifest is None:
            return
        changed = False
        for sha in shas:
            record = manifest["entries"].get(sha)
            if isinstance(record, dict) and not record.get("superseded"):
                record["superseded"] = True
                changed = True
        if changed:
            self._atomic_write(
                self._manifest_path(),
                json.dumps(manifest, separators=(",", ":")).encode("utf-8"),
            )

    # -- enumeration (fleet warm start, metrics) --------------------------------------

    def warm_sources(self) -> List[Tuple[str, str]]:
        """``(source_text, program_name)`` for every live entry, oldest
        generation first; contained (any trouble yields ``[]``)."""
        try:
            manifest = self._read_manifest_strict()
        except StoreError:
            return []
        if manifest is None:
            return []
        out = []
        records = sorted(
            manifest["entries"].values(),
            key=lambda rec: int(rec.get("generation", 0))
            if isinstance(rec, dict)
            else 0,
        )
        for record in records:
            if not isinstance(record, dict) or record.get("superseded"):
                continue
            path = os.path.join(self.root, str(record.get("file", "")))
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
                if hashlib.sha256(raw).hexdigest() != record.get("sha256"):
                    continue
                entry = _load_envelope(raw)
                source = entry["source"]
                name = entry.get("name", "<program>")
            except Exception:
                continue
            out.append((source, name))
        return out

    def stats(self) -> Tuple[int, int]:
        """(live entries, total entry bytes) — for the metrics gauges;
        contained (trouble reads as an empty store)."""
        try:
            manifest = self._read_manifest_strict()
        except StoreError:
            return (0, 0)
        if manifest is None:
            return (0, 0)
        entries = 0
        nbytes = 0
        for record in manifest["entries"].values():
            if isinstance(record, dict) and not record.get("superseded"):
                entries += 1
                nbytes += int(record.get("size", 0))
        return (entries, nbytes)
