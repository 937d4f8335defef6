"""Crash-safe persistent trace store (cross-process warm start).

Hot traces are expensive to discover and cheap to reuse; without this
module every fresh VM — a cold fleet start, and worst of all every
watchdog respawn in :mod:`repro.exec.fleet` — re-records, re-compiles,
and re-pycompiles the same loops.  :class:`TraceStore` persists LINKED
trace trees to disk and lets a fresh VM preload them, re-``compile()``\\
ing cached pycompile source instead of re-tracing.

The robustness contract is the headline, not the serialization:

* **writes are atomic** — every file (entry and manifest) is written to
  a temp name and ``os.replace``\\ d into place, with a sha256 checksum
  and size recorded in a versioned manifest;
* **loads distrust everything** — checksum, store schema version, the
  config/cost-model fingerprint, and semantic sanity (code shapes, loop
  headers, re-emitted pycompile source) are validated before anything
  is linked, and linking itself is transactional (an undo log rolls the
  cache/monitor back on any mid-link failure);
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
3. entry checksum mismatch, JSON corruption, decode/sanity failure,
   mid-link fault — roll back, refuse the entry (``store-fallback``),
   cold-trace.

Three deterministic chaos sites drive the differential harness:
``store.corrupt_entry`` (fires mid-link at load), ``store.partial_write``
(fires between the temp write and the rename), and ``store.load_race``
(fires between the manifest read and the entry read).

What an entry carries, beyond the fragments' ``NativeInsn`` code:
entry type maps, guard/exit layout (with preserved exit ids), the
tree-wide value-numbering snapshots, the pycompile Python source text,
the monitor's global slot table, blacklist/oracle/hotness bookkeeping —
everything needed for a preloaded VM to be byte-identical (results,
simulated cycles, stats, events modulo exit-id renumbering) to a VM
that self-traced the same program once before.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.core import events as eventkind
from repro.core import exits as exitmod
from repro.core import helpers
from repro.core.cache import FragmentState
from repro.core.exits import ExitEvent, FrameSnapshot, SideExit
from repro.core.tree import Fragment, TraceTree
from repro.core.typemap import TraceType
from repro.errors import VMInternalError
from repro.hardening import faults as fault_sites
from repro.jit.native import CallSpec, NativeInsn
from repro.jit.optimizer import TreeValueState
from repro.jit.pycompile import emit_fragment
from repro.runtime.builtins import STRING_METHODS
from repro.runtime.objects import JSArray, JSFunction, NativeFunction
from repro.runtime.values import FALSE, NULL, TRUE, UNDEFINED

#: On-disk format version, checked on every load; carried in the
#: manifest, every entry, and folded into the config fingerprint.
STORE_SCHEMA = 1

MANIFEST_NAME = "manifest.json"

#: VMConfig fields that change what a compiled trace *is* (code layout,
#: costs, policy thresholds) and therefore key the store: an entry
#: written under one fingerprint is never loaded under another.
FINGERPRINT_FIELDS = (
    "opt_level",
    "native_backend",
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
    "enable_stitching",
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
_HELPER_SPECS = {name: getattr(helpers, name) for name in _HELPER_NAMES}
_HELPER_NAME_OF = {id(spec): name for name, spec in _HELPER_SPECS.items()}

_STRMETHOD_NAME_OF = {id(fn): name for name, fn in STRING_METHODS.items()}
_STRMETHOD_FN_NAME_OF = {id(fn.fn): name for name, fn in STRING_METHODS.items()}

_BOX_SINGLETONS = {
    "UNDEFINED": UNDEFINED,
    "NULL": NULL,
    "TRUE": TRUE,
    "FALSE": FALSE,
}
_BOX_SINGLETON_NAME_OF = {id(box): name for name, box in _BOX_SINGLETONS.items()}


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


def config_fingerprint(config) -> str:
    """The store key for one VM configuration: schema + the trace-shaping
    config fields + the cost model."""
    record: Dict[str, object] = {
        "store_schema": STORE_SCHEMA,
        "costs": _costs_fingerprint(),
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
    process observes — so the sentinel's body is unreachable; if a decode
    bug ever invoked it anyway, the firewall contains the error."""

    def _stale(vm, this_box, args):
        raise VMInternalError(f"stale persisted native {name!r} invoked")

    return NativeFunction(name, _stale)


def _typed_sentinel(name: str):
    def _stale(*args):
        raise VMInternalError(f"stale persisted typed native {name!r} invoked")

    return _stale


def _boxed_sentinel(name: str):
    def _stale(vm, this_box, args):
        raise VMInternalError(f"stale persisted boxed native {name!r} invoked")

    return _stale


# -- value encoding ----------------------------------------------------------------
#
# JSON-scalar values pass through; everything else is a tagged dict.
# ``in_key`` marks opt_vn snapshot keys, where an unencodable identity
# becomes a dead key (always-miss) instead of a refusal.
#
# Identity is part of the format: pycompile's constant pool dedupes by
# ``id()``, so two insns sharing one object must decode to two insns
# sharing one object or the re-emitted source (and hence the decode-
# fidelity check) diverges.  Every non-scalar value is therefore
# memoized — its first occurrence carries a serial (``"i"``), repeats
# encode as ``{"k": "ref", "v": serial}`` — which reproduces the
# writer's exact sharing graph in the loaded fragments.


class _Encoder:
    def __init__(self, codes: List[object], trees: List[object]):
        self.code_idx = {id(code): index for index, code in enumerate(codes)}
        self.tree_idx = {id(tree): index for index, tree in enumerate(trees)}
        self.fn_const: Dict[int, Tuple[int, int]] = {}
        for ci, code in enumerate(codes):
            for ki, box in enumerate(code.consts):
                payload = getattr(box, "payload", None)
                if isinstance(payload, JSFunction):
                    self.fn_const.setdefault(id(payload), (ci, ki))
        self._memo: Dict[int, int] = {}
        self._memo_keep: List[object] = []  # pin ids against reuse
        self._serial = itertools.count()

    def _memoize(self, value, record: dict) -> dict:
        serial = next(self._serial)
        record["i"] = serial
        self._memo[id(value)] = serial
        self._memo_keep.append(value)
        return record

    def value(self, value, in_key: bool = False):
        if value is None or value is True or value is False:
            return value
        if isinstance(value, int):
            return value
        serial = self._memo.get(id(value))
        if serial is not None:
            return {"k": "ref", "v": serial}
        if isinstance(value, str):
            return self._memoize(value, {"k": "s", "v": value})
        if isinstance(value, float):
            return self._memoize(value, {"k": "f", "v": repr(value)})
        if isinstance(value, tuple):
            return self._memoize(
                value, {"k": "t", "v": [self.value(item, in_key) for item in value]}
            )
        if isinstance(value, TraceType):
            return {"k": "ty", "v": value.name}
        if value is JSArray:
            return {"k": "cls", "v": "JSArray"}
        name = _BOX_SINGLETON_NAME_OF.get(id(value))
        if name is not None:
            return {"k": "box", "v": name}
        if isinstance(value, JSFunction):
            ref = self.fn_const.get(id(value))
            if ref is None:
                if in_key:
                    return self._memoize(value, {"k": "dead"})
                raise StoreError(
                    "unencodable-const",
                    f"JSFunction {value.name!r} is not in a const pool",
                )
            return {"k": "fn", "v": [ref[0], ref[1]]}
        if isinstance(value, NativeFunction):
            name = _STRMETHOD_NAME_OF.get(id(value))
            if name is not None:
                return {"k": "strm", "v": name}
            if in_key:
                return self._memoize(value, {"k": "dead"})
            # A per-VM native (Math.*, globals): only its *identity*
            # matters on trace (eqp callee guards), and that identity
            # does not survive the process boundary — persist a sentinel
            # that fails the guard, like a warm second run would.
            return self._memoize(value, {"k": "nsent", "v": value.name})
        if isinstance(value, CallSpec):
            return self.spec(value)
        from repro.core.exits import CallTreeSite

        if isinstance(value, CallTreeSite):
            return self.site(value)
        if in_key:
            return self._memoize(value, {"k": "dead"})
        raise StoreError(
            "unencodable-const", f"cannot persist {type(value).__name__}"
        )

    def spec(self, spec: CallSpec):
        helper = _HELPER_NAME_OF.get(id(spec))
        if helper is not None:
            return {"k": "spec", "helper": helper}
        # The callable is memoized separately from the spec: distinct
        # specs can share one fn, and that sharing reaches the pool.
        fn_serial = self._memo.get(id(spec.fn))
        if fn_serial is not None:
            fn = {"k": "ref", "v": fn_serial}
        elif spec.kind == "boxed" and id(spec.fn) in _STRMETHOD_FN_NAME_OF:
            fn = ["strm", _STRMETHOD_FN_NAME_OF[id(spec.fn)]]
        else:
            fn = self._memoize(
                spec.fn, {"k": "sentfn", "v": spec.name, "kind": spec.kind}
            )
        return self._memoize(
            spec,
            {
                "k": "spec",
                "kind": spec.kind,
                "name": spec.name,
                "fn": fn,
                "arg_types": [self.value(t) for t in spec.arg_types],
                "this_type": self.value(spec.this_type),
                "result_type": spec.result_type,
                "cost": spec.cost,
                "pure": spec.pure,
                "accesses_state": spec.accesses_state,
            },
        )

    def site(self, site):
        index = self.tree_idx.get(id(site.tree))
        if index is None:
            raise StoreError(
                "unencodable-aux", "calltree target tree is not persisted"
            )
        return self._memoize(
            site,
            {
                "k": "site",
                "tree": index,
                "depth": site.depth,
                "map": [[inner, outer] for inner, outer in site.local_mapping],
                "expected": site.expected_exit_id,
            },
        )


class _Decoder:
    def __init__(self, codes: List[object], trees: List[object]):
        self.codes = codes
        self.trees = trees
        #: serial -> decoded object (reproduces the writer's sharing).
        self.table: Dict[int, object] = {}

    def value(self, rec, in_key: bool = False):
        if rec is None or isinstance(rec, (bool, int, str)):
            return rec
        if not isinstance(rec, dict):
            raise StoreError("decode-error", f"bad value record {rec!r}")
        kind = rec.get("k")
        if kind == "ref":
            try:
                return self.table[rec["v"]]
            except KeyError:
                raise StoreError("decode-error", f"dangling ref {rec['v']!r}")
        obj = self._fresh(rec, kind, in_key)
        serial = rec.get("i")
        if serial is not None:
            self.table[serial] = obj
        return obj

    def _fresh(self, rec, kind, in_key: bool):
        if kind == "s":
            return str(rec["v"])
        if kind == "f":
            return float(rec["v"])
        if kind == "t":
            return tuple(self.value(item, in_key) for item in rec["v"])
        if kind == "ty":
            return TraceType[rec["v"]]
        if kind == "cls":
            if rec["v"] != "JSArray":
                raise StoreError("decode-error", f"unknown class {rec['v']!r}")
            return JSArray
        if kind == "box":
            return _BOX_SINGLETONS[rec["v"]]
        if kind == "fn":
            ci, ki = rec["v"]
            try:
                payload = self.codes[ci].consts[ki].payload
            except (IndexError, TypeError) as error:
                raise StoreError("decode-error", f"bad const ref: {error}")
            if not isinstance(payload, JSFunction):
                raise StoreError("decode-error", "const ref is not a function")
            return payload
        if kind == "strm":
            method = STRING_METHODS.get(rec["v"])
            if method is None:
                raise StoreError(
                    "decode-error", f"unknown string method {rec['v']!r}"
                )
            return method
        if kind == "nsent":
            return _native_sentinel(rec["v"])
        if kind == "sentfn":
            if rec["kind"] == "typed":
                return _typed_sentinel(rec["v"])
            return _boxed_sentinel(rec["v"])
        if kind == "dead":
            return _DeadKey()
        if kind == "spec":
            return self.spec(rec)
        if kind == "site":
            return self.site(rec)
        raise StoreError("decode-error", f"unknown value tag {kind!r}")

    def spec(self, rec):
        helper = rec.get("helper")
        if helper is not None:
            spec = _HELPER_SPECS.get(helper)
            if spec is None:
                raise StoreError("decode-error", f"unknown helper {helper!r}")
            return spec
        fn_rec = rec["fn"]
        if isinstance(fn_rec, dict):
            fn = self.value(fn_rec)
        else:
            fn_kind, fn_name = fn_rec
            if fn_kind != "strm":
                raise StoreError("decode-error", f"bad fn record {fn_rec!r}")
            method = STRING_METHODS.get(fn_name)
            if method is None:
                raise StoreError(
                    "decode-error", f"unknown string method {fn_name!r}"
                )
            fn = method.fn
        return CallSpec(
            kind=rec["kind"],
            name=rec["name"],
            fn=fn,
            arg_types=tuple(self.value(t) for t in rec["arg_types"]),
            this_type=self.value(rec["this_type"]),
            result_type=rec["result_type"],
            cost=rec["cost"],
            pure=rec["pure"],
            accesses_state=rec["accesses_state"],
        )

    def site(self, rec):
        from repro.core.exits import CallTreeSite

        try:
            tree = self.trees[rec["tree"]]
        except IndexError:
            raise StoreError("decode-error", "bad calltree tree index")
        return CallTreeSite(
            tree=tree,
            depth=rec["depth"],
            local_mapping=tuple(
                (inner, outer) for inner, outer in rec["map"]
            ),
            expected_exit_id=rec["expected"],
        )


# -- entry encoding ----------------------------------------------------------------


def _enc_insn(enc: _Encoder, ins: NativeInsn) -> dict:
    rec: Dict[str, object] = {"op": ins.op}
    if ins.dst is not None:
        rec["dst"] = ins.dst
    if ins.a is not None:
        rec["a"] = ins.a
    if ins.b is not None:
        rec["b"] = ins.b
    if ins.c is not None:
        rec["c"] = ins.c
    if ins.imm is not None:
        rec["imm"] = enc.value(ins.imm)
    if ins.exit is not None:
        rec["exit"] = ins.exit.exit_id
    if ins.aux is not None and ins.op != "jtree":
        # jtree's aux is a debugging breadcrumb the machine never reads;
        # its identity (a LIns) is not portable.
        rec["aux"] = enc.value(ins.aux)
    if ins.srcs is not None:
        rec["srcs"] = list(ins.srcs)
    return rec


def _enc_exit(enc: _Encoder, exit: SideExit, frag_idx: Dict[int, int], indexed: bool) -> dict:
    frames = []
    for frame in exit.frames:
        ci = enc.code_idx.get(id(frame.code))
        if ci is None:
            raise StoreError("unencodable-const", "frame code outside program")
        frames.append([ci, frame.resume_pc, frame.stack_depth])
    rec: Dict[str, object] = {
        "id": exit.exit_id,
        "kind": exit.kind,
        "pc": exit.pc,
        "frames": frames,
        "sd0": exit.stack_depth0,
        "arpc": exit.anchor_resume_pc,
        "live": [
            [enc.value(loc), trace_type.name, slot]
            for loc, trace_type, slot in exit.livemap
        ],
        "progress": exit.bytecode_progress,
        "hits": exit.hit_count,
        "blocked": exit.recording_blocked,
        "indexed": indexed,
    }
    if exit.result_loc is not None:
        rec["result_loc"] = enc.value(tuple(exit.result_loc))
    if exit.branch_result_type is not None:
        rec["brt"] = exit.branch_result_type.name
    if exit.fragment is not None and id(exit.fragment) in frag_idx:
        rec["frag"] = frag_idx[id(exit.fragment)]
    if exit.target is not None:
        target = frag_idx.get(id(exit.target))
        if target is None:
            raise StoreError("unencodable-aux", "exit target outside its tree")
        rec["target"] = target
    return rec


def _enc_key(enc: _Encoder, key) -> object:
    return enc.value(key, in_key=True)


def _enc_opt_vn(enc: _Encoder, tvs: TreeValueState) -> dict:
    # Peeking at the counter consumes one number from the *writer's*
    # state only; the reference for warm-start equivalence is a VM that
    # never saved, whose counter sits exactly at this value.
    counter = next(tvs.counter)
    snapshots = []
    for exit_id, snap in tvs.snapshots.items():
        snapshots.append(
            [
                exit_id,
                {
                    "pure": [[_enc_key(enc, k), v] for k, v in snap["pure"].items()],
                    "load": [[_enc_key(enc, k), v] for k, v in snap["load"].items()],
                    "guard": [_enc_key(enc, k) for k in snap["guard"]],
                    "true": sorted(snap["true"]),
                    "false": sorted(snap["false"]),
                    "slots": [
                        [slot, vn, tchar]
                        for slot, (vn, tchar) in snap["slots"].items()
                    ],
                },
            ]
        )
    return {"counter": counter, "snapshots": snapshots}


def _enc_fragment(enc: _Encoder, fragment: Fragment) -> dict:
    try:
        py_source, _consts = emit_fragment(fragment)
    except Exception:
        # Emission fails identically at runtime; the warm VM will latch
        # py_failed through the pycompile boundary, same as a cold one.
        py_source = None
    anchor = fragment.anchor_exit
    return {
        "kind": fragment.kind,
        "state": fragment.state.value,
        "anchor": anchor.exit_id if anchor is not None else None,
        "native": [_enc_insn(enc, ins) for ins in fragment.native],
        "bytecount": fragment.bytecount,
        "code_size": fragment.code_size,
        "spill_base": fragment.spill_base,
        "n_spills": fragment.n_spills,
        "loop_start": fragment.loop_start,
        "lir_loop_start": fragment.lir_loop_start,
        "py_failed": fragment.py_failed,
        "py_compiled": fragment.py_func is not None,
        "py_source": py_source,
    }


def _enc_tree(enc: _Encoder, tree: TraceTree, resident: bool) -> dict:
    # The identity memo makes encode order part of the format: encode
    # the tree's pieces in exactly the order the loader decodes them
    # (typemap, imports, slot layout, exits, root, branches, opt_vn) so
    # every ref points backwards.
    ci = enc.code_idx.get(id(tree.code))
    if ci is None:
        raise StoreError("unencodable-const", "tree code outside program")
    entry_typemap = [
        [enc.value(loc), trace_type.name]
        for loc, trace_type in tree.entry_typemap
    ]
    global_imports = [
        [name, gslot, trace_type.name]
        for name, gslot, trace_type in tree.global_imports
    ]
    slot_of_loc = [
        [enc.value(loc), slot] for loc, slot in tree.slot_of_loc.items()
    ]
    fragments = [tree.fragment] + list(tree.branches)
    frag_idx = {id(fragment): index for index, fragment in enumerate(fragments)}
    exit_records = []
    seen = set()
    for exit in tree.exits_by_id.values():
        exit_records.append(_enc_exit(enc, exit, frag_idx, indexed=True))
        seen.add(id(exit))
    extras = [tree.entry_exit] + [f.anchor_exit for f in fragments]
    extras.extend(tree.unstable_exits)
    for fragment in fragments:
        extras.extend(ins.exit for ins in fragment.native if ins.exit is not None)
    for exit in extras:
        if exit is not None and id(exit) not in seen:
            exit_records.append(_enc_exit(enc, exit, frag_idx, indexed=False))
            seen.add(id(exit))
    root = _enc_fragment(enc, tree.fragment)
    branches = [_enc_fragment(enc, branch) for branch in tree.branches]
    return {
        "code": ci,
        "header_pc": tree.header_pc,
        "resident": resident,
        "entry_typemap": entry_typemap,
        "global_imports": global_imports,
        "written_globals": sorted(tree.written_globals),
        "slot_of_loc": slot_of_loc,
        "n_location_slots": tree.n_location_slots,
        "ar_size": tree.ar_size,
        "iterations": tree.iterations,
        "entry_exit": tree.entry_exit.exit_id if tree.entry_exit is not None else None,
        "unstable_exits": [exit.exit_id for exit in tree.unstable_exits],
        "exits": exit_records,
        "root": root,
        "branches": branches,
        "opt_vn": _enc_opt_vn(enc, tree.opt_vn) if tree.opt_vn is not None else None,
    }


def build_entry(vm, source: str, code, fingerprint: str) -> Tuple[dict, int, int]:
    """Serialize everything warm-start needs for ``source``; returns
    ``(entry, resident_tree_count, resident_fragment_count)``."""
    monitor = vm.monitor
    cache = monitor.cache
    codes = enumerate_codes(code)
    code_ids = {id(c) for c in codes}
    code_idx = {id(c): i for i, c in enumerate(codes)}

    resident: List[object] = []
    for _key, peers in cache.items():
        for tree in peers:
            if id(tree.code) in code_ids:
                resident.append(tree)
    resident_ids = {id(tree) for tree in resident}

    # Transitive closure over calltree references: an outer trace may
    # still call a tree that was individually invalidated; persist it
    # (non-resident) so the warm machine behaves like the warm process.
    from repro.core.exits import CallTreeSite

    trees = list(resident)
    tree_ids = set(resident_ids)
    queue = list(trees)
    while queue:
        tree = queue.pop(0)
        for fragment in [tree.fragment] + tree.branches:
            for ins in fragment.native:
                if isinstance(ins.aux, CallTreeSite):
                    inner = ins.aux.tree
                    if id(inner) in tree_ids:
                        continue
                    if id(inner.code) not in code_ids:
                        raise StoreError(
                            "unencodable-aux", "calltree crosses programs"
                        )
                    tree_ids.add(id(inner))
                    trees.append(inner)
                    queue.append(inner)

    enc = _Encoder(codes, trees)
    tree_records = [
        _enc_tree(enc, tree, id(tree) in resident_ids) for tree in trees
    ]

    max_exit_id = 0
    for record in tree_records:
        for exit_record in record["exits"]:
            max_exit_id = max(max_exit_id, exit_record["id"])

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
        "exit_counter": max_exit_id,
        "blacklist": blacklist_records,
        "blacklisted_headers": blacklisted_headers,
        "oracle": {
            "locals": sorted(oracle_locals),
            "globals": sorted(oracle_globals),
            "marks": oracle.marks,
        },
        "hotness": hotness,
        "trees": tree_records,
    }
    fragments = sum(
        1 + len(record["branches"])
        for record in tree_records
        if record["resident"]
    )
    return entry, len(resident), fragments


# -- entry decoding + transactional linking ---------------------------------------


class _EntryLoader:
    """Decodes one entry and links it into a live VM, transactionally:
    every VM/cache mutation is journaled and undone on any failure, so
    a corrupt entry (or an injected mid-link fault) leaves the VM
    exactly as cold as it started."""

    def __init__(self, vm, source: str, code, entry: dict, fingerprint: str):
        self.vm = vm
        self.source = source
        self.code = code
        self.entry = entry
        self.fingerprint = fingerprint
        self.codes: List[object] = []
        self.trees: List[TraceTree] = []
        self.dec: Optional[_Decoder] = None
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
            self._decode_trees()
            self._restore_pycompile()
            fragments = self._link()
            self._replay_bookkeeping()
        except BaseException:
            self._rollback()
            raise
        self._advance_exit_counter()
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

    # -- tree reconstruction --------------------------------------------------------

    def _decode_trees(self) -> None:
        records = self.entry["trees"]
        # Pass 1: shells, so calltree sites can reference any tree.
        for record in records:
            code = self.codes[record["code"]]
            loop_info = code.loop_at_header(record["header_pc"])
            if loop_info is None:
                raise StoreError("decode-error", "tree header has no loop")
            self.trees.append(TraceTree(code, record["header_pc"], loop_info))
        self.dec = _Decoder(self.codes, self.trees)
        # Pass 2: fill each tree (exits, fragments, layout, opt_vn).
        for tree, record in zip(self.trees, records):
            self._fill_tree(tree, record)
        # Pass 3: cross-fragment exit references within each tree.
        for tree, record in zip(self.trees, records):
            fragments = [tree.fragment] + tree.branches
            all_exits = tree._store_all_exits
            for exit_record in record["exits"]:
                exit = all_exits[exit_record["id"]]
                frag = exit_record.get("frag")
                if frag is not None:
                    exit.fragment = fragments[frag]
                target = exit_record.get("target")
                if target is not None:
                    exit.target = fragments[target]
                    # Count the restored link, as the monitor counts an
                    # attached one (see TraceTree.link_version).
                    tree.link_version += 1
            del tree._store_all_exits

    def _fill_tree(self, tree: TraceTree, record: dict) -> None:
        dec = self.dec
        tree.entry_typemap = [
            (dec.value(loc), TraceType[name])
            for loc, name in record["entry_typemap"]
        ]
        tree.global_imports = [
            (name, gslot, TraceType[tname])
            for name, gslot, tname in record["global_imports"]
        ]
        tree._global_types = {
            name: trace_type for name, _gslot, trace_type in tree.global_imports
        }
        tree.written_globals = set(record["written_globals"])
        tree.slot_of_loc = {
            dec.value(loc): slot for loc, slot in record["slot_of_loc"]
        }
        tree.loc_of_slot = {slot: loc for loc, slot in tree.slot_of_loc.items()}
        tree.n_location_slots = record["n_location_slots"]
        tree.ar_size = record["ar_size"]
        tree.iterations = record["iterations"]

        all_exits: Dict[int, SideExit] = {}
        for exit_record in record["exits"]:
            exit = self._decode_exit(tree, exit_record)
            if exit.exit_id in all_exits:
                raise StoreError("decode-error", "duplicate exit id")
            all_exits[exit.exit_id] = exit
            if exit_record["indexed"]:
                tree.exits_by_id[exit.exit_id] = exit

        self._fill_fragment(tree.fragment, record["root"], all_exits)
        for branch_record in record["branches"]:
            branch = Fragment(tree, "branch")
            self._fill_fragment(branch, branch_record, all_exits)
            tree.branches.append(branch)

        entry_exit = record["entry_exit"]
        if entry_exit is not None:
            tree.entry_exit = all_exits[entry_exit]
        tree.unstable_exits = [
            all_exits[exit_id] for exit_id in record["unstable_exits"]
        ]
        if record["opt_vn"] is not None:
            tree.opt_vn = self._decode_opt_vn(record["opt_vn"])
        # Stashed for pass 3 (insn/anchor exits may be non-indexed).
        tree._store_all_exits = all_exits

    def _decode_exit(self, tree: TraceTree, record: dict) -> SideExit:
        dec = self.dec
        frames = tuple(
            FrameSnapshot(self.codes[ci], resume_pc, stack_depth)
            for ci, resume_pc, stack_depth in record["frames"]
        )
        livemap = tuple(
            (dec.value(loc), TraceType[tname], slot)
            for loc, tname, slot in record["live"]
        )
        result_loc = record.get("result_loc")
        exit = SideExit(
            kind=record["kind"],
            pc=record["pc"],
            frames=frames,
            stack_depth0=record["sd0"],
            livemap=livemap,
            bytecode_progress=record["progress"],
            result_loc=dec.value(result_loc) if result_loc is not None else None,
            anchor_resume_pc=record["arpc"],
        )
        exit.exit_id = record["id"]
        exit.hit_count = record["hits"]
        exit.recording_blocked = record["blocked"]
        brt = record.get("brt")
        if brt is not None:
            exit.branch_result_type = TraceType[brt]
        exit.tree = tree
        return exit

    def _fill_fragment(
        self, fragment: Fragment, record: dict, all_exits: Dict[int, SideExit]
    ) -> None:
        fragment.state = FragmentState(record["state"])
        fragment.native = [
            self._decode_insn(rec, all_exits) for rec in record["native"]
        ]
        fragment.bytecount = record["bytecount"]
        fragment.code_size = record["code_size"]
        fragment.spill_base = record["spill_base"]
        fragment.n_spills = record["n_spills"]
        fragment.loop_start = record["loop_start"]
        fragment.lir_loop_start = record["lir_loop_start"]
        fragment.py_failed = record["py_failed"]
        anchor = record["anchor"]
        if anchor is not None:
            if anchor not in all_exits:
                raise StoreError("decode-error", "unknown anchor exit")
            fragment.anchor_exit = all_exits[anchor]

    def _decode_insn(self, record: dict, all_exits: Dict[int, SideExit]) -> NativeInsn:
        exit = None
        exit_id = record.get("exit")
        if exit_id is not None:
            exit = all_exits.get(exit_id)
            if exit is None:
                raise StoreError("decode-error", f"unknown exit {exit_id}")
        aux = record.get("aux")
        srcs = record.get("srcs")
        return NativeInsn(
            op=record["op"],
            dst=record.get("dst"),
            a=record.get("a"),
            b=record.get("b"),
            c=record.get("c"),
            imm=self.dec.value(record["imm"]) if "imm" in record else None,
            exit=exit,
            aux=self.dec.value(aux) if aux is not None else None,
            srcs=list(srcs) if srcs is not None else None,
        )

    def _decode_opt_vn(self, record: dict) -> TreeValueState:
        dec = self.dec
        tvs = TreeValueState()
        tvs.counter = itertools.count(record["counter"])
        for exit_id, snap in record["snapshots"]:
            tvs.snapshots[exit_id] = {
                "pure": {dec.value(k, True): v for k, v in snap["pure"]},
                "load": {dec.value(k, True): v for k, v in snap["load"]},
                "guard": {dec.value(k, True) for k in snap["guard"]},
                "true": set(snap["true"]),
                "false": set(snap["false"]),
                "slots": {
                    slot: (vn, tchar) for slot, vn, tchar in snap["slots"]
                },
            }
        return tvs

    # -- pycompile ------------------------------------------------------------------

    def _restore_pycompile(self) -> None:
        """Verify decode fidelity by re-emission, then re-``compile()``
        the cached source (no re-tracing, no pycompile events — matching
        a warm process whose fragments already hold their callables)."""
        backend_py = self.vm.config.native_backend == "py"
        for tree, record in zip(self.trees, self.entry["trees"]):
            fragments = [tree.fragment] + tree.branches
            records = [record["root"]] + record["branches"]
            for fragment, frec in zip(fragments, records):
                stored = frec["py_source"]
                if stored is None:
                    continue
                try:
                    emitted, consts = emit_fragment(fragment)
                except Exception as error:
                    raise StoreError(
                        "decode-error", f"pycompile re-emission failed: {error}"
                    )
                if emitted != stored:
                    raise StoreError(
                        "decode-error", "pycompile source mismatch"
                    )
                if (
                    backend_py
                    and frec["py_compiled"]
                    and not fragment.py_failed
                    and fragment.state is not FragmentState.RETIRED
                ):
                    namespace = {"_consts": consts, "ExitEvent": ExitEvent}
                    try:
                        code_obj = compile(
                            stored, f"<store:{tree.code.name}>", "exec"
                        )
                        exec(code_obj, namespace)
                        fragment.py_func = namespace["_fragment_fn"]
                        fragment.py_consts = consts
                    except Exception as error:
                        raise StoreError(
                            "decode-error", f"pycompile exec failed: {error}"
                        )

    # -- linking + bookkeeping -------------------------------------------------------

    def _link(self) -> int:
        vm = self.vm
        cache = vm.monitor.cache
        self._high_water = cache.code_size_high_water
        fragments = 0
        fired = False
        for tree, record in zip(self.trees, self.entry["trees"]):
            if not record["resident"]:
                continue
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

    def _advance_exit_counter(self) -> None:
        """New exits recorded by the warm VM must not collide with the
        preserved ids; push the process-global counter past them."""
        current = next(exitmod._exit_ids)
        exitmod._exit_ids = itertools.count(
            max(current, self.entry["exit_counter"] + 1)
        )

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
        return f"e-{sha}.json"

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
            if name.startswith("e-") and name.endswith(".json"):
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
        if firewall is not None and not firewall.enabled:
            raise error
        faults = vm.faults
        if faults is not None:
            faults.suspended += 1
        try:
            site = getattr(error, "site", None)
            reason = getattr(error, "reason", None) or type(error).__name__
            if firewall is not None:
                firewall.trips.append(("store", type(error).__name__, site))
            vm.events.emit(
                eventkind.JIT_INTERNAL_FAILURE,
                boundary=boundary,
                error=type(error).__name__,
                detail=str(error)[:200],
                code=source_name,
                pc=None,
                injected=site is not None,
                site=site,
            )
            vm.events.emit(
                eventkind.STORE_FALLBACK,
                boundary=boundary,
                reason=reason,
                source=source_name,
            )
        finally:
            if faults is not None:
                faults.suspended -= 1

    # -- load -----------------------------------------------------------------------

    def preload(self, vm, source: str, code) -> bool:
        """Link this source's persisted traces into a live VM.

        Returns True on a hit.  Misses emit ``store-load`` with
        ``result=miss``; refusals/corruption emit ``store-fallback``
        and leave the VM fully cold (transactional rollback)."""
        if vm.monitor is None:
            return False
        if vm.monitor.cache.holds_code(code):
            return False  # already warm in this VM; nothing to do
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
        try:
            entry = json.loads(raw.decode("utf-8"))
        except Exception as error:
            raise StoreError("corrupt-entry", str(error))
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
        data = json.dumps(entry, separators=(",", ":")).encode("utf-8")
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
                entry = json.loads(raw.decode("utf-8"))
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
