"""The trace cache: fragment lifecycle, code-cache budget, and flushes.

The paper's trace monitor "owns the trace cache"; this module is that
ownership made explicit.  :class:`TraceCache` holds everything the
monitor previously kept in raw dicts:

* the **peer-tree table** — ``(code, header_pc) -> [TraceTree]``, the
  lookup the monitor's type-map matching iterates over;
* the **hotness counters** for not-yet-compiled loop headers;
* the **code-size accounting** — every compiled fragment reports a
  simulated native code size (:func:`repro.jit.codegen.code_size`),
  summed into a global figure checked against the configurable
  ``code_cache_budget``;
* the **whole-cache flush**: like nanojit, when the cache fills the
  entire code cache is flushed and tracing starts over (the paper
  flushes rather than evicting because native fragments cross-link —
  guards jump into branch fragments, trees call nested trees — so no
  individual fragment can be freed safely).  The fragment that pushed
  the cache over the budget survives the flush: its compilation was
  just paid for, and keeping it guarantees forward progress even when a
  single fragment exceeds the whole budget.

Every fragment moves through an explicit lifecycle —
``RECORDED -> COMPILED -> LINKED -> RETIRED`` — and every transition of
cache state is emitted on the VM's structured event stream
(:mod:`repro.core.events`), which is how the stats counters, the CLI's
``--events`` JSONL export, and the cache-pressure benchmark observe it.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

from repro.core import events
from repro.hardening import faults as fault_sites


class FragmentState(enum.Enum):
    """Lifecycle of a compiled-trace fragment."""

    #: LIR is being (or was) recorded; no native code yet.
    RECORDED = "recorded"
    #: Backward filters + codegen ran; native code exists but the
    #: fragment is not yet reachable from the cache.
    COMPILED = "compiled"
    #: Reachable: registered as a peer tree or patched onto a guard.
    LINKED = "linked"
    #: Evicted by a flush, invalidation, or abort; never re-entered via
    #: the cache (in-flight native execution may still finish on it).
    RETIRED = "retired"


class TraceCache:
    """Owns compiled trace trees, hotness counters, and the code budget.

    The monitor consults the cache for lookup, registration, capacity,
    and invalidation; all policy (type matching, when to record, how to
    handle exits) stays in the monitor.
    """

    def __init__(self, config, events, faults=None):
        self.config = config
        self.events = events
        #: Optional fault injector (repro.hardening) for the
        #: ``link.register`` and ``cache.flush`` sites.
        self.faults = faults
        #: Invalidation reason -> fragments retired by per-header
        #: invalidation (the one retirement path with no event).
        self.invalidated: Dict[str, int] = {}
        #: Optional :class:`repro.core.store.TraceStore`; when set,
        #: invalidations and flushes supersede the persisted entries so
        #: a later warm start cannot resurrect retired fragments.
        self.store = None
        #: (id(code), header_pc) -> list of peer TraceTrees.
        self._trees: Dict[Tuple[int, int], List[object]] = {}
        self._hot_counters: Dict[Tuple[int, int], int] = {}
        #: Keeps codes with live trees referenced (id() keys need this).
        self._code_refs: List[object] = []
        #: Simulated bytes of native code currently linked.
        self.code_size_used = 0
        self.code_size_high_water = 0

    @staticmethod
    def key(code, header_pc: int) -> Tuple[int, int]:
        return (id(code), header_pc)

    # -- hotness counters ---------------------------------------------------------

    def bump_hotness(self, code, header_pc: int) -> int:
        """Count one header crossing; returns the new count."""
        key = self.key(code, header_pc)
        count = self._hot_counters.get(key, 0) + 1
        self._hot_counters[key] = count
        return count

    def hotness(self, code, header_pc: int) -> int:
        return self._hot_counters.get(self.key(code, header_pc), 0)

    # -- lookup ------------------------------------------------------------------

    def peers(self, code, header_pc: int) -> List[object]:
        """The peer trees anchored at this header (possibly empty)."""
        return self._trees.get(self.key(code, header_pc), [])

    def all_trees(self) -> List[object]:
        return [tree for peers in self._trees.values() for tree in peers]

    def items(self):
        """Iterate ``(key, peer_list)`` pairs (for dumps and tests)."""
        return self._trees.items()

    @property
    def tree_count(self) -> int:
        return sum(len(peers) for peers in self._trees.values())

    @property
    def fragment_count(self) -> int:
        """Linked fragments (each tree's root trunk plus its branches)."""
        return sum(
            1 + len(tree.branches)
            for peers in self._trees.values()
            for tree in peers
        )

    # -- capacity checks ----------------------------------------------------------

    def has_peer_capacity(self, code, header_pc: int) -> bool:
        """May another peer tree be recorded at this header?"""
        peers = self._trees.get(self.key(code, header_pc))
        if peers is not None and len(peers) >= self.config.max_peer_trees:
            self.events.emit(
                events.PEER_OVERFLOW,
                code=code.name,
                pc=header_pc,
                peers=len(peers),
            )
            return False
        return True

    def has_branch_capacity(self, tree) -> bool:
        """May another branch trace attach to this tree?"""
        if len(tree.branches) >= self.config.max_branch_traces:
            self.events.emit(
                events.BRANCH_CAP,
                code=tree.code.name,
                pc=tree.header_pc,
                branches=len(tree.branches),
            )
            return False
        return True

    # -- registration -------------------------------------------------------------

    def register_tree(self, tree) -> None:
        """Link a freshly compiled root tree into the cache (a budget
        overflow flushes *around* the new tree, so it stays resident)."""
        if self.faults is not None:
            self.faults.fire(fault_sites.LINK_REGISTER)
        fragment = tree.fragment
        fragment.state = FragmentState.LINKED
        self._insert_tree(tree)
        self._account(fragment)
        self.events.emit(
            events.LINK,
            fragment="root",
            code=tree.code.name,
            pc=tree.header_pc,
            code_size=fragment.code_size,
            cache_size=self.code_size_used,
        )
        self._check_budget(keep=tree)

    def register_branch(self, tree, fragment) -> None:
        """Link a compiled branch fragment onto its tree (a budget
        overflow flushes *around* the tree, so it stays resident)."""
        if self.faults is not None:
            self.faults.fire(fault_sites.LINK_REGISTER)
        fragment.state = FragmentState.LINKED
        tree.branches.append(fragment)
        self._account(fragment)
        self.events.emit(
            events.LINK,
            fragment="branch",
            code=tree.code.name,
            pc=tree.header_pc,
            exit_id=fragment.anchor_exit.exit_id,
            code_size=fragment.code_size,
            cache_size=self.code_size_used,
        )
        self._check_budget(keep=tree)

    def _insert_tree(self, tree) -> None:
        self._trees.setdefault(self.key(tree.code, tree.header_pc), []).append(tree)
        self._code_refs.append(tree.code)

    def _account(self, fragment) -> None:
        self.code_size_used += fragment.code_size
        if self.code_size_used > self.code_size_high_water:
            self.code_size_high_water = self.code_size_used

    def _check_budget(self, keep=None) -> None:
        budget = self.config.code_cache_budget
        if budget > 0 and self.code_size_used > budget:
            self.flush("budget-overflow", keep=keep)

    # -- invalidation and flushing --------------------------------------------------

    @staticmethod
    def _check_callables_dropped(tree) -> None:
        """A RETIRED fragment must not retain a compiled callable.

        ``Fragment.retire`` drops the Python-backend function; if one
        ever survives retirement, evicted code
        could still execute, so fail loudly right at the eviction site
        (works under ``-O``, unlike a bare assert).
        """
        for fragment in [tree.fragment] + tree.branches:
            if (
                fragment.state is FragmentState.RETIRED
                and fragment.py_func is not None
            ):
                raise AssertionError(
                    f"retired fragment retains a compiled callable: {fragment!r}"
                )

    def invalidate_header(self, code, header_pc: int, reason: str) -> int:
        """Retire every peer tree at a header (e.g. on blacklisting).

        The simulated backend can free per-tree (unlike nanojit); the
        retired trees stay valid for any in-flight execution but are
        unreachable through the cache.  Returns fragments retired.
        """
        key = self.key(code, header_pc)
        peers = self._trees.pop(key, None)
        self._hot_counters.pop(key, None)
        if not peers:
            return 0
        retired = 0
        for tree in peers:
            self.code_size_used -= tree.code_size_total
            retired += tree.retire()
            self._check_callables_dropped(tree)
        if retired:
            self.invalidated[reason] = self.invalidated.get(reason, 0) + retired
        if self.store is not None:
            self.store.note_invalidated(code)
        return retired

    def flush(self, reason: str, keep=None) -> int:
        """Flush the whole code cache (the paper's overflow response).

        Every linked fragment is retired, the peer-tree table and the
        hotness counters are cleared, and tracing starts over from the
        interpreter.  ``keep`` (if given) is re-linked afterwards so the
        triggering compilation is not wasted.  Returns the number of
        fragments retired.
        """
        if self.faults is not None:
            self.faults.fire(fault_sites.CACHE_FLUSH)
        retired = 0
        trees_flushed = 0
        freed = self.code_size_used
        for peers in self._trees.values():
            for tree in peers:
                if tree is keep:
                    continue
                trees_flushed += 1
                retired += tree.retire()
                self._check_callables_dropped(tree)
        self._trees.clear()
        self._hot_counters.clear()
        self._code_refs.clear()
        self.code_size_used = 0
        if keep is not None:
            self._insert_tree(keep)
            self.code_size_used = keep.code_size_total
            freed -= self.code_size_used
        self.events.emit(
            events.FLUSH,
            reason=reason,
            trees=trees_flushed,
            fragments=retired,
            code_size=freed,
            budget=self.config.code_cache_budget,
            kept=keep is not None,
        )
        if self.store is not None:
            self.store.note_flushed()
        return retired
