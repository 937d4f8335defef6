"""Deterministic fault injection for the JIT firewall.

Every firewall boundary (plus a couple of bookkeeping paths that have
historically harbored bugs in trace JITs) registers a named **site**.
A :class:`FaultPlan` maps site names to fire-on-Nth-hit triggers; a
:class:`FaultInjector` counts hits per site and raises
:class:`InjectedFault` (a :class:`~repro.errors.VMInternalError`) when a
trigger matches.  Everything is deterministic: hit counters depend only
on program execution, and seeded plans use :class:`random.Random` so the
same seed always injects the same faults.

The chaos harness runs the benchmark corpus with a fault injected at
every site and asserts results are byte-identical to the interpreter
baseline — which works because every site fires at a *committed* state:

* ``record.op`` / ``pipeline.forward`` / ``compile.assemble`` /
  ``link.register`` / ``oracle.record`` / ``cache.flush`` — recording
  and compilation are passive; the interpreter state is untouched;
* ``native.entry`` — fires before any trace state is imported;
* ``native.loop-edge`` — fires immediately after the machine refreshes
  its commit snapshot at a loop back-edge, so rollback restores exactly
  the crossing state;
* ``native.exit-restore`` — fires between unboxing and frame writeback
  inside the (two-phase, idempotent) exit restore, which the firewall
  simply retries.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

from repro.errors import VMInternalError

# -- the site registry ------------------------------------------------------------

#: Recording: top of ``Recorder.record_op`` (one hit per recorded bytecode).
RECORD_OP = "record.op"
#: Recording: ``ForwardPipeline.emit`` (one hit per LIR instruction).
PIPELINE_FORWARD = "pipeline.forward"
#: Compilation: entry of ``TraceMonitor._compile_recording``.
COMPILE_ASSEMBLE = "compile.assemble"
#: Linking: entry of ``TraceCache.register_tree`` / ``register_branch``.
LINK_REGISTER = "link.register"
#: Native execution: before a tree's state import at trace entry.
NATIVE_ENTRY = "native.entry"
#: Native execution: at ``loopjmp``/``jtree`` back-edges (outermost
#: machine only — nested trees roll back through the outer commit).
NATIVE_LOOP_EDGE = "native.loop-edge"
#: Exit restoration: between unboxing and frame writeback.
NATIVE_EXIT_RESTORE = "native.exit-restore"
#: Cache maintenance: entry of ``TraceCache.flush``.
CACHE_FLUSH = "cache.flush"
#: Oracle bookkeeping: ``Oracle.mark_double``.
ORACLE_RECORD = "oracle.record"
#: Python backend: entry of ``pycompile.compile_fragment_py`` (once per
#: first build of a fragment's function; fires before any codegen state
#: exists, so the fragment simply runs on the step machine).
PYCOMPILE_EMIT = "pycompile.emit"
#: Python backend: entry of ``pycompile.compile_tree_py`` (once per
#: rebuild of a trunk's function to inline newer links; fires before any
#: codegen state exists, so the trunk keeps its last function).
PYCOMPILE_LINK = "pycompile.link"

#: Batch scheduling: the batch VM dies abruptly at the moment it begins
#: a job attempt (the supervisor must respawn it and resubmit the job).
FLEET_WORKER_CRASH = "fleet.worker_crash"
#: Batch scheduling: the batch VM wedges at the moment it begins a job
#: attempt; the supervisor replaces it at once (reason ``hang``) and
#: resubmits the job.
FLEET_WORKER_HANG = "fleet.worker_hang"

#: Trace store: an entry decodes but is corrupt mid-link (simulated
#: bit-flip past the checksum); the loader must roll back and re-trace.
STORE_CORRUPT_ENTRY = "store.corrupt_entry"
#: Trace store: the writer dies between the temp-file write and the
#: atomic rename (a stray temp file, no manifest update).
STORE_PARTIAL_WRITE = "store.partial_write"
#: Trace store: a concurrent writer swaps the manifest mid-read; the
#: loader must fall back to cold tracing.
STORE_LOAD_RACE = "store.load_race"

#: Every per-VM injection site, in documentation order.  These fire at
#: JIT phase boundaries inside one VM and are swept by the per-VM chaos
#: harness (``tests/test_chaos_harness.py``).
FAULT_SITES = (
    RECORD_OP,
    PIPELINE_FORWARD,
    COMPILE_ASSEMBLE,
    LINK_REGISTER,
    NATIVE_ENTRY,
    NATIVE_LOOP_EDGE,
    NATIVE_EXIT_RESTORE,
    CACHE_FLUSH,
    ORACLE_RECORD,
    PYCOMPILE_EMIT,
)

#: Fleet-level injection sites: they fire at the scheduler boundary of
#: :class:`repro.exec.supervisor.Supervisor` (never inside a VM) and are
#: swept by the fleet chaos harness (``tests/test_fleet.py``, CI
#: ``batch-soak``).
FLEET_FAULT_SITES = (
    FLEET_WORKER_CRASH,
    FLEET_WORKER_HANG,
)

#: Trace-store injection sites: they fire inside the persistent trace
#: store's save/load paths (``repro.core.store``) and are swept by the
#: store chaos harness (``tests/test_store.py``, CI ``warmstart``).
#: Kept out of :data:`FAULT_SITES` so seeded plans keep their historic
#: sampling.
STORE_FAULT_SITES = (
    STORE_CORRUPT_ENTRY,
    STORE_PARTIAL_WRITE,
    STORE_LOAD_RACE,
)

#: Direct-link injection sites: they fire when the py backend rebuilds
#: a trunk's function (``repro.jit.pycompile.compile_tree_py``).
#: Kept out of :data:`FAULT_SITES` so seeded plans keep their historic
#: sampling.
LINK_FAULT_SITES = (
    PYCOMPILE_LINK,
)

#: Every registered site, per-VM, fleet-level, and store alike
#: (FaultPlan validates against this; ``--fault-sites`` prints it).
ALL_FAULT_SITES = (
    FAULT_SITES + LINK_FAULT_SITES + FLEET_FAULT_SITES + STORE_FAULT_SITES
)

#: One-line description per site (``python -m repro --fault-sites``).
SITE_HELP = {
    RECORD_OP: "trace recorder, once per recorded bytecode",
    PIPELINE_FORWARD: "forward LIR pipeline, once per emitted instruction",
    COMPILE_ASSEMBLE: "backward filters + codegen, once per compilation",
    LINK_REGISTER: "trace cache linking, once per registered fragment",
    NATIVE_ENTRY: "native execution, before state import at trace entry",
    NATIVE_LOOP_EDGE: "native execution, at loopjmp/jtree back-edges",
    NATIVE_EXIT_RESTORE: "side-exit restore, between unboxing and writeback",
    CACHE_FLUSH: "whole-cache flush, once per flush",
    ORACLE_RECORD: "oracle bookkeeping, once per mark_double",
    PYCOMPILE_EMIT: "python-backend function, once per fragment's first build",
    PYCOMPILE_LINK: "python-backend function, once per trunk rebuild",
    FLEET_WORKER_CRASH: "fleet worker, dies at a job-attempt start",
    FLEET_WORKER_HANG: "fleet worker, wedges at a job-attempt start",
    STORE_CORRUPT_ENTRY: "trace store, entry corrupt mid-link at load",
    STORE_PARTIAL_WRITE: "trace store, writer dies before the rename",
    STORE_LOAD_RACE: "trace store, concurrent writer races the load",
}


class InjectedFault(VMInternalError):
    """A deliberately injected internal failure (chaos testing)."""

    def __init__(self, site: str, hit: int):
        super().__init__(f"injected fault at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class FaultPlan:
    """Site name -> fire-on-Nth-hit trigger.

    A trigger is an ``int`` (fire on exactly that hit), the string
    ``"*"`` (fire on every hit), or a collection of ints.
    """

    def __init__(self, spec: Dict[str, object]):
        for site in spec:
            if site not in ALL_FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: "
                    + ", ".join(ALL_FAULT_SITES)
                )
        self.spec = dict(spec)

    def triggers(self, site: str, hit: int) -> bool:
        when = self.spec.get(site)
        if when is None:
            return False
        if when == "*":
            return True
        if isinstance(when, int):
            return hit == when
        return hit in when

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "FaultPlan":
        """Build a plan from CLI-style ``SITE`` / ``SITE:N`` / ``SITE:*``
        strings (bare ``SITE`` means fire on the first hit)."""
        spec: Dict[str, object] = {}
        for text in specs:
            site, _, when = text.partition(":")
            if not when:
                spec[site] = 1
            elif when == "*":
                spec[site] = "*"
            else:
                try:
                    spec[site] = int(when)
                except ValueError:
                    raise ValueError(
                        f"bad fault spec {text!r}: expected SITE, SITE:N, or SITE:*"
                    ) from None
        return cls(spec)

    @classmethod
    def from_seed(cls, seed: int) -> "FaultPlan":
        """A deterministic pseudo-random plan: one or two sites, each
        firing on an early hit (so short programs still reach it)."""
        rng = random.Random(seed)
        sites = rng.sample(FAULT_SITES, rng.choice((1, 2)))
        return cls({site: rng.randint(1, 5) for site in sites})

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"


class FaultInjector:
    """Counts hits per site and raises :class:`InjectedFault` on plan
    triggers.  ``suspended`` (a counter) disables firing while the
    firewall itself is recovering, so containment can never recurse into
    a second injected fault."""

    def __init__(self, plan: FaultPlan, events=None):
        self.plan = plan
        self.events = events
        self.hits: Dict[str, int] = {}
        self.suspended = 0
        self.fired: List[str] = []

    def fire(self, site: str) -> None:
        """Count one hit at ``site``; raise if the plan says so."""
        if self.suspended:
            return
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        if self.plan.triggers(site, hit):
            self.fired.append(site)
            if self.events is not None:
                from repro.core import events as eventkind

                self.events.emit(eventkind.FAULT_INJECTED, site=site, hit=hit)
            raise InjectedFault(site, hit)
