"""The JIT firewall: internal-failure containment + safe-mode breaker.

A trace JIT must never turn an internal bug into a wrong answer or a
dead VM — "the JIT may lose performance but must never lose
correctness."  The monitor wraps each phase boundary (record, compile/
link, native execute, exit restore) and routes any non-``JSThrow``
exception here.  Containment:

1. emit a typed ``jit-internal-failure`` event (schema v3);
2. retire the offending fragment and invalidate its tree through the
   normal :class:`~repro.core.cache.TraceCache` path;
3. abort any in-flight recording, applying the Section-3.3 back-off /
   blacklist bookkeeping to the header;
4. count the trip; after ``max_internal_failures`` trips the circuit
   breaker flips the VM into safe mode (tracing off for the rest of the
   run, ``safe-mode-entered`` emitted).

The caller is responsible for restoring interpreter state *before*
calling :meth:`JITFirewall.contain` (compile-phase failures need no
restore; native failures roll back to the machine's commit snapshot;
restore failures retry the idempotent restore).  Recovery itself must
never raise: any secondary failure forces safe mode directly.
"""

from __future__ import annotations

from typing import Optional

from repro.core import events as eventkind
from repro.errors import GuestFault, JSThrow


class JITFirewall:
    """Containment and circuit-breaker state for one VM."""

    def __init__(self, vm, monitor):
        self.vm = vm
        self.monitor = monitor
        self.enabled = vm.config.enable_jit_firewall
        self.max_failures = vm.config.max_internal_failures
        #: Total contained internal failures (the breaker's counter).
        self.failures = 0
        #: (boundary, exception type name, injected site or None) per trip.
        self.trips = []

    def report(
        self,
        boundary: str,
        error: BaseException,
        code_name: Optional[str],
        pc: Optional[int],
        trip: Optional[str] = None,
    ) -> None:
        """Record one trip and emit its ``jit-internal-failure`` event,
        with fault injection suspended.  The report step of every
        containment: :meth:`contain` here, and the lighter ``pycompile``
        and ``store.*`` boundaries that only report.  ``trip`` names the
        trip when it differs from the event's ``boundary``."""
        faults = self.vm.faults
        if faults is not None:
            faults.suspended += 1
        try:
            site = getattr(error, "site", None)
            self.trips.append((trip or boundary, type(error).__name__, site))
            self.vm.events.emit(
                eventkind.JIT_INTERNAL_FAILURE,
                boundary=boundary,
                error=type(error).__name__,
                detail=str(error)[:200],
                code=code_name,
                pc=pc,
                injected=site is not None,
                site=site,
            )
        finally:
            if faults is not None:
                faults.suspended -= 1

    def contain(
        self,
        boundary: str,
        error: BaseException,
        code=None,
        pc: Optional[int] = None,
        tree=None,
        fragment=None,
    ) -> bool:
        """Contain one internal failure; returns True when handled.

        ``tree`` (or the active recording) identifies the loop header to
        blacklist/invalidate; ``fragment`` is additionally retired (for
        compile failures, where the fragment is not yet linked).
        """
        # Guest throws and supervisor terminations are not JIT-internal
        # failures — they belong to the guest-fault domain and must
        # propagate (see docs/INTERNALS.md section 11).
        if not self.enabled or isinstance(error, (JSThrow, GuestFault)):
            return False
        vm = self.vm
        monitor = self.monitor
        faults = vm.faults
        if faults is not None:
            faults.suspended += 1
        try:
            recorder = vm.recorder
            if tree is None and recorder is not None and not recorder.finished:
                tree = recorder.tree
            if tree is not None:
                code, pc = tree.code, tree.header_pc
            self.report(boundary, error, code.name if code is not None else None, pc)
            if fragment is not None:
                fragment.retire()
            if recorder is not None and not recorder.finished:
                # abort_recording applies the back-off (and, at the
                # blacklist threshold, header invalidation) itself.
                monitor.abort_recording("jit-internal-failure")
            elif code is not None:
                blacklisted = monitor.blacklist.note_failure(code, pc)
                monitor.events.emit(eventkind.BACKOFF, code=code.name, pc=pc)
                if blacklisted:
                    code.blacklist_header(pc)
                    monitor.events.emit(
                        eventkind.BLACKLIST, code=code.name, pc=pc
                    )
            if code is not None:
                # Idempotent: retires every peer at the header so the
                # faulty tree can never be re-entered from the cache.
                monitor.cache.invalidate_header(code, pc, "jit-internal-failure")
            self.failures += 1
            if self.failures >= self.max_failures:
                monitor.enter_safe_mode()
        except Exception:
            # Recovery must never raise.  A failure inside containment
            # means the JIT bookkeeping itself is suspect: go straight
            # to safe mode, with a bare-flags fallback if even that
            # fails.
            try:
                monitor.enter_safe_mode()
            except Exception:
                monitor.disabled = True
                vm.config.enable_tracing = False
                vm.in_safe_mode = True
        finally:
            if faults is not None:
                faults.suspended -= 1
        return True
