"""Execution supervision: resource limits, metering, and batch jobs.

This package hosts everything between the host and a guest script's
right to keep running: :class:`ResourceLimits` declares a budget,
:class:`ScriptMeter` bills a running VM against it (delivering typed
guest faults through the preemption flag), and :class:`Supervisor` —
the only batch loop — admits and queues jobs for one VM on the
caller's thread, running each with isolation, a retry policy,
degradation and billing, and replacing the VM when it crashes or
hangs.

Import order matters: :mod:`repro.interp.interpreter` (and friends)
import :mod:`repro.exec.limits` at module top, which executes this
``__init__`` — so :mod:`repro.exec.supervisor` must not import
``repro.vm`` at module level (it imports engines lazily).
"""

from repro.errors import (
    GuestFault,
    QuotaExceeded,
    ScriptCancelled,
    ScriptTimeout,
)
from repro.exec.limits import (
    STRING_CELL_CHARS,
    ResourceLimits,
    ScriptMeter,
    string_cells,
)
from repro.exec.supervisor import (
    Job,
    JobResult,
    JobShed,
    JobUsage,
    Supervisor,
    TenantUsage,
    TokenBucket,
    backoff_slots,
    status_of_fault,
)

__all__ = [
    "GuestFault",
    "Job",
    "JobResult",
    "JobShed",
    "JobUsage",
    "QuotaExceeded",
    "ResourceLimits",
    "STRING_CELL_CHARS",
    "ScriptCancelled",
    "ScriptMeter",
    "ScriptTimeout",
    "Supervisor",
    "TenantUsage",
    "TokenBucket",
    "backoff_slots",
    "status_of_fault",
    "string_cells",
]
