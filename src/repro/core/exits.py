"""Side exits, frame snapshots, and exit events.

A guard that fails transfers control to a **side exit** (paper Section
3.1): "a small off-trace piece of LIR that returns a structure that
describes the reason for the exit along with the interpreter PC at the
exit point and any other data needed to restore the interpreter's
state".  :class:`SideExit` is that structure.

Because the recorder eagerly stores every local/stack write to the
trace activation record (and dead-store elimination only removes stores
no exit can observe), restoring interpreter state is: re-box every
location in the exit's live map from the AR, synthesize interpreter
frames for inlined calls (Section 6.1 "pops or synthesizes interpreter
JavaScript call stack frames as needed"), and set the resume PC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# Exit kinds.
BRANCH = "branch"  # control flow diverged from the recording
TYPE = "type"  # a value's type differed (boxed-result channel)
SHAPE = "shape"  # object shape / representation guard
OVERFLOW = "overflow"  # integer arithmetic overflowed
OOB = "oob"  # array dense-bounds guard
CALLEE = "callee"  # function identity guard
LOOP = "loop"  # the trace left the loop normally (break / cond false)
UNSTABLE = "unstable"  # type-unstable trace end (links to a peer tree or exits)
INNER = "inner"  # nested tree returned through an unexpected exit
REENTRY = "reentry"  # a native reentered the interpreter (deep bail)
STATE = "state"  # a native accessed interpreter state
PREEMPT = "preempt"  # the preemption flag was set at a loop edge
ERROR = "error"  # a helper threw a JS exception (deep bail + rethrow)
ENTRY = "entry"  # a hoisted invariant guard failed in the trunk prologue


@dataclass(frozen=True, slots=True)
class FrameSnapshot:
    """Reconstruction info for one *inlined* frame (depth >= 1).

    ``resume_pc`` is where this frame resumes: for the topmost frame it
    is the exit's pc; for callers it is the return address (the
    instruction after the call).
    """

    code: object
    resume_pc: int
    stack_depth: int


class SideExit:
    """One potential exit point of a compiled trace."""

    __slots__ = (
        "exit_id",
        "kind",
        "pc",
        "frames",
        "stack_depth0",
        "anchor_resume_pc",
        "livemap",
        "live_slots",
        "result_loc",
        "result_slot",
        "branch_result_type",
        "target",
        "hit_count",
        "bytecode_progress",
        "fragment",
        "tree",
        "recording_blocked",
    )

    def __init__(
        self,
        kind: str,
        pc: int,
        frames: Tuple[FrameSnapshot, ...],
        stack_depth0: int,
        livemap: tuple,
        bytecode_progress: int = 0,
        result_loc=None,
        anchor_resume_pc: int = -1,
        exit_id: int = 0,
    ):
        #: Numbered per VM by its monitor (0 for an unnumbered exit).
        self.exit_id = exit_id
        self.kind = kind
        self.pc = pc
        self.frames = frames
        self.stack_depth0 = stack_depth0
        #: pc the anchor frame resumes at when this exit is taken with
        #: inlined frames above it (== ``pc`` when depth is 0).
        self.anchor_resume_pc = anchor_resume_pc if anchor_resume_pc >= 0 else pc
        #: tuple of (location, TraceType, ar_slot)
        self.livemap = livemap
        self.live_slots = frozenset(slot for _loc, _type, slot in livemap)
        self.result_loc = result_loc
        #: AR slot of ``result_loc`` (resolved once for the machine).
        self.result_slot = None
        if result_loc is not None:
            for loc, _type, slot in livemap:
                if loc == result_loc:
                    self.result_slot = slot
                    break
        #: For TYPE exits with an attached branch trace: the actual type
        #: observed when the branch was recorded.  The guarded value is
        #: only in a register (never stored to the AR on the failing
        #: path), so stitched transfers re-check this type and
        #: materialize the value into the AR.
        self.branch_result_type = None
        self.target = None  # patched to a branch Fragment by trace stitching
        self.hit_count = 0
        self.bytecode_progress = bytecode_progress
        self.fragment = None
        self.tree = None
        #: set when branch recording from this exit failed permanently
        self.recording_blocked = False

    @property
    def depth(self) -> int:
        """Number of inlined frames above the anchor at this exit."""
        return len(self.frames)

    def __repr__(self) -> str:
        return (
            f"<SideExit #{self.exit_id} {self.kind} pc={self.pc} "
            f"depth={self.depth} live={len(self.livemap)}>"
        )


@dataclass(slots=True)
class ExitEvent:
    """What the native machine reports when a trace run ends.

    ``boxed_result`` carries the already-boxed value for TYPE exits
    (the guarded value is in hand as a Box; re-boxing from the raw slot
    would lose its true type).  ``inner`` chains the event of a nested
    tree call that exited unexpectedly (INNER exits).
    """

    exit: SideExit
    ar: object  # the ActivationRecord at exit
    boxed_result: object = None
    inner: Optional["ExitEvent"] = None
    exception: object = None  # a JSThrow to re-raise after restore


@dataclass(slots=True)
class CallTreeSite:
    """A recorded nested-tree call (paper Section 4.1).

    ``local_mapping`` maps inner-tree AR slots to outer-tree AR slots
    for the inner anchor frame's locals and ``this``; globals are
    shared through the per-invocation global area and need no copying.
    """

    tree: object
    depth: int  # outer frame depth at which the inner tree runs
    local_mapping: Tuple[Tuple[int, int], ...]  # (inner_slot, outer_slot)
    expected_exit_id: int = -1

    def __repr__(self) -> str:
        header = getattr(self.tree, "header_pc", "?")
        return f"<CallTreeSite tree@{header} depth={self.depth}>"
