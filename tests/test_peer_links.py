"""Type-unstable exits that pass straight into a peer tree (Figure 6).

When a tree's UNSTABLE exit is taken outside a recording, the monitor
passes it to the first peer whose entry map accepts the exit's livemap
types (worked out once per exit and peer: ``TraceTree.links_in``).  The
activation record moves into the peer, which runs on the same backend,
with no frame restore, no re-boxing and no peer matching.  These tests
pin the fallbacks around that path: a retired peer, a native failure
inside a linked peer, and a recording in progress.
"""

from __future__ import annotations

import pytest

from repro.core import events as eventkind
from repro.core import exits as exitkind
from repro.core.monitor import TraceMonitor
from repro.hardening.chaos import differential_check
from repro.jit.native import NativeMachine
from repro.vm import BaselineVM, TracingVM, VMConfig

BACKENDS = ("py", "step")

#: ``s`` is an int at every entry of ``f``'s loop and a double after
#: its first iteration: the int tree's UNSTABLE exit links into the
#: double tree on every call.
NEGATE = """
function f(z) {
    var s = 0;
    for (var i = 0; i < 10; i++) s += -z;
    return s;
}
var t = 0;
for (var j = 0; j < 1000; j++) t += f(0);
t;
"""


def _run(source: str, backend: str, **overrides):
    config = VMConfig(capture_events=True, native_backend=backend)
    for name, value in overrides.items():
        setattr(config, name, value)
    vm = TracingVM(config)
    return vm.run(source), vm


def _unstable_side_exits(vm):
    return [
        event for event in vm.events.of_kind(eventkind.SIDE_EXIT)
        if event.payload["exit_kind"] == exitkind.UNSTABLE
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_negated_zero_links_into_the_double_tree(backend):
    """Each call enters the int tree, which links into the double tree:
    one side exit per call instead of one per iteration."""
    result, vm = _run(NEGATE, backend)
    assert repr(result) == repr(BaselineVM().run(NEGATE))
    tracing = vm.stats.tracing
    assert tracing.unstable_links == 1000
    # Only the outer loop's recording attempts, which run ``f``'s trees
    # with a recorder attached, take the exit through the monitor.
    assert len(_unstable_side_exits(vm)) == 3
    assert tracing.trace_entries == 1003
    assert len(vm.events.of_kind(eventkind.SIDE_EXIT)) == 1003
    assert vm.stats.total_cycles == 836_928


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_retired_peer_sends_the_exit_through_the_monitor(backend, monkeypatch):
    """A flush that retires the peer while the exiting tree is still in
    flight must not be followed: the exit restores the interpreter, and
    the re-recorded trees link again."""
    run = NativeMachine.run
    flushed = []

    def run_then_flush(self, fragment):
        event = run(self, fragment)
        exit = event.exit
        vm = self.vm
        if (
            not flushed
            and exit.kind == exitkind.UNSTABLE
            and vm.recorder is None
            and vm.stats.tracing.unstable_links > 0
        ):
            flushed.append(exit)
            vm.monitor.cache.flush("test")
        return event

    monkeypatch.setattr(NativeMachine, "run", run_then_flush)
    result, vm = _run(NEGATE, backend)
    assert repr(result) == repr(BaselineVM().run(NEGATE))
    [exit] = flushed
    [flush] = [
        event for event in vm.events.of_kind(eventkind.FLUSH)
        if event.payload["reason"] == "test"
    ]
    after = [event for event in vm.events.events if event.seq > flush.seq]
    assert after[0].kind == eventkind.SIDE_EXIT
    assert after[0].payload["exit_id"] == exit.exit_id
    assert after[0].payload["exit_kind"] == exitkind.UNSTABLE
    # The re-recorded trees link again after the flush.
    assert any(event.kind == eventkind.UNSTABLE_LINK for event in after)
    assert vm.stats.tracing.internal_failures == 0


#: ``f(0)`` keeps ``s`` an int in the interpreter but a double on
#: trace, so its loop grows an int tree whose exit is type-unstable and
#: a double peer.  ``f(1)`` enters the int tree, whose one iteration
#: makes ``s`` 0.5: boxing that through the int tree's entry map would
#: truncate it.  The ``try`` keeps the outer loop interpreted, so every
#: call of ``f`` links.
LINKED_HELPER = """
var g = 0;
function f(k) {
    var s = 0;
    var t = "";
    for (var i = 0; i < 10; i++) {
        s = s + k * 0.5;
        t = "x" + i;
        g = g + 1;
    }
    return s * 1000 + g + t.length;
}
var r = 0;
for (var j = 0; j < 50; j++) {
    try { r += f(j % 2); } catch (e) {}
}
r;
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_fault_in_a_linked_peer_rolls_back_to_the_peers_commit(
    backend, monkeypatch
):
    """A native failure in the first iteration of a linked peer rolls
    the interpreter back to the commit taken at the link, read through
    the peer's entry map: the run still matches the interpreter."""
    from repro.core import helpers

    original = helpers.NUM_TO_STR_I.fn
    failed = []

    def failing(vm, value):
        # A link's event is emitted just before its peer runs, so a
        # call right after one is in the peer's first iteration; the
        # second link is the first from ``f(1)``.
        events = vm.events.events
        if (
            not failed
            and events[-1].kind == eventkind.UNSTABLE_LINK
            and vm.stats.tracing.unstable_links == 2
        ):
            failed.append(value)
            raise RuntimeError("helper fault in a linked peer")
        return original(vm, value)

    monkeypatch.setattr(helpers.NUM_TO_STR_I, "fn", failing)
    config = VMConfig(capture_events=True, native_backend=backend)
    vm = differential_check(LINKED_HELPER, config)
    assert failed == [1]
    assert vm.stats.tracing.internal_failures == 1
    [failure] = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert failure.payload["boundary"] == "native"
    assert failure.payload["injected"] is False


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_link_while_a_recorder_is_attached(backend, monkeypatch):
    """An outer loop's recording runs ``f``'s trees as nested-tree
    candidates; their UNSTABLE exits go through the monitor, which
    aborts the recording, and only later exits link."""
    handled = []
    linked = []
    handle_exit_event = TraceMonitor.handle_exit_event
    enter_peer = NativeMachine.enter_peer

    def on_exit(self, interp, event, base_index):
        if event.exit.kind == exitkind.UNSTABLE:
            handled.append(self.vm.recorder is not None)
        return handle_exit_event(self, interp, event, base_index)

    def on_link(self, link, widens):
        linked.append(self.vm.recorder is not None)
        return enter_peer(self, link, widens)

    monkeypatch.setattr(TraceMonitor, "handle_exit_event", on_exit)
    monkeypatch.setattr(NativeMachine, "enter_peer", on_link)
    result, vm = _run(NEGATE, backend)
    assert repr(result) == repr(BaselineVM().run(NEGATE))
    assert True in handled, "no UNSTABLE exit was taken during a recording"
    assert linked and not any(linked)
    aborts = vm.events.of_kind(eventkind.RECORD_ABORT)
    assert any(a.payload["reason"] == "inner-tree-side-exit" for a in aborts)
