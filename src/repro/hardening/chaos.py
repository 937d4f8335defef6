"""Differential chaos harness: fault-injected runs vs. the interpreter.

The graceful-degradation contract (ROADMAP north star: "the JIT may
lose performance but never correctness") is only testable if an
*observation* of a run can be compared across engines.  ``repr(Box)``
is not enough — object boxes print host addresses — so this module
renders the final VM state structurally:

* the completion value, rendered through :func:`render_box`;
* the print output (``vm.output``), verbatim;
* the **user heap**: every non-builtin global, sorted by name, rendered
  recursively (objects by sorted property name, arrays by element,
  with an id-based cycle guard so self-referencing structures render
  as ``<cycle:N>`` instead of recursing forever).

:func:`differential_check` runs one source on the pure interpreter and
on a (typically fault-injected) tracing VM and asserts the three
observations are identical — the core assertion of the chaos sweep in
``tests/test_chaos_harness.py`` and the CI chaos job.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.runtime.objects import JSArray, JSFunction, NativeFunction
from repro.runtime.values import TAG_NAMES, TAG_OBJECT

#: Global names installed by the VM itself (computed once, lazily).
_BUILTIN_GLOBALS: Optional[frozenset] = None


def builtin_global_names() -> frozenset:
    global _BUILTIN_GLOBALS
    if _BUILTIN_GLOBALS is None:
        from repro.vm import BaselineVM

        _BUILTIN_GLOBALS = frozenset(BaselineVM().globals)
    return _BUILTIN_GLOBALS


def render_box(box, seen: Optional[Dict[int, int]] = None) -> str:
    """A deterministic, address-free rendering of a boxed value."""
    if box is None:
        return "<hole>"
    if box.tag != TAG_OBJECT:
        return f"{TAG_NAMES[box.tag]}:{box.payload!r}"
    obj = box.payload
    if seen is None:
        seen = {}
    if id(obj) in seen:
        return f"<cycle:{seen[id(obj)]}>"
    seen[id(obj)] = len(seen)
    if isinstance(obj, (JSFunction, NativeFunction)):
        return f"<function {getattr(obj, 'name', '?')}>"
    if isinstance(obj, JSArray):
        items = ", ".join(
            render_box(obj.get_element(i), seen) for i in range(obj.length)
        )
        return f"[{items}]"
    props = ", ".join(
        f"{name}: {render_box(obj.get_own(name), seen)}"
        for name in sorted(obj.own_property_names())
    )
    return f"{{{props}}}"


def observe(vm, result) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """(result, output, heap) — the comparable observation of a run."""
    builtins = builtin_global_names()
    heap = tuple(
        f"{name} = {render_box(box)}"
        for name, box in sorted(vm.globals.items())
        if name not in builtins
    )
    return (render_box(result), tuple(vm.output), heap)


def run_and_observe(source: str, config=None, engine: str = "tracing"):
    """Run ``source`` on one engine; returns ``(observation, vm)``."""
    from repro.vm import BaselineVM, TracingVM

    vm = (TracingVM if engine == "tracing" else BaselineVM)(config)
    result = vm.run(source)
    return observe(vm, result), vm


def differential_check(source: str, config, baseline=None):
    """Assert a (chaos-configured) tracing run matches the interpreter.

    ``baseline`` may pass a precomputed baseline observation (the chaos
    sweep reuses one per program across all sites).  Returns the chaos
    VM for further assertions (events, stats, safe-mode flags).
    """
    if baseline is None:
        baseline, _vm = run_and_observe(source, engine="baseline")
    chaos, vm = run_and_observe(source, config=config, engine="tracing")
    for what, expected, actual in zip(
        ("result", "output", "heap"), baseline, chaos
    ):
        assert actual == expected, (
            f"chaos run diverged from interpreter on {what}:\n"
            f"  baseline: {expected}\n"
            f"  chaos:    {actual}\n"
            f"  config:   firewall={vm.config.enable_jit_firewall} "
            f"plan={getattr(vm.faults, 'plan', None)!r}"
        )
    return vm
