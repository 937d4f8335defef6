"""Shared helper utilities for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro import BaselineVM, ThreadedVM, TracingVM, VMConfig
from repro.baselines.method_jit import MethodJITVM
from repro.core import tree as treemod

ALL_ENGINES = {
    "baseline": BaselineVM,
    "threaded": ThreadedVM,
    "methodjit": MethodJITVM,
    "tracing": TracingVM,
}


def run_baseline(source: str):
    vm = BaselineVM()
    return vm.run(source), vm


def run_tracing(source: str, config: VMConfig = None):
    vm = TracingVM(config)
    return vm.run(source), vm


def assert_engines_agree(source: str, engines=("baseline", "tracing")):
    """Run ``source`` on several engines and assert identical results.

    Returns ``{engine: vm}`` for further stats assertions.
    """
    vms = {}
    results = {}
    for name in engines:
        vm = ALL_ENGINES[name]()
        results[name] = repr(vm.run(source))
        vms[name] = vm
    reference = results[engines[0]]
    for name, result in results.items():
        assert result == reference, (
            f"{name} disagrees: {result} != {reference} for program:\n{source}"
        )
    return vms


def register_invariant_violations(native) -> list:
    """Where a fragment's native code breaks the register invariant.

    Every register an instruction reads (``a``, ``b``, ``c``, ``srcs``)
    must have been written (``dst``) by an earlier instruction of the
    same fragment's linear code, and every ``govf`` must follow an
    ``addi``/``subi``/``muli``.  The py backend relies on it: registers
    are locals of the generated function, never loaded from or written
    back to ``machine.regs``.  Returns ``(index, insn, operand)``
    triples; empty when the fragment keeps the invariant.
    """
    written = set()
    ovf_written = False
    violations = []
    for index, insn in enumerate(native):
        reads = [reg for reg in (insn.a, insn.b, insn.c) if reg is not None]
        reads.extend(insn.srcs or ())
        for reg in reads:
            if reg not in written:
                violations.append((index, repr(insn), reg))
        if insn.op == "govf" and not ovf_written:
            violations.append((index, repr(insn), "ovf"))
        if insn.dst is not None:
            written.add(insn.dst)
        if insn.op in ("addi", "subi", "muli"):
            ovf_written = True
    return violations


@contextlib.contextmanager
def generated_fragments():
    """Collect the native code of every fragment codegen returns while
    the block runs (a list of ``NativeInsn`` lists)."""
    natives = []
    generate = treemod.generate

    def collecting(*args, **kwargs):
        result = generate(*args, **kwargs)
        natives.append(result[0])
        return result

    treemod.generate = collecting
    try:
        yield natives
    finally:
        treemod.generate = generate


@pytest.fixture
def tracing_vm():
    return TracingVM()


@pytest.fixture
def baseline_vm():
    return BaselineVM()
