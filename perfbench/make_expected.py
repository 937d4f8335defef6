"""Regenerate ``expected.json``: every benchmark program's result and
printed output on the baseline interpreter, the specification every
engine is checked against.

Run from the repository root, then review the diff before committing::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import pathlib

from workloads import WORKLOADS, source_of

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


def main() -> None:
    from repro.runtime.conversions import to_string
    from repro.vm import BaselineVM

    programs = sorted({p for w in WORKLOADS.values() for p in w.programs})
    expected = {}
    for program in programs:
        vm = BaselineVM()
        value = vm.run(source_of(program), name=program)
        expected[program] = {
            "repr": repr(value),
            "result": to_string(value),
            "output": list(vm.output),
        }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
