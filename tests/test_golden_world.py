"""The golden simulated-world table: every engine, pinned to the cycle.

Each suite program, ``examples/sieve.js`` and the three exception
programs below run on each of the four engines (baseline, threaded,
methodjit, tracing) with the default configuration.  Per run the table
pins:

* the result ``repr`` and the printed output;
* ``stats.total_cycles`` and the ledger's cycles per activity;
* the profile's counts of interpreted, recorded and native bytecodes.

The figure tables round to two decimals and the backend differential
compares two backends of the same tree, so neither notices a change
that moves every engine's charges the same way.  This table does.

A change that moves the simulated world on purpose regenerates it by
running this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden_world.py

and commits the rewritten ``tests/golden_world.json`` with the reason.
"""

from __future__ import annotations

import json
import pathlib

from repro.baselines.method_jit import MethodJITVM
from repro.suite.programs import PROGRAMS
from repro.vm import BaselineVM, ThreadedVM, TracingVM

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden_world.json"
SIEVE_PATH = ROOT / "examples" / "sieve.js"

ENGINES = {
    "baseline": BaselineVM,
    "threaded": ThreadedVM,
    "methodjit": MethodJITVM,
    "tracing": TracingVM,
}


#: No suite program throws, so these pin the paths the suite never
#: takes: handlers that raise, and the unwind's charges.  Each guest
#: exception leaves a traced loop (a side exit, then the interpreter
#: raises) and is caught in the untraced loop around it.
EXCEPTION_PROGRAMS = {
    # A ``throw`` inside a traced loop, caught by its caller's loop.
    "throw-in-traced-loop": """
function scan(limit, bad) {
    var s = 0;
    for (var j = 0; j < limit; j++) {
        if (j == bad) throw j;
        s = s + j;
    }
    return s;
}
var total = 0;
var caught = 0;
for (var i = 0; i < 12; i++) {
    try {
        total = total + scan(40, i % 4 == 3 ? 25 + i : -1);
    } catch (e) {
        caught = caught + e;
    }
}
print(total, caught);
total + caught;
""",
    # A ReferenceError from reading an undefined global, caught in a loop.
    "reference-error-in-loop": """
function probe(limit, bad) {
    var s = 0;
    for (var j = 0; j < limit; j++) {
        if (j == bad) s = s + notDefinedAnywhere;
        s = s + j;
    }
    return s;
}
var errors = 0;
var total = 0;
var last = "";
for (var i = 0; i < 12; i++) {
    try {
        total = total + probe(30, i % 3 == 2 ? 20 : -1);
    } catch (e) {
        errors = errors + 1;
        last = e;
    }
}
print(errors, last);
total;
""",
    # A TypeError (a property read of null) that unwinds three frames.
    "type-error-unwinds-frames": """
function inner(items, n) {
    var s = 0;
    for (var k = 0; k < n; k++) s = s + items[k].x;
    return s;
}
function middle(items, n) { return inner(items, n) + 1; }
function outer(items, n) { return middle(items, n) * 2; }
var items = [];
for (var k = 0; k < 30; k++) items.push({x: k});
var ok = 0;
var failures = 0;
var message = "";
for (var i = 0; i < 10; i++) {
    items[29] = (i % 4 == 3) ? null : {x: i};
    try {
        ok = ok + outer(items, 30);
    } catch (e) {
        failures = failures + 1;
        message = e;
    }
}
print(ok, failures, message);
ok;
""",
}


def _programs():
    yield from ((program.name, program.source) for program in PROGRAMS)
    yield "sieve.js", SIEVE_PATH.read_text()
    yield from EXCEPTION_PROGRAMS.items()


def observe(engine: str, name: str, source: str) -> dict:
    """One run's pinned observables."""
    vm = ENGINES[engine]()
    result = vm.run(source, name=name)
    stats = vm.stats
    profile = stats.profile
    return {
        "result": repr(result),
        "output": list(vm.output),
        "total_cycles": stats.total_cycles,
        "cycles": stats.ledger.snapshot(),
        "profile": {
            "interpreted": profile.interpreted,
            "recorded": profile.recorded,
            "native": profile.native,
        },
    }


def build_table() -> dict:
    """``{"<program>/<engine>": observables}`` for every run."""
    return {
        f"{name}/{engine}": observe(engine, name, source)
        for name, source in _programs()
        for engine in ENGINES
    }


def test_every_run_matches_the_golden_table():
    golden = json.loads(GOLDEN_PATH.read_text())
    table = build_table()
    assert sorted(table) == sorted(golden), "the set of runs changed"
    moved = [key for key in golden if table[key] != golden[key]]
    assert not moved, "simulated world moved: " + "; ".join(
        f"{key}: {golden[key]} -> {table[key]}" for key in moved[:3]
    )


def test_bench_wallclock_cycles_match_the_golden_table():
    """The committed ``BENCH_wallclock.json`` bills every suite program
    the cycles this table pins for the tracing engine, on both
    backends: a change that moves the simulated world regenerates it
    (``benchmarks/test_wallclock.py``) too."""
    golden = json.loads(GOLDEN_PATH.read_text())
    bench = json.loads((ROOT / "BENCH_wallclock.json").read_text())
    by_name = {entry["name"]: entry for entry in bench["programs"]}
    stale = [
        f"{program.name}/{backend}: {by_name[program.name][backend]['simulated_cycles']}"
        f" != {golden[f'{program.name}/tracing']['total_cycles']}"
        for program in PROGRAMS
        for backend in ("step", "py")
        if by_name[program.name][backend]["simulated_cycles"]
        != golden[f"{program.name}/tracing"]["total_cycles"]
    ]
    assert not stale, "BENCH_wallclock.json is stale: " + "; ".join(stale)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(build_table(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
