"""Wall-clock benchmark: generated-Python backend vs the step machine.

Every other benchmark in this directory measures *simulated* cycles —
the paper's currency.  This one measures real time, because the whole
point of the ``py`` backend is that hot traces stop paying per-``NativeInsn``
dispatch cost.  The measured quantity is the wall time spent inside the
NATIVE profiler phase (trace execution only, excluding parse/compile/
interpreter time), best-of-N per backend to shrug off scheduler noise;
programs that never stay on trace fall back to the total-wall ratio
(see :func:`benchmarks.conftest.backend_ratio`).

Three gates, all on backend-to-backend *ratios*, never absolute times
(CI machines vary wildly in speed, but the dispatch overhead the py
backend removes scales with the machine, so ratios are stable):

* the **sieve gate** — the paper's running example must stay >= 2x
  (unchanged since PR 5);
* the **suite geomean gate** — the geomean ratio over the full suite
  (all 25 programs + the sieve = 26 entries) must not regress below
  the floor this benchmark records (the wall-clock frontier ratchet
  from the ROADMAP);
* the **per-program floor gate** — no single program may regress below
  0.9x, so a suite-wide win cannot paper over one program getting
  slower.  Untraceable programs ride the total-wall ratio, which is
  noisier, so any program measured under the floor is re-measured once
  at a higher run count before the gate fails — and the failure names
  every offending program.

Writes ``BENCH_wallclock.json`` (schema v3: per-program entries with
trace-transition counts + geomean + both floors; uploaded as a CI
artifact by the ``wallclock`` job).
"""

from __future__ import annotations

import json
import pathlib
import platform

import pytest

from conftest import backend_ratio, geomean, measure_wallclock

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_wallclock.json"

# The sieve of Eratosthenes — the paper's running example — scaled up
# so the trace-execution phase dominates and timer noise does not.
SIEVE = """
var primes = 0;
for (var round = 0; round < 12; round++) {
    var isPrime = [];
    for (var i = 0; i < 3000; i++) isPrime[i] = true;
    primes = 0;
    for (var i = 2; i < 3000; i++) {
        if (isPrime[i]) {
            primes++;
            for (var k = i + i; k < 3000; k += i) isPrime[k] = false;
        }
    }
}
primes;
"""

SIEVE_RUNS = 3
SUITE_RUNS = 2
#: Run count for the one-shot re-measure of programs that land under
#: the per-program floor on the first pass (total-wall ratios on short
#: untraceable programs are the noisy ones; more runs tightens best-of).
RETRY_RUNS = 6
MIN_SPEEDUP = 2.0
#: The suite-geomean ratchet.  Direct fragment linking pushed the
#: measured geomean past 3x; the floor is backed off ~45% from there to
#: absorb run-to-run and machine-to-machine noise.  Raise it as the
#: frontier moves (the ROADMAP targets >= 2.0 measured).
GEOMEAN_FLOOR = 1.7
#: No individual program may fall below this ratio: suite-wide wins
#: must not hide a single-program regression.
PER_PROGRAM_FLOOR = 0.9


@pytest.fixture(scope="module")
def sieve_measurements():
    """The sieve timed once per backend, shared by both gate tests."""
    return {
        "step": measure_wallclock(SIEVE, "step", runs=SIEVE_RUNS, name="sieve"),
        "py": measure_wallclock(SIEVE, "py", runs=SIEVE_RUNS, name="sieve"),
    }


def test_wallclock_py_backend_beats_step(sieve_measurements):
    step = sieve_measurements["step"]
    py = sieve_measurements["py"]

    # Equivalence sanity: same answer, same simulated-cycle bill.
    assert py["result"] == step["result"]
    assert py["simulated_cycles"] == step["simulated_cycles"]

    ratio = step["best_native_wall_seconds"] / py["best_native_wall_seconds"]
    print()
    print(
        f"native-phase wall: step {step['best_native_wall_seconds'] * 1000:.1f} ms, "
        f"py {py['best_native_wall_seconds'] * 1000:.1f} ms "
        f"(compile {py['compile_wall_seconds'] * 1000:.1f} ms) "
        f"-> {ratio:.1f}x"
    )

    assert ratio >= MIN_SPEEDUP, (
        f"py backend was only {ratio:.2f}x faster than step on the sieve "
        f"hot loop (need >= {MIN_SPEEDUP}x)"
    )


def _program_entry(name, category, traceable, step, py) -> dict:
    assert py["result"] == step["result"], f"{name}: backends disagree"
    assert py["simulated_cycles"] == step["simulated_cycles"], (
        f"{name}: simulated-cycle bills differ between backends"
    )
    ratio, basis = backend_ratio(step, py)
    return {
        "name": name,
        "category": category,
        "traceable": traceable,
        "ratio": ratio,
        "ratio_basis": basis,
        "step": {
            "native_wall_seconds": step["best_native_wall_seconds"],
            "total_wall_seconds": step["best_total_wall_seconds"],
            "simulated_cycles": step["simulated_cycles"],
        },
        "py": {
            "native_wall_seconds": py["best_native_wall_seconds"],
            "total_wall_seconds": py["best_total_wall_seconds"],
            "compile_wall_seconds": py["compile_wall_seconds"],
            "simulated_cycles": py["simulated_cycles"],
        },
        # How the py backend moved between traces: direct transfers
        # into inlined branches vs transfers stitched through the driver
        # vs exits that surfaced to the interpreter.  The CI wallclock
        # job uploads these, so how a cold run links is auditable, not
        # just a timing delta.
        "transitions": py["transitions"],
    }


def _measure_entry(program, runs: int) -> dict:
    step = measure_wallclock(
        program.source, "step", runs=runs, name=program.name
    )
    py = measure_wallclock(
        program.source, "py", runs=runs, name=program.name
    )
    return _program_entry(
        program.name, program.category, program.expected_traceable, step, py,
    )


def test_wallclock_full_suite(sieve_measurements):
    """The full-suite frontier: per-program ratios + both floor gates.

    Writes the combined BENCH_wallclock.json (schema v3), embedding the
    sieve measurements from the shared fixture so the document covers
    everything the wallclock CI job gates on.
    """
    from repro.suite.programs import PROGRAMS

    entries = [
        _program_entry(
            "sieve", "paper-example", True,
            sieve_measurements["step"], sieve_measurements["py"],
        )
    ]
    by_name = {program.name: program for program in PROGRAMS}
    for program in PROGRAMS:
        entries.append(_measure_entry(program, SUITE_RUNS))

    # Per-program floor, with one adaptive retry: total-wall ratios on
    # short untraceable programs wobble with scheduler noise, so a
    # first-pass miss gets a single best-of-RETRY_RUNS re-measure before
    # it counts as a regression.
    for index, entry in enumerate(entries):
        if entry["ratio"] >= PER_PROGRAM_FLOOR or entry["name"] == "sieve":
            continue
        retried = _measure_entry(by_name[entry["name"]], RETRY_RUNS)
        retried["remeasured_runs"] = RETRY_RUNS
        entries[index] = retried

    suite_geomean = geomean(entry["ratio"] for entry in entries)
    sieve_ratio = entries[0]["ratio"]
    transition_totals = {
        key: sum(entry["transitions"][key] for entry in entries)
        for key in ("direct_transfers", "monitor_stitched", "exit_surfacings")
    }

    document = {
        "schema": 3,
        "generated_by": "benchmarks/test_wallclock.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs_per_backend": {
            "sieve": SIEVE_RUNS, "suite": SUITE_RUNS, "retry": RETRY_RUNS,
        },
        "sieve": {
            "program": "sieve (scaled, 12 rounds x 3000)",
            "backends": sieve_measurements,
            "speedup_native_wall": sieve_ratio,
            "min_required_speedup": MIN_SPEEDUP,
        },
        "programs": entries,
        "transition_totals": transition_totals,
        "geomean_ratio": suite_geomean,
        "geomean_floor": GEOMEAN_FLOOR,
        "per_program_floor": PER_PROGRAM_FLOOR,
    }
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")

    print()
    width = max(len(entry["name"]) for entry in entries)
    for entry in sorted(entries, key=lambda e: -e["ratio"]):
        print(
            f"{entry['name']:>{width}}  {entry['ratio']:6.2f}x "
            f"({entry['ratio_basis']})"
        )
    print(
        f"{'geomean':>{width}}  {suite_geomean:6.2f}x over {len(entries)} "
        f"programs (floor {GEOMEAN_FLOOR}) -> {RESULT_PATH.name}"
    )

    assert len(entries) == 26, "the frontier covers the suite + the sieve"
    # Cold runs build each trunk before its branches exist, so every
    # stitch crosses the driver: that path must be exercising itself on
    # this suite, or the transition columns (and the frontier) are
    # measuring the wrong configuration.
    assert transition_totals["monitor_stitched"] > 0
    below_floor = [
        f"{entry['name']} ({entry['ratio']:.3f}x, {entry['ratio_basis']})"
        for entry in entries
        if entry["ratio"] < PER_PROGRAM_FLOOR
    ]
    assert not below_floor, (
        f"programs below the {PER_PROGRAM_FLOOR}x per-program floor even "
        f"after re-measuring at {RETRY_RUNS} runs: {', '.join(below_floor)}"
    )
    assert suite_geomean >= GEOMEAN_FLOOR, (
        f"suite geomean ratio regressed to {suite_geomean:.3f} "
        f"(floor {GEOMEAN_FLOOR}); see {RESULT_PATH}"
    )
