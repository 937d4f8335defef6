"""Cross-engine agreement on the full benchmark suite.

Every SunSpider-like program must produce identical results on all four
engines; the tracing VM must additionally show the Figure 10/11 shape
(traceable programs mostly native, untraceable ones not traced).
"""

import pytest

from repro.suite.programs import PROGRAMS
from repro.suite.runner import run_program

FAST_PROGRAMS = [p for p in PROGRAMS if p.name not in ("access-binary-trees",)]


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_tracing_matches_baseline(program):
    baseline = run_program(program, "baseline")
    tracing = run_program(program, "tracing")
    assert tracing.result_repr == baseline.result_repr


@pytest.mark.parametrize("program", FAST_PROGRAMS, ids=lambda p: p.name)
def test_methodjit_and_threaded_match_baseline(program):
    baseline = run_program(program, "baseline")
    for engine in ("threaded", "methodjit"):
        result = run_program(program, engine)
        assert result.result_repr == baseline.result_repr, engine


@pytest.mark.parametrize(
    "program",
    [p for p in PROGRAMS if not p.expected_traceable],
    ids=lambda p: p.name,
)
def test_untraceable_programs_stay_in_interpreter(program):
    result = run_program(program, "tracing")
    assert result.stats.profile.fraction_native() < 0.3


def test_most_traceable_programs_run_mostly_native():
    mostly_native = 0
    traceable = [p for p in PROGRAMS if p.expected_traceable]
    for program in traceable:
        result = run_program(program, "tracing")
        if result.stats.profile.fraction_native() > 0.75:
            mostly_native += 1
    # Figure 11: "In most of the tests, almost all the bytecodes are
    # executed by compiled traces."
    assert mostly_native >= len(traceable) - 2


def test_threaded_interpreter_uniformly_modest():
    for program in FAST_PROGRAMS[:6]:
        base = run_program(program, "baseline")
        threaded = run_program(program, "threaded")
        speedup = base.cycles / threaded.cycles
        assert 1.0 <= speedup <= 3.0, program.name
