"""Tests for the suite runner and its figure tables."""

import math

import pytest

from repro.suite.programs import PROGRAMS, program_named, programs_by_category
from repro.suite.runner import (
    figure10_table,
    figure11_table,
    figure12_table,
    format_figure10,
    format_figure11,
    format_figure12,
    run_program,
    run_suite,
)

SMALL = [program_named("bitops-bitwise-and"), program_named("controlflow-recursive")]


@pytest.fixture(scope="module")
def small_results():
    return run_suite(programs=SMALL)


class TestPrograms:
    def test_suite_size_matches_sunspider_scale(self):
        # SunSpider has 26 programs; we carry 25 in the same categories.
        assert len(PROGRAMS) == 25

    def test_unique_names(self):
        names = [program.name for program in PROGRAMS]
        assert len(set(names)) == len(names)

    def test_categories_cover_sunspider(self):
        categories = set(programs_by_category())
        assert {"bitops", "math", "3d", "access", "crypto", "string",
                "controlflow", "date"} <= categories

    def test_exactly_three_untraceable(self):
        assert sum(1 for p in PROGRAMS if not p.expected_traceable) == 3

    def test_program_named_raises_for_unknown(self):
        with pytest.raises(KeyError):
            program_named("not-a-benchmark")


class TestRunner:
    def test_run_program_engines(self):
        program = program_named("bitops-bitwise-and")
        results = {
            engine: run_program(program, engine)
            for engine in ("baseline", "threaded", "methodjit", "tracing")
        }
        reprs = {result.result_repr for result in results.values()}
        assert len(reprs) == 1
        assert results["tracing"].cycles < results["baseline"].cycles

    def test_run_program_with_config(self):
        from repro.vm import VMConfig

        program = program_named("bitops-bitwise-and")
        result = run_program(program, "tracing", VMConfig(enable_tracing=True))
        assert result.stats.tracing.trees_formed >= 1

    def test_run_suite_structure(self, small_results):
        assert set(small_results) == {program.name for program in SMALL}
        for row in small_results.values():
            assert set(row) == {"baseline", "threaded", "methodjit", "tracing"}


class TestTables:
    def test_figure10_rows(self, small_results):
        rows = figure10_table(small_results)
        assert len(rows) == len(SMALL)
        for row in rows:
            for engine in ("tracing", "threaded", "methodjit"):
                assert row[engine] > 0
        text = format_figure10(rows)
        assert "bitops-bitwise-and" in text
        assert "x" in text

    def test_figure11_rows(self, small_results):
        rows = figure11_table(small_results)
        for row in rows:
            total = row["native"] + row["interpreted"] + row["recorded"]
            assert math.isclose(total, 1.0, abs_tol=1e-9)
        text = format_figure11(rows)
        assert "%" in text

    def test_figure12_rows(self, small_results):
        rows = figure12_table(small_results)
        for row in rows:
            fractions = [row[key] for key in
                         ("native", "interpret", "monitor", "record", "compile")]
            assert math.isclose(sum(fractions), 1.0, abs_tol=1e-9)
        format_figure12(rows)  # must not raise
