"""Figure 10: speedup of TraceMonkey, SFX, and V8 over the baseline
interpreter on the SunSpider-like suite.

Paper claims reproduced in shape (not absolute numbers):

* tracing achieves the best speedups on integer-heavy benchmarks (up to
  25x on bitops-bitwise-and in the paper; the top speedup here must be
  on a bitops benchmark too);
* tracing is the fastest VM on a meaningful subset of the suite (9 of
  26 in the paper);
* the untraceable programs run at interpreter speed under tracing;
* the call-threaded interpreter gives a uniform modest speedup;
* the method JIT helps everywhere, including recursion-heavy programs
  where tracing does not.
"""

from conftest import write_result

from repro.suite.runner import figure10_table, format_figure10


def test_figure10_speedups(benchmark, suite_results):
    rows = benchmark.pedantic(
        lambda: figure10_table(suite_results), rounds=1, iterations=1
    )
    table = format_figure10(rows)
    write_result("figure10.txt", table)

    by_name = {row["program"]: row for row in rows}

    # Traceable programs: tracing wins big on the bitops kernels.
    best = max(rows, key=lambda row: row["tracing"])
    assert best["category"] == "bitops"
    assert best["tracing"] > 5.0

    # 2x-20x band for most traceable programs (paper Section 1).
    traceable = [row for row in rows if row["expected_traceable"]]
    over_2x = [row for row in traceable if row["tracing"] >= 2.0]
    assert len(over_2x) >= len(traceable) * 0.6

    # Untraceable programs: tracing ≈ interpreter (no native code).
    for row in rows:
        if not row["expected_traceable"]:
            assert row["tracing"] < 1.6

    # Tracing is the fastest VM on a subset of the suite, like the
    # paper's 9 of 26.
    tracing_wins = [
        row
        for row in rows
        if row["tracing"] >= row["threaded"] and row["tracing"] >= row["methodjit"]
    ]
    assert len(tracing_wins) >= 5

    # The method JIT wins on the recursion-heavy programs.
    for name in ("controlflow-recursive", "access-binary-trees"):
        row = by_name[name]
        assert row["methodjit"] > row["tracing"]

    # SFX-like: uniform modest speedup everywhere.
    threaded = [row["threaded"] for row in rows]
    assert all(0.9 <= s <= 3.0 for s in threaded)

    mean_tracing = sum(r["tracing"] for r in traceable) / len(traceable)
    benchmark.extra_info["mean_traceable_speedup"] = round(mean_tracing, 2)
    benchmark.extra_info["best"] = f"{best['program']} {best['tracing']:.1f}x"
