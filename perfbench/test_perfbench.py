"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

They drive the real measurement functions on a two-program workload so
they finish in seconds.
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import calib
import run
import workloads
from layers import SELF_TIME_METRICS, _layer_entry_points
from measure import EXPECTED_PATH

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

MINI = workloads.Workload(
    name="mini",
    why="test workload",
    programs={"bitops-bits-in-byte": "int loops", "string-base64": "branchy"},
    jobs={"bitops-bits-in-byte": 2, "string-base64": 1},
)

#: Named layers' self times must cover the traced wall to within this
#: share; the rest is the root span's own glue (VM construction).
SELF_TIME_TOLERANCE = 0.05


@pytest.fixture
def mini(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "mini", MINI)
    monkeypatch.setattr(run, "OUT", tmp_path)

    def measure(trace: int, expected=None):
        args = run.parse_args(["--workload", "mini", "--seed", "7",
                               "--seconds", "0", "--trace", str(trace)])
        with calib.SpeedProbe() as probe:
            ctx = run.Context(args, probe)
            if expected is not None:
                ctx.checker.expected = expected
            try:
                if trace:
                    metrics, artifact = run.measure_layers(args, ctx, probe)
                else:
                    metrics, artifact = run.measure_end_to_end(
                        args, ctx, probe, [ctx.setup_s]
                    )
            finally:
                shutil.rmtree(ctx.workdir, ignore_errors=True)
        return metrics, artifact, ctx.checker

    return measure


def test_layer_self_times_sum_to_traced_wall(mini):
    metrics, artifact, checker = mini(1)
    assert checker.failures == []
    wall = artifact["pass_wall_s"]
    layers = sum(metrics[name] for name in SELF_TIME_METRICS.values())
    assert wall * (1 - SELF_TIME_TOLERANCE) <= layers <= wall * 1.005
    # Every span is accounted to exactly one layer or root.
    assert sum(artifact["pass_self_s"].values()) == pytest.approx(wall, rel=0.005)


def test_traced_run_restores_every_entry_point(mini):
    before = [getattr(owner, attr) for owner, attr, _ in _layer_entry_points()]
    mini(1)
    after = [getattr(owner, attr) for owner, attr, _ in _layer_entry_points()]
    assert all(a is b for a, b in zip(before, after))


DETERMINISTIC = (
    "pycompile.tree_builds",
    "pycompile.emitted_kb",
    "recorder.aborted",
    "exits.count",
)


def test_deterministic_counts_repeat_exactly(mini):
    first, _, _ = mini(1)
    second, _, _ = mini(1)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["pycompile.tree_builds"] > 0
    assert first["exits.count"] > 0
    cycles = [mini(0)[0]["sim_cycles.tracing"] for _ in range(2)]
    assert cycles[0] == cycles[1] > 0


def test_metric_names_match_benchmark_json(mini):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"mini"}
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    end_to_end, _, _ = mini(0)
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end)
    per_layer, _, _ = mini(1)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_corrupted_expected_value_fails_the_check(mini):
    expected = json.loads(EXPECTED_PATH.read_text())
    expected["string-base64"]["result"] = "97"
    expected["string-base64"]["repr"] = "Box(int, 97)"
    _, _, clean = mini(0)
    assert clean.failed == 0 and clean.attempted > 0
    _, _, checker = mini(0, expected=expected)
    # One failure per engine run of the program and per batch job of it.
    assert checker.failed == 3 + 2
    assert all("string-base64" in failure for failure in checker.failures)


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 3)
        assert a == workloads.make_inputs(name, 3)
        b = workloads.make_inputs(name, 4)
        assert a.rounds != b.rounds or len(a.workload.programs) < 3
        # A seed permutes the work; it never changes how much there is.
        assert sorted(j.program for j in a.jobs) == sorted(j.program for j in b.jobs)


def test_traced_run_writes_a_chrome_trace(mini):
    from repro.obs.validate import validate_chrome_trace

    _, artifact, _ = mini(1)
    doc = json.loads((run.OUT / artifact["trace_file"]).read_text())
    assert validate_chrome_trace(doc) > 0
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    assert {"program", "batch", "interp", "jit.native", "exec.job",
            "store.persist"} <= names
    assert all("run" in e["args"] for e in spans)
    assert any("parent_span" in e["args"] for e in spans)
    assert "check.trace_overhead_frac" in doc["otherData"]


def test_normaliser_does_not_import_repro():
    tree = ast.parse((HERE / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "signal", "time"}
    code = (
        "import sys; import calib; calib.kernel(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'repro'])"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-loops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
