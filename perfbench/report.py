"""Record one trajectory point: every workload, untraced and traced.

Run from the repository root::

    python3 perfbench/report.py --label seed-233b3e3 --seed 1 --seconds 20

It runs ``run.py`` on every workload with ``--trace 0`` and ``--trace
1``, then writes ``perfbench/trajectory/<label>.json`` and ``.md``:
the end-to-end and per-layer metrics, one row per program with its
wall and simulated-cycle speedups over the interpreter, the wall
speedup geomean, the programs the tracing VM runs slower than the
interpreter, and the rank correlation between simulated and wall
speedups over all engine-workload programs (Figure 10 against real
time).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from run import OUT, ROOT, geomean, spearman
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ENGINE_WORKLOADS = ("hot-loops", "compile-heavy", "interp-bound")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    point = {"label": args.label, "seed": args.seed, "workloads": {}}
    rows = []
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0)
        traced = run_workload(workload, args.seed, args.seconds, 1)
        total = traced["pass_wall_s"]
        point["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "raw": plain["raw"],
            "per_layer": traced["metrics"],
            "self_time_share": {
                span: t / total for span, t in sorted(
                    traced["pass_self_s"].items(), key=lambda kv: -kv[1])
            },
            "failures": plain["failures"] + traced["failures"],
        }
        if workload in ENGINE_WORKLOADS:
            profiler = {r["program"]: r["profiler_overhead_frac"]
                        for r in traced["programs"]}
            for row in plain["programs"]:
                rows.append(dict(row, workload=workload,
                                 profiler_overhead_frac=profiler[row["program"]]))
    point["programs"] = rows
    point["geomean_speedup_wall"] = geomean([r["speedup_wall"] for r in rows])
    point["geomean_speedup_sim"] = geomean([r["speedup_sim"] for r in rows])
    point["sim_wall_rank_corr"] = spearman(
        [r["speedup_sim"] for r in rows], [r["speedup_wall"] for r in rows]
    )
    point["tracing_slower_than_interpreter"] = [
        r["program"] for r in rows if r["speedup_wall"] < 1.0
    ]
    point["sim_wall_disagree"] = [
        r["program"] for r in rows
        if (r["speedup_sim"] > 1.0) != (r["speedup_wall"] > 1.0)
    ]

    out = HERE / "trajectory"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.label}.json", "w") as handle:
        json.dump(point, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(out / f"{args.label}.md", "w") as handle:
        handle.write(render(point))
    print(render(point))
    return 0


def render(point: dict) -> str:
    lines = [f"# Trajectory point `{point['label']}` (seed {point['seed']})", ""]
    lines.append("Wall times are reference-machine seconds (see calib.py).")
    lines.append("")
    lines.append("| workload | metric | value |")
    lines.append("|---|---|---|")
    for workload, data in point["workloads"].items():
        for name, value in data["end_to_end"].items():
            lines.append(f"| {workload} | {name} | {value:.6g} |")
    lines.append("")
    lines.append("Self-time share of the traced tracing pass:")
    lines.append("")
    for workload, data in point["workloads"].items():
        shares = ", ".join(f"{span} {share:.1%}"
                           for span, share in data["self_time_share"].items())
        lines.append(f"- {workload}: {shares}")
    lines.append("")
    lines.append("| program | workload | tracing s | baseline s | methodjit s "
                 "| wall speedup | sim speedup | profiler overhead |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for r in sorted(point["programs"], key=lambda r: r["speedup_wall"]):
        w = r["wall_s"]
        lines.append(
            f"| {r['program']} | {r['workload']} | {w['tracing']:.4f} "
            f"| {w['baseline']:.4f} | {w['methodjit']:.4f} "
            f"| {r['speedup_wall']:.2f}x | {r['speedup_sim']:.2f}x "
            f"| {r['profiler_overhead_frac']:+.1%} |"
        )
    lines.append("")
    lines.append(f"Wall-speedup geomean: {point['geomean_speedup_wall']:.3f}x "
                 f"(simulated: {point['geomean_speedup_sim']:.3f}x)")
    lines.append(f"Spearman(sim speedup, wall speedup): "
                 f"{point['sim_wall_rank_corr']:.3f}")
    lines.append("Tracing slower than the interpreter in wall time: "
                 + ", ".join(point["tracing_slower_than_interpreter"]))
    lines.append("Simulated and wall speedups disagree on the side of 1x: "
                 + ", ".join(point["sim_wall_disagree"]))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
