"""The repository's benchmark: wall clock end to end, and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hot-loops --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
in rounds: a cold and a warm ``repro batch`` over the workload's job
stream, then one pass over the workload's programs on each engine
(fresh VM per program, source in, result out).  The first round always
completes; more batches and program runs follow until ``--seconds``
have passed, and each metric takes the median of its samples.
``--trace 1`` makes one traced round instead and reports
the per-layer metrics; its spans are written to
``perfbench/out/<workload>-seed<seed>.trace.json`` (Chrome trace-event
format; open it in Perfetto).

Every program result, printed output and batch job is checked against
``expected.json``.  Wall times are normalised to the reference machine
(see ``calib.py``); raw seconds are recorded beside them in
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys

import calib
from measure import Checker, load_expected, run_batch, run_cell, write_job_files
from workloads import WORKLOADS, make_inputs, source_of

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run: this process plus fresh child interpreters, whose
#: median is ``setup_s``.
SETUP_REPEATS = 3

#: Suite programs in no workload, run once on every engine in set-up:
#: the first traced program in a process pays ~70 ms of one-time JIT
#: warm-up (lazy imports, first compile() calls) that would otherwise
#: land on whichever workload program the seed puts first.
WARMUP = ("3d-morph", "bitops-bitwise-and")

END_TO_END_UNITS = {
    "wall_s.tracing": "s",
    "wall_s.baseline": "s",
    "wall_s.methodjit": "s",
    "jobs_per_s.cold": "jobs/s",
    "jobs_per_s.warm": "jobs/s",
    "sim_cycles.tracing": "cycles",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the normalised set-up time and exit "
        "(how a run repeats its set-up in fresh interpreters)",
    )
    return parser.parse_args(argv)


class Context:
    """What set-up produces: the seeded inputs, sources and job files."""

    def __init__(self, args, probe):
        import repro.cli  # noqa: F401  (the batch entry point)
        import repro.core.store  # noqa: F401
        from repro.baselines.method_jit import MethodJITVM
        from repro.vm import BaselineVM, TracingVM

        self.inputs = make_inputs(args.workload, args.seed)
        workload = self.inputs.workload
        names = set(workload.programs) | {job.program for job in self.inputs.jobs}
        self.sources = {name: source_of(name) for name in names}
        self.checker = Checker(load_expected())
        self.workdir = OUT / f"work-{os.getpid()}"
        self.job_files = write_job_files(
            self.inputs.jobs, self.sources, self.workdir / "jobs"
        )
        for cls in (TracingVM, BaselineVM, MethodJITVM):
            for program in WARMUP:
                cls().run(source_of(program), name=program)
        raw = time.perf_counter() - PROCESS_START
        self.setup_s = raw / probe.factor(0)

    def batch(self, probe, label: str, store: pathlib.Path, **kwargs):
        return run_batch(
            probe, self.checker, label, self.inputs.jobs, self.job_files,
            store, self.workdir / f"{label}-results.json", **kwargs
        )


def child_setups(args) -> list:
    """Normalised set-up times of fresh interpreters (imports included)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def median(values):
    """Median, or 0 when every run failed (the run then reports
    ``correct: false``; JSON has no NaN)."""
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


# -- trace 0: the end-to-end metrics ------------------------------------------


def cells(inputs):
    """``(round, cell)`` in run order: each round is one cold+warm batch
    pair (cell None), then every program on every engine.  The first
    round always completes; later ones stop when the time is up."""
    for round_index, order in enumerate(inputs.rounds):
        yield round_index, None
        for program in order:
            for engine in inputs.engine_order:
                yield round_index, (program, engine)


def measure_end_to_end(args, ctx, probe, setups):
    """The end-to-end metrics; ``setups`` are this run's set-up times."""
    inputs = ctx.inputs
    engines = inputs.engine_order
    norm = {e: {p: [] for p in inputs.workload.programs} for e in engines}
    raw = {e: {p: [] for p in inputs.workload.programs} for e in engines}
    cycles = {e: {} for e in engines}
    batches = {"cold": [], "warm": []}
    start = time.perf_counter()
    for round_index, cell in cells(inputs):
        if round_index and time.perf_counter() - start >= args.seconds:
            break
        if cell is None:
            store = ctx.workdir / f"store-{round_index}"
            for label in ("cold", "warm"):
                timing = ctx.batch(probe, label, store)
                if timing is not None:
                    batches[label].append(timing)
            shutil.rmtree(store, ignore_errors=True)
            continue
        program, engine = cell
        vm, timing = run_cell(probe, ctx.checker, engine, program, ctx.sources[program])
        if timing is not None:
            norm[engine][program].append(timing.norm_s)
            raw[engine][program].append(timing.raw_s)
            cycles[engine].setdefault(program, vm.stats.total_cycles)

    rows = []
    for program in sorted(inputs.workload.programs):
        wall = {e: median(norm[e][program]) for e in engines}
        sim = {e: cycles[e].get(program, 0) for e in engines}
        rows.append({
            "program": program,
            "wall_s": wall,
            "raw_s": {e: median(raw[e][program]) for e in engines},
            "samples": len(norm["tracing"][program]),
            "sim_cycles": sim,
            "speedup_wall": ratio(wall["baseline"], wall["tracing"]),
            "speedup_sim": ratio(sim["baseline"], sim["tracing"]),
        })
    jobs = len(inputs.jobs)
    metrics = {
        f"wall_s.{e}": sum(row["wall_s"][e] for row in rows) for e in engines
    }
    for label in ("cold", "warm"):
        metrics[f"jobs_per_s.{label}"] = ratio(
            jobs, median([t.norm_s for t in batches[label]])
        )
    metrics["sim_cycles.tracing"] = sum(row["sim_cycles"]["tracing"] for row in rows)
    checker = ctx.checker
    metrics["ok_frac"] = 1 - ratio(checker.failed, checker.attempted)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    artifact = {
        "setup_s_samples": setups,
        "batch_samples": len(batches["cold"]),
        "programs": rows,
        "raw": {
            **{f"wall_s.{e}": sum(row["raw_s"][e] for row in rows) for e in engines},
            **{
                f"jobs_per_s.{label}": ratio(
                    jobs, median([t.raw_s for t in batches[label]])
                )
                for label in ("cold", "warm")
            },
        },
        "geomean_speedup_wall": geomean([row["speedup_wall"] for row in rows]),
        "tracing_slower_than_interpreter": [
            row["program"] for row in rows if row["speedup_wall"] < 1.0
        ],
    }
    return metrics, artifact


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


# -- trace 1: the per-layer metrics -------------------------------------------


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                result[order[k]] = (i + j) / 2
            i = j + 1
        return result

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5 if vx and vy else 0.0


def measure_layers(args, ctx, probe):
    from layers import SELF_TIME_METRICS, LayerTracer, write_chrome_trace
    from repro.vm import VMConfig

    inputs = ctx.inputs
    checker = ctx.checker
    pass_tracer = LayerTracer("tracing-pass")
    batch_tracer = LayerTracer("batch")
    totals = {"plain": 0.0, "traced": 0.0, "traced_raw": 0.0, "profiled": 0.0,
              "baseline": 0.0}
    stats = []
    rows = []
    for program in inputs.rounds[0]:
        source = ctx.sources[program]
        _, plain = run_cell(probe, checker, "tracing", program, source)
        with pass_tracer.installed():
            vm, traced = run_cell(probe, checker, "tracing", program, source,
                                  span=lambda: pass_tracer.root("program"))
        _, profiled = run_cell(probe, checker, "tracing", program, source,
                               config=VMConfig(profile=True))
        base_vm, base = run_cell(probe, checker, "baseline", program, source)
        if None in (vm, plain, traced, profiled, base_vm, base):
            continue
        stats.append(vm.stats)
        totals["plain"] += plain.norm_s
        totals["traced"] += traced.norm_s
        totals["traced_raw"] += traced.raw_s
        totals["profiled"] += profiled.norm_s
        totals["baseline"] += base.norm_s
        rows.append({
            "program": program,
            "tracing_s": plain.norm_s,
            "traced_s": traced.norm_s,
            "profiled_s": profiled.norm_s,
            "baseline_s": base.norm_s,
            "profiler_overhead_frac": ratio(profiled.norm_s, plain.norm_s) - 1,
            "trace_overhead_frac": ratio(traced.norm_s, plain.norm_s) - 1,
            "speedup_wall": ratio(base.norm_s, plain.norm_s),
            "sim_cycles": {"tracing": vm.stats.total_cycles,
                           "baseline": base_vm.stats.total_cycles},
            "speedup_sim": ratio(base_vm.stats.total_cycles, vm.stats.total_cycles),
        })

    store = ctx.workdir / "store-traced"
    with batch_tracer.installed():
        root = lambda: batch_tracer.root("batch")  # noqa: E731
        cold = ctx.batch(probe, "cold", store, span=root)
        preloads = batch_tracer.calls["store.preload"]
        hits = batch_tracer.counts["store.preload_hits"]
        warm = ctx.batch(probe, "warm", store, span=root)
    warm_preloads = batch_tracer.calls["store.preload"] - preloads
    warm_hits = batch_tracer.counts["store.preload_hits"] - hits
    shutil.rmtree(store, ignore_errors=True)
    batch_walls = [t for t in (cold, warm) if t is not None]

    # Self times are reported in reference seconds, like the wall times:
    # every layer of the traced pass is scaled by the pass's slowdown.
    pass_scale = ratio(totals["traced"], totals["traced_raw"])
    batch_scale = ratio(
        sum(t.norm_s for t in batch_walls), sum(t.raw_s for t in batch_walls)
    )

    def total(attr, sub=None):
        return sum(getattr(getattr(s, sub) if sub else s, attr) for s in stats)

    calls, counts = pass_tracer.calls, pass_tracer.counts
    tree_builds = counts["pycompile.tree_builds"]
    metrics = {name: pass_tracer.self_s.get(span, 0.0) * pass_scale
               for span, name in SELF_TIME_METRICS.items()}
    metrics.update({
        "interp.bytecodes": total("interpreted", "profile"),
        "monitor.loop_headers": calls["jit.monitor"],
        "monitor.tree_entries": total("trace_entries", "tracing"),
        "recorder.bytecodes": calls["jit.recorder"],
        "recorder.started": total("recordings_started", "tracing"),
        "recorder.aborted": total("traces_aborted", "tracing"),
        "recorder.abort_frac": ratio(total("traces_aborted", "tracing"),
                                     total("recordings_started", "tracing")),
        "recorder.blacklisted": total("blacklisted", "tracing"),
        "optimizer.fragments": calls["jit.optimizer"],
        "optimizer.removed": total("opt_cse_removed", "tracing")
        + total("opt_guards_eliminated", "tracing") + total("opt_hoisted", "tracing"),
        "codegen.native_insns": counts["codegen.native_insns"],
        "pycompile.fragment_builds": calls["jit.pycompile"] - tree_builds,
        "pycompile.tree_builds": tree_builds,
        "pycompile.rebuilds_per_tree": ratio(tree_builds,
                                             counts["pycompile.distinct_trees"]),
        "pycompile.emitted_kb": counts["pycompile.emitted_bytes"] / 1024,
        "native.runs": calls["jit.native"],
        "native.iterations": total("loop_iterations_native", "tracing"),
        "native.bytecodes": total("native", "profile"),
        "exits.count": calls["jit.exits"],
        "exits.stitched": total("stitched_transfers", "tracing"),
        "cache.flushes": total("cache_flushes", "tracing"),
        "cache.fragments_linked": total("fragments_linked", "tracing"),
        "store.preload_s": batch_tracer.self_s.get("store.preload", 0.0) * batch_scale,
        "store.persist_s": batch_tracer.self_s.get("store.persist", 0.0) * batch_scale,
        "store.preloads": batch_tracer.calls["store.preload"],
        "store.persists": batch_tracer.calls["store.persist"],
        "store.hit_frac": ratio(warm_hits, warm_preloads),
        "exec.job_s": median(batch_tracer.job_durations) * batch_scale,
        "exec.overhead_s": batch_tracer.self_s.get("batch", 0.0) * batch_scale,
        "exec.retries": batch_tracer.counts["exec.retries"],
        "check.trace_overhead_frac": ratio(totals["traced"], totals["plain"]) - 1,
        "check.profiler_overhead_frac": ratio(totals["profiled"], totals["plain"]) - 1,
        "check.speedup_wall": ratio(totals["baseline"], totals["plain"]),
        "check.speedup_sim": ratio(
            sum(row["sim_cycles"]["baseline"] for row in rows),
            sum(row["sim_cycles"]["tracing"] for row in rows),
        ),
        "check.sim_wall_rank_corr": spearman(
            [row["speedup_sim"] for row in rows],
            [row["speedup_wall"] for row in rows],
        ),
    })
    self_times = {span: t * pass_scale for span, t in pass_tracer.self_s.items()}
    artifact = {
        "programs": rows,
        "pass_self_s": self_times,
        "pass_wall_s": totals["traced"],
        "batch_self_s": {span: t * batch_scale
                         for span, t in batch_tracer.self_s.items()},
        "sim_wall_disagree": [
            row["program"] for row in rows
            if (row["speedup_sim"] > 1) != (row["speedup_wall"] > 1)
        ],
    }
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    write_chrome_trace(
        trace_path, [pass_tracer, batch_tracer], PROCESS_START,
        {
            "workload": args.workload,
            "seed": args.seed,
            "counts": {k: v for k, v in metrics.items() if not k.endswith("_s")},
            "check.trace_overhead_frac": metrics["check.trace_overhead_frac"],
        },
    )
    artifact["trace_file"] = trace_path.name
    return metrics, artifact


# -- reporting ----------------------------------------------------------------


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "KiB"
    if name.startswith("check.speedup"):
        return "x"
    if name.endswith("_frac") or name.endswith("_corr") or name.endswith("_per_tree"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    ctx = None
    try:
        with calib.SpeedProbe() as probe:
            ctx = Context(args, probe)
            if args.setup_only:
                print(json.dumps({"setup_s": ctx.setup_s}))
                return 0
            if args.trace:
                metrics, artifact = measure_layers(args, ctx, probe)
            else:
                setups = [ctx.setup_s] + child_setups(args)
                metrics, artifact = measure_end_to_end(args, ctx, probe, setups)
    finally:
        if ctx is not None:
            shutil.rmtree(ctx.workdir, ignore_errors=True)

    checker = ctx.checker
    artifact.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": checker.attempted,
        "failures": checker.failures,
    })
    artifact_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(artifact_path, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit_of(name)}")
    if not args.trace:
        print(f"  {'failed_frac':32} {1 - metrics['ok_frac']:14.6g} ratio")
    for failure in checker.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  (details in {artifact_path.relative_to(ROOT)})")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
