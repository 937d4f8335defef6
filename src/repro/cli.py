"""Command-line interface: run JSLite programs on any engine.

Usage::

    python -m repro program.js                # tracing VM (default)
    python -m repro --engine baseline prog.js # pure interpreter
    python -m repro --stats prog.js           # cycle/trace statistics
    python -m repro --compare prog.js         # all four engines + speedups
    python -m repro --disasm prog.js          # bytecode disassembly
    python -m repro --trace-dump prog.js      # compiled LIR + native code
    python -m repro --profile prog.js         # phase/fragment/deopt report
    python -m repro --profile-json p.json prog.js   # profile as JSON
    python -m repro --timeline t.html prog.js # TraceVis-style timeline
    python -m repro -e 'var s=0; for (var i=0;i<99;i++) s+=i; s;'
    python -m repro --inject-fault compile.assemble:1 prog.js  # chaos run
    python -m repro --chaos-seed 7 prog.js    # seeded pseudo-random faults
    python -m repro --fault-sites             # list injection sites
    python -m repro --deadline-cycles 200000 prog.js  # bounded run (exit 3)
    python -m repro batch --suite --deadline-cycles 2000000  # supervisor
    python -m repro --metrics-json m.json prog.js    # metrics snapshot
    python -m repro --metrics-prom m.prom prog.js    # Prometheus text
    python -m repro --trace-export t.json prog.js    # Chrome trace spans
    python -m repro batch --suite --metrics-json m.json --trace-export t.json
    python -m repro batch --suite --rate spam=2 --shed-after 64
    python -m repro batch --suite \
        --inject-fleet-fault fleet.worker_crash --dump-results r.json
    python -m repro --trace-store store/ prog.js  # persist + warm-start traces
    python -m repro batch --suite --trace-store store/   # warm the whole suite
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.bytecode.disasm import disassemble
from repro.errors import GuestFault, JSLiteSyntaxError, JSThrow, ReproError
from repro.runtime.conversions import to_string
from repro.suite.runner import ENGINES
from repro.vm import TracingVM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run JSLite programs on the TraceMonkey-reproduction VM "
            "(PLDI 2009 trace-based JIT type specialization)."
        ),
    )
    parser.add_argument("file", nargs="?", help="JSLite source file")
    parser.add_argument(
        "-e", "--eval", dest="source", help="program text given inline"
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="tracing",
        help="execution engine (default: tracing)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print VM statistics after the run"
    )
    parser.add_argument(
        "--native-backend",
        choices=("py", "step"),
        default="py",
        help=(
            "how compiled fragments execute: 'py' compiles each fragment "
            "to generated Python code, 'step' interprets the simulated "
            "native instructions one by one (default: py; the simulated-"
            "cycle tables are identical either way)"
        ),
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run on all four engines and report speedups over the baseline",
    )
    parser.add_argument(
        "--disasm", action="store_true", help="print the bytecode and exit"
    )
    parser.add_argument(
        "--trace-dump",
        action="store_true",
        help="after the run, print every compiled trace (LIR and native code)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "enable the phase profiler and print the profile report "
            "(phase breakdown, hot loops, top deopt sites) after the run"
        ),
    )
    parser.add_argument(
        "--profile-json",
        metavar="FILE",
        help="enable the phase profiler and write the profile JSON to FILE",
    )
    parser.add_argument(
        "--timeline",
        metavar="FILE",
        help=(
            "capture the phase timeline and write a TraceVis-style "
            "rendering to FILE (self-contained HTML for .html, ASCII "
            "otherwise)"
        ),
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="after the run, print the trace-lifecycle event stream as JSONL",
    )
    parser.add_argument(
        "--dump-events",
        metavar="FILE",
        help="write the trace-lifecycle event stream as JSONL to FILE",
    )
    parser.add_argument(
        "--no-result",
        action="store_true",
        help="do not print the program's completion value",
    )
    add_telemetry_arguments(parser)
    add_store_arguments(parser)
    chaos = parser.add_argument_group(
        "chaos engineering (see docs/INTERNALS.md, Failure domains)"
    )
    chaos.add_argument(
        "--inject-fault",
        metavar="SITE[:N]",
        action="append",
        help=(
            "inject an internal failure at SITE on its Nth hit (default "
            "1; ':*' fires every hit); repeatable.  The JIT firewall must "
            "contain it — the run's result must not change."
        ),
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        metavar="SEED",
        help="derive a deterministic pseudo-random fault plan from SEED",
    )
    chaos.add_argument(
        "--no-jit-firewall",
        action="store_true",
        help="disable the JIT firewall (internal failures escape; testing only)",
    )
    chaos.add_argument(
        "--fault-sites",
        action="store_true",
        help="list the registered fault-injection sites and exit",
    )
    add_limit_arguments(parser)
    return parser


def add_telemetry_arguments(parser) -> None:
    telemetry = parser.add_argument_group(
        "telemetry (see docs/INTERNALS.md, Production telemetry)"
    )
    telemetry.add_argument(
        "--metrics-json",
        metavar="FILE",
        help=(
            "enable the live metrics registry and write its JSON "
            "snapshot (counters/gauges/histograms, schema v1) to FILE"
        ),
    )
    telemetry.add_argument(
        "--metrics-prom",
        metavar="FILE",
        help=(
            "enable the live metrics registry and write the Prometheus "
            "text exposition to FILE"
        ),
    )
    telemetry.add_argument(
        "--trace-export",
        metavar="FILE",
        help=(
            "record lifecycle spans and write Chrome trace-event JSON "
            "to FILE (loadable in Perfetto / chrome://tracing)"
        ),
    )


def add_store_arguments(parser) -> None:
    store = parser.add_argument_group(
        "persistent trace store (see docs/INTERNALS.md, Warm start)"
    )
    store.add_argument(
        "--trace-store",
        metavar="DIR",
        help=(
            "persist linked traces to DIR and preload them on later runs "
            "of the same source (warm start); any store corruption falls "
            "back to cold tracing without changing the run's result"
        ),
    )
    store.add_argument(
        "--trace-store-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help=(
            "evict oldest store entries once their files exceed BYTES "
            "(0 = unlimited, the default)"
        ),
    )


def telemetry_of(vm) -> tuple:
    """A VM's metrics registry and a function that makes its Chrome trace
    document from a program name; None where absent."""
    metrics = getattr(vm, "metrics", None)
    spans = getattr(vm, "span_recorder", None)
    if spans is None:
        return metrics, None
    return metrics, lambda program: spans.to_chrome_trace(
        profiler=vm.profiler, program=program)


def write_telemetry(args, program: str, metrics, chrome_trace) -> int:
    """Write the telemetry artifacts the flags asked for; 0 on success.

    ``chrome_trace(program)`` builds the ``--trace-export`` document.
    Shared by single-run mode and ``batch``, and also called on the
    guest-fault path — a terminated run's metrics and spans are exactly
    the interesting ones.
    """
    if not (args.metrics_json or args.metrics_prom or args.trace_export):
        return 0
    from repro.obs.metrics import write_metrics_json, write_metrics_prom
    from repro.obs.spans import write_chrome_trace

    for path, what, write in (
        (args.metrics_json, "metrics",
         lambda path: write_metrics_json(metrics, path, program=program)),
        (args.metrics_prom, "metrics",
         lambda path: write_metrics_prom(metrics, path)),
        (args.trace_export, "trace",
         lambda path: write_chrome_trace(chrome_trace(program), path)),
    ):
        if not path:
            continue
        try:
            write(path)
        except OSError as error:
            print(f"repro: cannot write {path}: {error}", file=sys.stderr)
            return 1
        print(f"({what} written to {path})", file=sys.stderr)
    return 0


def add_limit_arguments(parser) -> None:
    limits = parser.add_argument_group(
        "resource limits (see docs/INTERNALS.md, Execution supervision)"
    )
    limits.add_argument(
        "--deadline-cycles",
        type=int,
        metavar="N",
        help="terminate the script after N simulated cycles (ScriptTimeout)",
    )
    limits.add_argument(
        "--heap-quota",
        type=int,
        metavar="N",
        help="terminate after the script allocates N heap cells",
    )
    limits.add_argument(
        "--output-quota",
        type=int,
        metavar="N",
        help="terminate after the script prints N bytes",
    )
    limits.add_argument(
        "--compile-quota",
        type=int,
        metavar="N",
        help="terminate after the JIT spends N simulated cycles compiling",
    )
    limits.add_argument(
        "--stack-quota",
        type=int,
        metavar="N",
        help="terminate when the guest call stack exceeds N frames",
    )


def build_limits(args):
    """A ``ResourceLimits`` from the quota flags (None if none given)."""
    from repro.exec import ResourceLimits

    limits = ResourceLimits(
        deadline_cycles=args.deadline_cycles,
        heap_quota=args.heap_quota,
        output_quota=args.output_quota,
        compile_quota=args.compile_quota,
        stack_quota=args.stack_quota,
    )
    return limits if limits.any() else None


def build_config(args):
    """A ``VMConfig`` reflecting the chaos flags (None if all default)."""
    from repro.vm import VMConfig

    if not (args.inject_fault or args.chaos_seed is not None
            or args.no_jit_firewall or args.native_backend != "py"
            or args.trace_store):
        return None
    config = VMConfig()
    config.native_backend = args.native_backend
    if args.trace_store:
        config.trace_store = args.trace_store
        config.trace_store_budget = args.trace_store_budget
    if args.no_jit_firewall:
        config.enable_jit_firewall = False
    if args.inject_fault:
        from repro.hardening import FaultPlan

        try:
            config.fault_plan = FaultPlan.parse(args.inject_fault)
        except ValueError as error:
            raise SystemExit(f"repro: {error}") from error
    elif args.chaos_seed is not None:
        config.chaos_seed = args.chaos_seed
    return config


def load_source(args) -> str:
    if args.source is not None:
        return args.source
    if args.file is None:
        raise SystemExit("repro: provide a file or -e 'source'")
    try:
        with open(args.file, "r") as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"repro: cannot read {args.file}: {error}") from error


def run_compare(source: str, out) -> int:
    cycles = {}
    results = set()
    for name in ("baseline", "threaded", "methodjit", "tracing"):
        vm = ENGINES[name]()
        try:
            result = vm.run(source)
        except JSThrow as thrown:
            print(f"uncaught exception: {to_string(thrown.value)}", file=sys.stderr)
            return 1
        cycles[name] = vm.stats.total_cycles
        results.add(repr(result))
        for line in vm.output:
            print(line, file=out)
        vm.output.clear()
    if len(results) != 1:
        print("engines disagree!", results, file=sys.stderr)
        return 2
    base = cycles["baseline"]
    print(f"{'engine':>10}  {'cycles':>14}  speedup", file=out)
    for name in ("baseline", "threaded", "methodjit", "tracing"):
        print(
            f"{name:>10}  {cycles[name]:14,d}  {base / cycles[name]:6.2f}x", file=out
        )
    return 0


def _dump_fragment_lir(fragment, out) -> None:
    """Pre-/post-optimization LIR views for one compiled fragment."""
    from repro.core.lir import format_trace

    pre = fragment.pre_lir
    if pre is not None and len(pre) != len(fragment.lir):
        print(f"LIR (as recorded, {len(pre)} insns):", file=out)
        print(format_trace(pre), file=out)
        print(f"LIR (optimized, {len(fragment.lir)} insns):", file=out)
    else:
        print("LIR:", file=out)
    loop_start = getattr(fragment, "lir_loop_start", 0)
    if loop_start:
        print("  ; -- prologue (once per trace entry) --", file=out)
        print(format_trace(fragment.lir[:loop_start]), file=out)
        print("  ; -- loop body (every iteration) --", file=out)
        print(format_trace(fragment.lir[loop_start:]), file=out)
    else:
        print(format_trace(fragment.lir), file=out)


def dump_traces(vm: TracingVM, out) -> None:
    from repro.core.typemap import describe_typemap
    from repro.jit.codegen import format_native

    trees = vm.monitor.cache.all_trees()
    if not trees:
        print("(no traces were compiled)", file=out)
        return
    for tree in trees:
        print(
            f"=== tree {tree.code.name}@{tree.header_pc} "
            f"{describe_typemap(tree.entry_typemap)} "
            f"globals={[(n, t.value) for n, _s, t in tree.global_imports]} "
            f"iterations={tree.iterations} ===",
            file=out,
        )
        _dump_fragment_lir(tree.fragment, out)
        print("native:", file=out)
        print(format_native(tree.fragment.native), file=out)
        for index, branch in enumerate(tree.branches):
            print(
                f"--- branch {index} (from exit {branch.anchor_exit.exit_id}, "
                f"{branch.anchor_exit.kind}) ---",
                file=out,
            )
            _dump_fragment_lir(branch, out)


def run_batch(argv: list, out) -> int:
    """The ``batch`` subcommand: one supervised VM over an
    admission-controlled queue of jobs."""
    from repro.exec import Fleet, Job
    from repro.suite.programs import PROGRAMS

    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "Run a queue of programs on one supervised VM: per-job "
            "isolation, resource limits, retry, per-tenant degradation, "
            "admission control.  Guest faults are contained (exit 0)."
        ),
    )
    parser.add_argument("files", nargs="*", help="JSLite source files (jobs)")
    parser.add_argument(
        "--suite",
        action="store_true",
        help="enqueue the built-in benchmark suite programs as jobs",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="tracing",
        help="execution engine (default: tracing)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="retries for jobs deopted by cache pressure (default: 1)",
    )
    parser.add_argument(
        "--degrade-after",
        type=int,
        default=2,
        metavar="N",
        help=(
            "compile-quota breaches before a tenant is demoted to "
            "interpreter-only mode (default: 2)"
        ),
    )
    parser.add_argument(
        "--probation-after",
        type=int,
        default=3,
        metavar="K",
        help=(
            "clean interpreter-only jobs before a degraded tenant gets "
            "the JIT back on half-open probation (default: 3)"
        ),
    )
    parser.add_argument(
        "--backoff-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the jittered retry backoff (default: 0)",
    )
    parser.add_argument(
        "--dump-events",
        metavar="FILE",
        help=(
            "write the events as JSONL to FILE: the fleet's scheduler "
            "stream, then every VM's stream (a respawn adds one)"
        ),
    )
    parser.add_argument(
        "--dump-results",
        metavar="FILE",
        help=(
            "write the canonical per-job results as JSON to FILE "
            "(job/tenant/status/result/output, sorted by job id — the "
            "document the fleet chaos CI diffs against a run under "
            "injected VM crashes and hangs)"
        ),
    )
    fleet_group = parser.add_argument_group(
        "fleet (see docs/INTERNALS.md, The fleet: one VM per batch)"
    )
    fleet_group.add_argument(
        "--rate",
        action="append",
        metavar="TENANT=R",
        help=(
            "token-bucket admission limit: at most R jobs/second for "
            "TENANT (burst max(1,R)); repeatable"
        ),
    )
    fleet_group.add_argument(
        "--shed-after",
        type=int,
        metavar="Q",
        help=(
            "bound the fleet ingress queue: admitting a job while Q "
            "(at least 1) are already queued sheds it (status 'shed', "
            "reason queue-full)"
        ),
    )
    fleet_group.add_argument(
        "--max-requeues",
        type=int,
        default=3,
        metavar="N",
        help=(
            "crash/hang resubmissions per job before it is reported "
            "worker-lost (default: 3)"
        ),
    )
    fleet_group.add_argument(
        "--inject-fleet-fault",
        action="append",
        metavar="SITE[:N]",
        help=(
            "inject a fleet-level fault (fleet.worker_crash, "
            "fleet.worker_hang) on its Nth hit; repeatable"
        ),
    )
    add_telemetry_arguments(parser)
    add_store_arguments(parser)
    add_limit_arguments(parser)
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--shed-after", args.shed_after, 1),
        ("--max-retries", args.max_retries, 0),
        ("--max-requeues", args.max_requeues, 0),
    ):
        if value is not None and value < least:
            raise SystemExit(
                f"repro: bad {flag} {value}: must be at least {least}"
            )
    rates = {}
    for spec in args.rate or ():
        tenant, sep, rate = spec.partition("=")
        if not sep:
            raise SystemExit(f"repro: bad --rate {spec!r}: expected TENANT=R")
        try:
            rates[tenant] = float(rate)
        except ValueError:
            raise SystemExit(
                f"repro: bad --rate {spec!r}: R must be a number"
            ) from None
        if not rates[tenant] > 0:
            raise SystemExit(f"repro: bad --rate {spec!r}: R must be positive")
    fault_plan = None
    if args.inject_fleet_fault:
        from repro.hardening import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.inject_fleet_fault)
        except ValueError as error:
            raise SystemExit(f"repro: {error}") from error

    jobs = []
    for path in args.files:
        try:
            with open(path, "r") as handle:
                source = handle.read()
        except OSError as error:
            raise SystemExit(f"repro: cannot read {path}: {error}") from error
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        jobs.append(Job(job_id=stem, source=source, tenant=stem, name=path))
    if args.suite:
        for program in PROGRAMS:
            jobs.append(
                Job(
                    job_id=program.name,
                    source=program.source,
                    tenant=program.category,
                    name=program.name,
                )
            )
    if not jobs:
        raise SystemExit("repro: batch needs files and/or --suite")

    batch_config = None
    if args.trace_store:
        from repro.vm import VMConfig

        batch_config = VMConfig()
        batch_config.trace_store = args.trace_store
        batch_config.trace_store_budget = args.trace_store_budget
    fleet = Fleet(
        engine=args.engine,
        config=batch_config,
        limits=build_limits(args),
        max_retries=args.max_retries,
        degrade_after=args.degrade_after,
        probation_after=args.probation_after,
        backoff_seed=args.backoff_seed,
        rates=rates,
        shed_after=args.shed_after,
        max_requeues=args.max_requeues,
        fault_plan=fault_plan,
        capture_events=args.dump_events is not None,
        capture_metrics=bool(args.metrics_json or args.metrics_prom),
        capture_spans=args.trace_export is not None,
    )
    results = fleet.run(jobs)
    tenants = fleet.tenant_summary()

    print(
        f"{'job':28} {'tenant':12} {'status':14} {'try':>3} "
        f"{'mode':11} {'cycles':>12} {'heap':>8} {'out':>6}",
        file=out,
    )
    print("-" * 90, file=out)
    by_status = {}
    for result in results:
        by_status[result.status] = by_status.get(result.status, 0) + 1
        print(
            f"{result.job_id:28.28} {result.tenant:12.12} "
            f"{result.status:14} {result.attempts:>3} "
            f"{result.engine_mode:11} {result.usage.cycles:>12,} "
            f"{result.usage.heap_cells:>8,} {result.usage.output_bytes:>6,}",
            file=out,
        )
        if result.fault:
            print(f"{'':28} `- {result.fault}", file=out)
    summary = ", ".join(
        f"{count} {status}" for status, count in sorted(by_status.items())
    )
    print("-" * 90, file=out)
    print(f"{len(results)} jobs: {summary}", file=out)
    counts = fleet.counts()
    fleet_line = ", ".join(
        f"{counts.get(kind, 0)} {label}"
        for kind, label in (
            ("job-shed", "shed"),
            ("worker-respawn", "respawned"),
            ("job-retried", "retried"),
        )
    )
    print(f"fleet: {fleet_line}", file=out)
    if tenants:
        print(file=out)
        print(
            f"{'tenant':16} {'jobs':>5} {'ok':>4} {'fault':>6} "
            f"{'retry':>6} {'cycles':>14} {'heap':>10} {'out':>8}",
            file=out,
        )
        print("-" * 76, file=out)
        for tenant, usage in tenants.items():
            print(
                f"{tenant:16.16} {usage.jobs:>5} {usage.ok:>4} "
                f"{usage.faulted:>6} {usage.retries:>6} "
                f"{usage.cycles:>14,} {usage.heap_cells:>10,} "
                f"{usage.output_bytes:>8,}",
                file=out,
            )
    degraded = fleet.degraded_tenants
    if degraded:
        names = ", ".join(sorted(degraded))
        print(f"degraded tenants (interp-only): {names}", file=out)
    if write_telemetry(args, "batch", fleet.metrics, fleet.chrome_trace):
        return 1
    if args.dump_events:
        try:
            count = fleet.write_events(args.dump_events)
        except OSError as error:
            print(f"repro: cannot write {args.dump_events}: {error}",
                  file=sys.stderr)
            return 1
        print(f"({count} events written to {args.dump_events})",
              file=sys.stderr)
    if args.dump_results:
        import json

        doc = {
            "schema": 1,
            "results": [
                {
                    "job": result.job_id,
                    "tenant": result.tenant,
                    "status": result.status,
                    "result": result.result,
                    "output": list(result.output),
                }
                for result in sorted(results, key=lambda r: r.job_id)
            ],
        }
        try:
            with open(args.dump_results, "w") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"repro: cannot write {args.dump_results}: {error}",
                  file=sys.stderr)
            return 1
        print(f"(results written to {args.dump_results})", file=sys.stderr)
    # Contained guest faults are the supervisor working as designed;
    # only host-side problems make batch itself fail.
    return 0


def main(argv: Optional[list] = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return run_batch(argv[1:], out)
    args = build_parser().parse_args(argv)
    if args.fault_sites:
        from repro.hardening import ALL_FAULT_SITES
        from repro.hardening.faults import SITE_HELP

        for site in ALL_FAULT_SITES:
            print(f"{site:22}  {SITE_HELP[site]}", file=out)
        return 0
    config = build_config(args)
    source = load_source(args)

    if args.compare:
        if args.events or args.dump_events:
            print("(--events is per-engine; ignored with --compare)",
                  file=sys.stderr)
        if args.profile or args.profile_json or args.timeline:
            print("(--profile is per-engine; ignored with --compare)",
                  file=sys.stderr)
        if args.metrics_json or args.metrics_prom or args.trace_export:
            print("(telemetry flags are per-engine; ignored with --compare)",
                  file=sys.stderr)
        if config is not None:
            print("(chaos flags are per-engine; ignored with --compare)",
                  file=sys.stderr)
        return run_compare(source, out)

    vm = ENGINES[args.engine](config)
    if args.events or args.dump_events:
        vm.events.capture = True
    if args.profile or args.profile_json or args.timeline:
        vm.enable_profiling(timeline=args.timeline is not None)
    if args.metrics_json or args.metrics_prom:
        vm.enable_metrics()
    program_span = 0
    if args.trace_export:
        vm.enable_span_tracing()
        program_span = vm.span_recorder.open(
            args.file or "<cli>", cat="program"
        )
    try:
        code = vm.compile(source, name=args.file or "<cli>")
    except (JSLiteSyntaxError, ReproError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 1

    if args.disasm:
        print(disassemble(code), file=out)
        return 0

    limits = build_limits(args)
    if limits is not None:
        vm.install_meter(limits)
    # main() drives compile/run_code itself (for --disasm), so the
    # store's preload/persist hooks in vm.run() are replayed here.
    store = getattr(vm, "trace_store", None)
    if store is not None:
        store.preload(vm, source, code)
    try:
        result = vm.run_code(code)
    except GuestFault as fault:
        for line in vm.output:
            print(line, file=out)
        print(f"repro: script terminated: {fault}", file=sys.stderr)
        if program_span:
            vm.span_recorder.close(program_span, status="terminated")
        write_telemetry(args, args.file or "<cli>", *telemetry_of(vm))
        if args.dump_events:
            # The breach events are the interesting part of a faulted
            # run; export them even though the run was terminated.
            try:
                count = vm.events.write_jsonl(args.dump_events)
                print(f"({count} events written to {args.dump_events})",
                      file=sys.stderr)
            except OSError as error:
                print(f"repro: cannot write {args.dump_events}: {error}",
                      file=sys.stderr)
        return 3
    except JSThrow as thrown:
        for line in vm.output:
            print(line, file=out)
        print(f"uncaught exception: {to_string(thrown.value)}", file=sys.stderr)
        return 1

    if store is not None:
        store.persist(vm, source, code)
    for line in vm.output:
        print(line, file=out)
    if not args.no_result:
        print(to_string(result), file=out)
    if args.stats:
        print(file=out)
        for line in vm.stats.summary_lines():
            print(line, file=out)
    if args.trace_dump:
        if args.engine != "tracing":
            print("(--trace-dump requires --engine tracing)", file=sys.stderr)
        else:
            print(file=out)
            dump_traces(vm, out)
    if args.profile:
        from repro.obs.report import profile_report

        print(file=out)
        print(profile_report(vm), file=out)
    if args.profile_json:
        from repro.obs.report import write_profile_json

        try:
            write_profile_json(vm, args.profile_json,
                               program=args.file or "<cli>")
        except OSError as error:
            print(f"repro: cannot write {args.profile_json}: {error}",
                  file=sys.stderr)
            return 1
        print(f"(profile written to {args.profile_json})", file=sys.stderr)
    if args.timeline:
        from repro.obs.timeline import write_timeline

        try:
            write_timeline(vm.profiler, args.timeline,
                           title=f"trace timeline — {args.file or '<cli>'}")
        except OSError as error:
            print(f"repro: cannot write {args.timeline}: {error}",
                  file=sys.stderr)
            return 1
        print(f"(timeline written to {args.timeline})", file=sys.stderr)
    if program_span:
        vm.span_recorder.close(program_span, status="ok")
    if write_telemetry(args, args.file or "<cli>", *telemetry_of(vm)):
        return 1
    if args.dump_events:
        try:
            count = vm.events.write_jsonl(args.dump_events)
        except OSError as error:
            print(f"repro: cannot write {args.dump_events}: {error}",
                  file=sys.stderr)
            return 1
        print(f"({count} events written to {args.dump_events})", file=sys.stderr)
    if args.events:
        jsonl = vm.events.to_jsonl()
        if jsonl:
            print(jsonl, file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
