"""Timed engine runs and batches, each checked against ``expected.json``.

A *cell* is one program run on one engine: a fresh VM, source in,
result out.  A *batch* is one ``repro batch`` invocation over the
workload's job files with a trace store.  Every timing is taken raw and
normalised to the reference machine with the run's
:class:`calib.SpeedProbe`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def engine_class(engine: str):
    from repro.baselines.method_jit import MethodJITVM
    from repro.vm import BaselineVM, TracingVM

    return {"tracing": TracingVM, "baseline": BaselineVM, "methodjit": MethodJITVM}[
        engine
    ]


class Checker:
    """Counts attempted and failed program runs and jobs."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, program: str, field: str, value, output) -> bool:
        """``field`` is ``repr`` for a VM's completion value, ``result``
        for a batch job's rendered result."""
        self.attempted += 1
        want = self.expected.get(program)
        if want is None:
            self.failures.append(f"{label}: no expected value for {program}")
            return False
        if value != want[field] or list(output) != want["output"]:
            self.failures.append(
                f"{label}: got {value!r} / {list(output)!r}, "
                f"expected {want[field]!r} / {want['output']!r}"
            )
            return False
        return True

    def fail(self, label: str, error: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {type(error).__name__}: {error}")


@dataclass
class Timing:
    raw_s: float
    norm_s: float


def timed(probe, fn, span=contextlib.nullcontext):
    """Run ``fn()`` inside ``span()``; returns ``(its result, Timing)``.

    Garbage left by the previous timed region is collected first, so
    no run pays for another's cycles.
    """
    gc.collect()
    mark = probe.mark()
    start = time.perf_counter()
    with span():
        result = fn()
    raw = time.perf_counter() - start
    return result, Timing(raw, raw / probe.factor(mark))


def run_cell(probe, checker: Checker, engine: str, program: str, source: str,
             config=None, span=contextlib.nullcontext):
    """One program on one engine; returns ``(vm or None, Timing)``."""

    def go():
        cls = engine_class(engine)
        vm = cls(config) if config is not None else cls()
        return vm, vm.run(source, name=program)

    label = f"{engine}/{program}"
    try:
        (vm, value), timing = timed(probe, go, span)
    except Exception as error:  # a crashing engine is a failed run, not a crash
        checker.fail(label, error)
        return None, None
    checker.check(label, program, "repr", repr(value), vm.output)
    return vm, timing


def write_job_files(jobs, sources: Dict[str, str], directory: pathlib.Path) -> List[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / f"{job.job_id}.js"
        path.write_text(sources[job.program])
        paths.append(str(path))
    return paths


def run_batch(probe, checker: Checker, label: str, jobs, files: Sequence[str],
              store: pathlib.Path, results: pathlib.Path,
              span=contextlib.nullcontext) -> Optional[Timing]:
    """One ``repro batch`` over ``files`` with ``--trace-store store``."""
    from repro.cli import main as repro_main

    argv = ["batch", *files, "--trace-store", str(store),
            "--dump-results", str(results)]

    def go():
        with contextlib.redirect_stderr(io.StringIO()):
            return repro_main(argv, out=io.StringIO())

    try:
        status, timing = timed(probe, go, span)
        if status != 0:
            raise RuntimeError(f"repro batch exited {status}")
        with open(results) as handle:
            rows = {row["job"]: row for row in json.load(handle)["results"]}
    except Exception as error:
        checker.fail(label, error)
        return None
    for job in jobs:
        row = rows.get(job.job_id, {"status": "missing", "result": None, "output": []})
        if row["status"] != "ok":
            checker.attempted += 1
            checker.failures.append(f"{label}/{job.job_id}: status {row['status']}")
            continue
        checker.check(
            f"{label}/{job.job_id}", job.program, "result", row["result"], row["output"]
        )
    return timing
