"""The benchmark's workloads and their seeded inputs.

Every workload is a set of JSLite programs (run once per engine per
round, fresh VM each) plus a job stream (run through ``repro batch``
twice: cold into an empty trace store, then warm from it).  The seed
only permutes: it sets the program order, the engine order and the
job stream's order and tenants.  The programs and the job multiset are
fixed, so every seed does the same amount of work and run-to-run spread
measures the machine, not the draw.

The shares quoted below are self-time shares of the tracing engine's
wall time in a traced run on the reference machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

#: The paper's running example (Figure 1), scaled up so a pass spends
#: its time in the trace rather than in start-up.
SIEVE = """
var primes = 0;
for (var round = 0; round < 4; round++) {
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

ENGINES = ("tracing", "baseline", "methodjit")

#: Tenant names for the job streams.
TENANTS = ("acme", "globex", "initech", "umbrella")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: program name -> why it is in this workload.
    programs: Dict[str, str]
    #: program name -> how many jobs of it the batch stream holds.
    #: Empty means one job per program.
    jobs: Dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot-loops",
            why=(
                "type-stable loops the paper targets; traced, jit.native is "
                "52% of tracing time and jit.pycompile 20%: native, monitor "
                "and exit changes show here"
            ),
            programs={
                "sieve": "the paper's running example (Figure 1), scaled",
                "access-nsieve": "array-heavy integer sieve; one hot tree",
                "bitops-nsieve-bits": "bit-twiddling sieve; int-only trace",
                "bitops-bits-in-byte": "tiny nested loop; many tree entries",
                "crypto-crc32": "table lookups in a tight integer loop",
                "access-fannkuch": "nested array permutation loops",
                "math-cordic": "double arithmetic in a stable loop",
                "string-validate-input": "string building in a hot loop",
            },
            jobs={},
        ),
        Workload(
            name="compile-heavy",
            why=(
                "branchy programs with many branch traces; traced, "
                "jit.pycompile is 87% of tracing time and jit.native 4%: "
                "trace-compile changes show here, native-only ones must not"
            ),
            programs={
                "regexp-dna-lite": "one tree's megafunction is rebuilt over "
                "and over; ~65x slower traced than interpreted",
                "crypto-sha1": "long straight-line rounds; big fragments",
                "date-format-tofte-lite": "switch-heavy formatting; many "
                "branches",
                "3d-cube-lite": "branchy matrix code; traced slower than "
                "interpreted",
                "access-nbody": "double-heavy physics with branch exits",
                "string-base64": "character-class branches per byte",
                "math-spectral-norm": "nested calls, float loops, several "
                "trees",
            },
            jobs={},
        ),
        Workload(
            name="interp-bound",
            why=(
                "programs that never reach native code; traced, interp is "
                "99.5% of tracing time and every jit.* layer under 0.3%: "
                "interpreter changes show, JIT changes must not"
            ),
            programs={
                "access-binary-trees": "allocation and recursion; loops "
                "too short to trace",
                "controlflow-recursive": "pure recursion, no loops",
                "date-format-xparb": "eval-like host call defeats tracing",
            },
            jobs={},
        ),
        Workload(
            name="batch-store",
            why=(
                "seeded multi-tenant job stream through repro batch, cold "
                "into an empty trace store then warm from it; the only "
                "workload for core.store and exec"
            ),
            programs={
                "crypto-crc32": "hot tenant favourite; short, traceable",
                "access-nsieve": "hot tenant favourite; one hot tree",
                "bitops-3bit-bits-in-byte": "call-heavy inner loop",
                "bitops-bits-in-byte": "nested loops; many tree entries",
                "math-cordic": "double loop; small store entry",
                "math-partial-sums": "math builtins in a loop",
                "string-fasta": "string building; several trees",
                "3d-raytrace-lite": "object-heavy float code",
                "string-validate-input": "string loop with branches",
                "bitops-nsieve-bits": "int-only trace",
                "string-unpack-code": "one-shot string job",
                "string-tagcloud-lite": "one-shot object/string job",
            },
            jobs={
                "crypto-crc32": 4,
                "access-nsieve": 4,
                "bitops-3bit-bits-in-byte": 3,
                "bitops-bits-in-byte": 3,
                "math-cordic": 3,
                "math-partial-sums": 3,
                "string-fasta": 3,
                "3d-raytrace-lite": 3,
                "string-validate-input": 2,
                "bitops-nsieve-bits": 2,
                "string-unpack-code": 1,
                "string-tagcloud-lite": 1,
            },
        ),
    )
}


@dataclass(frozen=True)
class Job:
    #: ``<tenant>-<seq>-<program>``; ``repro batch`` takes a job file's
    #: stem as both its job id and its tenant.
    job_id: str
    program: str


@dataclass(frozen=True)
class Inputs:
    """Everything a run executes, derived from (workload, seed) alone."""

    workload: Workload
    #: Program order of each round's engine passes.
    rounds: Tuple[Tuple[str, ...], ...]
    #: Engine order per program, rotated by the seed.
    engine_order: Tuple[str, ...]
    jobs: Tuple[Job, ...]


def source_of(program: str) -> str:
    if program == "sieve":
        return SIEVE
    from repro.suite.programs import program_named

    return program_named(program).source


def make_inputs(name: str, seed: int, max_rounds: int = 64) -> Inputs:
    """The seeded inputs of one run of workload ``name``."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    programs = sorted(workload.programs)
    rounds = []
    for _ in range(max_rounds):
        order = list(programs)
        rng.shuffle(order)
        rounds.append(tuple(order))
    engine_order = list(ENGINES)
    rng.shuffle(engine_order)
    stream = []
    for program in sorted(workload.jobs or workload.programs):
        stream.extend([program] * workload.jobs.get(program, 1))
    rng.shuffle(stream)
    jobs = []
    for i, program in enumerate(stream):
        tenant = rng.choice(TENANTS)
        jobs.append(Job(f"{tenant}-{i:03d}-{program}", program))
    return Inputs(workload, tuple(rounds), tuple(engine_order), tuple(jobs))
