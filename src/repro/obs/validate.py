"""Schema validation for every telemetry artifact the CLI emits.

CI's ``telemetry`` job runs programs with metrics/spans/profiling on
and then machine-checks each emitted file against its declared
``schema_version`` — catching the classic observability failure mode
where an exporter drifts and every downstream dashboard silently
breaks.  Usable standalone::

    python -m repro.obs.validate events.jsonl profile.json \\
        metrics.json trace.json BENCH_wallclock.json

The artifact kind is detected from the document shape, so files can be
passed in any order.  Validation is structural (required fields, types,
version match, internal consistency like histogram bucket monotonicity
and span/track references) — not a full JSON-Schema engine, which the
container deliberately does not ship.

Current versions: events v7 (:data:`repro.core.events
.EVENT_SCHEMA_VERSION`), profile v5 (:data:`repro.obs.profiler
.PROFILE_SCHEMA_VERSION`), metrics v1, spans v1, BENCH_wallclock v3,
BENCH_warmstart v2, trace-store manifest v4
(:data:`repro.core.store.STORE_SCHEMA`).
"""

from __future__ import annotations

import json
import sys
from typing import List

from repro.core.events import EVENT_SCHEMA_VERSION
from repro.core.store import STORE_SCHEMA
from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.obs.profiler import PROFILE_SCHEMA_VERSION
from repro.obs.spans import SPANS_SCHEMA_VERSION

BENCH_SCHEMA_VERSION = 3
WARMSTART_SCHEMA_VERSION = 2


class ValidationError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def validate_events_jsonl(text: str) -> int:
    """Every line a JSON object with the current schema version."""
    count = 0
    last_seq = 0
    for index, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        _require(isinstance(record, dict), f"line {index}: not an object")
        _require(
            record.get("schema_version") == EVENT_SCHEMA_VERSION,
            f"line {index}: schema_version {record.get('schema_version')} "
            f"!= {EVENT_SCHEMA_VERSION}",
        )
        _require(isinstance(record.get("kind"), str),
                 f"line {index}: missing kind")
        seq = record.get("seq")
        _require(isinstance(seq, int) and seq > last_seq,
                 f"line {index}: seq not strictly increasing")
        last_seq = seq
        count += 1
    _require(count > 0, "events file contains no events")
    return count


def validate_profile(doc: dict) -> int:
    _require(
        doc.get("schema_version") == PROFILE_SCHEMA_VERSION,
        f"profile schema_version {doc.get('schema_version')} "
        f"!= {PROFILE_SCHEMA_VERSION}",
    )
    phases = doc.get("phases")
    _require(isinstance(phases, list) and phases, "profile missing phases")
    for data in phases:
        _require(isinstance(data.get("phase"), str), "phase entry unnamed")
        _require(
            isinstance(data.get("cycles"), int) and data["cycles"] >= 0,
            f"phase {data.get('phase')}: bad cycles",
        )
    total = doc.get("total_cycles")
    _require(isinstance(total, int), "profile missing total_cycles")
    _require(
        sum(data["cycles"] for data in phases) == total,
        "profile phase cycles do not sum to total_cycles",
    )
    pycompile = doc.get("pycompile")
    _require(isinstance(pycompile, dict), "profile missing pycompile")
    # ``tree_builds`` (trunk rebuilds, counted apart from first builds)
    # is additive within v5: older documents lack it.
    for key, value in (("fragments", pycompile.get("fragments")),
                       ("tree_builds", pycompile.get("tree_builds", 0))):
        _require(isinstance(value, int) and value >= 0,
                 f"pycompile: bad {key}")
    wall = pycompile.get("wall_seconds")
    _require(isinstance(wall, (int, float)) and wall >= 0,
             "pycompile: bad wall_seconds")
    transitions = doc.get("transitions")
    _require(isinstance(transitions, dict), "profile missing transitions")
    for key in ("direct_transfers", "monitor_stitched", "exit_surfacings"):
        value = transitions.get(key)
        _require(isinstance(value, int) and value >= 0,
                 f"transitions: bad {key}")
    return len(phases)


def validate_metrics(doc: dict) -> int:
    _require(
        doc.get("schema_version") == METRICS_SCHEMA_VERSION,
        f"metrics schema_version {doc.get('schema_version')} "
        f"!= {METRICS_SCHEMA_VERSION}",
    )
    families = 0
    for section in ("counters", "gauges", "histograms"):
        entries = doc.get(section)
        _require(isinstance(entries, list), f"metrics missing {section}")
        for family in entries:
            _require(
                isinstance(family.get("name"), str)
                and family["name"].startswith("repro_"),
                f"{section}: family without a repro_-prefixed name",
            )
            _require(isinstance(family.get("help"), str) and family["help"],
                     f"{family.get('name')}: missing help")
            label_names = family.get("label_names")
            _require(isinstance(label_names, list),
                     f"{family['name']}: missing label_names")
            for series in family.get("series", []):
                labels = series.get("labels")
                _require(
                    isinstance(labels, dict)
                    and sorted(labels) == sorted(label_names),
                    f"{family['name']}: series labels do not match "
                    f"label_names",
                )
                if section == "histograms":
                    buckets = series.get("buckets")
                    _require(isinstance(buckets, list) and buckets,
                             f"{family['name']}: histogram without buckets")
                    _require(buckets[-1]["le"] == "+Inf",
                             f"{family['name']}: last bucket must be +Inf")
                    counts = [bucket["count"] for bucket in buckets]
                    _require(counts == sorted(counts),
                             f"{family['name']}: bucket counts not cumulative")
                    _require(counts[-1] == series.get("count"),
                             f"{family['name']}: +Inf bucket != count")
                else:
                    _require(
                        isinstance(series.get("value"), (int, float)),
                        f"{family['name']}: series without a numeric value",
                    )
            families += 1
    _require(families > 0, "metrics document has no instrument families")
    return families


def validate_chrome_trace(doc: dict) -> int:
    """Spans v1: well-formed Chrome trace-event JSON (object format)."""
    _require(
        doc.get("schema_version") == SPANS_SCHEMA_VERSION,
        f"spans schema_version {doc.get('schema_version')} "
        f"!= {SPANS_SCHEMA_VERSION}",
    )
    events = doc.get("traceEvents")
    _require(isinstance(events, list) and events, "missing traceEvents")
    named_threads = set()
    for event in events:
        ph = event.get("ph")
        _require(ph in ("X", "i", "M"), f"unsupported phase type {ph!r}")
        _require(isinstance(event.get("pid"), int), "event without pid")
        _require(isinstance(event.get("tid"), int), "event without tid")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_threads.add(event["tid"])
            continue
        ts = event.get("ts")
        _require(isinstance(ts, (int, float)) and ts >= 0,
                 f"{event.get('name')}: bad ts")
        _require(isinstance(event.get("name"), str), "event without name")
        if ph == "X":
            dur = event.get("dur")
            _require(isinstance(dur, (int, float)) and dur >= 0,
                     f"{event.get('name')}: bad dur")
            _require(event["tid"] in named_threads,
                     f"{event.get('name')}: span on an unnamed track")
    return len(events)


def validate_bench_wallclock(doc: dict) -> int:
    _require(
        doc.get("schema") == BENCH_SCHEMA_VERSION,
        f"BENCH schema {doc.get('schema')} != {BENCH_SCHEMA_VERSION}",
    )
    programs = doc.get("programs")
    _require(isinstance(programs, list) and len(programs) == 26,
             "BENCH v3 must carry 26 per-program entries")
    per_program_floor = doc.get("per_program_floor")
    _require(
        isinstance(per_program_floor, (int, float)) and per_program_floor > 0,
        "BENCH v3 missing per_program_floor",
    )
    totals = {"direct_transfers": 0, "monitor_stitched": 0,
              "exit_surfacings": 0}
    for entry in programs:
        _require(isinstance(entry.get("name"), str), "program without name")
        _require(
            isinstance(entry.get("ratio"), (int, float)) and entry["ratio"] > 0,
            f"{entry.get('name')}: bad ratio",
        )
        _require(
            entry.get("ratio_basis") in ("native-phase-wall", "total-wall"),
            f"{entry.get('name')}: unknown ratio_basis",
        )
        _require(
            entry["ratio"] >= per_program_floor,
            f"{entry.get('name')}: ratio {entry['ratio']:.3f} is below the "
            f"recorded per-program floor {per_program_floor}",
        )
        _require(
            entry["step"]["simulated_cycles"] == entry["py"]["simulated_cycles"],
            f"{entry.get('name')}: backend cycle bills differ",
        )
        transitions = entry.get("transitions")
        _require(isinstance(transitions, dict),
                 f"{entry.get('name')}: missing transitions")
        for key in totals:
            value = transitions.get(key)
            _require(isinstance(value, int) and value >= 0,
                     f"{entry.get('name')}: transitions missing {key}")
            totals[key] += value
    _require(
        doc.get("transition_totals") == totals,
        "transition_totals does not sum the per-program transitions",
    )
    _require(
        isinstance(doc.get("geomean_ratio"), (int, float)),
        "BENCH missing geomean_ratio",
    )
    _require(
        doc["geomean_ratio"] >= doc.get("geomean_floor", 0),
        "recorded geomean is below its own floor",
    )
    sieve = doc.get("sieve")
    _require(isinstance(sieve, dict), "BENCH missing the sieve block")
    _require(
        sieve.get("speedup_native_wall", 0)
        >= sieve.get("min_required_speedup", 0),
        "recorded sieve speedup is below its own gate",
    )
    return len(programs)


def validate_bench_warmstart(doc: dict) -> int:
    """BENCH_warmstart v2: cold-vs-warm wall clock, speedup machine-gated,
    and the save side (one persist per program).

    The file is invalid if warm start is not actually faster than cold
    tracing (speedup < 1.0) — recording a regression must fail CI, not
    just look bad on a dashboard.  The headline 2x goal is asserted by
    the benchmark itself; the artifact gate is the weaker invariant
    that survives noisy shared runners.
    """
    _require(
        doc.get("schema") == WARMSTART_SCHEMA_VERSION,
        f"WARMSTART schema {doc.get('schema')} != {WARMSTART_SCHEMA_VERSION}",
    )
    _require(doc.get("bench") == "warmstart", "bench field != 'warmstart'")
    _require(isinstance(doc.get("backend"), str) and doc["backend"],
             "WARMSTART missing backend")
    runs = doc.get("runs")
    _require(isinstance(runs, int) and runs >= 1, "WARMSTART: bad runs")
    for key in ("cold_seconds", "warm_seconds", "persist_seconds", "speedup"):
        value = doc.get(key)
        _require(isinstance(value, (int, float)) and value > 0,
                 f"WARMSTART: bad {key}")
    programs = doc.get("programs")
    _require(isinstance(programs, list) and programs,
             "WARMSTART missing per-program entries")
    for entry in programs:
        _require(isinstance(entry.get("name"), str), "program without name")
        for key in ("cold_seconds", "warm_seconds", "persist_seconds"):
            value = entry.get(key)
            _require(isinstance(value, (int, float)) and value > 0,
                     f"{entry.get('name')}: bad {key}")
        _require(
            isinstance(entry.get("fragments"), int) and entry["fragments"] >= 0,
            f"{entry.get('name')}: bad fragments",
        )
    for key in ("cold_seconds", "warm_seconds", "persist_seconds"):
        total = sum(entry[key] for entry in programs)
        _require(abs(total - doc[key]) <= 1e-6 * max(total, 1.0),
                 f"{key} does not sum over programs")
    _require(
        abs(doc["speedup"] - doc["cold_seconds"] / doc["warm_seconds"])
        <= 1e-6 * doc["speedup"],
        "speedup is not cold_seconds / warm_seconds",
    )
    _require(
        doc["speedup"] >= 1.0,
        f"warm start slower than cold tracing (speedup {doc['speedup']:.3f})",
    )
    return len(programs)


def validate_store_manifest(doc: dict) -> int:
    """Trace-store manifest: versioned entry table with checksums."""
    _require(
        doc.get("schema") == STORE_SCHEMA,
        f"store manifest schema {doc.get('schema')} != {STORE_SCHEMA}",
    )
    fingerprint = doc.get("fingerprint")
    _require(
        isinstance(fingerprint, str) and len(fingerprint) == 32
        and all(ch in "0123456789abcdef" for ch in fingerprint),
        "store manifest: fingerprint is not a 32-hex-digit digest",
    )
    generation = doc.get("generation")
    _require(isinstance(generation, int) and generation >= 0,
             "store manifest: bad generation")
    entries = doc.get("entries")
    _require(isinstance(entries, dict), "store manifest: missing entries")
    for sha, entry in entries.items():
        _require(
            isinstance(sha, str) and len(sha) == 64
            and all(ch in "0123456789abcdef" for ch in sha),
            f"store manifest: key {sha!r} is not a sha256 source digest",
        )
        _require(isinstance(entry, dict), f"{sha[:12]}: entry not an object")
        _require(
            isinstance(entry.get("file"), str)
            and "/" not in entry["file"] and entry["file"],
            f"{sha[:12]}: bad file name",
        )
        checksum = entry.get("sha256")
        _require(
            isinstance(checksum, str) and len(checksum) == 64
            and all(ch in "0123456789abcdef" for ch in checksum),
            f"{sha[:12]}: bad entry checksum",
        )
        _require(isinstance(entry.get("size"), int) and entry["size"] > 0,
                 f"{sha[:12]}: bad size")
        entry_gen = entry.get("generation")
        _require(
            isinstance(entry_gen, int) and 0 <= entry_gen <= generation,
            f"{sha[:12]}: entry generation outside the manifest's",
        )
        _require(isinstance(entry.get("superseded"), bool),
                 f"{sha[:12]}: superseded must be a bool")
    return len(entries)


def validate_prometheus(text: str) -> int:
    """Prometheus text exposition: HELP/TYPE headers + sample lines."""
    families = 0
    typed = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            _require(len(parts) == 4 and parts[3] in
                     ("counter", "gauge", "histogram", "untyped"),
                     f"bad TYPE line: {line!r}")
            typed.add(parts[2])
            families += 1
            continue
        _require(not line.startswith("#"), f"unknown comment line: {line!r}")
        name = line.split("{")[0].split(" ")[0]
        value = line.rsplit(" ", 1)[-1]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        _require(base in typed, f"sample {name!r} has no TYPE header")
        float(value)  # must parse as a number
    _require(families > 0, "exposition has no TYPE headers")
    return families


def detect_and_validate(path: str) -> str:
    """Validate one artifact file; returns a human-readable summary."""
    with open(path, "r") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValidationError(f"{path}: empty file")
    if stripped.startswith("# HELP") or stripped.startswith("# TYPE"):
        count = validate_prometheus(text)
        return f"{path}: Prometheus exposition, {count} families"
    if stripped[0] != "{" or "\n{" in text.strip():
        count = validate_events_jsonl(text)
        return f"{path}: events JSONL v{EVENT_SCHEMA_VERSION}, {count} events"
    doc = json.loads(text)
    if "traceEvents" in doc:
        count = validate_chrome_trace(doc)
        return f"{path}: Chrome trace v{SPANS_SCHEMA_VERSION}, {count} events"
    if "counters" in doc:
        count = validate_metrics(doc)
        return f"{path}: metrics v{METRICS_SCHEMA_VERSION}, {count} families"
    if "phases" in doc:
        count = validate_profile(doc)
        return f"{path}: profile v{PROFILE_SCHEMA_VERSION}, {count} phases"
    if doc.get("bench") == "warmstart":
        count = validate_bench_warmstart(doc)
        return (f"{path}: BENCH_warmstart v{WARMSTART_SCHEMA_VERSION}, "
                f"{count} programs, speedup {doc['speedup']:.2f}x")
    if "fingerprint" in doc and "entries" in doc:
        count = validate_store_manifest(doc)
        return f"{path}: trace-store manifest v{STORE_SCHEMA}, {count} entries"
    if "programs" in doc or "geomean_ratio" in doc:
        count = validate_bench_wallclock(doc)
        return f"{path}: BENCH_wallclock v{BENCH_SCHEMA_VERSION}, {count} programs"
    raise ValidationError(f"{path}: unrecognized artifact shape")


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python -m repro.obs.validate ARTIFACT...",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        try:
            print(detect_and_validate(path))
        except (ValidationError, OSError, json.JSONDecodeError, KeyError,
                TypeError) as error:
            print(f"INVALID {path}: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main(sys.argv[1:]))
