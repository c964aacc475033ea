#!/usr/bin/env python3
"""Validates the BENCH_parallel.json envelope produced by bench/perf_parallel.

Used by the bench_smoke ctest and the CI bench-smoke leg: parses the
file, checks the envelope fields and the per-section schema (including
the ingest and binary_ingest sections), and exits non-zero with a
readable message on the first violation.  Timing values are only
checked for type/positivity, never magnitude, so the check is stable on
loaded CI machines.

Compare mode:

    check_bench_json.py BENCH_parallel.json --compare bench/baseline.json

validates the file as above, then compares wall-clock numbers of the
hot sections (ingest, binary_ingest, reduce records) against a
checked-in baseline.  Only slowdowns beyond SLOWDOWN_LIMIT (2x) fail —
shared CI runners jitter far too much for tight thresholds, but a 2x
regression on the same workload is a real change.  Keys missing from
either side are skipped, so adding or renaming sections never breaks
the gate before the baseline is refreshed; so are sections whose
baseline is under MIN_COMPARABLE_MS.  Every skipped section is printed
by name, so a gate that cannot see a leg says so.
"""

import argparse
import json
import sys

# A section must be at least this many times slower than the baseline
# before compare mode fails.  Deliberately loose: the gate exists to
# catch algorithmic regressions, not scheduler noise.
SLOWDOWN_LIMIT = 2.0

# Wall-clock values below this are pure noise on any machine; skip the
# ratio check for them so microsecond legs cannot flip the gate.
MIN_COMPARABLE_MS = 5.0

REQUIRED_ENVELOPE = {
    "bench": str,
    "schema_version": int,
    "version": str,
    "git_rev": str,
    "hardware_threads": int,
    "timestamp": str,
    "records": list,
}

PARSE_LEG = {"strict_wall_ms": float, "lenient_wall_ms": float,
             "overhead_pct": float}

INGEST_LEG = {"wall_ms": float, "events_per_s": float, "mb_per_s": float,
              "speedup_vs_legacy": float}

# scanner_fallback is the scanner on the same events with "%.17g" times,
# which the canonical fast path declines line by line (fallback_bytes
# long); its speedup is against legacy on the canonical bytes.
INGEST_LEGS = ("legacy", "scanner", "scanner_fallback", "sharded_1",
               "sharded_hw")

BINARY_LEG = {"wall_ms": float, "events_per_s": float, "mb_per_s": float,
              "speedup_vs_v1": float}

WRITE_LEG = {"wall_ms": float, "events_per_s": float, "mb_per_s": float,
             "vs_buffered": float}

RECORD = {"name": str, "threads": int, "events": int,
          "wall_ms": float, "speedup": float}

HTTP = {"series": int, "render_wall_ms": float, "render_target_ms": float,
        "render_ok": bool, "scrape_requests": int,
        "scrape_p50_ms": float, "scrape_p99_ms": float,
        "sse_subscribers": int, "sse_frames": int, "sse_wall_ms": float,
        "sse_fanout_frames_per_s": float,
        "history_windows": int, "history_render_wall_ms": float}


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_object(obj, schema, where):
    if not isinstance(obj, dict):
        fail(f"{where}: expected an object, got {type(obj).__name__}")
    for key, kind in schema.items():
        if key not in obj:
            fail(f"{where}: missing key '{key}'")
        value = obj[key]
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(f"{where}.{key}: expected a number, got {value!r}")
            # Overheads can legitimately dip below zero (timing noise);
            # wall-clock and throughput values cannot.
            if value < 0 and ("wall_ms" in key or "_per_s" in key):
                fail(f"{where}.{key}: negative timing value {value!r}")
        elif not isinstance(value, kind) or isinstance(value, bool) != (
                kind is bool):
            fail(f"{where}.{key}: expected {kind.__name__}, got {value!r}")


def validate(doc, path):
    check_object(doc, REQUIRED_ENVELOPE, "envelope")
    if doc["bench"] != "parallel":
        fail(f"envelope.bench: expected 'parallel', got {doc['bench']!r}")
    if doc["schema_version"] < 1:
        fail(f"envelope.schema_version: bad value {doc['schema_version']!r}")

    # Sections.
    parse = doc.get("parse")
    check_object(parse, {"events": int}, "parse")
    check_object(parse.get("text"), PARSE_LEG, "parse.text")
    check_object(parse.get("binary"), PARSE_LEG, "parse.binary")

    ingest = doc.get("ingest")
    check_object(ingest, {
        "events": int, "bytes": int, "fallback_bytes": int,
        "hardware_threads": int, "lenient_overhead_pct": float,
        "lenient_overhead_target_pct": float, "lenient_overhead_ok": bool,
    }, "ingest")
    for leg in INGEST_LEGS:
        check_object(ingest.get(leg), INGEST_LEG, f"ingest.{leg}")
    if ingest["legacy"]["speedup_vs_legacy"] != 1.0:
        fail("ingest.legacy.speedup_vs_legacy: must be 1.0 by definition")

    binary = doc.get("binary_ingest")
    check_object(binary, {
        "events": int, "v1_bytes": int, "v2_bytes": int,
        "hardware_threads": int, "index_overhead_pct": float,
        "index_overhead_target_pct": float, "index_overhead_ok": bool,
    }, "binary_ingest")
    for leg in ("v1", "v2_seq", "v2_sharded"):
        check_object(binary.get(leg), BINARY_LEG, f"binary_ingest.{leg}")
    if binary["v1"]["speedup_vs_v1"] != 1.0:
        fail("binary_ingest.v1.speedup_vs_v1: must be 1.0 by definition")
    # The on-disk block index is a hard size budget, not a timing: a
    # violation means the writer grew the format, so it fails even on
    # the noisiest runner.
    if not binary["index_overhead_ok"]:
        fail(f"binary_ingest: index overhead "
             f"{binary['index_overhead_pct']}% exceeds "
             f"{binary['index_overhead_target_pct']}% of the file")

    stream = doc.get("streaming_write")
    check_object(stream, {
        "events": int, "bytes": int, "peak_buffered_bytes": int,
        "block_bound_bytes": int, "peak_buffered_ok": bool,
    }, "streaming_write")
    for leg in ("buffered", "streamed"):
        check_object(stream.get(leg), WRITE_LEG, f"streaming_write.{leg}")
    if stream["buffered"]["vs_buffered"] != 1.0:
        fail("streaming_write.buffered.vs_buffered: must be 1.0 by "
             "definition")
    # Like the index budget, the writer's memory bound is structural,
    # not a timing: a violation means the one-block claim broke.
    if not stream["peak_buffered_ok"]:
        fail(f"streaming_write: peak buffered "
             f"{stream['peak_buffered_bytes']} bytes exceeds the "
             f"one-block bound of {stream['block_bound_bytes']}")

    for section in ("telemetry", "metrics"):
        check_object(doc.get(section), {"compiled": bool,
                                        "disabled_wall_ms": float,
                                        "enabled_wall_ms": float,
                                        "overhead_pct": float}, section)

    http = doc.get("http")
    check_object(http, HTTP, "http")
    if http["series"] < 1:
        fail(f"http.series: expected >= 1, got {http['series']!r}")
    if http["scrape_p50_ms"] > http["scrape_p99_ms"]:
        fail("http: scrape_p50_ms exceeds scrape_p99_ms")
    if http["sse_subscribers"] < 1 or http["sse_frames"] < 1:
        fail("http: SSE fan-out leg ran with no subscribers or frames")
    if http["history_windows"] < 1:
        fail("http: history render leg ran over an empty ring")

    if not doc["records"]:
        fail("records: empty")
    for i, record in enumerate(doc["records"]):
        check_object(record, RECORD, f"records[{i}]")

    print(f"check_bench_json: OK ({path}: "
          f"{len(doc['records'])} records, ingest scanner speedup "
          f"{ingest['scanner']['speedup_vs_legacy']}x, "
          f"binary v2 sharded "
          f"{binary['v2_sharded']['speedup_vs_v1']}x vs v1)")


def comparable_walls(doc):
    """Yields (label, wall_ms) pairs for the sections the regression
    gate watches.  Missing sections or legs are silently skipped so the
    gate tolerates schema evolution until the baseline is refreshed."""
    for section, legs in (("ingest", INGEST_LEGS),
                          ("binary_ingest", ("v1", "v2_seq", "v2_sharded")),
                          ("streaming_write", ("buffered", "streamed"))):
        obj = doc.get(section)
        if not isinstance(obj, dict):
            continue
        for leg in legs:
            wall = obj.get(leg, {}).get("wall_ms") \
                if isinstance(obj.get(leg), dict) else None
            if isinstance(wall, (int, float)):
                yield f"{section}.{leg}", float(wall)
    for record in doc.get("records", []):
        if not isinstance(record, dict):
            continue
        name, threads = record.get("name"), record.get("threads")
        wall = record.get("wall_ms")
        if name in ("reduce", "stats", "bootstrap",
                    "kmeans") and isinstance(wall, (int, float)):
            yield f"records.{name}@{threads}", float(wall)


def compare(doc, baseline_path):
    try:
        with open(baseline_path, encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse baseline {baseline_path}: {err}")

    base_walls = dict(comparable_walls(base))
    walls = dict(comparable_walls(doc))
    checked = 0
    worst = ("", 0.0)
    skipped = [f"{label} (not in this run)"
               for label in base_walls if label not in walls]
    for label, wall in walls.items():
        base_wall = base_walls.get(label)
        if base_wall is None:
            skipped.append(f"{label} (not in the baseline)")
            continue
        if base_wall < MIN_COMPARABLE_MS:
            skipped.append(f"{label} (baseline {base_wall:.1f} ms, under "
                           f"{MIN_COMPARABLE_MS} ms)")
            continue
        ratio = wall / base_wall
        checked += 1
        if ratio > worst[1]:
            worst = (label, ratio)
        if ratio > SLOWDOWN_LIMIT:
            fail(f"regression: {label} took {wall:.1f} ms vs baseline "
                 f"{base_wall:.1f} ms ({ratio:.2f}x > {SLOWDOWN_LIMIT}x)")
    for section in skipped:
        print(f"check_bench_json: compare: skipped {section}")
    if checked == 0:
        print("check_bench_json: compare: no overlapping sections above "
              f"{MIN_COMPARABLE_MS} ms; baseline likely needs a refresh")
    else:
        print(f"check_bench_json: compare OK ({checked} sections vs "
              f"{baseline_path}, {len(skipped)} skipped; worst {worst[0]} "
              f"at {worst[1]:.2f}x, limit {SLOWDOWN_LIMIT}x)")


def main():
    parser = argparse.ArgumentParser(
        description="validate (and optionally baseline-compare) "
                    "BENCH_parallel.json")
    parser.add_argument("bench_json")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="also compare wall-clock numbers against a "
                             "checked-in baseline (fails only on "
                             f">{SLOWDOWN_LIMIT}x slowdowns)")
    args = parser.parse_args()
    try:
        with open(args.bench_json, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {args.bench_json}: {err}")

    validate(doc, args.bench_json)
    if args.compare:
        compare(doc, args.compare)


if __name__ == "__main__":
    main()
