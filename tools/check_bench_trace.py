#!/usr/bin/env python3
"""Validates the schema of a tracked BENCH_trace.json file.

Usage: check_bench_trace.py [path]   (default: BENCH_trace.json)

Checks structure — field presence, types, and basic sanity (positive counts
and rates). Deliberately almost no performance thresholds: CI runners vary
too much for absolute numbers to gate a merge; the tracked file is the
regression record, this script only keeps it well-formed.

v2 adds the heap-vs-mmap load comparison columns (heap_load_ms,
mmap_load_ms, heap_load_resident_bytes, mmap_load_resident_bytes,
load_speedup): load time is measured page-cache-hot, isolating the
copy-vs-map cost; bytes materialized are measured cold, so folio-granular
cache state cannot credit the mapped open with pages it never touched (the
recorder in bench/perf_microbench.cc documents both). Rows recorded before
v2 are accepted without them; a row carrying any of them must carry all of
them. The one ratio gate: on full-mode rows with the columns, the mapped
open must beat the heap open by an order of magnitude on both load time and
bytes materialized — that ratio is the point of the zero-copy load path, it
is a property of the code (fread-everything vs fault-metadata-only), not of
runner speed, and a row where it collapsed means the mapped loader started
touching the bulk slabs.

v3 drops the array-of-structs comparison (aos_machine_scans_per_sec,
speedup, aos_bytes_per_task_interval): that layout is no longer in the
library, so the columns timed a rebuilt copy of dead code. A row carrying
any of them is refused; older files must be re-recorded.
"""

import sys

from bench_check_lib import Checker

REQUIRED_SCHEMA = "crf-trace-bench-v3"
LOAD_RATIO_TARGET = 10.0

ENTRY_FIELDS = {
    "date": str,
    "mode": str,
    "num_machines": int,
    "num_intervals": int,
    "num_tasks": int,
    "task_intervals": int,
    "arena_machine_scans_per_sec": (int, float),
    "arena_bytes_per_task_interval": (int, float),
}

# Array-of-structs comparison columns removed in v3.
LEGACY_FIELDS = (
    "aos_machine_scans_per_sec",
    "speedup",
    "aos_bytes_per_task_interval",
)

# v2 load-path columns: required together on any row that carries one.
LOAD_FIELDS = {
    "heap_load_ms": (int, float),
    "mmap_load_ms": (int, float),
    "heap_load_resident_bytes": int,
    "mmap_load_resident_bytes": int,
    "load_speedup": (int, float),
}

POSITIVE_FIELDS = [
    "num_machines",
    "num_intervals",
    "num_tasks",
    "task_intervals",
    "arena_machine_scans_per_sec",
    "arena_bytes_per_task_interval",
]

check = Checker("check_bench_trace")


def check_load_columns(i, entry):
    check.check_entry_fields(i, entry, LOAD_FIELDS)
    check.check_positive(i, entry, LOAD_FIELDS)
    if entry["mmap_load_resident_bytes"] > entry["heap_load_resident_bytes"]:
        check.fail(
            f"entries[{i}]: mmap open materialized more than the heap open "
            f'({entry["mmap_load_resident_bytes"]} > '
            f'{entry["heap_load_resident_bytes"]} bytes)'
        )
    if entry["mode"] != "full":
        return
    if entry["heap_load_ms"] < LOAD_RATIO_TARGET * entry["mmap_load_ms"]:
        check.fail(
            f"entries[{i}]: full-mode mmap load is not an order of magnitude "
            f'faster ({entry["heap_load_ms"]} ms heap vs '
            f'{entry["mmap_load_ms"]} ms mmap)'
        )
    if entry["heap_load_resident_bytes"] < (
        LOAD_RATIO_TARGET * entry["mmap_load_resident_bytes"]
    ):
        check.fail(
            f"entries[{i}]: full-mode mmap load does not materialize an order "
            f'of magnitude less ({entry["heap_load_resident_bytes"]} bytes '
            f'heap vs {entry["mmap_load_resident_bytes"]} bytes mmap)'
        )


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_trace.json"
    entries = check.load(
        path,
        REQUIRED_SCHEMA,
        "v3 dropped the array-of-structs columns; re-record with "
        "CRF_TRACE_BENCH=full build/bench/perf_microbench",
    )

    with_load = 0
    for i, entry in enumerate(entries):
        check.require_object(i, entry)
        check.reject_legacy_fields(
            i, entry, LEGACY_FIELDS, "v3 dropped the array-of-structs comparison"
        )
        check.check_entry_fields(i, entry, ENTRY_FIELDS)
        check.check_positive(i, entry, POSITIVE_FIELDS)
        check.check_mode(i, entry)
        if any(field in entry for field in LOAD_FIELDS):
            check_load_columns(i, entry)
            with_load += 1

    check.ok(
        f"{path} has {len(entries)} well-formed entries "
        f"({with_load} with load-path columns)"
    )


if __name__ == "__main__":
    main()
