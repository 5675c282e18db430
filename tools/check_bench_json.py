#!/usr/bin/env python3
"""check_bench_json: validate the machine-readable bench documents.

The bench binaries (bench_par_imbalance, bench_par_scaling, bench_shard,
bench_store_load) emit JSON through one shared writer (bench/bench_json.hpp);
this checker is the CI tripwire that the documents stay parseable and keep
the columns downstream diffing relies on.

Usage:
  check_bench_json.py FILE [FILE...]

Exit 0 iff every file parses, names a known experiment, and every record
(or, for record-less documents, every named section) carries that
experiment's required keys with sane types/values.
"""

import json
import sys

# experiment -> (required top-level keys, required per-record keys, or
# None for a document without a "records" array)
SCHEMAS = {
    "par_imbalance": (
        {"scale", "seed", "threads", "repeats", "records"},
        {"graph", "algorithm", "order", "schedule", "hub", "threads",
         "wall_ms", "reorder_ms", "busy_max_over_mean", "busy_cv", "colors",
         "win_vs_base"},
    ),
    "par_scaling": (
        {"scale", "seed", "repeats", "priority", "records"},
        {"graph", "algorithm", "threads", "wall_ms", "speedup",
         "busy_max_over_mean", "colors", "seq_colors"},
    ),
    "shard": (
        {"scale", "seed", "workers", "max_rounds", "records"},
        {"graph", "shards", "workers", "boundary_fraction", "cut_arcs",
         "conflict_rounds", "recolored", "colors", "par_colors", "wall_ms"},
    ),
    "store_load": (
        {"graph", "file_bytes", "load_ms", "validate_ms", "steady_state",
         "mapped", "residency_after_warmup"},
        None,
    ),
}

# experiment -> {object-valued top-level key: its required keys}. Every
# value in a section named "*_ms" or holding "*_ms" keys is a timing and
# must be a non-negative number.
SECTIONS = {
    "store_load": {
        "graph": {"name", "scale", "seed", "vertices", "arcs"},
        "file_bytes": {"mtx", "v1", "v2"},
        "load_ms": {"parse_mtx", "v1_heap", "v2_heap", "v2_mmap_first_open",
                    "v2_mmap_second_open", "v2_mmap_warmup"},
        "validate_ms": {"heap", "mapped"},
        "steady_state": {"algorithm", "threads", "repeats", "heap_color_ms",
                         "mapped_color_ms"},
    },
}

NUMERIC_NONNEG = {"wall_ms", "reorder_ms", "busy_max_over_mean", "busy_cv",
                  "speedup", "win_vs_base", "boundary_fraction"}
INT_POSITIVE = {"colors", "seq_colors", "par_colors", "threads", "shards"}


def check_sections(path, doc, sections):
    """Errors for the named object sections of a record-less document."""
    errors = []
    for name, keys in sorted(sections.items()):
        sec = doc.get(name)
        if not isinstance(sec, dict):
            errors.append(f"{path}: \"{name}\" must be an object")
            continue
        missing = keys - sec.keys()
        if missing:
            errors.append(f"{path}: {name} missing keys: "
                          f"{', '.join(sorted(missing))}")
        for key in keys & sec.keys():
            val = sec[key]
            if name.endswith("_ms") or key.endswith("_ms"):
                if not isinstance(val, (int, float)) or val < 0:
                    errors.append(f"{path}: {name}.{key} must be a "
                                  f"non-negative number, got {val!r}")
    return errors


def check_file(path):
    """Returns (errors, what); `what` ("N records") is printed when clean."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        return [f"{path}: unreadable: {e}"], None
    except json.JSONDecodeError as e:
        return [f"{path}: invalid JSON ({e}) — an empty or truncated "
                "file usually means the bench was interrupted mid-write; "
                "re-run it"], None

    if not isinstance(doc, dict):
        return [f"{path}: top-level JSON must be an object, got "
                f"{type(doc).__name__} — a truncated or hand-edited "
                "file? re-run the bench"], None

    exp = doc.get("experiment")
    if exp not in SCHEMAS:
        return [f"{path}: unknown experiment {exp!r} "
                f"(known: {', '.join(sorted(SCHEMAS))})"], None
    top_keys, rec_keys = SCHEMAS[exp]

    missing = top_keys - doc.keys()
    if missing:
        errors.append(f"{path}: missing top-level keys: "
                      f"{', '.join(sorted(missing))}")
    if rec_keys is None:
        sections = SECTIONS[exp]
        errors.extend(check_sections(path, doc, sections))
        return errors, f"{len(sections)} sections"
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        errors.append(f"{path}: \"records\" must be a non-empty array")
        return errors, None

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            errors.append(f"{path}: records[{i}] is not an object")
            continue
        missing = rec_keys - rec.keys()
        if missing:
            errors.append(f"{path}: records[{i}] missing keys: "
                          f"{', '.join(sorted(missing))}")
        for key in rec_keys & rec.keys():
            val = rec[key]
            if key in NUMERIC_NONNEG:
                if not isinstance(val, (int, float)) or val < 0:
                    errors.append(f"{path}: records[{i}].{key} must be a "
                                  f"non-negative number, got {val!r}")
            elif key in INT_POSITIVE:
                if not isinstance(val, int) or val < 1:
                    errors.append(f"{path}: records[{i}].{key} must be a "
                                  f"positive integer, got {val!r}")
    return errors, f"{len(records)} records"


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in sys.argv[1:]:
        # Single parse: re-reading here would reopen the crash window on
        # a file that changed (or vanished) between the two reads.
        errs, what = check_file(path)
        all_errors.extend(errs)
        if not errs:
            print(f"{path}: ok ({what})")
    for e in all_errors:
        print(e, file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
