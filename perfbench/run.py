#!/usr/bin/env python3
"""Service benchmark: open-loop latency and closed-loop capacity of the real
color_server on two serving workloads, plus a traced per-layer replay.

    python3 perfbench/run.py --workload hot-kron-spec --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build);
each run works in .bench_run/<workload>/. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones (BENCHMARK.json names both sets).
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when every output was correct, 1 when one was not (the JSON
still prints), 2 when the benchmark could not run (no JSON).
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_jps": "jobs/s",
    "setup_s": "s",
    "colors_mean": "colors",
    "rss_peak_mb": "MiB",
}

PER_LAYER_UNITS = {
    "check.validate_ms": "ms",
    "check.verify_ms": "ms",
    "par.color_ms": "ms",
    "par.rounds": "count",
    "par.scanned_per_vertex": "scans/vertex",
    "par.busy_max_over_mean": "ratio",
    "reorder.ms": "ms",
    "registry.acquire_hit_ms": "ms",
    "registry.acquire_miss_ms": "ms",
    "store.open_ms": "ms",
    "registry.hit_ratio": "ratio",
    "registry.evictions": "count",
    "svc.decode_ms": "ms",
    "svc.encode_ms": "ms",
    "svc.wire_ms": "ms",
    "svc.queue_ms": "ms",
    "svc.batched_share": "ratio",
    "trace.self_ms": "ms",
    "trace.gap_ms": "ms",
    "gen.late_p90_ms": "ms",
}


# --- arithmetic (checked by --self-test) -----------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Infinite samples (failed requests) sort
    last, so they count as missing any latency limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile's rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_supported_percentile(n, candidates=(50, 75, 90, 95, 99)):
    """Highest candidate percentile with at least ten samples beyond it."""
    best = None
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            best = p
    return best


def lateness_ms(record):
    """How late the generator sent a request: send time minus the time
    it could have been sent (its due time, or when a connection freed)."""
    return record["send_ms"] - record["ready_ms"]


def late_limit_ms(latency_p50_ms):
    """A run is invalid when the generator's p90 lateness exceeds this."""
    return max(2.0, 0.1 * latency_p50_ms)


def windows(records, key, span, count):
    """Splits records into `count` equal time windows of [0, span) by
    record[key]; records at or past `span` fall in the last window."""
    out = [[] for _ in range(count)]
    for r in records:
        out[min(count - 1, int(r[key] * count / span))].append(r)
    return out


def windowed_median(records, key, span, count, value):
    """Median over the windows of value(window records)."""
    return statistics.median(value(w)
                             for w in windows(records, key, span, count))


def mean(values):
    return statistics.fmean(values) if values else 0.0


# --- end-to-end and per-layer metrics from the raw run records -------------

def e2e_latencies(open_records):
    return [r["done_ms"] - r["due_ms"] if r["status"] == "done" else math.inf
            for r in open_records]


def closed_replies(raw):
    return [r for phase in raw["closed"] for r in phase["replies"]]


def end_to_end(raw):
    """Latency percentiles are the median over the run's open-loop slices,
    throughput the median over its closed-loop slices: the slices sit at
    different points of the run, so one slow stretch of the host moves a
    run's figure less."""
    opened = raw["open"]
    done = [r for r in opened + closed_replies(raw) if r["status"] == "done"]

    def latency(p):
        return windowed_median(opened, "due_ms", raw["open_s"] * 1000,
                               raw["cycles"],
                               lambda w: percentile(e2e_latencies(w), p))

    return {
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "throughput_jps": statistics.median(
            sum(r["status"] == "done" for r in phase["replies"]) /
            phase["elapsed_s"] for phase in raw["closed"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "colors_mean": mean([r["num_colors"] for r in done]),
        "rss_peak_mb": raw["rss_peak_mb"],
    }


def delta(raw, *path):
    a, b = raw["stats_before"], raw["stats_after"]
    for key in path:
        a, b = a[key], b[key]
    return b - a


def per_layer(raw):
    opened = [r for r in raw["open"] if r["status"] == "done"]
    jobs = raw["replay"]
    open_jobs = [j for j in jobs if j["phase"] == "open"]

    def stage(name):
        return [j["stages"][name] for j in jobs]

    hits = [j["stages"]["registry.acquire"] for j in jobs if j["hit"]]
    misses = [j["stages"]["registry.acquire"] for j in jobs if not j["hit"]]
    acquires = delta(raw, "registry", "hits") + delta(raw, "registry", "misses")
    completed = delta(raw, "completed")
    server_run = [r["latency_ms"] - r["queue_ms"] for r in opened]
    stage_sum = [sum(j["stages"].values()) for j in open_jobs]
    return {
        "check.validate_ms": mean(stage("check.validate")),
        "check.verify_ms": mean(stage("check.verify")),
        "par.color_ms": mean([j["color_ms"] for j in jobs]),
        "par.rounds": mean([j["rounds"] for j in jobs]),
        "par.scanned_per_vertex": mean([j["scanned"] / j["n"] for j in jobs]),
        "par.busy_max_over_mean": mean([j["busy_max"] / j["busy_mean"]
                                        for j in jobs if j["busy_mean"] > 0]),
        "reorder.ms": mean([j["reorder_ms"] for j in jobs if j["order"]]),
        "registry.acquire_hit_ms": mean(hits),
        "registry.acquire_miss_ms": mean(misses),
        "store.open_ms": mean([j["store_open_ms"] for j in jobs
                               if j["store_open_ms"] >= 0]),
        "registry.hit_ratio": (delta(raw, "registry", "hits") / acquires
                               if acquires else 0.0),
        "registry.evictions": delta(raw, "registry", "evictions"),
        "svc.decode_ms": mean(stage("svc.decode")),
        "svc.encode_ms": mean(stage("svc.encode")),
        "svc.wire_ms": mean([r["done_ms"] - r["send_ms"] - r["latency_ms"]
                             for r in opened]),
        "svc.queue_ms": mean([r["queue_ms"] for r in opened]),
        "svc.batched_share": (delta(raw, "batched_jobs") / completed
                              if completed else 0.0),
        "trace.self_ms": mean([j["job_ms"] - sum(j["stages"].values())
                               for j in jobs]),
        "trace.gap_ms": (percentile(server_run, 50) - percentile(stage_sum, 50)
                         if server_run and stage_sum else 0.0),
        "gen.late_p90_ms": percentile([lateness_ms(r) for r in raw["open"]],
                                      90),
    }


# --- build and run ----------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                    "--target", "perfbench", "color_server"],
                   check=True, stdout=sys.stderr)
    return build_dir


def stop_group(pgid):
    """Kills what is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace):
    """Runs the load generator; returns (raw records, its exit code)."""
    build_dir = build()
    work_rel = os.path.join(".bench_run", workload)
    work = os.path.join(ROOT, work_rel)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)),
           "--bin", os.path.join(build_dir, "examples"),
           "--work", work_rel, "--out", raw_path]
    with open(os.path.join(work, "log.txt"), "w") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            stop_group(proc.pid)
            proc.wait()
    if rc not in (0, 1):
        raise RuntimeError(f"load generator failed (exit {rc}); see "
                           f"{work_rel}/log.txt")
    with open(raw_path) as f:
        return json.load(f), rc


def report(workload, seed, seconds, trace):
    raw, rc = run_once(workload, seed, seconds, trace)
    opened, closed = raw["open"], closed_replies(raw)
    sent = len(opened) + len(closed)
    ok = sum(r["status"] == "done" for r in opened + closed)
    queue_full = sum(r["status"] == "queue_full" for r in opened + closed)
    lat = e2e_latencies(opened)
    late_p90 = percentile([lateness_ms(r) for r in opened], 90)
    valid = late_p90 <= late_limit_ms(percentile(lat, 50))
    errors = list(raw["errors"])
    if not valid:
        errors.append(f"run invalid: the generator ran {late_p90:.3f} ms late "
                      f"at p90 (limit {late_limit_ms(percentile(lat, 50)):.3f})")

    if trace:
        values, units = per_layer(raw), PER_LAYER_UNITS
    else:
        values, units = end_to_end(raw), END_TO_END_UNITS
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f" rate={raw['rate_jps']} jobs/s open={raw['open_s']:.1f} s")
    per_window = min(len(w) for w in windows(opened, "due_ms",
                                             raw["open_s"] * 1000,
                                             raw["cycles"]))
    print(f"  jobs sent={sent} ok={ok} queue_full={queue_full} "
          f"failed={sent - ok - queue_full} open-loop samples={len(lat)} "
          f"in {raw['cycles']} slices of >= {per_window} (per slice, p90 has "
          f">= {samples_beyond(per_window, 90)} beyond; highest percentile "
          f"with >= 10 beyond: p{highest_supported_percentile(per_window)})")
    for name, value in values.items():
        print(f"  {name:<26} {value:14.6f} {units[name]}")
    if trace:
        print(f"  chrome trace: .bench_run/{workload}/trace.json")
    for e in errors:
        print(f"  ERROR {e}")
    correct = rc == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": sent,
        "failed": sent - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


# --- self-test ----------------------------------------------------------------

def self_test():
    # Nearest-rank percentiles and tail counts on known inputs.
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50 and percentile(xs, 90) == 90
    assert percentile(xs, 100) == 100 and percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert samples_beyond(100, 90) == 10 and samples_beyond(99, 90) == 9
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(40) == 75
    assert highest_supported_percentile(1000) == 99
    assert highest_supported_percentile(15) is None
    # Failed requests sort last and so miss any limit.
    assert percentile([1.0, 2.0, math.inf], 90) == math.inf
    assert percentile([1.0, 2.0] * 10 + [math.inf], 50) == 2.0
    # Lateness: a request due at 10 ms on a connection free since 5 ms,
    # sent at 10.4 ms, is 0.4 ms late; one whose connection freed at 12 ms
    # (server-caused wait) and was sent at 12.1 ms is 0.1 ms late.
    assert abs(lateness_ms({"ready_ms": 10.0, "send_ms": 10.4}) - 0.4) < 1e-9
    assert abs(lateness_ms({"ready_ms": 12.0, "send_ms": 12.1}) - 0.1) < 1e-9
    assert late_limit_ms(5.0) == 2.0 and late_limit_ms(100.0) == 10.0
    # Slices split by time; the median steps over one slow slice.
    recs = [{"t": t, "v": v} for t, v in
            [(0, 1), (10, 1), (30, 2), (55, 9), (70, 3), (99, 3), (100, 3)]]
    assert [len(w) for w in windows(recs, "t", 100, 4)] == [2, 1, 2, 2]
    assert windowed_median(recs, "t", 100, 4,
                           lambda w: max(r["v"] for r in w)) == 2.5

    # Every metric BENCHMARK.json names is emitted, finite, with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert set(m["name"] for m in bench["end_to_end"]) == set(END_TO_END_UNITS)
    assert set(m["name"] for m in bench["per_layer"]) == set(PER_LAYER_UNITS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = END_TO_END_UNITS if m in bench["end_to_end"] else PER_LAYER_UNITS
        assert m["unit"] == units[m["name"]], m
    for w in bench["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", w["name"], "--seed",
                 "3", "--seconds", "4", "--trace", str(trace)],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["attempted"] >= 1, result
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in wanted}
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert math.isfinite(got["value"]), (w["name"], m, got)
                assert got["unit"] == m["unit"], (w["name"], m, got)
            log(f"self-test: {w['name']} trace={trace} ok")
    print("perfbench self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return report(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
