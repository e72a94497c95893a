#!/usr/bin/env python3
"""Wall-clock composition benchmark for the knactor runtime.

Builds perfbench_workload (this directory's CMake package, which compiles
the repository's libraries from ../src), runs one named workload for the
measured interval, and prints every metric by name and unit followed by one
JSON result line:

    python3 perfbench/run.py --workload ride_dispatch --seed 1 \
        --seconds 30 --trace 0

--trace 0 times set-ups in a few set-up-only processes, then runs
iterations and reports the end-to-end metrics; --trace 1 runs untraced and
traced iterations in pairs and reports the per-layer metrics, the span
file and the tracing overhead. --self-test builds and runs the output
checkers' tests. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept out of tuning; confirms later claims

WORKLOADS = ("ride_dispatch", "fleet_pull", "durable_ingest", "fleet_rollup")

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_req", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.events_per_req", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.held_arrival_share", "ratio"),
    ("core.cast.passes_per_req", "count"),
    ("core.cast.fields_written_per_pass", "count"),
    ("core.cast.events_per_batch", "count"),
    ("core.cast.pass_ms", "ms"),
    ("expr.env_bind_us", "us"),
    ("expr.eval_us", "us"),
    ("expr.filter_ns", "ns"),
    ("de.object.lists_per_req", "count"),
    ("de.object.writes_per_req", "count"),
    ("de.object.list_ms", "ms"),
    ("de.object.epoch_submit_us", "us"),
    ("de.subscription.evaluations_per_commit", "count"),
    ("de.subscription.selectivity", "ratio"),
    ("de.subscription.delivered_per_req", "count"),
    ("de.persist.frames_per_epoch", "count"),
    ("de.persist.snapshots", "count"),
    ("de.persist.dir_mb", "MB"),
    ("de.persist.snapshot_ms", "ms"),
    ("de.persist.recover_ms", "ms"),
    ("de.log.appends_per_req", "count"),
    ("de.log.scanned_per_query", "count"),
    ("de.log.query_ms", "ms"),
    ("de.plan.ns_per_record", "ns"),
    ("core.sync.rounds_per_req", "count"),
    ("core.sync.records_processed_per_req", "count"),
    ("core.sync.rows_out_per_req", "count"),
    ("core.sync.round_ms", "ms"),
    ("core.scheduler.epochs", "count"),
    ("core.scheduler.tasks_per_barrier", "count"),
    ("core.scheduler.inline_share", "ratio"),
    ("core.scheduler.parallel_efficiency", "ratio"),
    ("core.trace.spans_per_req", "count"),
    ("harness.trace_overhead", "ratio"),
)

RUN_BUDGET_S = 150  # stop starting iterations past this (exit within 180 s)

# Set-up-only processes per untraced run. A process's set-ups run all fast
# or all slow, depending on where its threads land on the shared host, so
# setup_s is the fastest set-up over several processes.
SETUP_RUNS = 10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else REPO / path


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no program sources at", REPO / "src")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return out / target


def run_iteration(binary, workload, seed, trace, timeout_s,
                  setup_only=False):
    """One perfbench_workload process. A crash or timeout is a result too:
    every request of the iteration counts as failed."""
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--scratch", str(scratch),
           "--setup-only", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out after %.0f s" % timeout_s}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": "exit code %d %s" % (proc.returncode, tail)}
    it = json.loads(proc.stdout.strip().splitlines()[-1])
    # A run may hold hundreds of iterations: keep each one's summary only.
    lat = sorted(it.pop("latency_ms"))
    if lat:
        p = tail_percentile(len(lat))
        it["latency"] = (percentile(lat, 50), percentile(lat, p),
                         "p%g of %d samples" % (p, len(lat)))
    setup = it.pop("setup_s")
    it["setup_min_s"] = min(setup) if setup else None
    return it


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """The highest percentile with at least ten samples beyond its rank."""
    for p in (99.9, 99.0, 90.0):
        if n - math.ceil(p * n / 100.0) >= 10:
            return p
    return 50.0


def end_to_end(iterations, setups):
    ok = [it for it in iterations if "crashed" not in it and it["completed"]]
    if not ok:
        return {}, ""
    # Work over time across the whole run, not a median of iterations: an
    # iteration runs in a fast or a slow mode with the host's load, and the
    # median jumps between the modes where the total moves smoothly.
    completed = sum(it["completed"] for it in ok)
    values = {
        "throughput_rps": completed / sum(it["timed_wall_s"] for it in ok),
        "cpu_ms_per_req": 1e3 * sum(it["cpu_s"] for it in ok) / completed,
        "latency_p50_ms": statistics.median(it["latency"][0] for it in ok),
        "latency_tail_ms": statistics.median(it["latency"][1] for it in ok),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in ok),
    }
    fastest = [it["setup_min_s"] for it in setups
               if "crashed" not in it and it["setup_min_s"] is not None]
    if fastest:
        values["setup_s"] = min(fastest)
    return values, ok[-1]["latency"][2]


def per_layer(untraced, traced):
    ok = [it for it in traced if "crashed" not in it]
    values = {}
    for name, _ in PER_LAYER:
        samples = [it["layers"].get(name, 0.0) for it in ok]
        values[name] = statistics.median(samples) if samples else 0.0
    walls_u = [it["timed_wall_s"] for it in untraced if "crashed" not in it]
    walls_t = [it["timed_wall_s"] for it in ok]
    values["harness.trace_overhead"] = (
        statistics.median(walls_t) / statistics.median(walls_u)
        if walls_u and walls_t else 0.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; %d is held out for "
                    "confirming claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output checkers' tests")
    args = ap.parse_args()

    if args.self_test:
        test = build("perfbench_checks_test")
        sys.exit(subprocess.run([str(test)]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    binary = build("perfbench_workload")
    setups = [] if args.trace else [
        run_iteration(binary, args.workload, args.seed, False, 60,
                      setup_only=True) for _ in range(SETUP_RUNS)]
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            left = RUN_BUDGET_S + 25 - (time.monotonic() - start)
            it = run_iteration(binary, args.workload, args.seed, trace, left)
            (traced if trace else untraced).append(it)
            if "crashed" in it:
                log("perfbench: iteration crashed:", it["crashed"])
        # Stop once one more round would end farther past --seconds than
        # stopping now falls short of it.
        elapsed = time.monotonic() - start
        per_round = elapsed / max(1, len(untraced))
        if (elapsed + per_round / 2 >= args.seconds
                or elapsed + per_round > RUN_BUDGET_S):
            break
    elapsed = time.monotonic() - start

    everything = untraced + traced
    attempted = failed = 0
    correct = not any("crashed" in it or it["harness_errors"]
                      for it in setups)
    for it in everything:
        if "crashed" in it:
            correct = False
            continue
        attempted += it["attempted"]
        failed += it["failed"]
        if it["failed"] or it["stray"] or it["harness_errors"]:
            correct = False
    crashed = [it for it in everything if "crashed" in it]
    if crashed:
        # A crashed iteration acknowledged nothing it could prove.
        sized = [it["attempted"] for it in everything if "crashed" not in it]
        per_iter = max(sized) if sized else 1
        attempted += per_iter * len(crashed)
        failed += per_iter * len(crashed)
    attempted = max(attempted, 1)

    print("workload %s seed %d: %d untraced + %d traced iterations in %.1f s"
          ", %d set-up-only processes" % (args.workload, args.seed,
                                          len(untraced), len(traced), elapsed,
                                          len(setups)))
    metrics = {}
    if args.trace:
        values = per_layer(untraced, traced)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print("  %-40s %14.6g %s" % (name, values[name], unit))
        spans = next((it for it in reversed(traced) if "crashed" not in it),
                     None)
        if spans is not None:
            print("  span file: %s" % spans["span_file"])
            print("  %-28s %8s %12s %12s" % ("span", "count", "total_ms",
                                             "self_ms"))
            for name, t in sorted(spans["spans"].items(),
                                  key=lambda kv: -kv[1]["self_ms"]):
                print("  %-28s %8d %12.3f %12.3f" % (
                    name, t["count"], t["total_ms"], t["self_ms"]))
        print("  tracing overhead: %.4fx traced/untraced wall time"
              % values["harness.trace_overhead"])
    else:
        values, tail_note = end_to_end(untraced, setups)
        for name, unit in END_TO_END:
            if name not in values:
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            note = " (%s)" % tail_note if name == "latency_tail_ms" else ""
            print("  %-18s %14.6g %s%s" % (name, values[name], unit, note))
    print("  %-18s %14.6g ratio (%d failed / %d attempted)"
          % ("error_rate", failed / attempted, failed, attempted))
    print("  output check: %s" % ("PASS" if correct else "FAIL"))
    for it in setups + everything:
        for line in it.get("harness_errors", []) + it.get("notes", [])[:3]:
            print("    " + line)
        if "crashed" in it:
            print("    iteration crashed: " + it["crashed"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
