#!/usr/bin/env python3
"""LION benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload paper_rig --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout. Builds the program and
lion_perfbench from source (CMake, Release) into .bench_build/, runs one
workload, checks every output, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a shorter traced run (spans also written as a Chrome trace under
.bench_build/perfbench-runs/). Exit status: 0 when every check passed,
1 when an output check failed or the open loop fell behind (the result
line still prints), 2 when the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("paper_rig", "far_rig")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "perfbench-runs")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no program sources (src/) in %s" % root)
        sys.exit(2)
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lion_perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lion_perfbench")


def chrome_trace(raw, path):
    """Every phase's spans as one Chrome trace_event document."""
    events = []
    for pid, key in enumerate(("batch", "ingest", "flush")):
        for name, tid, start, dur, arg in raw[key].get("spans", ()):
            ev = {"name": name, "ph": "X", "pid": pid, "tid": tid,
                  "ts": start / 1e3, "dur": dur / 1e3}
            if arg >= 0:
                ev["args"] = {"arg": arg}
            events.append(ev)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        sys.exit(2)

    run_dir = os.path.join(root, RUN_DIR)
    os.makedirs(run_dir, exist_ok=True)
    # One file set per workload and mode, overwritten by the next run.
    stem = "%s-trace%d" % (args.workload, args.trace)
    out_path = os.path.join(run_dir, stem + ".json")
    work_dir = os.path.join(run_dir, stem + ".work")
    os.makedirs(work_dir, exist_ok=True)
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: lion_perfbench timed out after %d s" % RUN_TIMEOUT_S)
        sys.exit(2)
    try:
        os.rmdir(work_dir)
    except OSError:
        pass
    if not os.path.isfile(out_path):
        log("perfbench: lion_perfbench exited %d without results" % code)
        sys.exit(2)
    with open(out_path) as f:
        raw = json.load(f)
    missing = [k for k in ("setup", "batch", "ingest", "flush") if k not in raw]
    if missing:
        log("perfbench: lion_perfbench exited %d before phase(s) %s"
            % (code, ", ".join(missing)))
        sys.exit(2)

    attempted, failed = metrics.count_operations(raw)
    problems = []
    if code != 0 or failed:
        problems.append("%d of %d operations failed or failed a check"
                        % (failed, attempted))
    f = raw["flush"]
    lag_p99, slope, late = metrics.generator_verdict(
        f["ops"], f["backlog_t"], f["backlog_n"])
    problems += late
    try:
        if args.trace:
            values, matched, stages = metrics.per_layer(raw)
            for key in ("batch", "ingest", "flush"):
                if raw[key].get("trace_dropped", 0):
                    problems.append("%s: %d spans dropped"
                                    % (key, raw[key]["trace_dropped"]))
            means = {k: sum(v) / len(v) if v else 0.0
                     for k, v in stages.items()}
            log("serve_flush full-flush critical path over %d matched ops "
                "(mean ms): %s = latency %.2f" % (matched, " + ".join(
                    "%s %.2f" % kv for kv in means.items()),
                    sum(means.values())))
            if not matched:
                problems.append("no full flush matched its spans")
            chrome_trace(raw, os.path.join(run_dir, stem + ".trace.json"))
        else:
            values = metrics.end_to_end(raw)
    except metrics.MetricError as e:
        problems.append(str(e))
        values = {}
    bad = [k for k, (v, _) in values.items() if not math.isfinite(v)]
    if bad:
        problems.append("non-finite metrics: %s" % ", ".join(bad))
        values = {k: v for k, v in values.items() if k not in bad}

    log("perfbench %s seed %d: failed_ops_frac %.6f, generator lag p99 "
        "%.2f ms, backlog slope %.3f/s"
        % (args.workload, args.seed, failed / max(attempted, 1), lag_p99,
           slope))
    for problem in problems:
        log("perfbench: INVALID: " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(values.items())},
    }
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
