#!/usr/bin/env python3
"""Serving-stack benchmark: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload query_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare old.jsonl new.jsonl

The first form builds perfbench/ (and the libraries under src/ it links)
into $CARGO_TARGET_DIR or .bench_build/, runs the driver, checks its
correctness verdict, records the result with its host provenance in
<build dir>/results.jsonl and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 runs the
driver as 5 processes of --seconds / 5 each and reports the median of each
end-to-end metric of BENCHMARK.json over them; --trace 1 runs it once and
reports the per-layer metrics (and writes the spans to <build dir>/spans/).

The second form compares two results files metric by metric and warns when
their host fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_steady", "alloc_churn")
DRIVER_TIMEOUT_S = 170
SUBRUNS = 5
LATE_BOUND_US = 5000  # kLateBoundUs in src/workloads.hpp
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then builds incrementally; returns the driver path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src" % ROOT)
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (cmd[:2], err))
            if code != 0:
                fail("build failed (exit %d); see %s" % (code, log_path))
    return os.path.join(cmake_dir, "perfbench_driver")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_ref():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance(driver_result, seed):
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": driver_result.get("build_type", "unknown"),
        "compiler": "g++ " + driver_result.get("compiler", "unknown"),
    }
    fingerprint = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    return dict(host, git_ref=git_ref(), seed=seed, host_fingerprint=fingerprint)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def run_driver(driver, args, seconds, spans, timeout):
    """Runs the driver once, echoes its output; returns its parsed result."""
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail("driver exceeded its time (%.0f s)" % timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stderr)
        fail("driver printed no result (exit %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    sys.stderr.write(proc.stderr)
    result["exit_code"] = proc.returncode
    return result


def run(args):
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    out_dir = build_dir()
    driver = build(out_dir)
    started = time.monotonic()
    spans_dir = os.path.join(out_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
    # The timed mode splits --seconds over SUBRUNS driver processes and
    # reports each metric's median over them: on a shared VM a slow spell
    # can cover a whole process, which windows inside one process cannot
    # average away. An odd count, so the median is one of the measured
    # values.
    parts = 1 if args.trace else max(k for k in (1, 3, SUBRUNS) if k <= args.seconds)
    results = []
    for k in range(parts):
        print("== subrun %d of %d" % (k + 1, parts))
        budget = DRIVER_TIMEOUT_S - (time.monotonic() - started)
        results.append(run_driver(driver, args, args.seconds / parts, spans, budget))

    first = results[0]
    prov = provenance(first, args.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for result in results:
        for kind in ("gate_failures", "invalid"):
            for item in result[kind]:
                print("%s: %s" % ("GATE FAILED" if kind == "gate_failures"
                                  else "INVALID RUN", item))
    missing = [name for name in wanted
               if any(name not in r["metrics"] for r in results)]
    if missing:
        fail("driver did not report: " + ", ".join(missing))
    metrics = {}
    for name in wanted:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            fail("driver reported a non-finite " + name)
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["metrics"][name]["unit"]}
    # The generator's p99 lateness over the whole run must stay within
    # LATE_BOUND_US: at most 1% of the run's sends may be later than that.
    sends = sum(r["sends"] for r in results)
    late_sends = sum(r["late_sends"] for r in results)
    punctual = late_sends * 100 <= sends
    print("generator: %d of %d open-loop sends more than %d us late (at most 1%%): %s" %
          (late_sends, sends, LATE_BOUND_US, "ok" if punctual else "INVALID RUN"))
    correct = punctual and all(
        bool(r["correct"]) and bool(r["valid"]) and r["exit_code"] == 0
        for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    record = {"time": time.time(), "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "sends": sends, "late_sends": late_sends,
              "subruns": [{"ops": r["ops"], "notes": r["notes"],
                           "metrics": r["metrics"]} for r in results]}
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("load: attempted %d failed %d failed_ratio %.6g" %
          (attempted, failed, failed / max(1, attempted)))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


def compare(paths):
    sides = []
    for path in paths:
        try:
            with open(path) as f:
                sides.append([json.loads(line) for line in f if line.strip()])
        except (OSError, ValueError) as err:
            fail("cannot read %s: %s" % (path, err))
    prints = [{r["provenance"]["host_fingerprint"] for r in side} for side in sides]
    if prints[0] != prints[1] or len(prints[0]) > 1:
        print("WARNING: results come from different hosts or builds "
              "(fingerprints %s vs %s); the comparison is not same-host." %
              (sorted(prints[0]), sorted(prints[1])))
    keys = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    for workload, trace in keys:
        runs = [[r for r in side if r["workload"] == workload and r["trace"] == trace]
                for side in sides]
        print("%s (trace %d): %d vs %d runs" % (workload, trace, len(runs[0]), len(runs[1])))
        names = sorted({n for side in runs for r in side for n in r["metrics"]})
        for name in names:
            vals = [[r["metrics"][name]["value"] for r in side if name in r["metrics"]]
                    for side in runs]
            if not vals[0] or not vals[1]:
                continue
            a, b = statistics.median(vals[0]), statistics.median(vals[1])
            change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
            print("  %-40s %14.6g %14.6g %8s" % (name, a, b, change))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULTS_JSONL")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
    elif args.workload:
        if not 1 <= args.seconds <= 60:
            fail("--seconds must be 1..60")
        run(args)
    else:
        parser.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
