#!/usr/bin/env python3
"""The slimsim benchmark: five paper workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload gps_scalar --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds perfbench/ (which builds the
library from src/) into $CARGO_TARGET_DIR or .bench_build, then:

  --trace 0  answers the workload's query in a fresh process per answer for
             --seconds seconds and reports the medians of time_to_answer_s,
             paths_per_s, setup_s, peak_rss_mb and cpu_s;
  --trace 1  answers untraced for half of --seconds (the overhead baseline),
             then runs the per-layer trace twice at one seed, reports the
             first trace's per-layer metrics and flags any drift of the
             exact counts between the two.

Every answer is checked against the workload's oracle; a wrong or failed
answer counts as a failed operation. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads, metrics and baseline findings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["gps_scalar", "table1_r7", "table1_ctmc_r7", "fig5_curve", "failover_rare"]

END_TO_END = {
    "time_to_answer_s": "s",
    "paths_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
}

PER_LAYER = {
    "slim.parse_s": "s",
    "slim.resolve_s": "s",
    "slim.instantiate_s": "s",
    "eda.compile_s": "s",
    "sim.path_us": "us",
    "sim.steps_per_path": "count",
    "sim.step_ns": "ns",
    "eda.invariant_horizon_ns": "ns",
    "eda.candidates_ns": "ns",
    "eda.markovian_rates_ns": "ns",
    "eda.execute_ns": "ns",
    "eda.execute_markovian_ns": "ns",
    "eda.elapse_ns": "ns",
    "sim.choose_ns": "ns",
    "eda.interned_configs": "count",
    "sim.paths_generated": "count",
    "sim.accepted_ratio": "ratio",
    "stat.collector_rounds": "count",
    "stat.max_buffered": "count",
    "sim.parallel_efficiency": "ratio",
    "stat.consume_samples_per_s": "1/s",
    "stat.push_ns": "ns",
    "ctmc.build_s": "s",
    "ctmc.eliminate_s": "s",
    "ctmc.minimize_s": "s",
    "ctmc.transient_s": "s",
    "ctmc.states": "count",
    "ctmc.transitions": "count",
    "ctmc.lumped_states": "count",
    "rare.total_paths": "count",
    "rare.goal_hits": "count",
    "rare.paths_per_root": "ratio",
    "rare.work_variance": "ratio",
    "sim.step_call_ns": "ns",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly across two traced runs at one seed
# (sim.steps is the exact numerator of sim.steps_per_path).
DETERMINISTIC_COUNTS = [
    "sim.steps",
    "eda.interned_configs",
    "ctmc.states",
    "ctmc.lumped_states",
    "rare.total_paths",
    "rare.goal_hits",
]

SETUPS_PER_PROCESS = 20  # compile-cache misses timed per answer process
MIN_ANSWERS = 3          # per measured run, however long an answer takes
PROCESS_TIMEOUT = 150    # seconds; a hung answer counts as failed


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/; returns the perfbench binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: slimsim sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    bdir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "perfbench")


def run_json(cmd):
    """Runs one perfbench process; returns its JSON line or an error record."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out: " + " ".join(cmd)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": "exit %d: %s" % (proc.returncode, proc.stderr.strip())}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "error": "unreadable output: " + lines[-1][:200]}


def describe(name, values, unit):
    """Median and, with enough samples, the highest percentile that leaves
    at least ten samples above it."""
    vs = sorted(values)
    line = "  %-18s median %-12.6g %-5s n=%d" % (name, statistics.median(vs), unit, len(vs))
    if len(vs) >= 20:
        q = 100 * (len(vs) - 10) // len(vs)
        line += "  p%d %.6g" % (q, vs[max(0, (q * len(vs)) // 100 - 1)])
    print(line)


def measure(binary, workload, seed, seconds, scale, min_answers):
    """Answers in fresh processes until `seconds` have passed."""
    deadline = time.monotonic() + seconds
    answers = []
    index = 0
    while index < min_answers or time.monotonic() < deadline:
        out = run_json([binary, "measure", workload, str(seed), str(index), scale,
                        str(SETUPS_PER_PROCESS)])
        if not out.get("ok"):
            log("perfbench: %s answer %d failed: %s" % (workload, index, out.get("error")))
        answers.append(out)
        index += 1
    return answers


def end_to_end(answers):
    good = [a for a in answers if a.get("ok")]
    if not good:
        return {}
    series = {
        "time_to_answer_s": [a["answer_s"] for a in good],
        "paths_per_s": [a["paths"] / a["answer_s"] for a in good],
        "setup_s": [s for a in good for s in a["setup_s"]],
        "peak_rss_mb": [a["peak_rss_mb"] for a in good],
        "cpu_s": [a["cpu_s"] for a in good],
    }
    for name, values in series.items():
        describe(name, values, END_TO_END[name])
    return {name: statistics.median(values) for name, values in series.items()}


def run_benchmark(workload, seed, seconds, trace, scale="full", min_answers=MIN_ANSWERS):
    binary = build()
    print("perfbench %s seed=%d seconds=%g trace=%d scale=%s"
          % (workload, seed, seconds, trace, scale))
    correct = True
    if not trace:
        answers = measure(binary, workload, seed, seconds, scale, min_answers)
        attempted = len(answers)
        failed = sum(1 for a in answers if not a.get("ok"))
        values = end_to_end(answers)
        units = END_TO_END
    else:
        answers = measure(binary, workload, seed, seconds / 2, scale, min_answers)
        attempted = len(answers)
        failed = sum(1 for a in answers if not a.get("ok"))
        untraced = [a["answer_s"] for a in answers if a.get("ok")]
        trace_dir = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        traces = []
        for k in range(2):
            path = os.path.join(trace_dir, "%s-seed%d-%d.json" % (workload, seed, k))
            out = run_json([binary, "trace", workload, str(seed), scale, path])
            if "metrics" not in out:
                log("perfbench: trace failed: %s" % out.get("error"))
                return {"correct": False, "attempted": attempted + 1,
                        "failed": failed + 1, "metrics": {}}
            for e in out["errors"]:
                log("perfbench: trace %d: %s" % (k, e))
            correct = correct and out["ok"]
            attempted += out["attempted"]
            failed += out["failed"]
            traces.append(out)
        for name in DETERMINISTIC_COUNTS:
            a, b = traces[0]["counts"].get(name), traces[1]["counts"].get(name)
            if a is None or a != b:
                log("perfbench: count drift: %s %s vs %s" % (name, a, b))
                correct = False
        values = dict(traces[0]["metrics"])
        if untraced:
            values["trace.overhead_ratio"] = traces[0]["answer_s"] / statistics.median(untraced)
        for name in PER_LAYER:
            if name in values:
                print("  %-28s %-14.6g %s" % (name, values[name], PER_LAYER[name]))
        units = PER_LAYER
    missing = [name for name in units if name not in values]
    if missing:
        log("perfbench: metrics missing: " + ", ".join(missing))
        correct = False
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def self_test():
    """Every workload at a tiny size, untraced and traced: every metric
    prints with the unit BENCHMARK.json declares, with no failed answer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py's tables")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's list")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_benchmark(workload, 1, 0.5, trace, scale="tiny", min_answers=1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            tag = "%s trace=%d" % (workload, trace)
            if got != declared[trace]:
                problems.append("%s: metrics/units differ: %s" % (tag, sorted(
                    set(declared[trace].items()) ^ set(got.items()))))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s: failed=%d correct=%s"
                                % (tag, result["failed"], result["correct"]))
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
