#!/usr/bin/env python3
"""Builds the SampleTrack benchmark from source and runs one workload.

Usage, from the root of a SampleTrack checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first call configures and builds perfbench (the sampletrack library and
the benchmark program only) under $CARGO_TARGET_DIR, or .bench_build when
unset; later calls rebuild incrementally. The program's standard output
ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
Scratch files live under the build directory and are removed; a traced run
leaves its Chrome-trace file in <build>/traces/.

With --workload all every workload runs in turn and the last line merges
their results, metric names prefixed with "<workload>/".
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["file-sync-heavy", "online-tpcc", "upload-mix"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("not inside a SampleTrack checkout (no CMakeLists.txt and src/ at %s)" % ROOT)
    obj = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", obj, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(obj, "perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, build_dir, workload, args):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(build_dir, "work", "%s-%d" % (workload, os.getpid())),
        "--outdir", os.path.join(build_dir, "traces"),
    ]
    # Own process group, so that a timeout also stops the per-pass child
    # processes the program forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("%s printed no result line" % workload)
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail("%s: metrics %s do not match BENCHMARK.json %s"
             % (workload, sorted(result["metrics"]), sorted(want)))
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    if args.workload != "all":
        lines, result = run_one(binary, build_dir, args.workload, args)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, build_dir, w, args)
        print("== %s" % w)
        print("\n".join(lines))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
