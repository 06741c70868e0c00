#!/usr/bin/env python3
"""End-to-end benchmark of the sqvae repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call builds the library and the benchmark from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls rebuild only what changed.

An untraced run starts the runner PROCESSES times, one after the other,
each measuring an equal share of --seconds on the same inputs, and reports
per metric the median over the processes (sums for attempted and failed);
each process times its own cold set-up. A traced run is one process. The
output is a provenance line, then the result line {"correct", "attempted",
"failed", "metrics"} as the last line; the same lines go to
.bench_out/<workload>-seed<N>-trace<T>.result.json, and spans of a traced
run to .bench_out/<workload>-seed<N>.spans.jsonl. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_qm9_sqvae", "train_pdbbind_sqae", "serve_pdbbind_sqae",
             "sim_20q")
# Some slowdowns on a shared machine last a whole process (where its
# threads land, or a noisy neighbour for a few seconds); the median over
# three processes is not moved by one of them.
PROCESSES = 3
# A runner process gets its share of --seconds plus this much for set-up,
# warm-up, checks and the serving workload's 20 s stall guard.
RUN_ALLOWANCE_S = 50
SELFTEST_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the runner; returns the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # One build at a time per build dir; a second run waits for the first.
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                status = subprocess.run(step, cwd=ROOT, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                status = -1
            if status != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step), 3)
    return out


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unavailable"


def source_digest():
    """sha256 over the sources the runner is built from, in path order."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "perfbench"]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for dirpath, _, names in os.walk(path):
            for name in names:
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the checks' self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # The benchmark builds the repository's library from source; without
    # it there is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sqvae sources next to perfbench/ (need CMakeLists.txt and "
             "src/ at " + ROOT + ")")

    out = build()
    if args.selftest:
        status = subprocess.run([os.path.join(out, "perfbench_selftest")],
                                cwd=ROOT, timeout=SELFTEST_TIMEOUT_S).returncode
        sys.exit(status)

    out_dir = os.path.join(ROOT, ".bench_out")
    processes = 1 if args.trace else PROCESSES
    timeout_s = args.seconds / processes + RUN_ALLOWANCE_S
    command = [os.path.join(out, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / processes),
               "--trace", str(args.trace), "--out_dir", out_dir,
               "--git_sha", git_sha(), "--source_digest", source_digest()]
    outputs = []
    for _ in range(processes):
        try:
            result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                    text=True,
                                    timeout=timeout_s)
        except subprocess.TimeoutExpired:
            fail("runner did not finish within %d s" % timeout_s, 4)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines or \
                not lines[-1].startswith('{"correct"'):
            fail("runner exited with status %d and no result" %
                 result.returncode, 4)
        outputs.append(lines)

    results = [json.loads(lines[-1]) for lines in outputs]
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(
                       r["metrics"][name]["value"] for r in results),
                   "unit": metric["unit"]}
            for name, metric in results[0]["metrics"].items()},
    }
    lines = outputs[0][:-1] + [json.dumps(combined)]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.result.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        for child in outputs[1:]:
            f.write(child[-1] + "\n")
        f.write("\n".join(lines) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
