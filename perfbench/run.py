#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src and ../tools/shbf_server.cc) into
.bench_build/perfbench; later calls reuse the build. The benchmark binary
prints its metrics and, as the last stdout line, the JSON result. Build
output goes to .bench_build/perfbench/build.log, never to stdout.

--selftest builds the same tree and runs the helper unit tests instead.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds under a lock; returns the build dir."""
    for needed in ("src", os.path.join("tools", "shbf_server.cc"), "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from the root of a full checkout" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s)" % " ".join(step[:2]), 1)
    return BUILD_DIR


def run_child(argv):
    """Runs argv in its own process group; kills the group on timeout."""
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 1)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build_dir = build()
    if args.selftest:
        sys.exit(run_child([os.path.join(build_dir, "perfbench_harness_test")]))
    sys.stdout.flush()
    sys.exit(run_child([
        os.path.join(build_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--out=" + os.path.join(BUILD_ROOT, "runs"),
    ]))


if __name__ == "__main__":
    main()
