#!/usr/bin/env python3
"""Builds and runs the Jinn benchmark.

Usage, from the root of a checkout:

    python3 jinnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: table3_mix, offline_replay.

The benchmark is a CMake package (jinnbench/CMakeLists.txt) that compiles
the runtime from ../src. It is configured and built under the directory named
by CARGO_TARGET_DIR (default .bench_build), then its unit tests run, then the
`jinnbench` driver. Build and test output goes to standard error; the last
line of standard output is the driver's JSON result. Any failure exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("jinnbench/run.py: %s\n" % message)
    sys.exit(1)


def run_logged(cmd, log, timeout, env):
    try:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail("timed out: %s" % " ".join(cmd))
    return proc.returncode


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "jinnbench", "jinnbench_test"])
        for cmd in steps:
            log.flush()
            if run_logged(cmd, log, BUILD_TIMEOUT_S, env) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "jinnbench")
    out_dir = os.path.join(target, "jinnbench-out")
    os.makedirs(out_dir, exist_ok=True)

    build(build_dir)

    tests = subprocess.run([os.path.join(build_dir, "jinnbench_test"),
                            "--gtest_brief=1"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=RUN_TIMEOUT_S)
    sys.stderr.write(tests.stdout.decode(errors="replace"))
    if tests.returncode != 0:
        fail("benchmark unit tests failed")

    cmd = [os.path.join(build_dir, "jinnbench")] + sys.argv[1:] + \
        ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
