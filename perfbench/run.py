#!/usr/bin/env python3
"""Build and run the dce-lens benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign|triage|equiv \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is always the benchmark's JSON result. See perfbench/README.md for the
workloads and metrics.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dce_perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at src/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "dce_perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)


def main():
    # A SIGTERM to this script unwinds as SystemExit: subprocess.run
    # kills and reaps the build step, the finally below the benchmark
    # process, so neither outlives the script.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        build()
    except subprocess.CalledProcessError as error:
        fail("build failed: " + str(error))
    child = subprocess.Popen(
        [BINARY, "--workdir", WORK_DIR] + sys.argv[1:], cwd=ROOT)
    try:
        status = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        # The binary removes its scratch stores itself unless a signal
        # ended it.
        shutil.rmtree(os.path.join(WORK_DIR, str(child.pid)),
                      ignore_errors=True)
    if status < 0:
        # Not passed on as is: it would reach the caller as 256 - signal.
        fail("dce_perfbench died from signal " +
             signal.Signals(-status).name)
    sys.exit(status)


if __name__ == "__main__":
    main()
