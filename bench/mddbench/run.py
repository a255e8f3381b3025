#!/usr/bin/env python3
"""Builds mddbench from the source checkout and runs one workload.

    python3 bench/mddbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a source checkout. It configures this directory's
CMake project (Release; it adds the root project as a subdirectory) into
.bench_build/mddbench under the checkout, builds its mddbench target, then
runs the binary with the given arguments plus --root and --expected. Build
output goes to stderr; the binary's stdout passes through, and its last line
is the JSON result. The script checks that the result names
exactly the metrics BENCHMARK.json declares for the mode, and exits non-zero
when the build, the run or that check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "mddbench")
# A run must end within 180 s; stop the binary in time to report why.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 1


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mddbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        return fail("no CMakeLists.txt at the checkout root: run from a full "
                    "source checkout")
    if not build():
        return fail("build failed")
    cmd = [os.path.join(BUILD, "mddbench"), *argv, "--root", ROOT,
           "--expected", os.path.join(HERE, "expected.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("mddbench exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("last line of mddbench output is not JSON")
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    if set(result["metrics"]) != declared_metrics(trace):
        return fail("metrics differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
