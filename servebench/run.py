#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

The driver binary is built with CMake from servebench/CMakeLists.txt,
which compiles the library sources of the same checkout. Build output
goes to stderr and to $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench); the binary's stdout is passed through, so its
last line is the benchmark's JSON result. Exits nonzero without a result
when the checkout cannot be built or the run fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "servebench")


def build(out_dir):
    """Configure once, then build the driver target; True on success."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "servebench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        print("servebench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(out_dir, "servebench")] + argv
    if "--trace" in argv and "--trace-out" not in argv:
        i = argv.index("--trace")
        if i + 1 < len(argv) and argv[i + 1] == "1":
            name = "trace"
            if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
                name += "_" + argv[argv.index("--workload") + 1]
            cmd += ["--trace-out", os.path.join(out_dir, name + ".json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
