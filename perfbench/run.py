#!/usr/bin/env python3
"""Build and run the SpeedLLM repo benchmark.

    python3 perfbench/run.py --workload serve-tiny|prefix-chat|paper-15m \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus the benchmark binary) into
.bench_build/perfbench with CMake in Release mode; later calls rebuild
only what changed. The binary's output is passed through unchanged: its
last line is the JSON result. Build output goes to standard error.
Exits non-zero without a result when the sources are missing, the build
fails, or any output check fails. --self-test builds and runs the
benchmark's own tests instead.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("serve-tiny", "prefix-chat", "paper-15m")


def build(target):
    if not (ROOT / "src" / "api" / "engine.hpp").is_file():
        sys.exit("perfbench: SpeedLLM sources (src/) not found under %s" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD.mkdir(parents=True, exist_ok=True)
    # Runs started side by side in one checkout share the build tree.
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", target,
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return BUILD / target


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--commit", commit()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        # Reached early only when this script is interrupted: never leave
        # the benchmark binary running behind it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
