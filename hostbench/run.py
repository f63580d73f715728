#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 hostbench/run.py --workload quicksort --seed 1 --seconds 40 --trace 0

Builds the library from ``src/`` and the ``hostbench`` binary with CMake
into ``$CARGO_TARGET_DIR/hostbench`` (``.bench_build/hostbench`` when the
variable is unset), runs the binary, and relays its output. The binary's
last stdout line -- one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` -- is this script's last line too. The exit
code is non-zero when the build fails, the binary fails, or any output
check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("quicksort", "raytracer", "kv-serve")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build(timeout):
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    start = time.monotonic()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=timeout)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr,
                   timeout=max(1.0, timeout - (time.monotonic() - start)))
    return os.path.join(out, "hostbench")


def source_id():
    """The git commit when the tree is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def parse_result(line):
    """The binary's result line, or None when it is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.monotonic()
    try:
        binary = build(timeout=840)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"hostbench: build failed: {err}", file=sys.stderr)
        return 1
    # A run must end within 180 s of its start when nothing was built.
    budget = max(60.0, 170.0 - (time.monotonic() - start))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        print("hostbench: binary timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None:
        print(f"hostbench: binary exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
