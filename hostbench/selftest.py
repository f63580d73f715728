#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny sizes.

Usage (from the repository root):

    python3 hostbench/selftest.py

Builds the hostbench binary (as run.py does), then for every workload
runs two tiny rounds untraced and two traced, and checks that

  * both runs pass every output check and counter identity;
  * the untraced run emits exactly BENCHMARK.json's end-to-end metrics
    and the traced run exactly its per-layer metrics, each with its unit;
  * the traced and untraced runs report the same operation counts, per
    phase and in total;
  * every span nests inside its parent and its self time equals its
    duration minus its children's coverage (the binary's --check-spans);
  * the result is the last stdout line, and a tree without the library
    sources makes run.py exit non-zero without printing a result.

Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def drive(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--rounds", "2"]
    if trace:
        cmd.append("--check-spans")
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = run.parse_result(lines[-1])
    if proc.returncode != 0 or result is None or not result["correct"]:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n"
             f"{proc.stderr}{lines[-1][:500]}")
    phases = [l for l in lines if l.startswith("  ") and "attempted" in l]
    return result, phases


def check_metrics(workload, trace, result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, wrong unit {wrong})")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")


def check_broken_tree():
    """run.py in a tree holding only BENCHMARK.json and the benchmark."""
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.BENCH_DIR,
                        os.path.join(tmp, os.path.basename(run.BENCH_DIR)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(run.BENCH_DIR),
                                          "run.py"),
             "--workload", "quicksort", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode == 0 or run.parse_result(
                proc.stdout.rstrip("\n").split("\n")[-1]) is not None:
            fail("run.py succeeded in a tree without the library sources")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build(timeout=840)
    for workload in run.WORKLOADS:
        plain, plain_phases = drive(binary, workload, 0)
        traced, traced_phases = drive(binary, workload, 1)
        check_metrics(workload, 0, plain, bench["end_to_end"])
        check_metrics(workload, 1, traced, bench["per_layer"])
        if (plain["attempted"], plain["failed"]) != (traced["attempted"],
                                                     traced["failed"]):
            fail(f"{workload}: traced and untraced operation counts differ")
        if plain_phases != traced_phases or not plain_phases:
            fail(f"{workload}: per-phase counts differ: {plain_phases} vs "
                 f"{traced_phases}")
        if traced["metrics"]["trace.spans"]["value"] <= 0:
            fail(f"{workload}: the traced run recorded no spans")
        print(f"selftest: {workload}: ok ({plain['attempted']} operations)")
    check_broken_tree()
    print("selftest: broken tree: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
