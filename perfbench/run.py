#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (the library from src/ plus the driver in this
directory) into .bench_build/perfbench, then launches it:

  * with --trace 0, the measured launch between two groups of four
    set-up-only launches; a set-up-only launch's set-up time runs from
    process start to the binary's "ready" line (one untimed warm-up cell
    included), is scaled to the reference host speed by the scale the launch
    prints after "ready" (as the binary scales its other host times; see
    main.cc), and setup_s is the median of the eight;
  * with --trace 1, one measured launch whose host spans are written to
    .bench_build/perfbench/spans/<workload>-seed<n>.jsonl.

The binary's report lines are passed through. The last stdout line is one
JSON object with correct, attempted, failed and metrics; the metric names and
units are checked against BENCHMARK.json. Exits non-zero, printing no result,
when the build, a launch or that check fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SETUP_LAUNCHES = 4  # before the measured launch, and again after it
LAUNCH_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not BINARY.exists():  # first build, or an interrupted one
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def launch(arguments, env):
    """Runs the binary once; returns (stdout lines, seconds from start to ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(BINARY), *arguments], stdout=subprocess.PIPE, text=True,
                            env=env)
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready_s = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "perfbench: ready":
                ready_s = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready_s is None:
        fail(f"launch {' '.join(arguments)} exited with {proc.returncode}")
    return lines, ready_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    env = {k: v for k, v in os.environ.items() if k != "RENONFS_SEED"}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []  # (raw seconds, host scale) per set-up-only launch

    def set_up():
        if args.trace == 0:
            for _ in range(SETUP_LAUNCHES):
                lines, ready_s = launch([*common, "--seconds", "1", "--setup-only"], env)
                prefix = "perfbench: host scale "
                scale = next((float(l[len(prefix):]) for l in lines if l.startswith(prefix)), None)
                if scale is None:
                    fail("a set-up-only launch printed no host scale")
                setups.append((ready_s, scale))

    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_out = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    set_up()
    lines = launch([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spans-out", str(spans_out)], env)[0]
    set_up()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    section = "per_layer"
    if args.trace == 0:
        section = "end_to_end"
        metrics["setup_s"] = {"value": statistics.median(s * k for s, k in setups), "unit": "s"}
        print("perfbench: raw setup_s samples = " + ", ".join(f"{s:.4f}" for s, _ in setups))
        print("perfbench: their host scales = " + ", ".join(f"{k:.4f}" for _, k in setups))
    expected = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != expected:
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(expected.keys() - printed.keys())}, "
             f"extra {sorted(printed.keys() - expected.keys())}, "
             f"unit mismatches {sorted(n for n in expected.keys() & printed.keys() if expected[n] != printed[n])}")

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
