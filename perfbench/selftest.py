#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload through run.py for a short time (each run still covers
the workload's full count of tallied cells) and checks that:

  * the last stdout line holds exactly correct, attempted, failed and metrics,
    and the run is correct with no failed cell;
  * every metric BENCHMARK.json names is printed with its unit, untraced
    (end-to-end) and traced (per-layer);
  * two runs at one seed give identical simulated metrics and digests;
  * background traffic is absent on andrew_quiet_lan and is more than half
    of the scheduler events on the ring's UDP cells.

Exits 0 when every check passes. Takes a few minutes; run it on an otherwise
idle machine.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
SIMULATED = ["sim_op_ms_p50", "sim_op_ms_p99", "sim_read_rate", "server_cpu_ms_per_op",
             "cell_sim_s", "cell_rpcs"]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"run.py {workload} trace={trace} failed:\n{out.stderr[-4000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next(l.split("=")[1].split()[0] for l in lines if l.startswith("perfbench: digest="))
    return json.loads(lines[-1]), lines, digest


def check_printed(workload, section, result, lines):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec[section]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
              f"{workload}: {name} in the result with unit {unit}")
        if name != "setup_s":  # run.py measures set-up; the binary reports the rest
            pattern = re.compile(rf"^perfbench: {re.escape(name)} = \S+ {re.escape(unit)}$")
            check(any(pattern.match(l) for l in lines), f"{workload}: {name} printed with {unit}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        first, lines, digest_a = run(workload, 0)
        second, _, digest_b = run(workload, 0)
        check(sorted(first) == ["attempted", "correct", "failed", "metrics"],
              f"{workload}: result keys")
        check(first["correct"] and first["failed"] == 0 and first["attempted"] >= 1,
              f"{workload}: correct, no failed cell")
        check_printed(workload, "end_to_end", first, lines)
        check(digest_a == digest_b, f"{workload}: digest repeats ({digest_a})")
        for name in SIMULATED:
            check(first["metrics"][name]["value"] == second["metrics"][name]["value"],
                  f"{workload}: {name} repeats")

        traced, lines, digest_t = run(workload, 1)
        check(traced["correct"] and traced["failed"] == 0, f"{workload}: traced run correct")
        check(digest_t == digest_a, f"{workload}: traced digest matches untraced")
        check_printed(workload, "per_layer", traced, lines)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        if workload == "andrew_quiet_lan":
            check(layer["net.background_frames"] == 0, "andrew_quiet_lan: no background frames")
        if workload == "ring_nhfsstone":
            check(layer["net.background_share.udp_cells"] > 0.5,
                  "ring_nhfsstone: background frames are most events on UDP cells")
        check(layer["sim.callable_heap_allocs"] == 0, f"{workload}: no callable heap allocs")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
