#!/usr/bin/env python3
"""Runs the repository benchmark on two checkouts in alternating pairs.

    scripts/perf_pairs.py PARENT CHANGE [--workload W]... [--seed N]
                          [--seconds S] [--trace 0|1] [--pairs P]

PARENT and CHANGE are two checkouts of this repository, for example a
`git worktree` of the parent commit and the working tree. Each builds its own
.bench_build/ through its own perfbench/run.py, in one untimed warm-up run
before the pairs. Pair i runs the parent first when i is even and the change
first when it is odd. Every run is printed. Then, per workload and metric
(the end_to_end list of CHANGE's BENCHMARK.json with --trace 0, per_layer
with --trace 1), each side's median and quartiles and the change's win count
(ties count for neither side). "gain" marks a metric the change improved on
at least 9 of 10 pairs, with medians further apart than the parent's
quartiles; "worse" marks a median worse than the parent's by more than the
metric's bound.

Host measurements differ from run to run. Every other metric is a simulated
result and must be identical, and so must each run's `perfbench: digest=`
and snapshot-hash lines and its failed-cell count. The script exits 1 if the
two sides differ in any of these, and 2 if a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Measured on the host: wall-clock, memory, and the tracing overhead.
HOST_METRICS = {
    "cell_ms_p50", "cell_ms_p90", "sim_s_per_wall_s", "rpcs_per_wall_s", "setup_s",
    "peak_rss_mb", "sim.host_ns_per_event", "obs.snapshot_ms", "scenario.run_ms",
    "scenario.replay_ms", "workload.build_ms", "workload.preload_ms", "workload.run_ms",
    "workload.teardown_ms", "trace.cell_ms_p50", "trace.untraced_cell_ms_p50",
    "trace.overhead_frac", "host.calibration_ms",
}
# Counts of the simulator's own work and the shares computed from them. A
# change to the simulator may move them on purpose, so they are reported but
# need not match.
SIMULATOR_WORK_METRICS = {
    "sim.events", "sim.callable_heap_allocs", "sim.event_high_water",
    "net.background_share", "net.background_share.udp_cells",
}


def run_once(checkout, workload, args, seconds):
    """Runs perfbench/run.py in `checkout`; returns (result JSON, simulated lines)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perf_pairs: {' '.join(command)} in {checkout} exited with {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)
    identity = [l for l in lines
                if l.startswith("perfbench: digest=") or l.startswith("perfbench: snapshot_hash ")]
    return json.loads(lines[-1]), identity


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, specs, runs):
    """Prints the summary for one workload; returns the number of mismatches."""
    mismatches = 0
    identities = {side: {tuple(identity) for _, identity in runs[side]} for side in runs}
    if len(identities["parent"] | identities["change"]) != 1:
        print(f"perf_pairs: {workload}: digest or snapshot-hash lines differ:")
        for side in ("parent", "change"):
            for identity in sorted(identities[side]):
                print(f"  {side}: {' | '.join(identity)}")
        mismatches += 1
    failed = {side: sorted({r["failed"] for r, _ in runs[side]}) for side in runs}
    if failed["parent"] != failed["change"]:
        print(f"perf_pairs: {workload}: failed cells differ: parent {failed['parent']}, "
              f"change {failed['change']}")
        mismatches += 1

    print(f"\n{workload}: {len(runs['change'])} pairs, median [q1-q3]")
    print(f"  {'metric':38} {'parent':>30} {'change':>30} {'ratio':>7} {'wins':>6}")
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r, _ in runs[side]] for side in runs}
        if name not in HOST_METRICS:
            distinct = {side: sorted(set(values[side])) for side in values}
            same = distinct["parent"] == distinct["change"] and len(distinct["parent"]) == 1
            verdict = "identical" if same else "DIFFERS"
            if not same and name not in SIMULATOR_WORK_METRICS:
                mismatches += 1
            print(f"  {name:38} {str(distinct['parent'])[:30]:>30} "
                  f"{str(distinct['change'])[:30]:>30} {verdict}")
            continue
        lower_better = spec["better"] == "lower"
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c < p if lower_better else c > p))
        pq1, pmed, pq3 = quartiles(values["parent"])
        cq1, cmed, cq3 = quartiles(values["change"])
        ratio = cmed / pmed if pmed else float("nan")
        notes = []
        if wins >= 0.9 * len(values["change"]) and abs(cmed - pmed) > pq3 - pq1:
            notes.append("gain")
        bound = spec.get("bound")
        if bound is not None and (ratio > 1 + bound if lower_better else ratio < 1 - bound):
            notes.append("worse")
        parent_cell = f"{pmed:.6g} [{pq1:.5g}-{pq3:.5g}]"
        change_cell = f"{cmed:.6g} [{cq1:.5g}-{cq3:.5g}]"
        print(f"  {name:38} {parent_cell:>30} {change_cell:>30} {ratio:>7.4f} "
              f"{wins:>2}/{len(values['change'])} {' '.join(notes)}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    host_shown = [s["name"] for s in specs if s["name"] in HOST_METRICS]

    mismatches = 0
    for workload in workloads:
        for side, checkout in checkouts.items():
            print(f"perf_pairs: {workload}: warm-up build and run of {side} ({checkout})",
                  flush=True)
            run_once(checkout, workload, args, 1)
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result, identity = run_once(checkouts[side], workload, args, args.seconds)
                runs[side].append((result, identity))
                shown = " ".join(f"{n}={result['metrics'][n]['value']:.6g}" for n in host_shown)
                digest = identity[0].split("=", 1)[1] if identity else "?"
                print(f"{workload} pair {pair} {side:6} {shown} failed={result['failed']} "
                      f"digest={digest}", flush=True)
        mismatches += compare(workload, specs, runs)

    if mismatches:
        print(f"\nperf_pairs: {mismatches} simulated mismatch(es) between the two sides")
        sys.exit(1)
    print("\nperf_pairs: simulated metrics, digests and failed cells identical on both sides")


if __name__ == "__main__":
    main()
