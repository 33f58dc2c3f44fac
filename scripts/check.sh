#!/usr/bin/env bash
# Tier-1 verification: plain build + full test suite, then the full suite
# again under ASan+UBSan. This is the exact command sequence ROADMAP.md
# declares as "Tier-1 verify" — keep the two in sync.
#
# Every sub-step either runs or fails the script: the tools the steps depend
# on are probed up front, and a missing one aborts loudly instead of letting
# a step (most dangerously validate_trace.py) be skipped in silence. The one
# optional tool is clang-tidy, which this image does not carry; its absence
# is announced, and RENONFS_STRICT_TOOLS=1 promotes the announcement to a
# failure for images that should have it.
#
# The fuzz harness replays a fixed default seed; export RENONFS_FUZZ_SEED=<n>
# before running to explore a different (still fully deterministic) stream.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# --- tool probes -------------------------------------------------------------
require_tool() {
  if ! command -v "$1" >/dev/null 2>&1; then
    echo "check.sh: FATAL: required tool '$1' not found — refusing to skip $2" >&2
    exit 1
  fi
}
require_tool cmake "the build"
require_tool ctest "the test suites"
require_tool python3 "trace validation (scripts/validate_trace.py)"
require_tool git "the clang-tidy changed-file list"
[[ -f scripts/validate_trace.py ]] || {
  echo "check.sh: FATAL: scripts/validate_trace.py missing" >&2
  exit 1
}

CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -z "${CLANG_TIDY}" ]]; then
  if [[ "${RENONFS_STRICT_TOOLS:-0}" == "1" ]]; then
    echo "check.sh: FATAL: clang-tidy not found and RENONFS_STRICT_TOOLS=1" >&2
    exit 1
  fi
  echo "check.sh: NOTE: clang-tidy not in this image — tidy step SKIPPED" \
       "(set RENONFS_STRICT_TOOLS=1 to make this fatal)" >&2
fi

# --- build + full suite ------------------------------------------------------
cmake --preset default
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

# --- await-safety analyzer ---------------------------------------------------
# Tree scan must be clean, and the golden self-test must stay red: the
# fixtures re-create the historical UAF shapes (the PR 1 reply-epoch skip,
# the PR 4 Buf*-held-across-a-disk-await, and its interprocedural
# hidden-in-a-helper variant), and the self-test fails unless the analyzer
# still reports every one of them at its annotated file:line. Both also run
# under ctest (AnalyzeTree / AnalyzeSelfTest); running them here too keeps
# check.sh meaningful when invoked with a stale build directory.
#
# The scan is one cold pass over the whole tree and must finish inside a
# wall-clock budget.
scan_out="$(bash scripts/run_analyze.sh ./build/tools/analyze/renonfs_analyze . \
  --stats)" || { echo "${scan_out}"; exit 1; }
echo "${scan_out}"
scan_ms="$(grep -o 'wall_ms=[0-9]*' <<<"${scan_out}" | cut -d= -f2)"
if [[ "${scan_ms}" -gt 2000 ]]; then
  echo "check.sh: FATAL: analyzer scan took ${scan_ms} ms (budget 2000)" >&2
  exit 1
fi
./build/tools/analyze/renonfs_analyze --self-test \
  --allowlist tools/analyze/status_allowlist.txt tools/analyze/testdata/*.cc

# --- clang-tidy over changed sources (gated on the probe above) --------------
if [[ -n "${CLANG_TIDY}" ]]; then
  mapfile -t changed < <(
    {
      git diff --name-only HEAD -- 'src/**.cc' 'tests/**.cc' 'tools/**.cc'
      git diff --name-only HEAD~1..HEAD -- 'src/**.cc' 'tests/**.cc' 'tools/**.cc' \
        2>/dev/null || true
    } | sort -u
  )
  if [[ "${#changed[@]}" -gt 0 ]]; then
    echo "check.sh: clang-tidy over ${#changed[@]} changed file(s)"
    "${CLANG_TIDY}" -p build --quiet "${changed[@]}"
  else
    echo "check.sh: clang-tidy: no changed sources"
  fi
fi

# Sim-core events/sec gate (BENCH_simcore.json): the timing-wheel scheduler
# must stay >= 2x the legacy heap's timer-churn rate (kLegacyHeapTimerChurnEps
# in bench/bench_sim_core.cc, the heap's last capture before that backend was
# deleted; CHANGES.md, PR 14), and no mix may land under its recorded
# regression floor (floor = captured full-run rate / 8, generous enough for
# CI noise but not for an O(1)->O(log n) backslide). A missing or unreadable
# BENCH_simcore.json fails the gate.
./build/bench/bench_sim_core --check

# Simulated-behaviour byte-identity gate (BENCH_scenarios.json): the full
# 22-cell scenario matrix, every cell gated and replayed. Its JSON holds no
# host timings, so it must equal the committed file byte for byte; any drift
# in simulated behaviour fails the build here. A change that is meant to move
# simulated behaviour refreshes the file by running `bench_scenarios` with no
# flags from the repo root, and says so.
SCEN_JSON="$(mktemp /tmp/renonfs_scenarios.XXXXXX.json)"
./build/bench/bench_scenarios --check --out "${SCEN_JSON}" >/dev/null
cmp "${SCEN_JSON}" BENCH_scenarios.json
rm -f "${SCEN_JSON}"

# Paper-output byte-identity gate (BENCH_paper.txt): every paper graph,
# table and ablation cell of bench_paper, then the follow-on cells. Each cell
# runs in its own process, JOBS at a time (about 2.3 s on 4 cores, 7 s
# serially); their outputs, joined in the table order `bench_paper --list`
# prints, hold no host timings and must equal the committed file byte for
# byte. The follow-on cells also check their results and make bench_paper
# exit 1 on any failed check, which fails xargs and so this script: datapath
# (no ablation inverts; loaned READ replies copy no data byte), leases (the
# lease mount stays between push-on-close and the no-consistency bound on
# Andrew and the 100 KB create-delete cycle, with fewer READ RPCs) and
# breakdown (a loss storm comes out backoff/network-dominated, a slow disk
# disk/server-queue-dominated, span conservation exact, zero pool spills).
# A change that is meant to move a paper number refreshes the file with
# `./build/bench/bench_paper > BENCH_paper.txt` from the repo root, with
# RENONFS_SEED unset, and says so.
PAPER_DIR="$(mktemp -d /tmp/renonfs_paper.XXXXXX)"
./build/bench/bench_paper --list >"${PAPER_DIR}/cells"
env -u RENONFS_SEED xargs -P "${JOBS}" -I{} \
  sh -c './build/bench/bench_paper "$1" >"$2/$1.txt"' sh {} "${PAPER_DIR}" <"${PAPER_DIR}/cells"
while read -r cell; do
  cat "${PAPER_DIR}/${cell}.txt"
done <"${PAPER_DIR}/cells" >"${PAPER_DIR}/all.txt"
cmp "${PAPER_DIR}/all.txt" BENCH_paper.txt
rm -rf "${PAPER_DIR}"

# Trace + timeline validation: a chaos run must emit a well-formed Chrome
# trace (monotonic per-track timestamps, balanced async spans, flow steps
# tied to their starts, client/server span nesting) and a well-formed
# flight-recorder timeline (JSONL delta frames, strictly increasing
# timestamps). The validator fails the build on any violation. At 20
# simulated seconds the recorder captures 372 frames, so its 240-frame ring
# has wrapped and the timeline checked is one exported after eviction.
TRACE_TMP="$(mktemp /tmp/renonfs_trace.XXXXXX.json)"
TIMELINE_TMP="$(mktemp /tmp/renonfs_timeline.XXXXXX.jsonl)"
./build/examples/nfsstat --seconds 20 --chaos --breakdown --trace "${TRACE_TMP}" \
  --timeline "${TIMELINE_TMP}" >/dev/null
python3 scripts/validate_trace.py "${TRACE_TMP}"
python3 scripts/validate_trace.py --timeline "${TIMELINE_TMP}"
rm -f "${TRACE_TMP}" "${TIMELINE_TMP}"

# Example-output byte-identity gate (EXAMPLES.txt): the four example
# programs, chaos_demo in every fixed fault mode on its defaults (slow link,
# create-delete), then a 5 s nfsstat chaos run, about 0.3 s in all. Their
# stdout holds no host timings, so it must equal the committed file byte for
# byte. The nfsstat run pins the registry, latency, span-breakdown,
# allocator-pool and server CPU-profile tables; the pool table is
# deterministic because each example is a fresh process. chaos_demo also
# exits non-zero when the integrity audit fails (or, in lease mode, on a
# stale-lease write), which fails the build here. A change that is meant to
# move an example's output refreshes the file by running this block from the
# repo root with RENONFS_SEED unset and its output sent to EXAMPLES.txt, and
# says so.
EXAMPLES_TXT="$(mktemp /tmp/renonfs_examples.XXXXXX.txt)"
{
  for example in quickstart caching_policies slow_link_tuning transport_shootout; do
    env -u RENONFS_SEED "./build/examples/${example}"
  done
  for mode in hard soft intr tcp lease corrupt; do
    env -u RENONFS_SEED ./build/examples/chaos_demo "${mode}"
  done
  env -u RENONFS_SEED ./build/examples/nfsstat --seconds 5 --chaos --breakdown
} >"${EXAMPLES_TXT}"
cmp "${EXAMPLES_TXT}" EXAMPLES.txt
rm -f "${EXAMPLES_TXT}"

cmake --preset asan
cmake --build --preset asan -j "${JOBS}"
ctest --preset asan -j "${JOBS}"

# Scenario-matrix smoke (ASan build): the 3-cell quick subset of the
# workload × transport × topology × fault matrix, every cell gated and its
# failure replay double-checked — --check exits 1 on any gate violation or
# replay divergence. A failing cell drops a replayable .trace artifact in
# the scratch dir; re-run it with `chaos_demo --replay <file>` (see
# DESIGN.md §13). The full matrix capture is `bench_scenarios` (no --quick),
# which refreshes BENCH_scenarios.json.
SCEN_TMP="$(mktemp -d /tmp/renonfs_scenarios.XXXXXX)"
./build-asan/bench/bench_scenarios --quick --check --artifacts "${SCEN_TMP}"
rm -rf "${SCEN_TMP}"

echo "check.sh: all tier-1 suites passed"
