#!/usr/bin/env bash
# Runs the await-safety analyzer over the whole library + test tree.
#   usage: run_analyze.sh <analyzer-binary> <repo-root> [flags...]
# Flags are passed through to the analyzer; the useful ones here:
#   --stats      print the machine-readable stats line
#   --verbose    show allow-suppressed findings
# The file list is discovered at run time so new sources are covered without
# touching the build system. Every run is a full cold scan.
set -euo pipefail

analyzer="$1"
root="$2"
shift 2

mapfile -t files < <(find "$root/src" "$root/tests" \
  \( -name '*.cc' -o -name '*.h' \) | sort)
if [[ "${#files[@]}" -eq 0 ]]; then
  echo "run_analyze.sh: no sources found under $root" >&2
  exit 2
fi
exec "$analyzer" \
  --allowlist "$root/tools/analyze/status_allowlist.txt" \
  "$@" "${files[@]}"
