#!/usr/bin/env bash
# Golden stdout check: runs `prism explore` on a fresh artifact store, then
# every figure binary of `crates/bench` on that store, and diffs each
# stdout against `tests/golden/<name>.txt`. Exits non-zero on any diff and
# when a binary fails (`headline_claims` fails when a claim does not hold).
#
#   cargo build --release -p prism -p prism-bench
#   tests/golden/check.sh [--bless] [BIN_DIR]    # BIN_DIR: target/release
#
# `--bless` rewrites the golden files instead of diffing, for a deliberate
# model change that is then reviewed as a diff of these files.
set -euo pipefail

bless=0
if [ "${1:-}" = "--bless" ]; then
  bless=1
  shift
fi
bin="${1:-target/release}"
golden="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# A fresh store, and none of the knobs that change what a sweep runs.
export PRISM_ARTIFACT_DIR="$work/store"
unset PRISM_WORKERS PRISM_HOSTS PRISM_FAULTS PRISM_SCALE PRISM_MAX_NODES PRISM_DIVERGENCE

status=0
run() {
  local name="$1"
  shift
  if ! "$@" > "$work/$name.txt"; then
    echo "FAIL $name: exited non-zero"
    status=1
  fi
  if [ "$bless" = 1 ]; then
    cp "$work/$name.txt" "$golden/$name.txt"
  elif diff -u "$golden/$name.txt" "$work/$name.txt"; then
    echo "ok   $name"
  else
    echo "FAIL $name: stdout differs from tests/golden/$name.txt"
    status=1
  fi
}

run explore "$bin/prism" explore
for fig in ablation_sensitivity fig10_tradeoffs fig11_workload_classes \
  fig12_design_space fig13_affinity fig14_switching fig15_scheduler \
  headline_claims input_sensitivity table1_validation; do
  run "$fig" "$bin/$fig"
done
exit "$status"
