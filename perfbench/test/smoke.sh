#!/usr/bin/env bash
# Smoke test: all four workloads at minimal size in one invocation, in
# both orders, untraced and traced.  serve-mixed forks a daemon and
# faultsim-journaled spawns domains, after which OCaml 5 cannot fork in
# that process; every workload runs in its own process, so any order
# must pass.  Run from anywhere:  bash perfbench/test/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

forward=sec-mix,sim-ladder,faultsim-journaled,serve-mixed
reverse=serve-mixed,faultsim-journaled,sim-ladder,sec-mix

for trace in 0 1; do
  for order in "$forward" "$reverse"; do
    echo "== smoke: trace=$trace order=$order"
    out=$(bash perfbench/run.sh --workload all --smoke --seconds 1 \
      --trace "$trace" --order "$order")
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
      '{"correct":true,'*) ;;
      *)
        printf '%s\n' "$out"
        echo "smoke: FAILED (trace=$trace order=$order)" >&2
        exit 1
        ;;
    esac
  done
done
if [ -d .perfbench-run ] && [ -n "$(ls -A .perfbench-run)" ]; then
  echo "smoke: scratch files left behind in .perfbench-run" >&2
  exit 1
fi
echo "smoke: ok"
