#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  See perfbench/README.md.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env --readonly 2>/dev/null)" || true
  fi
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 2
fi

# Build inside the checkout only: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
