#!/usr/bin/env bash
# Build the host-time benchmark from this checkout's sources, then run it.
#   bash hostbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.  Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
# the shared dune cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./hostbench/main.exe 1>&2
exec ./_build/default/hostbench/main.exe "$@"
