#!/usr/bin/env bash
# Build the benchmark from this checkout and run it; all arguments go to
# pqbench (see perfbench/README.md).  Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Fails without printing a result when the pqdb sources are not beside it.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a pqdb checkout (dune-project, lib/)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  DUNE=(dune)
elif command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi

# Build output stays in ./_build; the shared dune cache is not touched.
DUNE_CACHE=disabled "${DUNE[@]}" build --root . ./perfbench/pqbench.exe 1>&2
# One core for the benchmark and its serve daemon: a closed loop has one
# thing running at a time, and the core-speed calibration then describes
# the core the work ran on.
PIN=()
if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
  PIN=(taskset -c 0)
fi
exec ${PIN[@]+"${PIN[@]}"} ./_build/default/perfbench/pqbench.exe "$@"
