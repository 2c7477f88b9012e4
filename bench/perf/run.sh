#!/usr/bin/env bash
# Builds the perf harness from source and runs it from the repository
# root; every argument goes to `perf.exe run`, e.g.
#
#   bash bench/perf/run.sh --workload rase-livermore --seed 1 --seconds 10 --trace 0
#
# The last line of stdout is one JSON object with the keys correct,
# attempted, failed and metrics (see bench/perf/README.md).
set -euo pipefail
# dune's shared cache lives outside the tree; keep every build output
# under _build/ here
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
