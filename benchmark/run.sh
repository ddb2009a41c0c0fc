#!/bin/sh
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments, e.g.
#   sh benchmark/run.sh --workload delay-firehose --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so the last line on stdout is the result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout.
DUNE_CACHE=disabled dune build --root . benchmark/avdb_bench.exe 1>&2
exec ./_build/default/benchmark/avdb_bench.exe "$@"
