#!/bin/sh
# Build the benchmark from source, then run it. Arguments pass through:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
