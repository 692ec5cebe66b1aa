#!/bin/sh
# Build the benchmark from source and run it; every argument goes to
# ior_bench (see README.md).  Run from the repository root:
#   sh bench/ior/run.sh --workload all
set -eu
dune build --root . --display quiet bench/ior/main.exe 1>&2
exec ./_build/default/bench/ior/main.exe "$@"
