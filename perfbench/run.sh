#!/bin/sh
# Builds the benchmark from source, then runs it with the given
# arguments. Run from anywhere; paths resolve against the repository
# root, the parent of this script's directory.
#
#   sh perfbench/run.sh --workload sock-stream-64 --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh all --out perfbench/out/a.jsonl --seeds 10
#   sh perfbench/run.sh agree perfbench/out/a.jsonl perfbench/out/b.jsonl
set -e
cd "$(dirname "$0")/.."
# build outputs stay inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
