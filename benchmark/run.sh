#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments (see benchmark/README.md). Run from the
# repository root: bash benchmark/run.sh --workload W --seed N ...
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# --cache=disabled: write nothing outside this checkout.
dune build --root . --cache=disabled --display quiet benchmark/benchmark.exe >&2
exec ./_build/default/benchmark/benchmark.exe "$@"
