#!/usr/bin/env bash
# Build the benchmark (release profile) from the checkout's sources and run
# it.  Arguments pass through to main.exe:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) under the
# checkout root; the dune shared cache is disabled so nothing is written
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a full checkout (dune-project and lib/ missing)" >&2
  exit 3
fi
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --profile release \
  --build-dir "$build_dir" ./perfbench/main.exe >&2
exec "$build_dir/default/perfbench/main.exe" "$@"
