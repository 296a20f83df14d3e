#!/usr/bin/env bash
# Build the benchmark from source and run it from the root of a checkout:
#   bash benchsuite/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchsuite/run.sh suite --seeds 1,2,3     # every workload, fresh processes
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchsuite: needs the full source tree (dune-project and lib/) at $(pwd)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet -- ./benchsuite/main.exe "$@"
