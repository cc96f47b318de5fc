#!/bin/bash
# Builds the benchmark program from the checkout's source and runs it.
# Everything the build writes (Go build cache included) stays under
# benchmark/out, so a run reads and writes only inside its checkout.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$here/out/bin"
export GOCACHE="$here/out/gocache"
export GOMODCACHE="$here/out/gomodcache"
export GOTOOLCHAIN=local
(cd "$here" && go build -o out/bin/benchmark .)
exec "$here/out/bin/benchmark" "$@"
