#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload eval-core --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root: the Go build cache, the binary, temporary store directories
# and the span files of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"

# The Go toolchain writes its cache, telemetry and temporary files
# under HOME/GOCACHE/GOTMPDIR; point them inside the tree and keep the
# toolchain offline.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
  XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
