#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it:
#
#   bash simbench/run.sh --workload oltp|dss|grid --seed N --seconds S --trace 0|1
#
# The benchmark is its own Go module; it imports the simulator from the
# repository root through a replace directive. Everything the build and
# the run write (Go build cache, binary, spans, scratch files) goes under
# .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/simbench" .)
cd "$root"
exec "$out/simbench" --out "$out" "$@"
