#!/usr/bin/env bash
# Builds the benchmark and cmd/slicerd from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload table1|traces|service --seed N \
#       --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under .bench_build.
set -euo pipefail

out=.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps its telemetry counters and env file under the
# user config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
go build -o "$out/slicerd" ./cmd/slicerd
exec "$out/perfbench" -slicerd "$out/slicerd" -work "$out/work" "$@"
