#!/usr/bin/env bash
# Builds the benchmark program and the serve binary from this checkout's
# sources, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload match-read --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the cached fixtures all live under
# .bench_build/perfbench, so the run reads and writes only inside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
go build -o "$out/bin/serve" ./cmd/serve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/serve" "$@"
