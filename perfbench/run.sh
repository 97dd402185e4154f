#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload oracle-loop --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Telemetry off keeps the go command from starting a helper process
# that would outlive this script.
go telemetry off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
