#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash benchmark/run.sh --workload train-h64 --seed 1 --seconds 30 --trace 0
#
# The build runs offline, and its outputs, the Go build cache and the go
# command's own state stay inside the checkout, under $CARGO_TARGET_DIR
# (default .bench_build). Traced runs write their spans there too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark: no B-Par sources next to $here" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
	go -C "$here" build -o "$build/bpar-benchmark" .
exec "$build/bpar-benchmark" --out "$build/traces" "$@"
