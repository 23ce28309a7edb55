#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash bench/run.sh -workload tree-contended -seed 1.
# Run it from the repository root. The binary, the Go build cache, the
# toolchain's temporary files and its config directory (env file, local
# telemetry) all stay under .bench_build/ in the repository, and the build
# never fetches anything.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/hle-benchmark" .)
exec "$out/hle-benchmark" "$@"
