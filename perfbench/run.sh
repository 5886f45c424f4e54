#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#	bash perfbench/run.sh --workload mul-dense --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, temp files, toolchain
# telemetry, the binary) stays in .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
	go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
