#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root with the given arguments. Everything the go command writes
# (build cache, module cache, its telemetry counters) is pointed inside
# .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= go build -C bench -o "$build/hybridndp-bench" .
exec "$build/hybridndp-bench" "$@"
