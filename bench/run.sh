#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go tool writes — build cache, module cache, its own
# counters — is pointed under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
