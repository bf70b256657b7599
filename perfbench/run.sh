#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments. Everything the build and the run write — the Go
# build cache, the binary, temp stores, span dumps — stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
