#!/usr/bin/env bash
# Builds the benchmark into the checkout's build directory and runs it from
# the checkout root. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is redirected into that directory, so a run reads and
# writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/xdg"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/oltpbench" .)
cd "$root"
exec "$build/oltpbench" "$@"
