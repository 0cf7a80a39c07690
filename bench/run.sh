#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags (see README.md). Everything the Go toolchain writes —
# build cache, module cache, telemetry — is kept under bench/.build.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$dir/.build"
mkdir -p "$build/home"
env HOME="$build/home" GOCACHE="$build/gocache" GOENV=off GOFLAGS= GOWORK=off \
    GOTOOLCHAIN=local XDG_CONFIG_HOME= XDG_CACHE_HOME= \
    go build -C "$dir" -o "$build/dsmperf" .
exec "$build/dsmperf" "$@"
