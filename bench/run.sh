#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own Go
# module, bench/go.mod) into .bench_build/ at the checkout root and runs it
# there. Every path the Go toolchain or the benchmark writes — build cache,
# link scratch, data dirs — is redirected under .bench_build/, so a run
# reads and writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/rbc-e2e" .)
cd "$root"
exec "$out/rbc-e2e" "$@"
