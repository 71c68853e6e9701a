#!/usr/bin/env bash
# Builds the KV-stack benchmark from the source tree it sits in and runs it.
# Run from the root of the tree:
#
#   bash kvbench/run.sh --workload write-small --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the root (Go build cache, the binary, per-run data directories, trace
# files), so nothing is written outside the tree.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
go -C kvbench build -o "${out}/kvbench" . >&2
exec "${out}/kvbench" "$@"
