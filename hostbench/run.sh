#!/usr/bin/env bash
# Builds the host-time benchmark from the enclosing checkout's sources and
# runs it with the given arguments, e.g.
#
#   bash hostbench/run.sh --workload fig5 --seed 1 --seconds 25 --trace 0
#   bash hostbench/run.sh diff -old 'old/*.json' -new 'new/*.json'
#
# Every build product and Go cache stays under .bench_build/ in the
# checkout. Without the repository's sources next to hostbench/ the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
# The module has no dependencies outside the checkout; never fetch any.
export GOPROXY=off
export GOSUMDB=off

go -C "$root/hostbench" build -o "$build/hostbench" .
exec "$build/hostbench" "$@"
