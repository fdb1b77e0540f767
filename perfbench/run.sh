#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Every file the build
# and the runs leave behind lands under the work directory
# ($CARGO_TARGET_DIR, default .bench_build) at the checkout root.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
set -euo pipefail

root="$(pwd)"
work="${CARGO_TARGET_DIR:-.bench_build}"
case "$work" in /*) ;; *) work="$root/$work" ;; esac
mkdir -p "$work/gocache" "$work/tmp" "$work/config"

# Keep the toolchain's caches, temporary files and user config (go env,
# telemetry) inside the work directory.
export GOCACHE="$work/gocache"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOPATH="$work/gopath"
export XDG_CONFIG_HOME="$work/config"
export XDG_CACHE_HOME="$work/cache"
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

bin="$work/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" --work "$work" "$@"
