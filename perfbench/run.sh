#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artifact and scratch file stays under .bench_build/.
#
#   bash perfbench/run.sh --workload learn|advise|serve --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
