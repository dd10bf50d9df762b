#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run from the root of the repository:
#
#   bash dsppbench/run.sh --workload paper-stream --seed 2012 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/: the
# binary, Go's build cache and temporary files, and the daemon
# checkpoints. Nothing is fetched: the module needs only the standard
# library and the repository's own packages.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/scratch"

(
	cd "$root/dsppbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOTMPDIR="$out/tmp" GOPATH="$out/home/go" GOTOOLCHAIN=local \
		GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/dsppbench" .
)
exec "$out/dsppbench" -scratch "$out/scratch" "$@"
