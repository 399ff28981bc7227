#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload errno-corpus --seed 3 --seconds 20 --trace 0
#
# The binary, the Go build cache, the toolchain's temporary and
# configuration files and every other build product stay in .bench_build/
# inside the checkout; nothing is fetched from the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C bench build -o "$out/lfi-campaign-bench" .
exec "$out/lfi-campaign-bench" "$@"
