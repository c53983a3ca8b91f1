#!/usr/bin/env bash
# Builds wsbench from source and runs it with the given arguments. Run it
# from the root of the repository. The build cache, temporary files and
# binary stay under .bench_build/ in the working directory, and the go
# command never reaches for the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/wsbench" ./wsbench)
exec "$out/wsbench" "$@"
