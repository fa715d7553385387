#!/usr/bin/env bash
# Builds the session benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash sessionbench/run.sh --workload live --seed 1 --seconds 17 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary and every output stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bin/sessionbench" .)
exec "$out/bin/sessionbench" "$@"
