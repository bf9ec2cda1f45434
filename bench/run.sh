#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload request-path --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# bench/out/.build (the go command's telemetry counters too, which it keeps
# under the user config dir), and the benchmark runs from the bench
# directory, so everything it leaves behind is under bench/out/. The build
# uses only the local toolchain and the repository's own sources.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/pcs-bench" .
exec "$build/pcs-bench" "$@"
