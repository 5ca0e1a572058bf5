#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash hzbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ in the checkout, and module
# fetching is off: the program has no dependencies outside the
# repository and the standard library.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/hzbench" .)
exec "$build/hzbench" "$@"
