#!/bin/sh
# check.sh — the repo's fast hygiene gate: formatting, vet, and a race
# pass over the concurrent packages (telemetry's lock-free counters, the
# cluster runtime, and fzlight's chunk writer with its hzdyn callers).
# `make check` runs this.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race (concurrent packages) =="
go test -race . ./internal/telemetry ./internal/cluster ./internal/fzlight ./internal/hzdyn ./internal/core

echo "check: OK"
