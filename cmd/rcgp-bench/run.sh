#!/usr/bin/env bash
# Builds rcgp-bench from the checkout this script sits in and runs it with
# the given arguments, e.g. from the repository root:
#
#   bash cmd/rcgp-bench/run.sh --workload cgp-hwb8 --seed 1 --seconds 25 --trace 0
#   bash cmd/rcgp-bench/run.sh -seed 1 -runs 10 -o set.json
#   bash cmd/rcgp-bench/run.sh compare old.json new.json
#
# The binary, the Go build cache and temporary files stay under
# .bench_build/ at the repository root, so nothing is written elsewhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../.bench_build"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/rcgp-bench" .)
exec "$build/rcgp-bench" "$@"
