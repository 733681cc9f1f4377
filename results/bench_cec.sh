#!/bin/sh
# Regenerates results/BENCH_cec.json: the p50/p99 verdict latency of the
# equivalence-check slow path on hwb8-class miters, single authority CDCL
# engine (legacy) versus the racing prover portfolio, with a verdict
# cross-check between the modes. The per-engine racing record (who won how
# many queries) is included for the portfolio mode.
#
# Extra flags are passed through, e.g.:
#
#   results/bench_cec.sh -bench hwb8 -reps 40 -provers 2
set -e
cd "$(dirname "$0")/.."
exec go run ./cmd/rcgp-cecbench -o results/BENCH_cec.json "$@"
