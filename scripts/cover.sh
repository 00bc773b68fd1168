#!/bin/sh
# cover.sh — the coverage gate: run the -short suite with a statement
# coverage profile and fail if total coverage drops below the recorded
# floor. The floor sits 0.5pt under the value measured when it was last
# set (73.3% at PR 17, which put the live figures and the testbed under
# test; the parent measured 71.1%, under the 77.5% floor recorded at the
# HTAP PR and not re-measured since) to absorb core-count-dependent
# branches in the worker pool; raise it as coverage grows. Override with
# COVER_MIN=NN.N for local experiments.
set -eu
cd "$(dirname "$0")/.."

min="${COVER_MIN:-72.8}"
go test -short -coverprofile=cover.out ./...
total="$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$3); print $3}')"
echo "total statement coverage: ${total}% (floor ${min}%)"
if ! awk -v t="$total" -v m="$min" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }'; then
    echo "coverage gate FAILED: ${total}% < ${min}%" >&2
    exit 1
fi
