#!/bin/sh
# cover.sh — the coverage gate: run the -short suite with a statement
# coverage profile and fail if total coverage drops below the recorded
# floor. The floor sits 0.5pt under the value measured when it was last
# set, to absorb core-count-dependent branches in the worker pool; raise it
# as coverage grows. Last set at PR 23: 72.3% (parent 72.1%; every package
# reads at least its parent value — internal/engine 71.0 -> 71.8%,
# internal/simmem 86.7 -> 87.2%). PR 20 had lowered it 72.8 -> 71.6 only
# because the SQL front-end package — 90.6% covered, called by nothing — was
# deleted and left the denominator. Override with
# COVER_MIN=NN.N for local experiments.
set -eu
cd "$(dirname "$0")/.."

min="${COVER_MIN:-71.8}"
go test -short -coverprofile=cover.out ./...
total="$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$3); print $3}')"
echo "total statement coverage: ${total}% (floor ${min}%)"
if ! awk -v t="$total" -v m="$min" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }'; then
    echo "coverage gate FAILED: ${total}% < ${min}%" >&2
    exit 1
fi
