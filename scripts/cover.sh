#!/bin/sh
# cover.sh — the coverage gate: run the -short suite with a statement
# coverage profile and fail if total coverage drops below the recorded
# floor. The floor sits 0.5pt under the value measured when it was last
# set, to absorb core-count-dependent branches in the worker pool; raise it
# as coverage grows. Last set at PR 25: 72.6% (PR 23 had set it at 72.3%;
# internal/wire 94.6 -> 95.7%, internal/server 85.2 -> 89.4%,
# internal/driver 90.4 -> 90.1%). PR 20 had lowered it 72.8 -> 71.6 only
# because the SQL front-end package — 90.6% covered, called by nothing — was
# deleted and left the denominator. Override with
# COVER_MIN=NN.N for local experiments.
# Latest measurement: 78.0%, with the floor left at 72.1% (76.7% at its
# parent commit): internal/refdb 26.4 -> 61.2% with the TPC-C
# consistency conditions checked, internal/metrics 88.8 -> 92.1% once the
# registry lost its uncalled API. Before that 75.5%: internal/engine
# 71.8 -> 85.4% when the engine's Tx ops went through one row seam fenced op
# by op (TestRowOpEvents: every storage kind, misses, aborts, scans, 2PC).
# Before that 73.9% (73.8% before each core's L1I and L2 became one
# wayCache type, fenced call by call against Cache). The earlier rise from 72.6% came when the 33 simulated
# figure builders, most of which the -short suite never ran, became one
# declared table whose shared build path it does run.
set -eu
cd "$(dirname "$0")/.."

min="${COVER_MIN:-72.1}"
go test -short -coverprofile=cover.out ./...
total="$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$3); print $3}')"
echo "total statement coverage: ${total}% (floor ${min}%)"
if ! awk -v t="$total" -v m="$min" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }'; then
    echo "coverage gate FAILED: ${total}% < ${min}%" >&2
    exit 1
fi
