#!/bin/sh
# cluster_smoke.sh — build oltpd + oltpdrive with the race detector, start a
# two-node cluster sharing one shard map, drive a routed burst with a 20%
# multi-partition (2PC) rate, scrape both nodes' /metrics, and assert that
# both nodes prepared and committed 2PC branches; then drive the same two
# nodes again with every driver axis set at once — an open-loop Poisson flash
# crowd under time compression, 20% 2PC, a timeline and a request log — and
# assert the timeline has rows, 2PC committed and `oltpsim analyze` reads the
# log. CI runs this as the cluster-smoke job; `make cluster-smoke` runs it
# locally.
set -eu
cd "$(dirname "$0")/.."

ADDR0=127.0.0.1:17890
MADDR0=127.0.0.1:17891
ADDR1=127.0.0.1:17990
MADDR1=127.0.0.1:17991
MAP=range:2x4
WL="-workload micro -rows 100000 -rw"

tmp="$(mktemp -d)"
PID0=""
PID1=""
trap '
    [ -n "$PID0" ] && kill "$PID0" 2>/dev/null || true
    [ -n "$PID1" ] && kill "$PID1" 2>/dev/null || true
    rm -rf "$tmp"
' EXIT

go build -race -o "$tmp/oltpd" ./cmd/oltpd
go build -race -o "$tmp/oltpdrive" ./cmd/oltpdrive
go build -o "$tmp/oltpsim" ./cmd/oltpsim

"$tmp/oltpd" -addr "$ADDR0" -metrics-addr "$MADDR0" \
    -system voltdb -cluster "$MAP" -node 0 $WL &
PID0=$!
"$tmp/oltpd" -addr "$ADDR1" -metrics-addr "$MADDR1" \
    -system voltdb -cluster "$MAP" -node 1 $WL &
PID1=$!

# Wait for both listeners (population takes a moment).
i=0
until "$tmp/oltpdrive" -addrs "$ADDR0,$ADDR1" -cluster "$MAP" $WL \
        -conns 1 -warmup 10ms -duration 50ms >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "cluster_smoke: cluster did not come up" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== oltpdrive routed burst (20% multi-partition) =="
"$tmp/oltpdrive" -addrs "$ADDR0,$ADDR1" -cluster "$MAP" $WL \
    -conns 4 -mp 20 -warmup 200ms -duration 1s -json | tee "$tmp/report.json"

echo "== /metrics scrapes =="
curl -sf "http://$MADDR0/metrics" > "$tmp/metrics0.txt"
curl -sf "http://$MADDR1/metrics" > "$tmp/metrics1.txt"
grep -E '^oltpd_2pc_' "$tmp/metrics0.txt" "$tmp/metrics1.txt" || true

# Assertions: the driver completed work with zero errors and committed 2PC
# transactions, and BOTH nodes show nonzero 2PC prepares and commits — the
# proof the multi-partition traffic really crossed the node boundary.
python3 - "$tmp/report.json" "$tmp/metrics0.txt" "$tmp/metrics1.txt" <<'EOF'
import json, re, sys
rep = json.load(open(sys.argv[1]))
assert rep["Ops"] > 0, "driver completed zero ops"
assert rep["Errors"] == 0, f"driver saw {rep['Errors']} errors"
assert rep["MultiPart"] > 0, "no multi-partition transactions committed"
assert 0 < rep["P50Ns"] <= rep["P99Ns"], "driver quantiles not sane"
for node, path in enumerate(sys.argv[2:]):
    metrics = open(path).read()
    for fam in ("oltpd_2pc_prepares_total", "oltpd_2pc_commits_total"):
        total = sum(float(v) for v in re.findall(r'^%s\{[^}]*\} (\S+)' % fam, metrics, re.M))
        assert total > 0, f"node {node}: {fam} is zero"
    aborts = sum(float(v) for v in re.findall(r'^oltpd_2pc_aborts_total\{[^}]*\} (\S+)', metrics, re.M))
    assert aborts == 0, f"node {node}: {aborts} unexpected 2PC aborts"
print("cluster_smoke: OK —", rep["Ops"], "ops,", rep["MultiPart"], "2PC commits,",
      "p99", rep["P99Ns"] / 1e6, "ms")
EOF

# Second burst, same nodes: target x arrival process x observers composed.
# The base rate sits inside the race-built cluster's capacity and the spike
# outside it, so requests queue behind the synchronous coordinators and are
# charged from their schedule.
echo "== flash crowd on the cluster (open loop, 20% multi-partition, timeline + reqlog) =="
"$tmp/oltpdrive" -addrs "$ADDR0,$ADDR1" -cluster "$MAP" $WL \
    -conns 4 -mp 20 -poisson -rate 10 -profile flash:at=0.4,dur=0.2,x=8 \
    -time-scale 60 -sim-duration 5m -sim-warmup 15s -agg-interval 25s \
    -timeline "$tmp/tl.csv" -reqlog "$tmp/run.olog" -json | tee "$tmp/report2.json"
cat "$tmp/tl.csv"
"$tmp/oltpsim" analyze -format json "$tmp/run.olog" > "$tmp/analyze.json"

python3 - "$tmp/report2.json" "$tmp/tl.csv" "$tmp/analyze.json" <<'EOF'
import csv, json, sys
rep = json.load(open(sys.argv[1]))
assert rep["Ops"] > 0, "flash crowd completed zero ops"
assert rep["Errors"] == 0, f"flash crowd saw {rep['Errors']} errors"
assert rep["MultiPart"] > 0, "flash crowd committed no multi-partition transactions"
assert rep["RateOps"] > 0, "report lost the offered rate: -rate was ignored"
rows = list(csv.DictReader(open(sys.argv[2])))
assert len(rows) >= 8, f"timeline has only {len(rows)} intervals"
assert any(float(r["mult"]) == 8 for r in rows), "spike never showed in the multiplier column"
assert sum(int(r["ops"]) for r in rows) > 0, "timeline rows carry no ops"
an = json.load(open(sys.argv[3]))
assert an, "oltpsim analyze produced no analysis of the cluster request log"
print("cluster_smoke: flash crowd OK —", rep["Ops"], "ops,", rep["MultiPart"], "2PC commits,", len(rows), "timeline rows")
EOF

# Graceful drain: SIGTERM must exit 0 on both nodes after draining.
kill -TERM "$PID0" "$PID1"
wait "$PID0"
wait "$PID1"
PID0=""
PID1=""
echo "cluster_smoke: drain OK"
