#!/bin/sh
# smoke.sh <serve|concurrent|cluster|scenario|analyze> — the end-to-end gates:
# build the binaries, start oltpd on loopback, drive it with oltpdrive, scrape
# /metrics, assert, and SIGTERM-drain. `make <case>-smoke` (one CI matrix job
# per case) runs it after the case's `go test -race` list. Each case owns a
# disjoint port range, so the cases can run side by side (`make -j5 ...`).
set -eu
cd "$(dirname "$0")/.."
die() { echo "smoke ${CASE:-}: $*" >&2; exit 1; }

# The one table: per case the port range, the served workload, the oltpd
# flags (NODE; a cluster case sets MAP instead) and which binaries carry the
# race detector — a data race aborts the process and fails the drain.
CASE=${1:-} NODE="" MAP="" RACE_D="" RACE_DRIVE=""
case "$CASE" in
serve)
    base=17810
    WL="-workload hybrid -warehouses 2"
    NODE="-shards 2 -sockets 2 -placement partitioned"
    ;;
concurrent) # 4 shards of ONE engine, executing concurrently on one simulated machine
    base=17820
    WL="-workload micro -rows 100000 -rows-per-tx 1"
    NODE="-shards 4 -sockets 2 -placement partitioned"
    RACE_D=-race
    ;;
cluster) # two nodes sharing one shard map
    base=17830
    WL="-workload micro -rows 100000 -rw"
    MAP=range:2x4
    RACE_D=-race RACE_DRIVE=-race
    ;;
scenario) # queue-depth admission control under a flash crowd
    base=17840
    WL="-workload micro -rows 100000"
    NODE="-shards 2 -sockets 2 -placement partitioned -admit-queue 12"
    RACE_D=-race
    ;;
analyze)
    base=17850
    WL="-workload micro -rows 65536"
    NODE="-shards 2"
    ;;
*) die "usage: $0 <serve|concurrent|cluster|scenario|analyze>" ;;
esac
tmp="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
ADDR=127.0.0.1:$base
MADDR=127.0.0.1:$((base + 1))
ADDR1=127.0.0.1:$((base + 2)) # the cluster's second node; serve's second oltpd
MADDR1=127.0.0.1:$((base + 3))

# start_node <address and topology flags...>: one oltpd in the background.
start_node() {
    "$tmp/oltpd" -system voltdb $WL "$@" &
    PIDS="$PIDS $!"
}

# wait_up: probe until the target serves (population takes a moment). An
# oltpd that has died — a bad flag, a taken port — fails the case at once.
wait_up() {
    i=0
    until "$tmp/oltpdrive" $TARGET -conns 1 -warmup 10ms -duration 50ms >/dev/null 2>&1; do
        for p in $PIDS; do
            kill -0 "$p" 2>/dev/null || die "oltpd (pid $p) exited before serving"
        done
        i=$((i + 1))
        [ "$i" -le 150 ] || die "oltpd did not come up"
        sleep 0.2
    done
}

# drive <report name> <oltpdrive flags...>: one burst at the target.
drive() {
    report=$1
    shift
    "$tmp/oltpdrive" $TARGET "$@" -json | tee "$tmp/$report"
}

scrape() { curl -sf "http://$1" >"$tmp/$2"; }

go build $RACE_D -o "$tmp/oltpd" ./cmd/oltpd
go build $RACE_DRIVE -o "$tmp/oltpdrive" ./cmd/oltpdrive
go build -o "$tmp/oltpsim" ./cmd/oltpsim
if [ -n "$MAP" ]; then
    TARGET="-addrs $ADDR,$ADDR1 -cluster $MAP $WL"
    start_node -addr "$ADDR" -metrics-addr "$MADDR" -cluster "$MAP" -node 0
    start_node -addr "$ADDR1" -metrics-addr "$MADDR1" -cluster "$MAP" -node 1
else
    TARGET="-addr $ADDR $WL"
    start_node -addr "$ADDR" -metrics-addr "$MADDR" $NODE
fi
wait_up

case "$CASE" in
serve)
    drive report.json -conns 4 -warmup 200ms -duration 1s
    scrape "$MADDR/metrics" metrics.txt
    python3 - "$tmp/report.json" "$tmp/metrics.txt" <<'EOF'
import json, re, sys
rep = json.load(open(sys.argv[1]))
assert rep["Ops"] > 0, "driver completed zero ops"
assert rep["Errors"] == 0, f"driver saw {rep['Errors']} errors"
assert 0 < rep["P50Ns"] <= rep["P99Ns"], "driver quantiles not sane"
metrics = open(sys.argv[2]).read()
for shard in ("0", "1"):
    m = re.search(r'oltpd_tx_total\{shard="%s"\} (\S+)' % shard, metrics)
    assert m and float(m.group(1)) > 0, f"shard {shard} committed no transactions"
    m = re.search(r'oltpd_request_seconds\{shard="%s",quantile="0.99"\} (\S+)' % shard, metrics)
    assert m and float(m.group(1)) > 0, f"shard {shard} p99 missing"
print("serve_smoke: OK —", rep["Ops"], "ops,", "p99", rep["P99Ns"] / 1e6, "ms")
EOF
    # A second oltpd asking for the metrics address the first one owns must
    # refuse to serve: carrying on would leave its scrapers reading the first.
    # It must refuse before it announces (or accepts on) its serving socket.
    rc=0
    timeout 60 "$tmp/oltpd" -addr "$ADDR1" -metrics-addr "$MADDR" -workload micro -rows 1000 >"$tmp/second.out" || rc=$?
    [ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || die "second oltpd did not refuse the occupied -metrics-addr (exit $rc)"
    ! grep -q "oltpd: serving" "$tmp/second.out" || die "second oltpd announced serving before refusing the occupied -metrics-addr"
    ;;
concurrent)
    drive report.json -conns 8 -warmup 200ms -duration 1s
    scrape "$MADDR/metrics" metrics.txt
    python3 - "$tmp/report.json" "$tmp/metrics.txt" <<'EOF'
import json, re, sys
rep = json.load(open(sys.argv[1]))
assert rep["Ops"] > 0, "driver completed zero ops"
assert rep["Errors"] == 0, f"driver saw {rep['Errors']} errors"
metrics = open(sys.argv[2]).read()
m = re.search(r'^oltpd_concurrent (\S+)$', metrics, re.M)
assert m and float(m.group(1)) == 1, "engine did not serve in concurrent mode"
for shard in ("0", "1", "2", "3"):
    for counter in ("oltpd_batches_total", "oltpd_tx_total"):
        m = re.search(r'%s\{shard="%s"\} (\S+)' % (counter, shard), metrics)
        assert m and float(m.group(1)) > 0, f"shard {shard} {counter} not positive"
print("concurrent_smoke: OK —", rep["Ops"], "ops across 4 concurrent shards")
EOF
    ;;
cluster)
    # A routed burst with a 20% multi-partition (2PC) rate: both nodes must
    # show 2PC prepares and commits — the traffic crossed the node boundary.
    drive report.json -conns 4 -mp 20 -warmup 200ms -duration 1s
    scrape "$MADDR/metrics" metrics0.txt
    scrape "$MADDR1/metrics" metrics1.txt
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
    # Second burst, same nodes, every driver axis at once: the spike exceeds
    # the race-built cluster's capacity, so requests queue and are charged from
    # their schedule.
    drive report2.json -conns 4 -mp 20 -poisson -rate 10 -profile flash:at=0.4,dur=0.2,x=8 \
        -time-scale 60 -duration 5m -warmup 15s -agg-interval 25s \
        -timeline "$tmp/tl.csv" -reqlog "$tmp/run.olog"
    cat "$tmp/tl.csv"
    "$tmp/oltpsim" analyze -format json "$tmp/run.olog" >"$tmp/analyze.json"
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
    ;;
scenario)
    # Five simulated minutes at 60x compression (5 wall seconds) with an 8x
    # spike for a fifth of the run: the baseline is well inside the race-built
    # server's capacity and the spike far outside it, so admission must shed.
    drive report.json -conns 4 -poisson -rate 10 -profile flash:at=0.4,dur=0.2,x=8 \
        -time-scale 60 -duration 5m -warmup 15s -agg-interval 25s \
        -timeline "$tmp/timeline.csv" -scrape "http://$MADDR/metrics"
    cat "$tmp/timeline.csv"
    python3 - "$tmp/report.json" "$tmp/timeline.csv" <<'EOF'
import csv, json, sys
rep = json.load(open(sys.argv[1]))
assert rep["Ops"] > 0, "scenario completed zero ops"
assert rep["Errors"] == 0, f"scenario saw {rep['Errors']} errors"
assert rep["Shed"] > 0, "admission control shed nothing through the spike"

rows = list(csv.DictReader(open(sys.argv[2])))
assert len(rows) >= 8, f"timeline has only {len(rows)} intervals"
mults = [float(r["mult"]) for r in rows]
assert any(m == 8 for m in mults), "spike never showed in the multiplier column"
assert any(m == 1 for m in mults), "baseline never showed in the multiplier column"
assert sum(int(r["shed"]) for r in rows) > 0, "shed never surfaced in the timeline"

# p99 bounded: with admission shedding the un-servable part of the spike, the
# worst interval p99 must stay within an order of magnitude of the baseline
# p99 (without admission the queues grow for the whole pulse and the tail
# diverges by orders of magnitude).
base = [float(r["p99_us"]) for r in rows if float(r["mult"]) == 1 and float(r["p99_us"]) > 0]
spike = [float(r["p99_us"]) for r in rows if float(r["mult"]) > 1]
assert base and spike, "timeline lacks baseline or spike intervals"
bound = 10 * max(base)
assert max(spike) <= bound, \
    f"p99 diverged through the spike: {max(spike):.0f}us vs bound {bound:.0f}us"

ipc_cols = [c for c in rows[0] if c.endswith("_ipc")]
assert ipc_cols, "timeline carries no per-shard IPC columns"
assert any(float(r[c]) > 0 for r in rows for c in ipc_cols), "scraped IPC never nonzero"
print("scenario_smoke: OK —", rep["Ops"], "ops,", rep["Shed"], "shed,",
      f"worst spike p99 {max(spike)/1e3:.1f}ms")
EOF
    ;;
analyze)
    # Capture a request log, re-analyze it offline (quantiles within bucket
    # error of the live report), self-compare, and scrape by collector group.
    drive report.json -conns 4 -warmup 200ms -duration 1s -reqlog "$tmp/run.olog"
    "$tmp/oltpsim" analyze "$tmp/run.olog"
    "$tmp/oltpsim" analyze -format json "$tmp/run.olog" >"$tmp/analyze.json"
    "$tmp/oltpsim" compare "$tmp/run.olog" "$tmp/run.olog"
    scrape "$MADDR/metrics?collect=serving" serving.txt
    scrape "$MADDR/metrics?collect=engine,txn" engine.txt
    ! scrape "$MADDR/metrics?collect=bogus" bogus.txt 2>/dev/null || die "unknown collector group was not rejected"
    python3 - "$tmp/report.json" "$tmp/analyze.json" "$tmp/serving.txt" "$tmp/engine.txt" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
ana = json.load(open(sys.argv[2]))
assert rep["Ops"] > 0, "driver completed zero ops"
total = ana["total"]
assert total["ops"] == rep["Ops"], f'analyze ops {total["ops"]} != report {rep["Ops"]}'
assert total["errors"] == rep["Errors"], "error counts disagree"
assert 0 < ana["covered"] <= 1, f'covered fraction {ana["covered"]} out of range'
for q in ("p50", "p99"):
    exact, hist = total[q + "_ns"], rep[q.upper() + "Ns"]
    tol = hist / 16 + 2000  # log-linear histogram bucket error + 2µs slack
    assert abs(exact - hist) <= tol, f"{q}: analyze {exact}ns vs report {hist}ns (tol {tol:.0f}ns)"
assert len(ana["per_shard"]) == 2, "per-shard breakdown incomplete"
serving = open(sys.argv[3]).read()
engine = open(sys.argv[4]).read()
assert "oltpd_requests_total" in serving, "serving scrape lacks request counters"
assert "oltpd_instructions_total" not in serving, "serving scrape leaked engine PMU families"
assert "oltpd_instructions_total" in engine and "oltpd_tx_total" in engine, \
    "engine,txn scrape lacks PMU/txn families"
assert "oltpd_requests_total" not in engine, "engine scrape leaked serving families"
print("analyze_smoke: OK —", rep["Ops"], "ops,",
      "offline p99", total["p99_ns"] / 1e6, "ms vs live", rep["P99Ns"] / 1e6, "ms")
EOF
    ;;
esac

# Graceful drain: SIGTERM must exit 0 on every node (a race abort would not).
for p in $PIDS; do kill -TERM "$p"; done
for p in $PIDS; do wait "$p"; done
PIDS=""
echo "smoke $CASE: drain OK"
