GO ?= go

.PHONY: build vet lint test race bench bench-compare figures figures-numa figures-htap figures-serve figures-scenario figures-islands fuzz cover serve drive serve-smoke concurrent-smoke cluster-smoke scenario-smoke analyze-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the full static-analysis gate: formatting, stock go vet, and the
# project's own analyzer suite (cmd/oltplint: detrand, hotalloc, lockcheck —
# see README "Static analysis"). govulncheck runs when installed; CI always
# installs and runs it.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/oltplint ./...
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipped locally (CI runs it)"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the repository's benchmark (benchmark/README.md): every
# workload in a fresh process, medians and spreads, correctness checks wired
# in. Call benchmark/run.sh directly for one workload, --runs or --out.
bench:
	bash benchmark/run.sh

# bench-compare holds two result files against the bounds of BENCHMARK.json:
# make bench-compare OLD=benchmark/out/a.json NEW=benchmark/out/b.json
bench-compare:
	bash benchmark/run.sh -compare $(OLD) $(NEW)

figures:
	$(GO) run ./cmd/oltpsim -figure all -scale quick

# figures-numa renders the multi-socket scaling figures (FigN1-FigN3) on the
# paper's full 2x10-core topology.
figures-numa:
	$(GO) run ./cmd/oltpsim -figure numa -scale quick

# figures-htap renders the HTAP figures (FigH1-FigH3): the analytical
# microbenchmark and the TPC-C x analytical hybrid.
figures-htap:
	$(GO) run ./cmd/oltpsim -figure htap -scale quick

# figures-serve renders the live serving figures (FigS1-FigS2): real oltpd +
# oltpdrive loopback runs, wall-clock, never golden-locked.
figures-serve:
	$(GO) run ./cmd/oltpsim -figure serve -scale quick

# figures-scenario renders the scenario figures (FigC1-FigC2): time-
# compressed load profiles (a diurnal day, a flash crowd with and without
# admission control) replayed through the open-loop driver against a live
# oltpd, wall-clock, never golden-locked. Run from the repo root it also
# regenerates the committed sample timelines in testdata/scenario/.
figures-scenario:
	@mkdir -p testdata/scenario
	$(GO) run ./cmd/oltpsim -figure scenario -scale quick

# figures-islands renders the cluster figures (FigI1-FigI3): multi-node
# oltpd clusters with shard-routed traffic and a 2PC multi-partition mix,
# wall-clock, never golden-locked.
figures-islands:
	$(GO) run ./cmd/oltpsim -figure islands -scale quick

# serve starts an oltpd on loopback serving the hybrid TPC-C x analytical
# workload across 2 shards on a 2-socket partitioned topology, with live
# telemetry at http://127.0.0.1:7891/metrics. Ctrl-C drains gracefully.
serve:
	$(GO) run ./cmd/oltpd -addr 127.0.0.1:7890 -metrics-addr 127.0.0.1:7891 \
	    -system voltdb -shards 2 -sockets 2 -placement partitioned \
	    -workload hybrid -warehouses 2

# drive runs a closed-loop oltpdrive burst against `make serve`.
drive:
	$(GO) run ./cmd/oltpdrive -addr 127.0.0.1:7890 \
	    -workload hybrid -warehouses 2 -conns 4 -warmup 1s -duration 5s

# serve-smoke is the CI end-to-end gate: build both binaries, serve on
# loopback, drive a burst, scrape /metrics, assert nonzero per-shard tx
# counts and sane quantiles, then SIGTERM-drain.
serve-smoke:
	./scripts/serve_smoke.sh

# concurrent-smoke is the CI gate for the engine's concurrent mode: race
# hammers on the MT hierarchy/engine/replay paths, then a race-built oltpd
# serving 4 shards of ONE engine on loopback with /metrics assertions that
# concurrent mode was live and every shard executed.
concurrent-smoke:
	$(GO) test -race -run 'TestConcurrent|TestEnterConcurrent' ./internal/core ./internal/engine
	$(GO) test -race -run 'TestRefExecConcurrent' ./internal/workload
	./scripts/concurrent_smoke.sh

# cluster-smoke is the CI gate for the distributed serving tier: the cluster
# differential replay and 2PC fault-injection batteries under -race, then
# two race-built oltpd processes sharing a shard map, a routed oltpdrive
# burst with a 20% multi-partition (2PC) rate, /metrics assertions that both
# nodes prepared and committed 2PC branches, a second open-loop flash-crowd
# burst at the same nodes with a timeline and a request log, and a SIGTERM
# drain of both.
cluster-smoke:
	$(GO) test -race -run 'TestClusterDifferential|TestTwoPC|TestGtids' ./internal/cluster
	./scripts/cluster_smoke.sh

# scenario-smoke is the CI gate for the scenario engine: the profile/pacer
# determinism and flash-crowd scenario tests under -race, then a race-built
# oltpd with queue-depth admission control under a time-compressed flash
# crowd from a race-built oltpdrive, with timeline assertions (nonzero shed,
# p99 bounded through the spike) and a SIGTERM drain.
scenario-smoke:
	$(GO) test -race -run 'TestPacer|TestProfile|TestScenario|TestAdmission' ./internal/driver ./internal/server
	./scripts/scenario_smoke.sh

# analyze-smoke is the CI gate for the offline analysis pipeline: the
# request-log/analysis/collector-group unit tests under -race, then a real
# oltpdrive burst captured with -reqlog, re-analyzed with `oltpsim analyze`
# (quantiles must match the live report within histogram bucket error),
# self-compared with `oltpsim compare`, and group-scoped /metrics scrapes
# asserting serving scrapes carry no engine PMU families.
analyze-smoke:
	$(GO) test -race ./internal/olog ./internal/analyze
	$(GO) test -race -run 'TestMetricsCollectorGroups|TestDriveReqLog|TestAutoTermStopsEarly|TestStabilizer' \
	    ./internal/server ./internal/driver
	./scripts/analyze_smoke.sh

# fuzz runs the SQL front-end and L1I-index fuzz smokes (same budgets as CI).
fuzz:
	$(GO) test -run '^FuzzFrontend$$' -fuzz FuzzFrontend -fuzztime 30s ./internal/sqlfe
	$(GO) test -run '^FuzzICache$$' -fuzz FuzzICache -fuzztime 20s ./internal/core

# cover runs the -short suite with a coverage profile and fails if total
# statement coverage drops below the recorded floor (scripts/cover.sh; CI
# runs the same gate on every push/PR).
cover:
	./scripts/cover.sh
