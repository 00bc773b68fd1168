GO ?= go
SMOKES = serve-smoke concurrent-smoke cluster-smoke scenario-smoke analyze-smoke

.PHONY: build vet lint test race bench bench-compare figures figures-numa figures-htap figures-serve figures-scenario figures-islands fuzz cover serve drive $(SMOKES)

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

# figures-serve renders the live serving figures (FigS1-FigS3): real oltpd +
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

# The smoke gates (CI runs each as one job of its smoke matrix): a case's
# `go test -race` list, then scripts/smoke.sh <case> — race-built binaries
# where the case calls for them, a loopback oltpd (two for cluster) under
# oltpdrive, /metrics assertions and a SIGTERM drain. The lists live here and
# nowhere else (one quoted `go test -race` argument list per run). Each case
# has its own port range, so `make -j5` of all five is safe.
#   serve       the serving path: wire, server, driver, metrics, sessions
#   concurrent  engine concurrent mode: MT hierarchy/engine/replay hammers,
#               the serial/concurrent engine twin, scrapes racing 4 loaded shards (one instant per scrape), the
#               exposition fence; then 4 shards of ONE engine served
#               concurrently
#   cluster     cluster differential replay, 2PC fault injection, the cluster
#               driver; then two nodes, a 20% 2PC burst and a flash crowd
#   scenario    profile/pacer determinism, scenarios, admission control; then
#               a time-compressed flash crowd against queue-depth admission
#   analyze     request log, offline analysis, collector groups; then capture,
#               `oltpsim analyze`/`compare`, group-scoped scrapes
serve_tests = \
	"./internal/server ./internal/driver ./internal/wire ./internal/metrics ./internal/testbed" \
	"-count=20 -run TestServeErrors ./internal/server" \
	"-count=10 -run TestBatchAnswersOneWritePerRun|TestPrepare2PCMidBatchFlushesExecsAhead|TestGracefulShutdownPipelined|FuzzServeConn ./internal/server" \
	"-count=3 -run TestSenderWritesPerBurst|TestDrivePipelineDepths|TestDriveAgainstDrainingServer ./internal/driver" \
	"-run TestSession ./internal/engine"
concurrent_tests = \
	"-run TestConcurrent|TestEnterConcurrent ./internal/core ./internal/engine" \
	"-run TestRefExecConcurrent ./internal/workload" \
	"-run TestSerialConcurrentTwin ./internal/workload" \
	"-run TestConcurrentServing4Shards|TestSerializedArchetypeServes|TestMetricsEndpoint ./internal/server" \
	"-count=10 -run TestScrapeIsOneInstant|TestExpositionFence ./internal/server"
cluster_tests = \
	"-run TestClusterDifferential|TestTwoPC|TestGtids ./internal/cluster" \
	"-run TestDriveCluster|TestScenarioFlashCrowdOnCluster ./internal/driver"
scenario_tests = \
	"-run TestPacer|TestProfile|TestScenario|TestScheduleFence|TestAdmission ./internal/driver ./internal/server"
analyze_tests = \
	"./internal/olog ./internal/analyze" \
	"-run TestMetricsCollectorGroups|TestDriveReqLog ./internal/server ./internal/driver"

$(SMOKES): %-smoke:
	@set -e; for args in $($*_tests); do echo $(GO) test -race $$args; $(GO) test -race $$args; done
	./scripts/smoke.sh $*

# fuzz runs the L1I-index, L2-index, instruction-fetch walk, data-path and
# B+-tree fuzz smokes (same budgets as CI). Minimisation gets 1 s: at the
# default 60 s one new failing-or-interesting input can eat the whole budget.
fuzz:
	$(GO) test -run '^FuzzICache$$' -fuzz FuzzICache -fuzztime 20s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^FuzzL2$$' -fuzz FuzzL2 -fuzztime 20s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^FuzzFetchCode$$' -fuzz FuzzFetchCode -fuzztime 20s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^FuzzDataAccess$$' -fuzz FuzzDataAccess -fuzztime 20s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^FuzzTree$$' -fuzz FuzzTree -fuzztime 20s -fuzzminimizetime 1s ./internal/index

# cover runs the -short suite with a coverage profile and fails if total
# statement coverage drops below the recorded floor (scripts/cover.sh; CI
# runs the same gate on every push/PR).
cover:
	./scripts/cover.sh
