GO ?= go

.PHONY: build test vet lint racecheck fuzz fuzz-regression bench bench-check \
	quick-identity repro-check serve-smoke semcache-smoke shard-smoke \
	wal-smoke traffic-smoke perfbench-test ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails on any gofmt-unformatted file, runs go vet, and runs staticcheck
# when the binary is on PATH (skipped otherwise so the gate works on minimal
# toolchains).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipped"; fi

# The parallel region-query and pivot-index code paths must stay race-clean; qlog covers the streaming worker pool and the template cache,
# extract the concurrent template rebinds, sqlparser the fingerprint pass,
# serve the ingest queue / epoch worker / shutdown interleavings, core the
# concurrent Add vs Recluster paths of the incremental miner, interestcache
# the atomic epoch-generation snapshot swap under concurrent queries, memdb
# the per-user rate limiter under concurrent admission, wal the staged
# group-commit writer (concurrent Append/SyncTo vs the background fsync
# goroutine and segment rotation), and schema the access(a) registry and its
# per-column change log (extraction workers write it while an epoch reads
# the changed-column set and generation under the same lock), and traffic
# the classifier and interface miner (the pump writes them while /interfaces
# and snapshots read them).
racecheck:
	$(GO) test -race ./internal/dbscan/... ./internal/distance/... \
		./internal/qlog/... ./internal/extract/... ./internal/sqlparser/... \
		./internal/serve/... ./internal/core/... ./internal/interestcache/... \
		./internal/memdb/... ./internal/shard/... ./internal/wal/... \
		./internal/schema/... ./internal/traffic/...

# fuzz replays the checked-in seed corpora in regression mode (plain go test
# runs every f.Add seed) and then explores each target briefly. Raise
# FUZZTIME for a longer soak.
FUZZTIME ?= 30s
fuzz: fuzz-regression
	$(GO) test ./internal/sqlparser/ -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sqlparser/ -run=NONE -fuzz=FuzzFingerprint -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/interval/ -run=NONE -fuzz=FuzzIntervalSet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run=NONE -fuzz=FuzzSegmentDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/interestcache/ -run=NONE -fuzz=FuzzContainmentIndex -fuzztime=$(FUZZTIME)

# fuzz-regression replays only the checked-in seed corpora (every f.Add seed
# plus testdata/fuzz entries) without exploring — deterministic, so CI can
# gate on it.
fuzz-regression:
	$(GO) test -run=Fuzz ./internal/sqlparser/ ./internal/interval/ ./internal/wal/ \
		./internal/interestcache/

# bench regenerates the deterministic counter records: BENCH_clustering.json
# (brute-force vs pivot-index mining), BENCH_pipeline.json (uncached vs
# template-cached extraction), BENCH_semcache.json (semantic result cache:
# hit ratio, speedup, staleness) and BENCH_kernel.json (flat distance kernel
# vs pointer profiles) — semcacheperf runs at 5k because it replays the log
# four extra times (oracle, cached, miss-path and staleness passes). The
# serving path (WAL, traffic classes, /query cache) is measured end to end
# by perfbench (bash perfbench/run.sh), not here. vet + racecheck gate it so
# perf numbers are never recorded off racy code.
bench: vet racecheck
	$(GO) run ./cmd/benchreport -exp clusterperf
	$(GO) run ./cmd/benchreport -exp pipelineperf
	$(GO) run ./cmd/benchreport -exp semcacheperf -scale 5000
	$(GO) run ./cmd/benchreport -exp kernelperf

# serve-smoke starts the serving stack, replays 1k records into it, flushes,
# and asserts /report matches the batch miner byte-for-byte in every format
# (TestServeSmoke drives the real HTTP handler surface end to end).
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke -v ./internal/serve/

# semcache-smoke is the end-to-end gate for the interest-driven result cache:
# mine a 5k-query log through the HTTP ingest path, prefetch regions at the
# epoch flush, replay every statement through POST /query with the
# byte-identity oracle on, and require zero oracle failures and a ≥0.5 hit
# ratio (TestSemCacheSmoke).
semcache-smoke:
	$(GO) test -race -count=1 -run TestSemCacheSmoke -v ./internal/serve/

# shard-smoke is the end-to-end gate for the sharded topology: a 4-shard
# in-process cluster (same routing/merge code path as multi-node) ingests a
# 1k-query log over real HTTP, flushes, and the coordinator's merged /report
# must be byte-identical to the batch miner in every format
# (TestCoordinatorMatchesBatch); the shard-down test proves ingest keeps
# accepting and /report degrades with a staleness marker when a node dies.
shard-smoke:
	$(GO) test -race -count=1 -run 'TestCoordinatorMatchesBatch|TestShardDownDegradesGracefully' -v ./internal/shard/

# wal-smoke is the end-to-end durability gate: kill a server mid-ingest
# (clean restart and torn-tail variants), reopen on the same WAL dir, and
# require the recovered /report to be byte-identical to an uninterrupted
# run; TestRemineWindowEquivalence proves POST /remine over a [from,to)
# window matches batch-mining the same slice, and the shard variant proves
# per-shard WALs recover under the coordinator. All under -race.
wal-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryReplay|TestCrashRecoveryTornTail|TestRemineWindowEquivalence' -v ./internal/serve/
	$(GO) test -race -count=1 -run TestShardedCrashRecovery -v ./internal/shard/

# traffic-smoke is the end-to-end gate for traffic-class mining: the serve
# partition tests prove every per-class /report is byte-identical to batch
# mining that class's records, whether the records arrive tagged or the
# server's own classifier assigns them (and the classless report is
# untouched), the
# shard variants prove the same through a 4-shard coordinator's merge, and
# the drift tests prove the /drift event log is a deterministic function of
# the ingest script on both topologies. All under -race.
traffic-smoke:
	$(GO) test -race -count=1 -run 'TestTrafficPartitionIdentity|TestTrafficDriftDeterministic' -v ./internal/serve/
	$(GO) test -race -count=1 -run 'TestCoordinatorTraffic' -v ./internal/shard/

# bench-check is the bench-drift gate: re-run the deterministic experiments
# at the checked-in scales and compare their counters against the committed
# BENCH_*.json records with benchreport -compare (tolerance 15%; wall-clock
# fields are ignored, see internal/benchcmp). Fails when a code change
# regresses distance-eval or parse counters, flips an identical_* flag, or
# drops the flat kernel's early-exit ratio (kernelperf runs its default 20k
# and 100k synthetic-area scales — the 100k scale is the acceptance point
# for the flat-vs-pointer speedup). The new records go to a mktemp
# directory (under TMPDIR when set) that is removed afterwards.
BENCHTOL ?= 0.15
bench-check:
	out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	$(GO) run ./cmd/benchreport -exp clusterperf -benchjson $$out/clustering.json && \
	$(GO) run ./cmd/benchreport -exp pipelineperf -pipejson $$out/pipeline.json && \
	$(GO) run ./cmd/benchreport -exp kernelperf -kerneljson $$out/kernel.json && \
	$(GO) run ./cmd/benchreport -compare BENCH_clustering.json $$out/clustering.json -tol $(BENCHTOL) && \
	$(GO) run ./cmd/benchreport -compare BENCH_pipeline.json $$out/pipeline.json -tol $(BENCHTOL) && \
	$(GO) run ./cmd/benchreport -compare BENCH_kernel.json $$out/kernel.json -tol $(BENCHTOL)

# quick-identity is the per-PR semantic-cache gate: re-run semcacheperf at a
# reduced scale and compare ONLY the scale-independent correctness gates
# (identical_* booleans, zero-stay-zero oracle counters) against the
# committed full-scale BENCH_semcache.json. Counters and ratios are scale-
# dependent and deliberately ignored (-identity), so the gate is cheap
# enough to run on every PR yet still fails the moment an optimised serving
# path stops reproducing direct execution.
QUICKJSON ?= /tmp/bench_semcache_quick.json
quick-identity:
	$(GO) run ./cmd/benchreport -exp semcacheperf -scale 2000 -semjson $(QUICKJSON)
	$(GO) run ./cmd/benchreport -compare BENCH_semcache.json $(QUICKJSON) -identity

# repro-check is the paper-reproduction golden gate: render every
# deterministic experiment (table1, fig1a-c, coverage, olapclus,
# olapclusraw, ablation, ablationsigma, density — not efficiency, scaling or
# requery, which print wall clock) at -scale 5000, seed 42, and require the
# output to equal internal/experiments/testdata/repro_5000_seed42.golden
# byte for byte, at GOMAXPROCS 1 and 2. After reviewing an intended change,
# regenerate the golden with
#   go test ./internal/experiments/ -run TestReproGolden -update
repro-check:
	GOMAXPROCS=1 $(GO) test -count=1 -run TestReproGolden ./internal/experiments/
	GOMAXPROCS=2 $(GO) test -count=1 -run TestReproGolden ./internal/experiments/

# perfbench-test vets and tests the benchmark harness. perfbench/ is its own
# Go module (its go.mod points repro at ..), so the root ./... patterns never
# reach it; this keeps a change to the miner from breaking the benchmark's
# build unnoticed. Its tests run every workload at a tiny scale (~30 s).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# ci mirrors .github/workflows/ci.yml locally: build, lint (gofmt + vet +
# staticcheck when present), unit tests, the benchmark module's vet and
# tests, race detector, fuzz seed-corpus regression, the per-PR semcache
# identity gate, the paper-reproduction golden, and the end-to-end smokes.
# The nightly bench-drift job (make bench-check) is not part of ci — it
# takes minutes, not seconds.
ci: build lint test perfbench-test racecheck fuzz-regression quick-identity repro-check serve-smoke semcache-smoke shard-smoke wal-smoke traffic-smoke
	@echo "ci: all gates green"

clean:
	$(GO) clean ./...
