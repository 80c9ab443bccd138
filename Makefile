GO ?= go

.PHONY: build test vet lint racecheck fuzz fuzz-regression repro-check \
	serve-smoke semcache-smoke shard-smoke wal-smoke traffic-smoke \
	examples-smoke perfbench-test ci clean

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

# The parallel region-query and pivot-index code paths must stay race-clean;
# par covers the shared parallel-for, qlog the slot-addressed pipeline
# batches and the template cache,
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
	$(GO) test -race ./internal/par/... ./internal/dbscan/... ./internal/distance/... \
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
	$(GO) test ./internal/serve/ -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME)

# fuzz-regression replays only the checked-in seed corpora (every f.Add seed
# plus testdata/fuzz entries) without exploring — deterministic, so CI can
# gate on it.
fuzz-regression:
	$(GO) test -run=Fuzz ./internal/sqlparser/ ./internal/interval/ ./internal/wal/ \
		./internal/interestcache/ ./internal/serve/

# serve-smoke starts the serving stack, replays 1k records into it, flushes,
# and asserts /report matches the batch miner byte-for-byte in every format
# (TestServeSmoke drives the real HTTP handler surface end to end).
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke -v ./internal/serve/

# semcache-smoke is the end-to-end gate for the interest-driven result cache:
# mine a 5k-query log through the HTTP ingest path, prefetch regions at the
# epoch flush, replay every statement through POST /query with the
# byte-identity oracle on, and require zero oracle failures, a ≥0.5 hit
# ratio and hits on the HAVING aggregate rung (TestSemCacheSmoke); and
# prove POST /query never writes the mining
# registry: queries between two epochs leave its generation still and the
# next /report byte-identical to the batch miner's in every format
# (TestQueryLeavesReportUnchanged). TestSemCacheSmokeV2 serves a band from
# each of two regions, answers spanning reads (which no one region contains)
# as direct misses, and checks /metrics carries no budget keys.
# TestInstallCarriesUnchangedRegions proves a region whose mined area is
# unchanged keeps its store across epochs, only a moved region is rebuilt,
# and every hit equals direct execution. TestHeldOutOracle replays
# statements the miner never saw, with every mined region resident, and
# requires zero oracle failures, hits, and hits on the aggregate rung.
semcache-smoke:
	$(GO) test -race -count=1 -run 'TestSemCacheSmoke|TestQueryLeavesReportUnchanged' -v ./internal/serve/
	$(GO) test -race -count=1 -run 'TestInstallCarriesUnchangedRegions|TestHeldOutOracle' -v ./internal/interestcache/

# shard-smoke is the end-to-end gate for the sharded topology: a 4-shard
# in-process cluster (same routing/merge code path as multi-node) ingests a
# 1k-query log over real HTTP, flushes, and the coordinator's merged /report
# must be byte-identical to the batch miner in every format
# (TestCoordinatorMatchesBatch). TestRemoteCoordinatorMatchesBatch holds the
# multi-node topology to the same bytes: four shards with private stats
# registries and template caches, reached over HTTP. TestMergeExactFollowsShardEps
# proves X-Merge-Exact is judged from the eps the shards clustered at, false
# when they disagree; the shard-down test proves ingest keeps accepting and
# /report degrades with a staleness marker when a node dies.
shard-smoke:
	$(GO) test -race -count=1 -run 'TestCoordinatorMatchesBatch|TestRemoteCoordinatorMatchesBatch|TestMergeExactFollowsShardEps|TestShardDownDegradesGracefully' -v ./internal/shard/

# wal-smoke is the end-to-end durability gate: kill a server mid-ingest
# (clean restart and torn-tail variants), or shut it down past its
# deadline with acknowledged records still queued, reopen on the same WAL
# dir, and require the recovered /report to be byte-identical to an
# uninterrupted run; TestRemineWindowEquivalence proves POST /remine over a
# [from,to) window matches batch-mining the same slice, and the shard
# variant proves per-shard WALs recover under the coordinator. The wal
# package's statement-table tests prove a def torn off the active segment
# is defined afresh after recovery, and that a clean reopen keeps writing
# refs to texts defined before it, and TestSealedSegmentScansClean that a
# sealed segment scans clean while one cut in its footer scans as torn.
# The snapshot restart tests prove a restart from a v2 snapshot plus a WAL
# tail that moves access(a) installs the snapshot's neighbour graph and
# serves the global and every class /report byte-identical to an
# uninterrupted run and to MineRecords with fewer distance evaluations
# (TestRestartReusesGraph), that a graph whose digest does not match falls
# back to the rebuild with the same reports (TestRestartGraphDigestFallback),
# and that the frozen v1 JSON snapshot still restores, with a WAL tail, to
# MineRecords' report and is rewritten as v2 (TestRestartFromV1Snapshot).
# All under -race.
wal-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryReplay|TestCrashRecoveryTornTail|TestDeadlineShutdownReplaysUnmined|TestRemineWindowEquivalence|TestRestartReusesGraph|TestRestartGraphDigestFallback|TestRestartFromV1Snapshot' -v ./internal/serve/
	$(GO) test -race -count=1 -run TestShardedCrashRecovery -v ./internal/shard/
	$(GO) test -race -count=1 -run 'TestTornDefinitionRedefined|TestReopenKeepsStatementTable|TestSealedSegmentScansClean' -v ./internal/wal/

# traffic-smoke is the end-to-end gate for traffic-class mining: the serve
# partition tests prove every per-class /report is byte-identical to batch
# mining that class's records, whether the records arrive tagged or the
# server's own classifier assigns them (and the classless report is
# untouched), the
# shard variants prove the same through a 4-shard coordinator's merge, and
# the drift tests prove the /drift event log is a deterministic function of
# the ingest script on both topologies. The per-class epoch's output stage
# has three gates of its own: TestCoverageMemoMatchesFresh (every global
# and class cluster carries exactly the coverage a fresh ComputeCoverage
# gives, across flushes that carry some clusters over and move others),
# TestTransposedRegionsMatchSorted (class partitions clustered from the
# transposed CSR see the sorted neighbourhoods, labels and reuse count) and
# TestSnapshotUserSetsCopyOnWrite (an Add racing an epoch leaves the
# epoch's shared user sets unchanged and reaches the next epoch). All under
# -race.
traffic-smoke:
	$(GO) test -race -count=1 -run 'TestTrafficPartitionIdentity|TestTrafficDriftDeterministic|TestCoverageMemoMatchesFresh' -v ./internal/serve/
	$(GO) test -race -count=1 -run 'TestTransposedRegionsMatchSorted|TestSnapshotUserSetsCopyOnWrite' -v ./internal/core/
	$(GO) test -race -count=1 -run 'TestCoordinatorTraffic' -v ./internal/shard/

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

# examples-smoke runs every program under examples/ with go run: each must
# exit 0 and print something. Nothing else builds and runs them, and they
# use the library's public surface as a reader would.
examples-smoke:
	@for d in examples/*/; do \
		out="$$($(GO) run ./$$d)" || { echo "examples-smoke: $$d failed"; exit 1; }; \
		if [ -z "$$out" ]; then echo "examples-smoke: $$d printed nothing"; exit 1; fi; \
		echo "examples-smoke: $$d ok"; \
	done

# perfbench-test vets and tests the benchmark harness. perfbench/ is its own
# Go module (its go.mod points repro at ..), so the root ./... patterns never
# reach it; this keeps a change to the miner from breaking the benchmark's
# build unnoticed. Its tests run every workload at a tiny scale (~30 s).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# ci mirrors .github/workflows/ci.yml locally: build, lint (gofmt + vet +
# staticcheck when present), unit tests, the benchmark module's vet and
# tests, race detector, fuzz seed-corpus regression, the
# paper-reproduction golden, the end-to-end smokes and the examples.
# Performance is measured end to end by perfbench (bash perfbench/run.sh),
# not here.
ci: build lint test perfbench-test racecheck fuzz-regression repro-check serve-smoke semcache-smoke shard-smoke wal-smoke traffic-smoke examples-smoke
	@echo "ci: all gates green"

clean:
	$(GO) clean ./...
