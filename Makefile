GO ?= go

.PHONY: check fmt vet lint build test race bench bench-all bench-deps bench-faults bench-incremental bench-reach bench-resilience bench-resume bench-serve bench-store serve-check tables pathological mutate-check chaos chaos-serve fuzz-smoke

# check is the tier-1 gate: formatting, vet, the repo-invariant lint
# suite (including the ctxdrop cancellation check), build, the
# race-enabled test suite, the crash-corpus regression, the
# incremental-scan mutation-equivalence harness, the chaos harnesses
# (library-level and live-server), the scan-service lifecycle gate, and
# a short fuzz smoke. CI and pre-commit both run this target.
check: fmt vet lint build race pathological mutate-check chaos chaos-serve serve-check fuzz-smoke

# lint runs the custom repo-invariant analyzers (naked panics outside
# Guard fences, budget-carrying loops without cooperative checks,
# Fragment mutation after caching). See internal/lint for the checks
# and the //lint:allow waiver syntax.
lint:
	$(GO) run ./cmd/graphjslint internal cmd

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the corpus-sweep benchmarks once and appends a JSON
# snapshot to BENCH_parallel.json, so the parallel-scan perf trajectory
# is tracked across PRs. bench-all runs every benchmark once (no
# snapshot).
bench:
	$(GO) test -run xxx -bench 'ParallelSweep|Table4GraphJS' -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_parallel.json
	@tail -n 4 BENCH_parallel.json

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-faults snapshots the crash-corpus failure-class counts into
# BENCH_faults.json (fault-containment trajectory across PRs).
bench-faults:
	$(GO) test -run xxx -bench FaultSweep -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_faults.json
	@tail -n 4 BENCH_faults.json

# bench-resume snapshots the journal-resume timings (cold supervised
# sweep vs journal-satisfied resume) into BENCH_resume.json.
bench-resume:
	$(GO) test -run xxx -bench ResumeSweep -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_resume.json
	@tail -n 2 BENCH_resume.json

# bench-reach snapshots the export-graph gate's precision counters
# (pruned functions, skipped packages, fallbacks, provenance depth)
# with the gate on and off into BENCH_reach.json. The finding counts in
# both rows must match — the differential oracle in test form.
bench-reach:
	$(GO) test -run xxx -bench ReachGate -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_reach.json
	@tail -n 2 BENCH_reach.json

# bench-incremental snapshots the cold-vs-warm re-scan timings and the
# fragment-cache counters into BENCH_incremental.json (the ≥2× warm
# single-file-edit speedup is the acceptance bar).
bench-incremental:
	$(GO) test -run xxx -bench 'IncrementalRescan|IncrementalSweep' -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_incremental.json
	@tail -n 2 BENCH_incremental.json

# bench-serve snapshots the graphjsd daemon path into BENCH_serve.json:
# cold vs warm re-submission latency through POST /v1/scan plus p50/p95
# under concurrent load. benchjson -serve validates the metrics are all
# present and warm clears the ≥2× StatePool acceptance bar.
bench-serve:
	$(GO) test -run xxx -bench ServeScan -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -serve -out BENCH_serve.json
	@tail -n 1 BENCH_serve.json

# bench-store snapshots the persistent-store warm-restart path into
# BENCH_store.json: a cold scan vs a fresh process restarting from a
# populated -cache-dir (store open included in the timing). benchjson
# -store validates the metrics and gates the restart speedup at ≥2×.
bench-store:
	$(GO) test -run xxx -bench StoreRestart -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -store -out BENCH_store.json
	@tail -n 1 BENCH_store.json

# bench-deps snapshots the dependency-tree rescan path into
# BENCH_deps.json: a cold stitched tree scan vs a warm re-scan after
# editing one dependency (only that package's fragment rebuilds).
# benchjson -deps validates the metrics and gates the warm re-scan
# speedup at ≥2×.
bench-deps:
	$(GO) test -run xxx -bench DepsRescan -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -deps -out BENCH_deps.json
	@tail -n 1 BENCH_deps.json

# serve-check is the scan-service gate: build the daemon, run the
# race-enabled server lifecycle tests (concurrent-vs-sequential finding
# identity, 429 shedding, warm resubmit, drain/journal replay), and
# replay every curl example in docs/API.md against a live test server.
serve-check:
	$(GO) build -o /dev/null ./cmd/graphjsd
	$(GO) test -race -count=1 ./internal/server
	$(GO) test -race -count=1 -run TestAPIDocCurlExamples ./internal/server

tables:
	$(GO) run ./cmd/benchtables

# pathological runs the fault-containment regressions: every
# crash-corpus package must terminate under a tight budget with its
# expected failure class, and sweeps must survive injected panics.
pathological:
	$(GO) test -race -run 'Pathological|Fault|Fallback|PanicIsolation|SweepSurvives' \
		./internal/scanner ./internal/metrics

# mutate-check replays the single-file edit script (touch, benign edit,
# source-introducing edit, sink-removing edit, file add/delete) over
# every dataset template and asserts incremental findings ≡ cold-scan
# findings after every step, under the race detector at Workers=4. It
# also runs the warm-state cache tests and the full-corpus oracle: a
# pooled warm sweep (per-component fragments) ≡ a cold sweep (one
# whole-package fragment) over the ground truth, the wild-corpus
# stand-in and the crash corpus under four budget shapes.
mutate-check:
	$(GO) test -race -run 'Mutation|Incremental|CachedScanEqualsUncached|CacheEvicts|CacheCompositionality|PooledSweepMatchesCold' \
		./internal/scanner ./internal/metrics

# chaos runs the supervised-sweep and persistent-store chaos harnesses
# under the race detector: Workers=4 sweeps with deterministic injected
# panics and timeouts, simulated SIGKILLs (journal torn mid-line, store
# log torn mid-record, crash mid-compaction), injected disk faults
# (short write, ENOSPC), bit flips, and resumes that must reproduce the
# uninterrupted run exactly — corruption may change speed, never
# findings.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosKillResume|TestChaosStoreKillResume|TestCreateRepairsTornTail|TestConcurrentWriters|TestCompactCrashBeforeTruncate' \
		./internal/metrics ./internal/sweepjournal
	$(GO) test -race -count=1 -run 'TestCrashMidCompactionLeavesOldLogIntact|TestInjectedDiskFaultsRollBackAndCount|TestTornTailRepairedOnOpen|TestBitFlipQuarantinesRecord|TestGarbageHeaderQuarantinesWholeLog|TestConcurrentPutGet' \
		./internal/store
	$(GO) test -race -count=1 -run 'TestStoreCorruptionDegradesToCold|TestStoreUndecodableEntryQuarantined' \
		./internal/scanner
	$(GO) test -race -count=1 -run 'TestCorruptCacheDirDegradesToCold' ./internal/server

# chaos-serve is the live-daemon resilience harness, under the race
# detector at Workers=4: a real listener behind the production
# transport timeouts takes slowloris connections, mid-body disconnects,
# oversized uploads, abandoned scans, panic bombs, and an injected disk
# fault — while healthy clients must see unchanged findings — then the
# daemon is killed abruptly and a restart on the same cache dir must
# sweep to a journal finding-equivalent to the pre-chaos baseline. The
# cancellation, breaker, and health-machine regressions ride along.
chaos-serve:
	$(GO) test -race -count=1 -run 'TestChaosServe|TestSlowloris|TestClientDisconnect|TestCanceled|TestOversizedBody|TestOffender|TestHealthz|TestStoreWriteFault|TestPoolEviction' \
		./internal/server

# bench-resilience snapshots what hostile traffic costs honest clients
# into BENCH_resilience.json: p95 healthy-scan latency alone vs with
# 25% of clients hostile (slowloris, oversized uploads, mid-scan
# disconnects). benchjson -resilience validates the metrics and gates
# the degradation ratio at ≤2×.
bench-resilience:
	$(GO) test -run xxx -bench ServeResilience -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -resilience -out BENCH_resilience.json
	@tail -n 1 BENCH_resilience.json

# fuzz-smoke gives each fuzz target a few seconds — enough to catch
# newly introduced panics on the seeded pathological shapes.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzScanAll -fuzztime 3s ./internal/js/lexer
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 3s ./internal/js/parser
	$(GO) test -run xxx -fuzz FuzzParseQuery -fuzztime 3s ./internal/graphdb
	$(GO) test -run xxx -fuzz FuzzStoreEqual -fuzztime 3s ./internal/mdg
	$(GO) test -run xxx -fuzz FuzzIncrementalEquivalence -fuzztime 3s -fuzzminimizetime 5s ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzReachSoundness -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzDepResolve -fuzztime 3s -fuzzminimizetime 5s ./internal/deptree
	$(GO) test -run xxx -fuzz FuzzCrossStitch -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzExportsEquivalence -fuzztime 3s -fuzzminimizetime 5s ./internal/exports
