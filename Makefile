GO ?= go

.PHONY: check fmt vet lint build test race bench-all bench-gates serve-check tables pathological mutate-check chaos chaos-serve fuzz-smoke

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

# bench-all runs every benchmark once; a one-iteration run reports the
# bench-gates ratios without judging them.
bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-gates runs the timing-ratio benchmarks, each of which asserts
# its own acceptance bar on its final -benchtime run: warm ≥2× cold
# for a daemon re-submission, a store-warm restart, a one-dependency
# tree re-scan, a one-file package re-scan and a one-package corpus
# re-sweep; healthy-client p95 latency under 25% hostile clients ≤2×
# the all-healthy p95. A missed bar fails that benchmark with its
# ratio, both times and the bar; the others still run. The bars are
# timing ratios, so this target is not part of check.
bench-gates:
	$(GO) test -run xxx -bench 'ServeScan|StoreRestart|DepsRescan|IncrementalRescan|IncrementalSweep|ServeResilience' -benchtime 3x .

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
# expected failure class, sweeps must survive injected panics, and the
# step cap and deadline classify both tools' scans (the ODGen baseline
# runs under the same budget.Budget).
pathological:
	$(GO) test -race -run 'Pathological|Fallback|PanicIsolation|SweepSurvives|Timeout|FindingsSurvive' \
		./internal/scanner ./internal/metrics ./internal/odgen

# mutate-check replays the single-file edit script (touch, benign edit,
# source-introducing edit, sink-removing edit, file add/delete, and
# adds and renames that change require resolution) over
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
# panics and timeouts, simulated SIGKILLs (journal and store logs torn
# mid-record, crash mid-compaction), injected disk faults (short write,
# ENOSPC), bit flips, and resumes that must reproduce the uninterrupted
# run exactly — corruption may change speed, never findings. Sweep
# journals are store directories, so the store tests cover their
# durability too. A swept target is read once: every ladder rung scans
# the bytes its journal hash covers, and a package directory named
# test is scanned, not skipped, by the CLI and /v1/sweep alike. The
# scratch-reuse oracle interleaves plain, capped, crash-corpus and
# panicking scans forward, in reverse and on GOMAXPROCS workers, and
# every report must equal a first pass in a fresh process, whatever
# the per-layer scratch pools still hold.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosKillResume|TestChaosStoreKillResume|TestTargetReadOnce|TestJournalsDoNotShareEntries|TestCreateRepairsTornTail|TestConcurrentWriters|TestTornFinalLine|TestCorruptMiddleRecordQuarantined' \
		./internal/metrics ./internal/sweepjournal
	$(GO) test -race -count=1 -run 'TestCrashMidCompactionLeavesOldLogIntact|TestInjectedDiskFaultsRollBackAndCount|TestTornTailRepairedOnOpen|TestBitFlipQuarantinesRecord|TestGarbageHeaderQuarantinesWholeLog|TestConcurrentPutGet|TestAckedPutVisibleToReadOnlyOpen' \
		./internal/store
	$(GO) test -race -count=1 -run 'TestStoreCorruptionDegradesToCold|TestStoreUndecodableEntryQuarantined|TestPackageFilesRootName|TestScratchReuseMatchesFresh' \
		./internal/scanner
	$(GO) test -race -count=1 -run 'TestCorruptCacheDirDegradesToCold|TestSweepScansPackageNamedTest' ./internal/server
	$(GO) test -race -count=1 -run 'TestScanPackageNamedTest' ./cmd/graphjs

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

# fuzz-smoke gives each fuzz target a few seconds — enough to catch
# newly introduced panics on the seeded pathological shapes.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzScanAll -fuzztime 3s ./internal/js/lexer
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 3s ./internal/js/parser
	$(GO) test -run xxx -fuzz FuzzParseQuery -fuzztime 3s ./internal/graphdb
	$(GO) test -run xxx -fuzz FuzzStoreEqual -fuzztime 3s ./internal/mdg
	$(GO) test -run xxx -fuzz FuzzAnalysisEquivalence -fuzztime 3s -fuzzminimizetime 5s ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzIncrementalEquivalence -fuzztime 3s -fuzzminimizetime 5s ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzReachSoundness -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzDepResolve -fuzztime 3s -fuzzminimizetime 5s ./internal/deptree
	$(GO) test -run xxx -fuzz FuzzCrossStitch -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzGateUnits -fuzztime 3s -fuzzminimizetime 5s ./internal/scanner
	$(GO) test -run xxx -fuzz FuzzExportsEquivalence -fuzztime 3s -fuzzminimizetime 5s ./internal/exports
