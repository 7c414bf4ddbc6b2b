GO ?= go

# Minimum statement coverage for the analysis heart of the tool and the
# parallel, interval-merge and sanitizer layers under it. Every package
# sits above 90% today; the floor leaves room for small drift but catches
# untested growth.
COVER_FLOOR ?= 85.0
COVER_PKGS  ?= ./internal/vpattern ./internal/core ./internal/parallel ./internal/interval ./internal/sanitizer

# Per-target budget for the fuzz gate; the Go fuzzer accepts one -fuzz
# pattern per run, so each target gets its own invocation.
FUZZTIME ?= 20s

# Seed count for the full property-based differential run (make proptest).
# The verify/race gates run the default 10-seed smoke via `go test`.
PROPTEST_SEEDS ?= 200

.PHONY: verify fmt build vet test race bench bench-smoke bench-test cover fuzz proptest daemon-smoke

verify: fmt build vet test race bench-smoke bench-test cover fuzz daemon-smoke

# fmt fails if any file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# race also repeats the async-vs-synchronous oracle, the barrier tests,
# the fine accumulator's reuse across launches, the layer-clock
# partition (whose busy total the analysis goroutine writes and the
# kernel goroutine reads), the access-time range capture (whose bytes
# travel with the flush buffer to the analysis goroutine) and the
# sanitizer's four-buffer cap 20 times (about a minute; the Darknet
# oracle runs once, in the first line), so a race in the analysis
# goroutine's hand-off fails here and not only in the 200-seed proptest.
# The pattern registry's tests run twice in one process, so a test
# registration that outlives its test fails here.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestPipelineMatchesSynchronous$$|TestPipelineStress|TestAnalysisBarriers|TestDetachReleasesFlushBuffers|TestFineLaunchReuse|TestLayerClockPartition|TestOverheadSection|TestBulkLoadCapturedAtAccessTime' ./internal/core
	$(GO) test -race -count=20 -run 'TestCollectorBlocksAtDepth' ./internal/sanitizer
	$(GO) test -count=2 ./internal/vpattern

bench:
	$(GO) test -bench . -benchmem

# bench-smoke compiles and runs every benchmark for exactly one iteration
# (no test functions), catching bit-rotted benchmarks without the cost of
# real measurement. Timing is measured and gated only by bench/ (see
# bench/README.md).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-test vets and tests the benchmark's own module (bench/), which
# root ./... cannot reach: its contract, smoke runs, statistics and the
# pinned report digests.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz runs each fuzz target in sass, internal/trace, internal/vpattern,
# internal/core and internal/interval for FUZZTIME. Plain `go test`
# replays each target's seeds (its f.Add calls, plus the corpora checked
# in under sass/testdata/fuzz/); this target explores beyond them.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzReadModule$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzScan$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzRefresh$$' -fuzztime=$(FUZZTIME) ./internal/vpattern
	$(GO) test -run='^$$' -fuzz='^FuzzAddRange$$' -fuzztime=$(FUZZTIME) ./internal/vpattern
	$(GO) test -run='^$$' -fuzz='^FuzzCoarseLaunch$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzPlanCopy$$' -fuzztime=$(FUZZTIME) ./internal/interval

# proptest runs the property-based differential harness over
# PROPTEST_SEEDS seeds under the race detector. A failure prints the
# seed and the exact single-seed repro command.
proptest:
	VX_PROPTEST_SEEDS=$(PROPTEST_SEEDS) $(GO) test -race -run TestDifferentialHarness -v ./internal/proptest

# daemon-smoke drives the vxprofd serving path end to end: start the
# service, attach two workloads as sessions over the /v1 HTTP API, fetch
# /v1/sessions/{id}/report, check the bare legacy paths are 404, diff
# each per-session report against the equivalent one-shot run, exercise
# admission quotas (202 queued / 429 rejected) and restart recovery from
# the persistent store — plus a real SIGTERM drain of the re-executed
# binary. Then, in-process: finished sessions release their engine and
# keep a bounded heap each, the restored aggregate matches the one-shot
# fold, and Cancel/Shutdown race finalization under -race.
daemon-smoke:
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestGracefulSIGTERM|TestBarePathsGone|TestDaemonQuota|TestDaemonRestartRecovery' -v ./cmd/vxprofd
	$(GO) test -count=1 -run 'TestFinishedSessionReleasesEngine|TestRetainedHeapPerSession|TestRestoredAggregateMatchesOneShot' -v ./internal/daemon
	$(GO) test -race -count=1 -run 'TestCancelShutdownRaceFinalize' -v ./internal/daemon

# cover enforces COVER_FLOOR percent statement coverage on COVER_PKGS.
cover:
	@$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
	{ print } \
	/coverage:/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1); \
		sub(/%/, "", pct); \
		if (pct + 0 < floor + 0) { bad = 1; print "FAIL: " $$2 " coverage " pct "% below floor " floor "%" } \
	} \
	END { exit bad }'
