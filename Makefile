GO ?= go

# Every test invocation carries an explicit wall-clock ceiling: a hung
# campaign (the exact failure mode the stall watchdog exists for) fails the
# suite with goroutine dumps instead of wedging make or CI forever.
TEST_TIMEOUT ?= 10m

.PHONY: build test vet lint arestlint race check bench bench-json fuzz experiments-output

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# Formatting is part of vet: any tracked .go file outside testdata/ that
# gofmt would rewrite fails the target (CI runs it).
vet:
	$(GO) vet ./...
	@unformatted="$$(git ls-files '*.go' | grep -Ev '(^|/)testdata/' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# Race-enabled suite: includes the concurrent netsim.Send stress test and
# the parallel-vs-sequential campaign equivalence tests.
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# Static analysis beyond vet. arestlint (the in-tree determinism-contract
# checker, DESIGN.md §10) always runs — it needs no external install.
# staticcheck/govulncheck skip gracefully when not on PATH locally; CI
# installs both (see .github/workflows/ci.yml).
lint: arestlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# Machine-checked contracts: the nine analyzers of internal/lint/rules
# (determinism, error accounting, mergeable folds, hot-path allocation,
# lock copies, atomic mixing) over every package including _test.go files
# (stdlib-only, exits non-zero on any finding or unjustified suppression).
arestlint:
	$(GO) run ./cmd/arestlint -tests ./...

# CI entry point.
check: vet lint race

# Full benchmark sweep: every package, with allocation columns — the
# wire-path allocation budgets (DESIGN.md §11) are regression-gated by
# tests, but the B/op and allocs/op columns here are the numbers to watch.
bench:
	$(GO) test -run 'Benchmark' -bench . -benchmem -timeout $(TEST_TIMEOUT) ./...

# Machine-readable baseline: records the sweep into BENCH (default
# BENCH_8.json) under LABEL (default "post"), replacing any previous run
# with the same label.
# Compare runs with: jq '.runs[] | {label, probe: (.results[] | select(.name=="BenchmarkProbe"))}' BENCH_8.json
LABEL ?= post
BENCH ?= BENCH_8.json
bench-json:
	$(GO) test -run 'Benchmark' -bench . -benchmem -timeout $(TEST_TIMEOUT) ./... | $(GO) run ./cmd/benchjson -label $(LABEL) -o $(BENCH)

# The committed transcript every number in EXPERIMENTS.md was read from.
# The campaign is fully seeded, so this is byte-reproducible; CI regenerates
# it and fails on drift (stale-artifact check).
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt

# Short fuzz passes over the archive decoders: the container reader, the
# trace codec against encoding/json in both directions, and the streaming
# fold behind a valid checksum. go test fuzzes one target per invocation.
fuzz:
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/archive -run xxx -fuzz FuzzReadArchive -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/archive -run xxx -fuzz FuzzTraceRecordDecode -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/archive -run xxx -fuzz FuzzTraceRecordEncode -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/exp -run xxx -fuzz FuzzDetectStream -fuzztime 30s
