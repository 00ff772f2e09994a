# itpsim build/test/benchmark targets. Everything is plain `go` — the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build test vet lint staticcheck govulncheck race check cover-check fuzz-smoke race-matrix chaos equiv sample-equiv bench-figures results quick-results clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# itpvet: the repo's own analysis suite (internal/lint). Runs both drive
# paths so neither rots: the standalone loader and the `go vet -vettool`
# unitchecker protocol. The standalone pass prints per-analyzer wall time
# and fails over LINT_BUDGET, so the interprocedural passes (call graph,
# fact propagation) cannot silently bloat `make check`; CI pins the same
# budget.
LINT_BUDGET ?= 10s

lint:
	$(GO) build -o bin/itpvet ./cmd/itpvet
	./bin/itpvet -timing -budget $(LINT_BUDGET) ./...
	$(GO) vet -vettool=$(CURDIR)/bin/itpvet ./...

# Pinned third-party analyzer versions; CI installs these exact versions.
# Locally the targets are no-ops when the tool is not on PATH (this repo
# builds offline), so `make check` works in a network-less sandbox.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not on PATH; skipping (CI pins $(STATICCHECK_VERSION))" ; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not on PATH; skipping (CI pins $(GOVULNCHECK_VERSION))" ; \
	fi

# Vet + the whole suite under the race detector. The race suite already
# runs the chaos battery and the equiv and sample-equiv batteries at CI
# scale, so CI has no separate job for them; the targets below are local
# shortcuts (equiv and sample-equiv at full scale, which CI's equiv job
# also runs for the sharding battery).
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Full gate: itpvet + optional third-party analyzers + race. CI runs the
# analyzers in its lint job and `make race` in its check job, so each
# runs once there.
check: lint staticcheck govulncheck race

# Per-package coverage floors (scripts/coverage_floors.tsv).
cover-check:
	sh scripts/check_coverage.sh

# Race-detector matrix over the concurrent surface the machineown/
# goroutinelife/lockscope analyzers guard statically: sharded runs, the
# sampling pre-pass, the supervisor, the decode-ahead ring, and the
# metrics window sampler. -count=2 reruns each test so per-run state (pools,
# rings, checkpoints) is exercised twice under the detector.
race-matrix:
	$(GO) test -race -count=2 ./internal/shard ./internal/sample ./internal/harness ./internal/workload ./internal/metrics

# Short fuzz pass over the parsers that read untrusted bytes — the trace
# decoder and the checkpoint-journal recovery path — plus the stream
# split/clone equivalence property that sharding rests on (CI smoke).
fuzz-smoke:
	$(GO) test -run FuzzReader -fuzz FuzzReader -fuzztime 10s ./internal/trace
	$(GO) test -run FuzzCheckpointReader -fuzz FuzzCheckpointReader -fuzztime 10s ./internal/harness
	$(GO) test -run FuzzSplitEquivalence -fuzz FuzzSplitEquivalence -fuzztime 10s ./internal/workload

# Fault-injection battery: every chaos fault class driven through the real
# simulator and supervision stack under the race detector. Each scenario
# must recover with the fault-free beacon chain or fail with a structured
# error naming the injected fault.
chaos:
	$(GO) test -race -count=1 -run TestBattery ./internal/chaos

# Differential-equivalence battery at the issue's full scale: 8-shard
# 2M-instruction runs across all four policy quadrants, checked against
# the serial reference within the declared bounds (DESIGN.md §12), plus
# the beacon-chain-exact 1-shard degenerate case — all under the race
# detector.
equiv:
	ITPSIM_EQUIV_SCALE=full $(GO) test -race -count=1 -run 'TestDifferentialEquivalence|TestOneShardExact' ./internal/shard

# Sampled-run equivalence battery at full scale: 8-phase 2M-instruction
# sampled runs with functional warmup across all four policy quadrants,
# checked against the serial reference within the declared error bounds
# (DESIGN.md §14), plus the zero-skip K=1 degenerate case which must be
# beacon-chain-exact — all under the race detector.
sample-equiv:
	ITPSIM_SAMPLE_SCALE=full $(GO) test -race -count=1 -run 'TestSampledEquivalence|TestOnePhaseExact' ./internal/sample

# One pass of every figure bench. Performance is measured with bench/
# (bench/README.md), not with these.
bench-figures:
	$(GO) test -bench 'Fig' -benchtime 1x .

# Regenerate every paper figure at full default scale (minutes).
results:
	$(GO) run ./cmd/itpbench -fig all | tee results_full.txt

# Smoke-scale pass over every figure (~a minute).
quick-results:
	$(GO) run ./cmd/itpbench -fig all -scale quick

clean:
	$(GO) clean ./...
