# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates.

GO ?= go

.PHONY: build test race lint fmt faults t17 t19 bench bench-e2e stat all

all: build test race lint faults

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the stock vet suite plus mpiolint, the repo's own invariant
# checkers (simtime, detrand, regmem, errwrap, blockhold, pairleak — see
# DESIGN.md §7 and §12).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mpiolint ./...

# faults runs the fault-injection and failover suite under the race
# detector: the fault package itself, session recovery (timeout, redial,
# backoff), replica placement, driver failover, and the faulted T16
# determinism replay.
faults:
	$(GO) test -race ./internal/fault/ ./internal/layout/
	$(GO) test -race -run 'TestClose|TestCallTimeout|TestRedial|TestRetryPolicy|TestSession|TestDrain|TestStaleEpoch|TestUnfenced' ./internal/dafs/
	$(GO) test -race -run 'TestReplicated|TestFailover|TestReadAny|TestUnreplicated|TestStripedBatch|TestStripedWriteSurvives|TestRedialAlone|TestReadmission|TestHeal|TestReshape|TestFaultStorm' ./internal/mpiio/
	$(GO) test -race -run 'TestT16' ./internal/bench/

# t19 runs the elastic-membership suite: epoch fencing and drain on the
# server, versioned layout properties, the re-silver/re-admission and
# reshape protocols (including the crash+restart+join fault storm under
# the race detector), and the T19 experiment's outcome and determinism
# assertions.
t19:
	$(GO) test -race -run 'TestDrain|TestStaleEpoch|TestUnfenced' ./internal/dafs/
	$(GO) test -race -run 'TestEpochName|TestDiff' ./internal/layout/
	$(GO) test -race -run 'TestRedialAlone|TestReadmission|TestHeal|TestReshape|TestFaultStorm|TestStripedNFS' ./internal/mpiio/
	$(GO) test -run 'TestT19|TestT15N' ./internal/bench/

# t17 runs the stripe-aware aggregation suite: the planner's property
# tests (permutation, domain tiling), the striped batch path, and the T17
# trace assertions (each aggregator touches exactly one server).
t17:
	$(GO) test ./internal/aggregate/
	$(GO) test -run 'TestStriped.*Batch|TestStripedWidth1' ./internal/mpiio/
	$(GO) test -run 'TestT17' ./internal/bench/

# bench measures the simulator kernel on the 10k-proc synthetic load and
# verifies the run against the committed BENCH_simkernel.json (exact
# determinism, events/sec within 20%).
bench:
	$(GO) run ./cmd/simbench -check BENCH_simkernel.json -tolerance 0.20

# bench-e2e runs the repository's end-to-end benchmark (benchmark/README.md:
# six workloads, reps in fresh child processes, tracing off) into
# benchmark/out and compares it with a saved run of the parent commit; any
# `worse` row fails. Save that run first, from a checkout of the parent:
#   go run ./benchmark -trace 0 -out <dir>     (BENCH_BASE=<dir>/results.json)
BENCH_BASE ?= benchmark/out/parent/results.json
bench-e2e:
	@test -f $(BENCH_BASE) || { echo "bench-e2e: no parent run at $(BENCH_BASE) (see the comment above this target)"; exit 2; }
	$(GO) run ./benchmark -trace 0 -out benchmark/out
	$(GO) run ./benchmark -compare $(BENCH_BASE) benchmark/out/results.json

# stat re-runs the T16 failover experiment through the always-on metrics
# plane: per-interval bandwidth and failover-state series (the kill, the
# retry spike, the replica exclusion, the recovery) plus the flight
# recorder's postmortem dumps.
stat:
	$(GO) run ./cmd/mpio stat T16

fmt:
	gofmt -s -w .
