# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates.

GO ?= go

.PHONY: build test race lint fmt bench bench-e2e evaluation stat all

all: build test race lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the stock vet suite plus mpiolint, the repo's own invariant
# checkers (simtime, detrand, errwrap, blockhold — see DESIGN.md §7 and
# §12).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mpiolint ./...

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

# evaluation regenerates every table, T18 included (about 37 s and a peak
# near 1.1 GB on 2 cores), and diffs the output against the committed
# results.txt. CI's evaluation job runs the same diff and also fails above
# 3 GB maximum RSS.
evaluation:
	$(GO) run ./cmd/mpio run -q | diff results.txt -

# stat re-runs the T16 failover experiment through the always-on metrics
# plane: per-interval bandwidth and failover-state series (the kill, the
# retry spike, the replica exclusion, the recovery) plus the flight
# recorder's postmortem dumps.
stat:
	$(GO) run ./cmd/mpio stat T16

fmt:
	gofmt -s -w .
