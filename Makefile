# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# gates.

GO ?= go

.PHONY: build test race lint fmt bench-e2e evaluation stat loc all

all: build test race lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the stock vet suite plus mpiolint, the repo's own invariant
# checkers (simtime, detrand, errwrap, blockhold, reach — see DESIGN.md
# §7 and §12).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mpiolint ./...

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

# stat re-runs the T16 failover experiment with the metrics plane
# installed: per-interval bandwidth and failover-state series (the kill,
# the retry spike, the replica exclusion, the recovery).
stat:
	$(GO) run ./cmd/mpio stat T16

# loc prints the size measure ROADMAP.md tracks: lines of non-test Go
# under internal/, cmd/ and examples/, testdata excluded.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l

fmt:
	gofmt -s -w .
