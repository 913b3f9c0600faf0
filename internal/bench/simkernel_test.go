package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// kernelTestShape is a small load: big enough that every server drops
// requests in fault mode and clients span all three think-time scales,
// small enough to run in a unit test.
var kernelTestShape = KernelLoadConfig{Clients: 200, Servers: 8, Rounds: 4}

// TestKernelLoadFaultDeterministic: fault injection must be exactly as
// deterministic as the healthy load — two runs of the same faulty shape
// produce identical events, checksums, and timeout counts — and it must
// actually inject: timeouts fire, and the schedule digest diverges from
// the fault-free run of the same shape.
func TestKernelLoadFaultDeterministic(t *testing.T) {
	cfg := kernelTestShape
	cfg.Faults = 5
	a := RunKernelLoad(cfg)
	b := RunKernelLoad(cfg)
	if a.Events != b.Events || a.Checksum != b.Checksum || a.Timeouts != b.Timeouts {
		t.Fatalf("fault load nondeterministic: run A events=%d checksum=%x timeouts=%d, run B events=%d checksum=%x timeouts=%d",
			a.Events, a.Checksum, a.Timeouts, b.Events, b.Checksum, b.Timeouts)
	}
	if a.Timeouts == 0 {
		t.Fatal("Faults=5 load recorded no timeouts; injection is not reaching the clients")
	}
	want := int64(kernelTestShape.Clients * kernelTestShape.Rounds)
	if a.Replies != want {
		t.Fatalf("replies = %d, want %d (every round must eventually complete despite drops)", a.Replies, want)
	}
}

// TestKernelLoadFaultsZeroIsHealthy: Faults=0 must disable injection
// entirely — no timeouts, and a different digest than the faulty run
// (drops change the schedule, so equal checksums would mean the
// injection knob is dead).
func TestKernelLoadFaultsZeroIsHealthy(t *testing.T) {
	healthy := RunKernelLoad(kernelTestShape)
	if healthy.Timeouts != 0 {
		t.Fatalf("healthy load recorded %d timeouts, want 0", healthy.Timeouts)
	}
	want := int64(kernelTestShape.Clients * kernelTestShape.Rounds)
	if healthy.Replies != want {
		t.Fatalf("replies = %d, want %d", healthy.Replies, want)
	}
	cfg := kernelTestShape
	cfg.Faults = 5
	faulty := RunKernelLoad(cfg)
	if faulty.Checksum == healthy.Checksum {
		t.Fatal("faulty and healthy loads share a checksum; drops are not perturbing the schedule")
	}
}

// TestKernelLoadMatchesCommittedReport runs the default load and checks
// its schedule against BENCH_simkernel.json: same events, checksum,
// replies and final clock. Any change to dispatch order moves the
// checksum. It runs the full 10k-proc load, so -short and the race
// detector skip it.
func TestKernelLoadMatchesCommittedReport(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full 10k-proc kernel load")
	}
	raw, err := os.ReadFile("../../BENCH_simkernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Clients  int     `json:"clients"`
		Servers  int     `json:"servers"`
		Rounds   int     `json:"rounds"`
		Events   uint64  `json:"events"`
		SimSecs  float64 `json:"sim_seconds"`
		Replies  int64   `json:"replies"`
		Checksum uint64  `json:"checksum"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cfg := KernelLoadConfig{}.WithDefaults()
	if cfg.Clients != want.Clients || cfg.Servers != want.Servers || cfg.Rounds != want.Rounds {
		t.Fatalf("default shape %d/%d/%d, report %d/%d/%d", cfg.Clients, cfg.Servers, cfg.Rounds, want.Clients, want.Servers, want.Rounds)
	}
	got := RunKernelLoad(cfg)
	if got.Events != want.Events || got.Checksum != want.Checksum || got.Replies != want.Replies || got.SimTime.Seconds() != want.SimSecs {
		t.Fatalf("kernel load: events=%d checksum=%d replies=%d sim=%vs, report events=%d checksum=%d replies=%d sim=%vs",
			got.Events, got.Checksum, got.Replies, got.SimTime.Seconds(), want.Events, want.Checksum, want.Replies, want.SimSecs)
	}
}
