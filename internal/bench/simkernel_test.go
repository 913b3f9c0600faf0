package bench

import "testing"

// TestKernelLoadMatchesCommittedReport runs the default 10,000 × 100 × 30
// load and checks its schedule against the figures recorded for it: same
// events, checksum, replies and final clock. Any change to dispatch order
// moves the checksum. It runs the full 10k-proc load, so -short and the
// race detector skip it.
func TestKernelLoadMatchesCommittedReport(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full 10k-proc kernel load")
	}
	const (
		events   = 2277314
		checksum = 11156376870604814266
		replies  = 300000
		simSecs  = 2.000099001
	)
	got := RunKernelLoad(KernelLoadConfig{})
	if got.Events != events || got.Checksum != checksum || got.Replies != replies || got.SimTime.Seconds() != simSecs {
		t.Fatalf("kernel load: events=%d checksum=%d replies=%d sim=%vs, recorded events=%d checksum=%d replies=%d sim=%vs",
			got.Events, got.Checksum, got.Replies, got.SimTime.Seconds(), events, uint64(checksum), replies, simSecs)
	}
}
