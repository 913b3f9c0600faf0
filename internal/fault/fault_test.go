package fault

import (
	"strings"
	"testing"

	"dafsio/internal/sim"
)

func TestPlanValidate(t *testing.T) {
	good := Plan{Events: []Event{
		{At: sim.Millisecond, Kind: ServerCrash, Node: "server"},
		{At: sim.Millisecond, Kind: NICStall, Node: "client0", Dur: sim.Microsecond},
		{At: sim.Millisecond, Kind: DropCell, Node: "server"},
		{At: sim.Millisecond, Kind: DupCell, Node: "server", Count: 3},
		{At: sim.Millisecond, Kind: SlowDisk, Node: "server", Dur: sim.Millisecond, Factor: 4},
		{At: 2 * sim.Millisecond, Kind: ServerRestart, Node: "server"},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		ev   Event
	}{
		{"zero At", Event{Kind: ServerCrash, Node: "server"}},
		{"negative At", Event{At: -1, Kind: ServerCrash, Node: "server"}},
		{"empty node", Event{At: 1, Kind: ServerCrash}},
		{"stall without Dur", Event{At: 1, Kind: NICStall, Node: "n"}},
		{"negative drop count", Event{At: 1, Kind: DropCell, Node: "n", Count: -1}},
		{"slow disk without Dur", Event{At: 1, Kind: SlowDisk, Node: "n", Factor: 2}},
		{"slow disk speedup", Event{At: 1, Kind: SlowDisk, Node: "n", Dur: 1, Factor: 0.5}},
		{"unknown kind", Event{At: 1, Kind: Kind(99), Node: "n"}},
	} {
		if err := (Plan{Events: []Event{tc.ev}}).Validate(); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		ServerCrash:   "server-crash",
		NICStall:      "nic-stall",
		DropCell:      "drop-cell",
		DupCell:       "dup-cell",
		SlowDisk:      "slow-disk",
		ServerRestart: "server-restart",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown kind string %q", got)
	}
}

// TestInjectorEventsSorted: Events() returns the schedule in time order
// regardless of plan order (the cluster wires component faults from it).
func TestInjectorEventsSorted(t *testing.T) {
	in := New(sim.NewKernel(), Plan{Events: []Event{
		{At: 3 * sim.Millisecond, Kind: ServerCrash, Node: "late"},
		{At: sim.Millisecond, Kind: ServerCrash, Node: "early"},
		{At: 2 * sim.Millisecond, Kind: ServerCrash, Node: "mid"},
	}})
	got := in.Events()
	if got[0].Node != "early" || got[1].Node != "mid" || got[2].Node != "late" {
		t.Fatalf("events not time-sorted: %+v", got)
	}
}

// TestStallUntil: windows cover [from, from+Dur); overlapping windows
// extend each other (a transmit stalled to the end of one window that
// lands inside another stays stalled to the later end).
func TestStallUntil(t *testing.T) {
	ms := sim.Millisecond
	in := New(sim.NewKernel(), Plan{Events: []Event{
		{At: 2 * ms, Kind: NICStall, Node: "n", Dur: 2 * ms},  // [2,4)
		{At: 3 * ms, Kind: NICStall, Node: "n", Dur: 3 * ms},  // [3,6) — overlaps, extends
		{At: 10 * ms, Kind: NICStall, Node: "n", Dur: 1 * ms}, // [10,11) — separate
	}})
	for _, tc := range []struct {
		now  sim.Time
		want sim.Time
	}{
		{1 * ms, 0},      // before any window
		{2 * ms, 6 * ms}, // first window chains into the second
		{5 * ms, 6 * ms}, // inside the second only
		{6 * ms, 0},      // closed-open: free at the boundary
		{10 * ms, 11 * ms},
		{20 * ms, 0},
	} {
		if got := in.StallUntil("n", tc.now); got != tc.want {
			t.Errorf("StallUntil(n, %v) = %v, want %v", tc.now, got, tc.want)
		}
	}
	if got := in.StallUntil("other", 2*ms); got != 0 {
		t.Errorf("unlisted node stalled until %v", got)
	}
}

// TestTxVerdictBudgets: drop/dup budgets arm at their instant and are
// consumed once per affected cell, in schedule order; drops win over dups.
func TestTxVerdictBudgets(t *testing.T) {
	ms := sim.Millisecond
	in := New(sim.NewKernel(), Plan{Events: []Event{
		{At: 1 * ms, Kind: DropCell, Node: "n", Count: 2},
		{At: 1 * ms, Kind: DupCell, Node: "n"}, // Count 0 means 1
	}})
	if drop, dup := in.TxVerdict("n", 0); drop || dup {
		t.Fatal("verdict before the arm instant")
	}
	for i := 0; i < 2; i++ {
		if drop, _ := in.TxVerdict("n", 1*ms); !drop {
			t.Fatalf("cell %d: drop budget not consumed", i)
		}
	}
	if drop, dup := in.TxVerdict("n", 2*ms); drop || !dup {
		t.Fatalf("after drops: drop=%v dup=%v, want the dup", drop, dup)
	}
	if drop, dup := in.TxVerdict("n", 3*ms); drop || dup {
		t.Fatal("budgets exhausted but verdict still firing")
	}
}

// TestNilInjectorIsInert: the nil-safe surface the hot paths rely on.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Events() != nil {
		t.Error("nil Events")
	}
	if in.StallUntil("n", sim.Millisecond) != 0 {
		t.Error("nil StallUntil")
	}
	if drop, dup := in.TxVerdict("n", sim.Millisecond); drop || dup {
		t.Error("nil TxVerdict")
	}
}

// TestNewRejectsInvalidPlan: a bad schedule is a configuration bug.
func TestNewRejectsInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid plan")
		}
	}()
	New(sim.NewKernel(), Plan{Events: []Event{{Kind: ServerCrash, Node: "n"}}})
}
