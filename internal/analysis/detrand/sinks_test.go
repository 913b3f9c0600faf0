package detrand

import "testing"

// TestDerivedSinks pins the semantics of the derivation against the live
// sim package: the known mutators must be in, and pure readers,
// constructors, and the run loop must be out. A new kernel mutator joins
// the sink set automatically; this test only breaks if the derivation
// itself regresses.
func TestDerivedSinks(t *testing.T) {
	sinks, err := simSinks()
	if err != nil {
		t.Fatalf("deriving sinks: %v", err)
	}
	mustHave := []string{
		// Event-queue mutators.
		"Kernel.At", "Kernel.After", "Kernel.AtEvent", "Kernel.AfterEvent",
		"Kernel.Spawn", "Kernel.SpawnDaemon", "Kernel.SpawnEngine",
		"Proc.Spawn", "Proc.Wait", "Proc.Sleep",
		// Wake sources.
		"Chan.Send", "Chan.TrySend", "Chan.Recv", "Chan.TryRecv", "Chan.Close",
		"Resource.Release", "Resource.Use", "Resource.UseFunc",
		"Credits.Acquire", "Credits.Release",
		"Future.Set",
		"WaitGroup.Add", "WaitGroup.Done",
		// Wait-list registration (park-FIFO position is order-sensitive).
		"Future.Get", "WaitGroup.Wait", "Chan.Poll", "Chan.Offer", "Resource.Claim",
	}
	for _, k := range mustHave {
		if !sinks[k] {
			t.Errorf("derived sinks missing %s", k)
		}
	}
	mustNotHave := []string{
		// Constructors and pool management.
		"Kernel.NewEvent", "Kernel.Reserve", "NewKernel", "NewChan", "NewResource",
		"Credits.Init",
		// Pure readers.
		"Kernel.Now", "Kernel.Events", "Kernel.Goroutines", "Proc.Now", "Future.Done",
		"Chan.Len", "Credits.InUse", "Resource.BusyTime",
		// The run loop consumes events; it does not schedule them.
		"Kernel.Run", "Kernel.Shutdown",
		// Unexported funnels must not leak into the exported set.
		"Kernel.schedule", "Kernel.wake", "pushWaiter",
	}
	for _, k := range mustNotHave {
		if sinks[k] {
			t.Errorf("derived sinks wrongly contains %s", k)
		}
	}
}
