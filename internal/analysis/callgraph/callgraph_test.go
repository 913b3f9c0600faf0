package callgraph

import "testing"

// TestSimSinksGolden pins the may-block derivation over the live sim
// package against the sink list detrand derived before this package
// existed (internal/analysis/detrand/sinks_test.go): known mutators in,
// readers/constructors/run-loop out. The two tests must agree — detrand
// now consumes this derivation.
func TestSimSinksGolden(t *testing.T) {
	sinks, err := SimSinks()
	if err != nil {
		t.Fatalf("deriving sinks: %v", err)
	}
	mustHave := []string{
		"Kernel.At", "Kernel.After", "Kernel.AtEvent", "Kernel.AfterEvent",
		"Kernel.Spawn", "Kernel.SpawnDaemon", "Kernel.SpawnEngine",
		"Proc.Spawn", "Proc.Wait", "Proc.Sleep",
		"Chan.Send", "Chan.TrySend", "Chan.Recv", "Chan.TryRecv", "Chan.Close",
		"Chan.Poll", "Chan.Offer",
		"Resource.Release", "Resource.Use", "Resource.UseFunc", "Resource.Claim",
		"Credits.Acquire", "Credits.Release",
		"Future.Set",
		"WaitGroup.Add", "WaitGroup.Done",
		"Future.Get", "WaitGroup.Wait",
	}
	for _, k := range mustHave {
		if !sinks[k] {
			t.Errorf("sim sinks missing %s", k)
		}
	}
	mustNotHave := []string{
		"Kernel.NewEvent", "Kernel.Reserve", "NewKernel", "NewChan", "NewResource",
		"Credits.Init",
		"Kernel.Now", "Kernel.Events", "Proc.Now", "Future.Done",
		"Chan.Len", "Credits.InUse", "Resource.BusyTime",
		"Kernel.Run", "Kernel.Shutdown",
		"Kernel.schedule", "Kernel.wake", "pushWaiter",
	}
	for _, k := range mustNotHave {
		if sinks[k] {
			t.Errorf("sim sinks wrongly contains %s", k)
		}
	}
}

// TestModuleGraphShape sanity-checks node keys and edges on the live
// module graph.
func TestModuleGraphShape(t *testing.T) {
	g, err := Module()
	if err != nil {
		t.Fatalf("loading module graph: %v", err)
	}
	n := g.Nodes[SimPkgPath+".fifo.acquire"]
	if n == nil {
		t.Fatal("no node for fifo.acquire")
	}
	if !n.Calls[SimPkgPath+".Proc.park"] || !n.Calls[SimPkgPath+".fifo.claim"] {
		t.Errorf("fifo.acquire edges = %v, want Proc.park and fifo.claim", n.Calls)
	}
	if n := g.Nodes[SimPkgPath+".fifo.claim"]; n == nil || !n.Calls[SimPkgPath+".pushWaiter"] {
		t.Error("fifo.claim has no edge to pushWaiter")
	}
	// Generic methods key by their origin receiver name.
	if g.Nodes[SimPkgPath+".Chan.Recv"] == nil {
		t.Error("generic method Chan.Recv not keyed by origin receiver")
	}
}
