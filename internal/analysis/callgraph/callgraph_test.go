package callgraph

import (
	"strings"
	"testing"
)

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
		"Proc.Spawn", "Proc.Wait", "Proc.WaitUntil", "Proc.Sleep",
		"Chan.Send", "Chan.TrySend", "Chan.Recv", "Chan.TryRecv", "Chan.Close",
		"Chan.Poll", "Chan.Offer",
		"Resource.Acquire", "Resource.Release", "Resource.Use", "Resource.Claim",
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
		"Kernel.Now", "Kernel.Events", "Proc.Now", "Future.Done",
		"Chan.Len", "Chan.Closed", "Resource.Cap", "Resource.InUse",
		"Resource.Utilization",
		"Kernel.Run", "Kernel.Shutdown",
		"Kernel.schedule", "Kernel.wake", "pushWaiter",
	}
	for _, k := range mustNotHave {
		if sinks[k] {
			t.Errorf("sim sinks wrongly contains %s", k)
		}
	}
}

// TestMayParkSemantics pins the narrower park set blockhold consumes:
// operations whose wake requires another proc are in; self-waking timer
// waits and pure wake sources are out. Holding a Resource across a
// Proc.Wait is the modeled cost of Resource.Use — it must stay legal.
func TestMayParkSemantics(t *testing.T) {
	park, err := MayPark()
	if err != nil {
		t.Fatalf("deriving may-park set: %v", err)
	}
	sim := SimPkgPath + "."
	for _, k := range []string{
		"Resource.Acquire", "Resource.Use",
		"Chan.Send", "Chan.Recv",
		"Future.Get", "WaitGroup.Wait",
	} {
		if !park[sim+k] {
			t.Errorf("may-park missing %s%s", sim, k)
		}
	}
	for _, k := range []string{
		"Proc.Wait", "Proc.WaitUntil", "Proc.Sleep", // timer waits: the kernel wakes them
		"Chan.Poll", "Chan.Offer", "Resource.Claim", // enlist an engine, never park
		"Resource.Release", "Chan.TrySend", "Chan.TryRecv",
		"Future.Set", "WaitGroup.Done",
		"Kernel.At", "Kernel.After", "Kernel.Spawn", "Kernel.SpawnEngine",
	} {
		if park[sim+k] {
			t.Errorf("may-park wrongly contains %s%s", sim, k)
		}
	}
}

// TestMayParkCrossesPackages checks the set is module-wide, not
// sim-only: driver entry points that transitively Recv on reply channels
// or Acquire resources must be in it.
func TestMayParkCrossesPackages(t *testing.T) {
	park, err := MayPark()
	if err != nil {
		t.Fatalf("deriving may-park set: %v", err)
	}
	found := false
	for k := range park {
		if !strings.HasPrefix(k, SimPkgPath+".") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("may-park set contains no functions outside internal/sim")
	}
	for _, k := range []string{
		"dafsio/internal/dafs.Client.start",
		"dafsio/internal/mpi.Rank.Send",
		"dafsio/internal/mpi.Rank.Recv",
	} {
		if !park[k] {
			t.Errorf("may-park missing cross-package blocker %s", k)
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
	n := g.Nodes[SimPkgPath+".Resource.Acquire"]
	if n == nil {
		t.Fatal("no node for Resource.Acquire")
	}
	if !n.Calls[SimPkgPath+".Proc.park"] || !n.Calls[SimPkgPath+".Resource.Claim"] {
		t.Errorf("Resource.Acquire edges = %v, want Proc.park and Resource.Claim", n.Calls)
	}
	if n := g.Nodes[SimPkgPath+".Resource.Claim"]; n == nil || !n.Calls[SimPkgPath+".pushWaiter"] {
		t.Error("Resource.Claim has no edge to pushWaiter")
	}
	// Generic methods key by their origin receiver name.
	if g.Nodes[SimPkgPath+".Chan.Recv"] == nil {
		t.Error("generic method Chan.Recv not keyed by origin receiver")
	}
}
