// Package fault provides deterministic fault injection for the simulated
// cluster: a Plan is a schedule of events pinned to simulated time (server
// crash, NIC stall, dropped or duplicated wire cell, slow disk), and an
// Injector evaluates that schedule against one kernel. Because every event
// fires at a fixed virtual instant and all injector state changes happen
// through kernel events, any experiment runs under any fault schedule
// byte-reproducibly — the property the failover tests pin.
//
// The package mirrors how internal/trace is wired: it depends only on the
// simulation kernel, cluster installs an Injector through Config.Faults
// (exactly like Config.Tracer), and the VIA layer consults it on the cell
// transmit path through nil-safe methods, so a cluster without faults pays
// nothing and behaves bit-for-bit as before.
package fault

import (
	"fmt"
	"sort"

	"dafsio/internal/sim"
)

// Kind identifies a fault class.
type Kind int

// Fault kinds. ServerCrash, ServerRestart, and SlowDisk target components
// and are wired by the cluster (the injector only schedules them);
// NICStall, DropCell, and DupCell target the wire and are consulted by the
// VIA transmit path.
const (
	// ServerCrash fail-stops the node at Event.At: its NIC transmits and
	// receives nothing from then on, and its DAFS server rejects new
	// sessions and services nothing. A crashed node stays down until a
	// ServerRestart re-admits it; in the meantime recovery is the client's
	// job (redial, replica failover).
	ServerCrash Kind = iota
	// NICStall pauses the node's NIC transmit engine for Event.Dur starting
	// at Event.At; queued cells drain when the stall window closes.
	NICStall
	// DropCell discards the next Event.Count data-bearing cells the node
	// transmits at or after Event.At. A dropped cell loses its whole
	// message (no delivery, no ack), which the sender's session surfaces as
	// a timeout — the model's stand-in for a reliability-level connection
	// break. Acks are never dropped: loss always surfaces at message grain.
	DropCell
	// DupCell transmits the next Event.Count data-bearing cells twice. The
	// receiver's reliable layer discards the duplicate after paying its
	// wire occupancy, so duplication costs bandwidth but never corrupts.
	DupCell
	// SlowDisk multiplies the node disk's service time by Event.Factor for
	// Event.Dur starting at Event.At.
	SlowDisk
	// ServerRestart power-cycles a crashed node at Event.At: the NIC
	// transmits and receives again and the DAFS server is re-admitted with
	// an empty session table — every pre-crash session is gone and stale
	// use of one surfaces ErrSession, but the store (all durably written
	// data) survives intact. Clients must redial; re-silvering a replica
	// that missed writes stays the client's job.
	ServerRestart
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ServerCrash:
		return "server-crash"
	case NICStall:
		return "nic-stall"
	case DropCell:
		return "drop-cell"
	case DupCell:
		return "dup-cell"
	case SlowDisk:
		return "slow-disk"
	case ServerRestart:
		return "server-restart"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the simulated instant the fault begins. It must be positive:
	// the cluster is assembled at time zero and events fire strictly after.
	At sim.Time
	// Kind selects the fault class.
	Kind Kind
	// Node names the target node ("server", "server1", "client0", ...).
	Node string
	// Dur is the window length for NICStall and SlowDisk.
	Dur sim.Time
	// Count is how many cells DropCell/DupCell affect (default 1).
	Count int
	// Factor is SlowDisk's service-time multiplier (>= 1).
	Factor float64
}

// Plan is a fault schedule: a set of events, not necessarily ordered.
type Plan struct {
	Events []Event
}

// Validate checks every event for usability.
func (pl Plan) Validate() error {
	for i, ev := range pl.Events {
		if ev.At <= 0 {
			return fmt.Errorf("fault: event %d: At %v must be positive", i, ev.At)
		}
		if ev.Node == "" {
			return fmt.Errorf("fault: event %d: empty node name", i)
		}
		switch ev.Kind {
		case ServerCrash, ServerRestart:
		case NICStall:
			if ev.Dur <= 0 {
				return fmt.Errorf("fault: event %d: stall needs a positive Dur", i)
			}
		case DropCell, DupCell:
			if ev.Count < 0 {
				return fmt.Errorf("fault: event %d: negative Count", i)
			}
		case SlowDisk:
			if ev.Dur <= 0 {
				return fmt.Errorf("fault: event %d: slow-disk needs a positive Dur", i)
			}
			if ev.Factor < 1 {
				return fmt.Errorf("fault: event %d: slow-disk factor %g < 1", i, ev.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// window is a closed-open stall interval.
type window struct {
	from, to sim.Time
}

// budget is a consumable cell-fault allowance armed at a fixed instant.
type budget struct {
	at        sim.Time
	remaining int
}

// Injector evaluates a plan against one kernel. All mutable state is
// consumed in simulated-event order, so two runs of the same plan make
// identical per-cell decisions.
type Injector struct {
	k      *sim.Kernel
	events []Event // validated, sorted by (At, original index)

	stalls map[string][]window
	drops  map[string][]*budget
	dups   map[string][]*budget
}

// New builds an injector for the plan on the kernel. The plan must
// validate; experiments treat a bad schedule as a configuration bug.
func New(k *sim.Kernel, pl Plan) *Injector {
	if err := pl.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{
		k:      k,
		events: append([]Event(nil), pl.Events...),
		stalls: make(map[string][]window),
		drops:  make(map[string][]*budget),
		dups:   make(map[string][]*budget),
	}
	sort.SliceStable(in.events, func(i, j int) bool { return in.events[i].At < in.events[j].At })
	for _, ev := range in.events {
		switch ev.Kind {
		case NICStall:
			in.stalls[ev.Node] = append(in.stalls[ev.Node], window{from: ev.At, to: ev.At + ev.Dur})
		case DropCell:
			in.drops[ev.Node] = append(in.drops[ev.Node], &budget{at: ev.At, remaining: countOf(ev)})
		case DupCell:
			in.dups[ev.Node] = append(in.dups[ev.Node], &budget{at: ev.At, remaining: countOf(ev)})
		}
	}
	return in
}

func countOf(ev Event) int {
	if ev.Count == 0 {
		return 1
	}
	return ev.Count
}

// Installer adapts a plan to the cluster hook signature, mirroring how
// trace.New slots into Config.Tracer:
//
//	cfg.Faults = fault.Installer(plan)
func Installer(pl Plan) func(*sim.Kernel) *Injector {
	if err := pl.Validate(); err != nil {
		panic(err)
	}
	return func(k *sim.Kernel) *Injector { return New(k, pl) }
}

// Events returns the schedule sorted by time — the component-level events
// (ServerCrash, SlowDisk) the cluster wires to nodes.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	return in.events
}

// StallUntil reports the end of the stall window covering now for the
// node's NIC, or zero when the NIC is free to transmit. Overlapping windows
// extend each other.
func (in *Injector) StallUntil(node string, now sim.Time) sim.Time {
	if in == nil {
		return 0
	}
	var until sim.Time
	for {
		extended := false
		for _, w := range in.stalls[node] {
			t := max(now, until)
			if w.from <= t && t < w.to && w.to > until {
				until = w.to
				extended = true
			}
		}
		if !extended {
			return until
		}
	}
}

// TxVerdict decides the fate of one data-bearing cell the node is about to
// transmit at now: dropped, duplicated, or passed through. Budgets armed at
// or before now are consumed in schedule order; the single-threaded kernel
// makes the consumption order — and therefore the victim cells — identical
// across runs.
func (in *Injector) TxVerdict(node string, now sim.Time) (drop, dup bool) {
	if in == nil {
		return false, false
	}
	if consume(in.drops[node], now) {
		return true, false
	}
	return false, consume(in.dups[node], now)
}

func consume(budgets []*budget, now sim.Time) bool {
	for _, b := range budgets {
		if b.at <= now && b.remaining > 0 {
			b.remaining--
			return true
		}
	}
	return false
}
