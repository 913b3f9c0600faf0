package metrics

// The flight recorder: each component keeps a small bounded ring of its
// most recent annotated events — the last N DAFS calls, retries, redials,
// credit waits — written with two integer stores and no allocation, so it
// costs near-zero while everything is healthy. When something goes wrong
// (a call timeout, every replica down, an injected fault) the ring is
// dumped into the registry's bounded postmortem list: the context a full
// tracer would give, without full-tracing overhead.

import "dafsio/internal/sim"

// FlightEvent is one annotated entry in a flight ring. Kind and Op must
// be static strings (no fmt on the hot path); Arg and Aux carry
// event-specific integers (an xid, a byte count, a wait duration).
type FlightEvent struct {
	At   sim.Time
	Kind string
	Op   string
	Arg  int64
	Aux  int64
}

// Flight is one component's ring. A nil *Flight is valid and inert, the
// instrument convention of this package.
type Flight struct {
	name string
	reg  *Registry
	buf  []FlightEvent
	n    uint64 // total events ever noted; buf[(n-1)%len] is the newest
}

// FlightDump is one postmortem snapshot: a ring's surviving events, in
// chronological order, with the reason and instant of the dump.
type FlightDump struct {
	Ring   string
	Reason string
	At     sim.Time
	Total  uint64 // events noted into the ring over its lifetime
	Events []FlightEvent
}

// flightDepth is the number of events a ring keeps.
const flightDepth = 32

// Flight returns the named ring, creating it on first use. Like shared
// instruments it is get-or-create — a redialed session keeps appending to
// its node's existing ring.
func (r *Registry) Flight(name string) *Flight {
	if r == nil {
		return nil
	}
	if f, ok := r.flights[name]; ok {
		return f
	}
	f := &Flight{name: name, reg: r, buf: make([]FlightEvent, flightDepth)}
	r.flights[name] = f
	return f
}

// Note appends one event to the ring, overwriting the oldest.
func (f *Flight) Note(at sim.Time, kind, op string, arg, aux int64) {
	if f == nil {
		return
	}
	f.buf[f.n%uint64(len(f.buf))] = FlightEvent{At: at, Kind: kind, Op: op, Arg: arg, Aux: aux}
	f.n++
}

// Dump snapshots the ring into the registry's postmortem list. Empty
// rings dump nothing; once the list is full further dumps are counted
// and dropped (a timeout storm must not grow memory without bound).
func (f *Flight) Dump(reason string) {
	if f == nil || f.n == 0 {
		return
	}
	r := f.reg
	if len(r.dumps) >= r.maxDumps {
		r.dropped++
		return
	}
	depth := uint64(len(f.buf))
	count := f.n
	if count > depth {
		count = depth
	}
	evs := make([]FlightEvent, 0, count)
	for i := f.n - count; i < f.n; i++ {
		evs = append(evs, f.buf[i%depth])
	}
	r.dumps = append(r.dumps, FlightDump{
		Ring:   f.name,
		Reason: reason,
		At:     r.k.Now(),
		Total:  f.n,
		Events: evs,
	})
}

// DumpAll snapshots every non-empty ring, in sorted ring-name order so
// the postmortem list is deterministic. Used by fault injection: an
// injected event dumps the whole fleet's recent context.
func (r *Registry) DumpAll(reason string) {
	if r == nil {
		return
	}
	for _, name := range sortedFlightNames(r) {
		r.flights[name].Dump(reason)
	}
}

// Dumps returns the postmortem list, oldest first.
func (r *Registry) Dumps() []FlightDump {
	if r == nil {
		return nil
	}
	return r.dumps
}

// DroppedDumps returns how many dumps were discarded after the
// postmortem list filled.
func (r *Registry) DroppedDumps() int {
	if r == nil {
		return 0
	}
	return r.dropped
}
