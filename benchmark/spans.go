package main

import (
	"time"

	"dafsio/internal/sim"
)

// span is one timed interval recorded by the benchmark's own files around a
// call into a layer's public API. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a root). Both clocks are
// kept: simulated nanoseconds, and host nanoseconds since the recorder
// started.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Req       int    `json:"req"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
}

// simDur is the span's simulated duration.
func (s span) simDur() sim.Time { return sim.Time(s.SimEnd - s.SimStart) }

// spanRecorder keeps spans in memory; they are written out when the
// benchmark ends. A recorder that is off records nothing and costs nothing.
type spanRecorder struct {
	on    bool
	epoch time.Time
	spans []span
}

// open starts a span and returns its ID (0 when the recorder is off).
func (r *spanRecorder) open(name, layer string, parent, req int, now sim.Time) int {
	if !r.on {
		return 0
	}
	if r.epoch.IsZero() {
		r.epoch = time.Now()
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		SimStart: int64(now), SimEnd: -1, HostStart: int64(time.Since(r.epoch)), HostEnd: -1,
	})
	return id
}

// end closes the span.
func (r *spanRecorder) end(id int, now sim.Time) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.SimEnd, s.HostEnd = int64(now), int64(time.Since(r.epoch))
}

// begin opens the span of one MPI-IO call of a workload; the request ID
// packs the client and the call.
func (r *spanRecorder) begin(workload, label string, write bool, client, call int, now sim.Time) int {
	if !r.on {
		return 0
	}
	dir := "read"
	if write {
		dir = "write"
	}
	return r.open(workload+"/"+label+"/"+dir, "mpiio", 0, client<<20|call, now)
}
