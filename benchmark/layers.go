package main

import (
	"fmt"
	"strings"

	"dafsio/internal/aggregate"
	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// snapshot is the state of the cluster's cumulative counters at one
// simulated instant; the timed window is the difference of two.
type snapshot struct {
	clientCPU, serverCPU sim.Time
	serverBytes          int64 // payload bytes through the server NICs, both directions
	fabricBytes          int64 // wire bytes, every frame
	nics                 via.Stats
}

func takeSnapshot(c *cluster.Cluster) snapshot {
	var s snapshot
	for _, n := range c.ClientNodes {
		s.clientCPU += n.CPU.BusyTime()
	}
	for _, n := range c.ServerNodes {
		s.serverCPU += n.CPU.BusyTime()
	}
	add := func(st via.Stats) {
		s.nics.SendsPosted += st.SendsPosted
		s.nics.RDMAWrites += st.RDMAWrites
		s.nics.RDMAReads += st.RDMAReads
		s.nics.BytesOut += st.BytesOut
	}
	for _, nic := range c.NICs {
		add(nic.Stats())
	}
	for _, srv := range c.DAFSSrvs {
		st := srv.NIC().Stats()
		add(st)
		s.serverBytes += st.BytesIn + st.BytesOut
	}
	s.fabricBytes = c.Fab.BytesSent()
	return s
}

func (s snapshot) sub(o snapshot) snapshot {
	s.clientCPU -= o.clientCPU
	s.serverCPU -= o.serverCPU
	s.serverBytes -= o.serverBytes
	s.fabricBytes -= o.fabricBytes
	s.nics.SendsPosted -= o.nics.SendsPosted
	s.nics.RDMAWrites -= o.nics.RDMAWrites
	s.nics.RDMAReads -= o.nics.RDMAReads
	s.nics.BytesOut -= o.nics.BytesOut
	return s
}

// layerCounts fills the per-layer counts every run can read from the public
// accessors: NIC, session and mount statistics over the timed window, the
// busy shares of the shared resources, and what the layout and the planner
// compute for the workload's request shape.
func layerCounts(res *repResult, w *workload, c *cluster.Cluster, st layout.Striping, timed snapshot, window sim.Time, sessions [][]*dafs.Client, mounts []*nfs.Client) {
	L := res.Layer
	L["via.sends"] = float64(timed.nics.SendsPosted)
	L["via.rdma_writes"] = float64(timed.nics.RDMAWrites)
	L["via.rdma_reads"] = float64(timed.nics.RDMAReads)
	L["via.bytes_out"] = float64(timed.nics.BytesOut)

	// Session and server totals cover set-up too: sessions expose no window.
	var ops, inline, direct int64
	for _, pool := range sessions {
		for _, cl := range pool {
			s := cl.Stats()
			ops += s.Ops
			inline += s.InlineReadBytes + s.InlineWriteBytes
			direct += s.DirectReadBytes + s.DirectWriteBytes
		}
	}
	L["dafs.ops"] = float64(ops)
	L["dafs.inline_bytes"] = float64(inline)
	L["dafs.direct_bytes"] = float64(direct)
	var reqs int64
	for _, srv := range c.DAFSSrvs {
		reqs += srv.Stats().Requests
	}
	L["dafs.server_requests"] = float64(reqs)
	var rpcs int64
	for _, m := range mounts {
		rpcs += m.Stats().RPCs
	}
	L["nfs.rpcs"] = float64(rpcs)

	if window > 0 {
		L["fabric.client_cpu_busy_share"] = float64(timed.clientCPU) / float64(window) / float64(len(c.ClientNodes))
		L["fabric.server_cpu_busy_share"] = float64(timed.serverCPU) / float64(window) / float64(len(c.ServerNodes))
		// The link resources are private, so the load is computed: bytes
		// through the servers' ports against what the links could carry.
		// Writes load the receive side and reads the transmit side, so the
		// two directions' bytes share one link-window.
		bytes := timed.serverBytes
		if w.nfs {
			bytes = timed.fabricBytes
		}
		L["fabric.server_link_load_share"] = float64(bytes) / (c.Prof.LinkBandwidth * window.Seconds() * float64(len(c.ServerNodes)))
		var disk sim.Time
		for _, d := range c.Disks {
			if d != nil {
				disk += d.BusyTime()
			}
		}
		L["storage.disk_busy_share"] = float64(disk) / float64(window) / float64(len(c.ServerNodes))
	}

	// Request shape through the layout and, for a strided workload (whose
	// first pass has the 1MB shape), the planner.
	lat := w.passes[0]
	for _, ps := range w.passes {
		if ps.latency && !lat.strided() {
			lat = ps
		}
	}
	if !lat.strided() {
		L["layout.fragments_per_request"] = float64(len(st.Map(0, int64(lat.req))))
		return
	}
	segs := make([]aggregate.Segment, lat.req/interleave)
	for k := range segs {
		segs[k] = aggregate.Segment{Off: int64(k * w.clients * interleave), Len: interleave}
	}
	plans := aggregate.Gather(st, segs)
	nseg, nfrag := 0, 0
	for _, pl := range plans {
		nseg += len(pl.Segs)
	}
	for _, s := range segs {
		nfrag += len(st.Map(s.Off, s.Len))
	}
	L["mpiio.batch_segments"] = float64(nseg)
	L["aggregate.segments_per_server"] = float64(nseg) / float64(len(plans))
	L["layout.fragments_per_request"] = float64(nfrag)
}

// tracedLayers reads what only the traced run has: the metrics registry's
// instruments and the tracer's per-category attribution.
func tracedLayers(res *repResult, c *cluster.Cluster, calls int64) {
	L := res.Layer
	reg := c.Metrics
	reg.SampleNow() // histogram summaries exist only at sampling instants
	var dispatch, hiwater int64
	for _, name := range reg.Names() {
		v := reg.Value(name)
		switch {
		case strings.HasPrefix(name, "dafs.client.") && strings.HasSuffix(name, ".credit_wait_ns"):
			if hs := reg.HistSeries(name); len(hs) > 0 {
				L["dafs.credit_waits"] += float64(hs[len(hs)-1].N)
			}
		case strings.HasPrefix(name, "dafs.client.") && strings.HasSuffix(name, ".redials"):
			L["dafs.redials"] += float64(v)
		case strings.HasPrefix(name, "mpiio.striped.") && strings.HasSuffix(name, ".retries"):
			L["dafs.retries"] += float64(v)
		case strings.HasPrefix(name, "mpiio.striped.") && strings.HasSuffix(name, ".excluded"):
			L["mpiio.replica_exclusions"] += float64(v)
		case strings.HasPrefix(name, "mpiio.striped.") && strings.HasSuffix(name, ".stage_hiwater"):
			hiwater = max(hiwater, v)
		case strings.HasPrefix(name, "mpiio.striped.") && strings.Contains(name, ".dispatch."):
			dispatch += v
		case name == "fault.injected":
			L["fault.events_fired"] = float64(v)
		}
	}
	L["mpiio.stage_pool_highwater"] = float64(hiwater)
	if calls > 0 {
		L["mpiio.stripe_fanout"] = float64(dispatch) / float64(calls)
	}

	b := c.Tracer.ComputeBreakdown()
	if b.RootTime > 0 {
		for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
			L[fmt.Sprintf("trace.%s_share", cat)] = float64(b.Total[cat]) / float64(b.RootTime)
		}
		L["trace.other_share"] = float64(b.Other) / float64(b.RootTime)
	}
}
