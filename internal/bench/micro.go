package bench

import (
	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// viaPair is a bare two-node VIA testbed for the microbenchmarks.
type viaPair struct {
	k          *sim.Kernel
	tr         *trace.Tracer
	nicA, nicB *via.NIC
	viA, viB   *via.VI
}

// newViaPair builds the pair; an Observation can trace it but not sample
// it, since there is no cluster to hold a metrics registry.
func newViaPair(o Observation) *viaPair {
	k := sim.NewKernel()
	fab := fabric.New(k, model.CLAN1998())
	prov := via.NewProvider(fab)
	if o.Trace {
		prov.Tracer = trace.New(k)
	}
	nicA := prov.NewNIC(fab.AddNode("a"))
	nicB := prov.NewNIC(fab.AddNode("b"))
	viA := nicA.NewVI(nicA.NewCQ("a.s"), nicA.NewCQ("a.r"))
	viB := nicB.NewVI(nicB.NewCQ("b.s"), nicB.NewCQ("b.r"))
	via.Connect(viA, viB)
	return &viaPair{k: k, tr: prov.Tracer, nicA: nicA, nicB: nicB, viA: viA, viB: viB}
}

// run drives the pair to completion and shuts its kernel down.
func (v *viaPair) run() {
	err := v.k.Run()
	v.k.Shutdown()
	if err != nil {
		panic(err)
	}
}

// pingpongOneWay measures half the ping-pong round trip for one size.
func pingpongOneWay(size, iters int) sim.Time {
	v := newViaPair(Observation{})
	var elapsed sim.Time
	v.k.Spawn("a", func(p *sim.Proc) {
		send := v.nicA.Register(p, make([]byte, size))
		recv := v.nicA.Register(p, make([]byte, size))
		start := p.Now()
		for i := 0; i < iters; i++ {
			v.viA.PostRecv(p, &via.Descriptor{Region: recv, Len: size})
			v.viA.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: send, Len: size})
			v.viA.RecvCQ.Wait(p) // pong
			v.viA.SendCQ.Wait(p)
		}
		elapsed = p.Now() - start
	})
	v.k.Spawn("b", func(p *sim.Proc) {
		send := v.nicB.Register(p, make([]byte, size))
		recv := v.nicB.Register(p, make([]byte, size))
		for i := 0; i < iters; i++ {
			v.viB.PostRecv(p, &via.Descriptor{Region: recv, Len: size})
			v.viB.RecvCQ.Wait(p) // ping
			v.viB.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: send, Len: size})
			v.viB.SendCQ.Wait(p)
		}
	})
	v.run()
	return elapsed / sim.Time(2*iters)
}

// stream measures the bandwidth of count back-to-back sends of one size.
func stream(size, count int, o Observation) Result {
	v := newViaPair(o)
	var start, end sim.Time
	v.k.Spawn("rx", func(p *sim.Proc) {
		r := v.nicB.Register(p, make([]byte, size))
		for i := 0; i < count; i++ {
			v.viB.PostRecv(p, &via.Descriptor{Region: r, Len: size})
		}
		for i := 0; i < count; i++ {
			v.viB.RecvCQ.Wait(p)
		}
		end = p.Now()
	})
	v.k.Spawn("tx", func(p *sim.Proc) {
		r := v.nicA.Register(p, make([]byte, size))
		start = p.Now()
		for i := 0; i < count; i++ {
			v.viA.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: r, Len: size})
		}
		for i := 0; i < count; i++ {
			v.viA.SendCQ.Wait(p)
		}
	})
	v.run()
	return Result{ID: "T1", MBps: stats.MBps(int64(size)*int64(count), end-start), Start: start, End: end, Tracer: v.tr}
}

// rdmaWriteBW measures back-to-back RDMA write bandwidth for one size.
func rdmaWriteBW(size, count int) float64 {
	v := newViaPair(Observation{})
	ready := sim.NewFuture[via.MemHandle](v.k)
	var start, end sim.Time
	v.k.Spawn("target", func(p *sim.Proc) {
		r := v.nicB.Register(p, make([]byte, size))
		ready.Set(r.Handle)
	})
	v.k.Spawn("writer", func(p *sim.Proc) {
		h := ready.Get(p)
		r := v.nicA.Register(p, make([]byte, size))
		start = p.Now()
		for i := 0; i < count; i++ {
			v.viA.PostSend(p, &via.Descriptor{
				Op: via.OpRDMAWrite, Region: r, Len: size,
				RemoteHandle: h, RemoteOffset: 0,
			})
		}
		for i := 0; i < count; i++ {
			v.viA.SendCQ.Wait(p)
		}
		end = p.Now()
	})
	v.run()
	return stats.MBps(int64(size)*int64(count), end-start)
}

// T1RawVIA reproduces the transport microbenchmark table: one-way latency,
// streaming send bandwidth, and RDMA write bandwidth vs message size.
func T1RawVIA() *stats.Table {
	t := &stats.Table{
		ID:      "T1",
		Title:   "Raw VIA latency and bandwidth (cLAN-class SAN, 1.25 Gb/s)",
		Note:    "one-way latency from 16-iteration ping-pong; bandwidth from 64 back-to-back transfers",
		Columns: []string{"size", "1-way us", "send MB/s", "rdma-wr MB/s"},
	}
	for _, size := range []int{8, 64, 512, 4096, 16384, 65536, 262144, 1 << 20} {
		lat := pingpongOneWay(size, 16)
		bw := stream(size, 64, Observation{}).MBps
		rw := rdmaWriteBW(size, 64)
		t.AddRow(stats.Size(int64(size)), stats.Us(lat), stats.BW(bw), stats.BW(rw))
	}
	return t
}

// T7Breakdown decomposes one DAFS read's latency into model components and
// checks the sum against the measured end-to-end time.
func T7Breakdown() *stats.Table {
	t := &stats.Table{
		ID:      "T7",
		Title:   "Latency breakdown of a DAFS read (model components vs measured)",
		Note:    "4KB served inline (data in the response message); 64KB served direct (server RDMA write)",
		Columns: []string{"component", "4KB inline us", "64KB direct us"},
	}
	prof := model.CLAN1998()

	// Wire time for an n-byte message crossing the SAN once. Single-cell
	// messages traverse each stage in sequence; multi-cell transfers
	// pipeline, so the receive stage (link serialization plus host DMA in
	// one engine) dominates per cell.
	cellData := prof.CellSize - prof.CellHeader
	dmaCell := func(n int) sim.Time { return prof.DMASetup + sim.TransferTime(int64(n), prof.DMABandwidth) }
	serCell := func(n int) sim.Time { return sim.TransferTime(int64(n+prof.CellHeader), prof.LinkBandwidth) }
	wire := func(n int) sim.Time {
		cells := (n + cellData - 1) / cellData
		if cells <= 1 {
			return prof.DescProcess + dmaCell(n) + serCell(n) +
				prof.WireLatency + serCell(n) + dmaCell(n) + prof.CompletionCost
		}
		fill := dmaCell(cellData) + serCell(cellData) + prof.WireLatency
		rxStage := serCell(cellData) + dmaCell(cellData)
		return prof.DescProcess + fill + sim.Time(cells)*rxStage + prof.CompletionCost
	}
	const reqLen = 44 // header + read request body
	type split struct{ post, reqWire, server, respWire, complete, measured sim.Time }
	mk := func(size int, direct bool) split {
		var s split
		threshold := 1 << 20 // inline
		if direct {
			threshold = 0
		}
		s.post = prof.MarshalCost + prof.CopyTime(reqLen) + prof.DoorbellCost
		s.reqWire = wire(reqLen)
		s.server = 2*prof.MarshalCost + prof.DAFSOpCost
		if direct {
			// Response carries only a count; the data moves by RDMA.
			s.server += wire(size) + prof.DoorbellCost // RDMA write + post
			s.respWire = wire(20)
			s.complete = prof.WakeupLatency + prof.MarshalCost + prof.CopyTime(4)
		} else {
			s.server += sim.TransferTime(int64(size), prof.ServerMemBW)
			s.respWire = wire(size + 24)
			s.complete = prof.WakeupLatency + prof.MarshalCost + prof.CopyTime(size+8)
		}
		// One warm read of size bytes, timed alone.
		pt := seq("T7", dafsStack, size, int64(size), false)
		pt.tune = func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = threshold }
		s.measured = measure(pt).Elapsed()
		return s
	}
	small := mk(4096, false)
	big := mk(65536, true)
	row := func(name string, a, b sim.Time) { t.AddRow(name, stats.Us(a), stats.Us(b)) }
	row("client build+post", small.post, big.post)
	row("request wire", small.reqWire, big.reqWire)
	row("server service+data", small.server, big.server)
	row("response wire", small.respWire, big.respWire)
	row("client completion", small.complete, big.complete)
	sum := func(s split) sim.Time { return s.post + s.reqWire + s.server + s.respWire + s.complete }
	row("model sum", sum(small), sum(big))
	row("measured end-to-end", small.measured, big.measured)
	return t
}
