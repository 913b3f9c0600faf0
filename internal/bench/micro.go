package bench

import (
	"fmt"

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
	start, end sim.Time // the measured window, marked by the procs
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

// run drives the pair to completion, shuts it down and reports its window.
func (v *viaPair) run(bytes int64) Result {
	err := v.k.Run()
	v.k.Shutdown()
	if err != nil {
		panic(err)
	}
	return Result{MBps: stats.MBps(bytes, v.end-v.start), Start: v.start, End: v.end, Tracer: v.tr}
}

// Every T1 run is pt.req-byte messages, 16 round trips for the ping-pong
// and 64 transfers back to back for the streams.
const (
	pingIters   = 16
	streamCount = 64
)

// pingpong times pingIters round trips; the one-way latency is half a
// round trip.
func pingpong(pt point, o Observation) Result {
	size, v := pt.req, newViaPair(o)
	v.k.Spawn("a", func(p *sim.Proc) {
		send := v.nicA.Register(p, make([]byte, size))
		recv := v.nicA.Register(p, make([]byte, size))
		v.start = p.Now()
		for i := 0; i < pingIters; i++ {
			v.viA.PostRecv(p, &via.Descriptor{Region: recv, Len: size})
			v.viA.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: send, Len: size})
			v.viA.RecvCQ.Wait(p) // pong
			v.viA.SendCQ.Wait(p)
		}
		v.end = p.Now()
	})
	v.k.Spawn("b", func(p *sim.Proc) {
		send := v.nicB.Register(p, make([]byte, size))
		recv := v.nicB.Register(p, make([]byte, size))
		for i := 0; i < pingIters; i++ {
			v.viB.PostRecv(p, &via.Descriptor{Region: recv, Len: size})
			v.viB.RecvCQ.Wait(p) // ping
			v.viB.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: send, Len: size})
			v.viB.SendCQ.Wait(p)
		}
	})
	return v.run(int64(2 * pingIters * size))
}

// burst measures the bandwidth of streamCount back-to-back sends, or of
// as many RDMA writes into one registered target.
func burst(rdma bool) func(point, Observation) Result {
	return func(pt point, o Observation) Result {
		size, v := pt.req, newViaPair(o)
		target := sim.NewFuture[via.MemHandle](v.k)
		v.k.Spawn("rx", func(p *sim.Proc) {
			r := v.nicB.Register(p, make([]byte, size))
			if rdma {
				target.Set(r.Handle)
				return
			}
			for i := 0; i < streamCount; i++ {
				v.viB.PostRecv(p, &via.Descriptor{Region: r, Len: size})
			}
			for i := 0; i < streamCount; i++ {
				v.viB.RecvCQ.Wait(p)
			}
			v.end = p.Now()
		})
		v.k.Spawn("tx", func(p *sim.Proc) {
			op, h := via.OpSend, via.MemHandle(0)
			if rdma {
				op, h = via.OpRDMAWrite, target.Get(p)
			}
			r := v.nicA.Register(p, make([]byte, size))
			v.start = p.Now()
			for i := 0; i < streamCount; i++ {
				v.viA.PostSend(p, &via.Descriptor{Op: op, Region: r, Len: size, RemoteHandle: h})
			}
			for i := 0; i < streamCount; i++ {
				v.viA.SendCQ.Wait(p)
			}
			if rdma {
				v.end = p.Now()
			}
		})
		return v.run(int64(size) * streamCount)
	}
}

// t1RawVIA reproduces the transport microbenchmark table: one-way latency,
// streaming send bandwidth, and RDMA write bandwidth vs message size.
func t1RawVIA() Experiment {
	sizes := []int{8, 64, 512, 4096, 16384, 65536, 262144, 1 << 20}
	kinds := []point{{label: "ping-pong", body: pingpong}, {label: "send stream", body: burst(false)},
		{label: "RDMA-write stream", body: burst(true)}}
	var pts []point
	for _, size := range sizes {
		for _, pt := range kinds {
			pt.req, pt.label = size, fmt.Sprintf("%s of %s messages on a bare VIA pair", pt.label, sizeOf(size))
			pts = append(pts, pt)
		}
	}
	return Experiment{ID: "T1", Title: "Raw VIA latency and bandwidth", Points: pts, Observe: 5*3 + 1, // the 64KB send stream
		Render: rows(stats.Table{
			Title:   "Raw VIA latency and bandwidth (cLAN-class SAN, 1.25 Gb/s)",
			Note:    "one-way latency from 16-iteration ping-pong; bandwidth from 64 back-to-back transfers",
			Columns: []string{"size", "1-way us", "send MB/s", "rdma-wr MB/s"},
		}, format(sizes, sizeOf), func(r []Result) []string {
			return append([]string{stats.Us(r[0].Elapsed() / (2 * pingIters))}, bws(r[1:])...)
		})}
}

// t7Breakdown decomposes one DAFS read's latency into model components and
// checks the sum against the measured end-to-end time: its points are the
// two measured reads, each one warm read of size bytes timed alone, and
// its render does the model arithmetic.
func t7Breakdown() Experiment {
	read := func(label string, size, threshold int) point {
		pt := labeled(label, seq(dafsStack, size, int64(size), false))
		pt.tune = func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = threshold }
		return pt
	}
	return Experiment{ID: "T7", Title: "DAFS operation latency breakdown",
		Points: []point{read("inline", 4096, 1<<20), read("direct", 65536, 0)},
		Render: func(rs []Result) *stats.Table {
			t := &stats.Table{
				Title:   "Latency breakdown of a DAFS read (model components vs measured)",
				Note:    "4KB served inline (data in the response message); 64KB served direct (server RDMA write)",
				Columns: []string{"component", "4KB inline us", "64KB direct us"},
			}
			prof := model.CLAN1998()

			// Wire time for an n-byte message crossing the SAN once.
			// Single-cell messages traverse each stage in sequence;
			// multi-cell transfers pipeline, so the receive stage (link
			// serialization plus host DMA in one engine) dominates per cell.
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
			// The five components of one read of size bytes, in row order.
			parts := func(size int, direct bool) [5]sim.Time {
				post := prof.MarshalCost + prof.CopyTime(reqLen) + prof.DoorbellCost
				server := 2*prof.MarshalCost + prof.DAFSOpCost
				if direct {
					// Response carries only a count; the data moves by RDMA.
					server += wire(size) + prof.DoorbellCost // RDMA write + post
					return [5]sim.Time{post, wire(reqLen), server, wire(20), prof.WakeupLatency + prof.MarshalCost + prof.CopyTime(4)}
				}
				server += sim.TransferTime(int64(size), prof.ServerMemBW)
				return [5]sim.Time{post, wire(reqLen), server, wire(size + 24), prof.WakeupLatency + prof.MarshalCost + prof.CopyTime(size+8)}
			}
			small, big := parts(4096, false), parts(65536, true)
			var sum [2]sim.Time
			for i, name := range []string{"client build+post", "request wire", "server service+data", "response wire", "client completion"} {
				t.AddRow(name, stats.Us(small[i]), stats.Us(big[i]))
				sum[0], sum[1] = sum[0]+small[i], sum[1]+big[i]
			}
			t.AddRow("model sum", stats.Us(sum[0]), stats.Us(sum[1]))
			t.AddRow("measured end-to-end", stats.Us(rs[0].Elapsed()), stats.Us(rs[1].Elapsed()))
			return t
		}}
}
