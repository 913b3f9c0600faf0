package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dafsio/internal/aggregate"
	"dafsio/internal/bench"
	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/kstack"
	"dafsio/internal/layout"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
	"dafsio/internal/storage"
	"dafsio/internal/via"
)

// The layer ladder: the same request shapes through each layer's public
// API on a 1x1 cluster, bottom rung first. A rung's self time is its span
// minus the rung beneath it for the same shape and direction.
//
//	DAFS side: via -> dafs -> mpiio
//	NFS side:  kstack -> nfs -> mpiio
//
// The bottom rungs have no file semantics, so their "write" is the shape's
// bytes one way and a 32-byte acknowledgement back, and their "read" is a
// 32-byte request one way and the shape's bytes back: the least any
// protocol above them must move.

type shape struct {
	label string
	n     int
}

var shapes = []shape{{"4K", 4 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}

var dirs = []string{"write", "read"}

const (
	ladderIters = 8  // timed calls per rung, shape and direction, after one warm call
	ackLen      = 32 // bytes of a bottom-rung request or acknowledgement
	udpChunk    = 32 << 10
)

// The rungs of each side, bottom first.
var ladderSides = [][]string{{"via", "dafs", "mpiio"}, {"kstack", "nfs", "mpiio-nfs"}}

type ladder struct {
	rec   *spanRecorder
	layer map[string]float64
	rungs map[string]float64 // "<rung>/<dir>/<shape>" -> simulated us of one warm call
}

func rungKey(rung, dir, shape string) string { return rung + "/" + dir + "/" + shape }

// timeOps runs op once to warm and then ladderIters times under one parent
// span, one child span per call, and records and returns the median
// simulated duration in microseconds.
func (ld *ladder) timeOps(p *sim.Proc, rung, dir string, sh shape, req int, op func(i int)) float64 {
	op(0)
	name := "ladder/" + rungKey(rung, dir, sh.label)
	parent := ld.rec.open(name, rung, 0, req, p.Now())
	durs := make([]float64, 0, ladderIters)
	for i := 1; i <= ladderIters; i++ {
		id := ld.rec.open(name, rung, parent, req, p.Now())
		t0 := p.Now()
		op(i)
		durs = append(durs, (p.Now() - t0).Micros())
		ld.rec.end(id, p.Now())
	}
	ld.rec.end(parent, p.Now())
	med := median(durs)
	ld.rungs[rungKey(rung, dir, sh.label)] = med
	return med
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustN(n int, err error, want int) {
	if err != nil || n != want {
		panic(fmt.Sprintf("ladder: n=%d want %d err=%v", n, want, err))
	}
}

// runLadder measures every rung and the per-layer figures that come from
// direct calls into one layer.
func runLadder() *repResult {
	ld := &ladder{rec: &spanRecorder{on: true}, layer: map[string]float64{}, rungs: map[string]float64{}}
	ld.dafsSide()
	ld.nfsSide()
	ld.mpiLayer()
	ld.hostLayers()
	L := ld.layer
	L["mpiio.tax_us_4K"] = ld.rungs["mpiio/write/4K"] - ld.rungs["dafs/write/4K"]
	L["mpiio.tax_us_1M"] = ld.rungs["mpiio/write/1M"] - ld.rungs["dafs/write/1M"]
	L["mpiio.nfs_tax_us_4K"] = ld.rungs["mpiio-nfs/write/4K"] - ld.rungs["nfs/write/4K"]
	L["dafs.write_us_4K"] = ld.rungs["dafs/write/4K"]
	L["dafs.read_us_4K"] = ld.rungs["dafs/read/4K"]
	L["dafs.write_direct_MBps_1M"] = 1 << 20 / ld.rungs["dafs/write/1M"]
	L["dafs.read_direct_MBps_1M"] = 1 << 20 / ld.rungs["dafs/read/1M"]
	L["nfs.write_us_4K"] = ld.rungs["nfs/write/4K"]
	L["nfs.read_us_4K"] = ld.rungs["nfs/read/4K"]
	L["nfs.read_MBps_1M"] = 1 << 20 / ld.rungs["nfs/read/1M"]
	return &repResult{Workload: "ladder", Traced: true, Layer: L, Rungs: ld.rungs, Spans: ld.rec.spans}
}

// selfTimes returns every rung's self time, keyed like rungs, and the first
// negative one (a rung cheaper than the rung beneath it) as an error.
func selfTimes(rungs map[string]float64) (map[string]float64, error) {
	self := map[string]float64{}
	var err error
	for _, side := range ladderSides {
		for _, dir := range dirs {
			for _, sh := range shapes {
				below := 0.0
				for _, rung := range side {
					k := rungKey(rung, dir, sh.label)
					self[k] = rungs[k] - below
					if self[k] < 0 && err == nil {
						err = fmt.Errorf("ladder: rung %s has negative self time %.3fus", k, self[k])
					}
					below = rungs[k]
				}
			}
		}
	}
	return self, err
}

// step is one exchange of a bottom rung's script: out bytes from the client,
// back bytes from the server.
type step struct{ out, back int }

// pp4K is the symmetric 4KB exchange behind the one-way latencies.
var pp4K = shape{"4K", 4 << 10}

// bottomScript is what both ends of a bottom rung follow, in timeOps's
// order: per shape and direction one warm exchange and ladderIters timed
// ones, then the same of the ping-pong.
func bottomScript() []step {
	var script []step
	for _, sh := range shapes {
		for _, dir := range dirs {
			for i := 0; i <= ladderIters; i++ {
				if dir == "write" {
					script = append(script, step{sh.n, ackLen})
				} else {
					script = append(script, step{ackLen, sh.n})
				}
			}
		}
	}
	for i := 0; i <= ladderIters; i++ {
		script = append(script, step{pp4K.n, pp4K.n})
	}
	return script
}

func (ld *ladder) dafsSide() {
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	nicA, nicB := c.NICs[0], c.DAFSSrv.NIC()
	viA := nicA.NewVI(nicA.NewCQ("ladder.a.s"), nicA.NewCQ("ladder.a.r"))
	viB := nicB.NewVI(nicB.NewCQ("ladder.b.s"), nicB.NewCQ("ladder.b.r"))
	via.Connect(viA, viB)

	// After the script, a back-to-back stream of 1MB sends.
	const streamN = 16
	script := bottomScript()
	// Receives are posted before anything runs, at no simulated cost: VIA
	// requires the descriptor to be there when the message arrives.
	regA := nicA.RegisterCached(make([]byte, maxReq))
	regB := nicB.RegisterCached(make([]byte, maxReq))
	for _, s := range script {
		must(viB.PrepostRecv(&via.Descriptor{Region: regB, Len: s.out}))
		must(viA.PrepostRecv(&via.Descriptor{Region: regA, Len: s.back}))
	}
	for i := 0; i < streamN; i++ {
		must(viB.PrepostRecv(&via.Descriptor{Region: regB, Len: maxReq}))
	}
	var streamStart, streamEnd sim.Time // stamped by the sender and the receiver
	c.K.Spawn("ladder.echo", func(p *sim.Proc) {
		for _, s := range script {
			viB.RecvCQ.Wait(p)
			must(viB.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: regB, Len: s.back}))
			viB.SendCQ.Wait(p)
		}
		for i := 0; i < streamN; i++ {
			viB.RecvCQ.Wait(p)
		}
		streamEnd = p.Now()
	})
	c.K.Spawn("ladder.app", func(p *sim.Proc) {
		exchange := func(out int) {
			must(viA.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: regA, Len: out}))
			viA.RecvCQ.Wait(p)
			viA.SendCQ.Wait(p)
		}
		for si, sh := range shapes {
			for _, dir := range dirs {
				out := sh.n
				if dir == "read" {
					out = ackLen
				}
				ld.timeOps(p, "via", dir, sh, si, func(int) { exchange(out) })
			}
		}
		ld.layer["via.send_1way_us_4K"] = ld.timeOps(p, "via", "pingpong", pp4K, 0, func(int) { exchange(pp4K.n) }) / 2

		streamStart = p.Now()
		for i := 0; i < streamN; i++ {
			must(viA.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: regA, Len: maxReq}))
		}
		for i := 0; i < streamN; i++ {
			viA.SendCQ.Wait(p)
		}

		t0 := p.Now()
		for i := 0; i < streamN; i++ {
			must(viA.PostSend(p, &via.Descriptor{
				Op: via.OpRDMAWrite, Region: regA, Len: maxReq, RemoteHandle: regB.Handle,
			}))
		}
		for i := 0; i < streamN; i++ {
			viA.SendCQ.Wait(p)
		}
		ld.layer["via.rdma_write_MBps_1M"] = stats.MBps(streamN*maxReq, p.Now()-t0)

		buf := make([]byte, maxReq)
		t0 = p.Now()
		reg := nicA.Register(p, buf)
		ld.layer["via.register_us_1M"] = (p.Now() - t0).Micros()

		// DAFS rung: the session's own operations, inline up to MaxInline
		// and direct (RDMA against the registered buffer) above it.
		t0, h0 := p.Now(), time.Now()
		cl, err := c.DialDAFS(p, 0, nil)
		must(err)
		ld.layer["dafs.dial_sim_us"] = (p.Now() - t0).Micros()
		ld.layer["dafs.dial_host_us"] = time.Since(h0).Seconds() * 1e6
		for si, sh := range shapes {
			fh, _, err := cl.Create(p, "ladder.dafs."+sh.label)
			must(err)
			for _, dir := range dirs {
				write := dir == "write"
				ld.timeOps(p, "dafs", dir, sh, si, func(i int) {
					off := int64(i) * int64(sh.n)
					var n int
					var err error
					switch {
					case sh.n <= cl.MaxInline() && write:
						n, err = cl.Write(p, fh, off, buf[:sh.n])
					case sh.n <= cl.MaxInline():
						n, err = cl.Read(p, fh, off, buf[:sh.n])
					case write:
						n, err = cl.WriteDirect(p, fh, off, reg, 0, sh.n)
					default:
						n, err = cl.ReadDirect(p, fh, off, reg, 0, sh.n)
					}
					mustN(n, err, sh.n)
				})
			}
		}
		// One batch call: 8192 segments of 128B, the strided workload's
		// per-call list, in as many requests as the session's limit needs.
		fh, _, err := cl.Create(p, "ladder.dafs.batch")
		must(err)
		const nseg = 8192
		// Sized first: grown 128 bytes at a time the store would copy the
		// object once per segment, seconds of host time for no figure.
		must(cl.Setattr(p, fh, nseg*4*interleave))
		specs := make([]dafs.SegSpec, nseg)
		for k := range specs {
			specs[k] = dafs.SegSpec{Off: int64(k) * 4 * interleave, Len: interleave}
		}
		batch := func() {
			var ios []*dafs.IO
			for lo := 0; lo < nseg; lo += cl.MaxBatch() {
				hi := min(lo+cl.MaxBatch(), nseg)
				io, err := cl.StartWriteBatch(p, fh, specs[lo:hi], reg, lo*interleave)
				must(err)
				ios = append(ios, io)
			}
			for _, io := range ios {
				_, err := io.Wait(p)
				must(err)
			}
		}
		batch()
		t0 = p.Now()
		batch()
		ld.layer["dafs.write_batch_MBps_128Bx8192"] = stats.MBps(nseg*interleave, p.Now()-t0)

		// MPI-IO rung over the same session.
		drv := mpiio.NewDAFSDriver(cl)
		for si, sh := range shapes {
			f, err := mpiio.Open(p, nil, drv, "ladder.mpiio."+sh.label, mpiio.ModeRdWr|mpiio.ModeCreate, nil)
			must(err)
			b := buf[:sh.n]
			ld.timeOps(p, "mpiio", "write", sh, si, func(i int) {
				n, err := f.WriteAt(p, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
			ld.timeOps(p, "mpiio", "read", sh, si, func(i int) {
				n, err := f.ReadAt(p, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
			must(f.Close(p))
		}
	})
	must(c.Run())
	ld.layer["via.send_MBps_1M"] = stats.MBps(streamN*maxReq, streamEnd-streamStart)
}

func (ld *ladder) nfsSide() {
	// Bottom rung: two kernel stacks on a bare 1x1 cluster (the NFS
	// server's own stack is private to it).
	bare := cluster.New(cluster.Config{Clients: 1})
	sa := kstack.New(bare.ClientNodes[0], bare.Prof, bare.K)
	sb := kstack.New(bare.ServerNode, bare.Prof, bare.K)
	sockA, err := sa.Socket(700)
	must(err)
	sockB, err := sb.Socket(701)
	must(err)
	idA, idB := bare.ClientNodes[0].ID, bare.ServerNode.ID
	// sendAll moves n bytes as 32KB datagrams; recvAll collects them.
	sendAll := func(p *sim.Proc, sock *kstack.Socket, dst fabric.NodeID, port uint16, buf []byte) {
		for lo := 0; lo < len(buf); lo += udpChunk {
			must(sock.SendTo(p, dst, port, buf[lo:min(lo+udpChunk, len(buf))]))
		}
	}
	recvAll := func(p *sim.Proc, sock *kstack.Socket, n int) {
		for got := 0; got < n; {
			dg, ok := sock.Recv(p)
			if !ok {
				panic("ladder: socket closed")
			}
			got += len(dg.Data)
		}
	}
	script := bottomScript()
	const streamN = 32
	buf := make([]byte, maxReq)
	var streamStart, streamEnd sim.Time // stamped by the sender and the receiver
	bare.K.Spawn("ladder.echo", func(p *sim.Proc) {
		for _, s := range script {
			recvAll(p, sockB, s.out)
			sendAll(p, sockB, idA, 700, buf[:s.back])
		}
		recvAll(p, sockB, streamN*udpChunk)
		streamEnd = p.Now()
	})
	bare.K.Spawn("ladder.app", func(p *sim.Proc) {
		exchange := func(out, back int) {
			sendAll(p, sockA, idB, 701, buf[:out])
			recvAll(p, sockA, back)
		}
		for si, sh := range shapes {
			ld.timeOps(p, "kstack", "write", sh, si, func(int) { exchange(sh.n, ackLen) })
			ld.timeOps(p, "kstack", "read", sh, si, func(int) { exchange(ackLen, sh.n) })
		}
		ld.layer["kstack.udp_1way_us_4K"] = ld.timeOps(p, "kstack", "pingpong", pp4K, 0, func(int) { exchange(pp4K.n, pp4K.n) }) / 2
		streamStart = p.Now()
		for i := 0; i < streamN; i++ {
			must(sockA.SendTo(p, idB, 701, buf[:udpChunk]))
		}
	})
	must(bare.Run())
	ld.layer["kstack.udp_MBps_32K"] = stats.MBps(streamN*udpChunk, streamEnd-streamStart)

	c := cluster.New(cluster.Config{Clients: 1, NFS: true})
	c.K.Spawn("ladder.app", func(p *sim.Proc) {
		m, err := c.MountNFS(p, 0, nil)
		must(err)
		for si, sh := range shapes {
			fh, _, err := m.Create(p, "ladder.nfs."+sh.label)
			must(err)
			b := buf[:sh.n]
			ld.timeOps(p, "nfs", "write", sh, si, func(i int) {
				n, err := m.Write(p, fh, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
			ld.timeOps(p, "nfs", "read", sh, si, func(i int) {
				n, err := m.Read(p, fh, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
		}
		drv := mpiio.NewNFSDriver(m)
		for si, sh := range shapes {
			f, err := mpiio.Open(p, nil, drv, "ladder.mpiio."+sh.label, mpiio.ModeRdWr|mpiio.ModeCreate, nil)
			must(err)
			b := buf[:sh.n]
			ld.timeOps(p, "mpiio-nfs", "write", sh, si, func(i int) {
				n, err := f.WriteAt(p, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
			ld.timeOps(p, "mpiio-nfs", "read", sh, si, func(i int) {
				n, err := f.ReadAt(p, int64(i)*int64(sh.n), b)
				mustN(n, err, sh.n)
			})
			must(f.Close(p))
		}
	})
	must(c.Run())
}

// mpiLayer times the message-passing primitives the collective path uses,
// on a 4-rank world.
func (ld *ladder) mpiLayer() {
	const ranks, iters = 4, 8
	c := cluster.New(cluster.Config{Clients: ranks, MPI: true})
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		r := c.World.Rank(i)
		small, big := make([]byte, 4<<10), make([]byte, maxReq)
		pingpong := func(buf []byte) sim.Time {
			r.Barrier(p)
			t0 := p.Now()
			for k := 0; k < iters; k++ {
				switch i {
				case 0:
					r.Send(p, 1, 7, buf)
					r.Recv(p, 1, 7, buf)
				case 1:
					r.Recv(p, 0, 7, buf)
					r.Send(p, 0, 7, buf)
				}
			}
			return (p.Now() - t0) / (2 * iters)
		}
		pingpong(small) // warm the eager slots and the rendezvous registrations
		pingpong(big)
		oneWay4K, oneWay1M := pingpong(small), pingpong(big)

		r.Barrier(p)
		t0 := p.Now()
		for k := 0; k < iters; k++ {
			r.Barrier(p)
		}
		barrier := (p.Now() - t0) / iters

		send := make([][]byte, ranks)
		for j := range send {
			send[j] = big[:maxReq/ranks]
		}
		r.AlltoallvBytes(p, send)
		r.Barrier(p)
		t0 = p.Now()
		r.AlltoallvBytes(p, send)
		r.Barrier(p)
		all := p.Now() - t0
		if i == 0 {
			ld.layer["mpi.sendrecv_1way_us_4K"] = oneWay4K.Micros()
			ld.layer["mpi.sendrecv_MBps_1M"] = stats.MBps(maxReq, oneWay1M)
			ld.layer["mpi.barrier_us_4r"] = barrier.Micros()
			ld.layer["mpi.alltoallv_MBps_4r_1M"] = stats.MBps(ranks*maxReq, all)
		}
	})
	must(err)
}

// hostTime returns the median host time of fn over iters runs.
func hostTime(iters int, fn func()) time.Duration {
	ds := make([]time.Duration, iters)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[iters/2]
}

// hostLayers times, on the host clock, the layers that cost no simulated
// time: the planner, the layout, the store and the kernel itself.
func (ld *ladder) hostLayers() {
	L := ld.layer
	st := layout.Striping{StripeSize: stripeSize, Width: 4}
	segs := make([]aggregate.Segment, 8192)
	for k := range segs {
		segs[k] = aggregate.Segment{Off: int64(k) * 4 * interleave, Len: interleave}
	}
	sink := 0 // keeps the compiler from discarding the calls being timed
	L["aggregate.gather_host_us_8192seg"] = hostTime(21, func() { sink += len(aggregate.Gather(st, segs)) }).Seconds() * 1e6
	const reps = 1000
	L["aggregate.domains_host_us"] = hostTime(21, func() {
		for i := 0; i < reps; i++ {
			sink += aggregate.Domains(st, int64(i), 4<<20, 4, true).NAgg()
		}
	}).Seconds() * 1e6 / reps
	L["layout.map_host_ns_256K_w4"] = hostTime(21, func() {
		for i := 0; i < reps; i++ {
			sink += len(st.Map(int64(i)*(256<<10), 256<<10))
		}
	}).Seconds() * 1e9 / reps

	// The store as the servers use it: a file grown by 64KB appends, then
	// read back in 64KB pieces.
	const chunk, chunks = 64 << 10, 512
	block := make([]byte, chunk)
	var f *storage.File
	app := hostTime(1, func() { // once: growth is quadratic at this commit, seconds per run
		f, _ = storage.NewStore().Create("ladder.append")
		for i := 0; i < chunks; i++ {
			f.WriteAt(block, int64(i)*chunk)
		}
	})
	L["storage.append_host_ns_per_KB_64Kx512"] = app.Seconds() * 1e9 / (chunk * chunks / 1024)
	rd := hostTime(5, func() {
		for i := 0; i < chunks; i++ {
			f.ReadAt(block, int64(i)*chunk)
		}
	})
	L["storage.readat_host_ns_per_KB"] = rd.Seconds() * 1e9 / (chunk * chunks / 1024)

	t0 := time.Now()
	kr := bench.RunKernelLoad(bench.KernelLoadConfig{Clients: 1000, Rounds: 10})
	L["sim.synthetic_events_per_s"] = float64(kr.Events) / time.Since(t0).Seconds()
	runtime.KeepAlive(sink)
}
