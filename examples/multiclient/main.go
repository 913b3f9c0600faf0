// Multiclient: aggregate-bandwidth scaling — the experiment that separates
// an OS-bypass file protocol from a kernel one.
//
// N clients stream 2 MB each over DAFS and then over NFS on an identical
// SAN. DAFS scales until the server's *link* is full at a few percent
// server CPU; NFS hits the server's *CPU* wall first. The example prints
// the scaling table and both servers' CPU load.
//
// With -servers S (S > 1) each client's file is striped round-robin across
// S DAFS servers in 64KB stripes, and every write fans out as concurrent
// per-server fragments — the aggregate ceiling becomes S server links
// instead of one. The NFS baseline stays single-server.
//
// With -replicas R (R > 1, requires -servers >= R) every stripe is written
// to R servers (write-all) and readable from any of them, and with
// -kill node@time (e.g. -kill server1@10ms) the named node fail-stops at
// the given simulated instant: in-flight calls to it time out, the session
// fails over, and the DAFS runs either complete on the surviving replicas
// (R > 1) or fail with "all replicas down" (R == 1). The NFS baseline is
// never killed.
//
// The evaluation's T16 runs the same shape — 4 clients, 4 servers, 2
// replicas, server1 killed at 10ms — as an experiment: `mpio stat T16`
// samples its per-interval bandwidth and failover state, and `mpio trace
// T16` breaks its time down by layer.
//
// Run with: go run ./examples/multiclient [-servers 4] [-replicas 2] [-kill server1@10ms]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

const (
	perClient  = 2 << 20
	chunk      = 64 << 10
	stripeSize = 64 << 10

	// Failover tuning for -kill runs: calls to a dead server hang until
	// the deadline, then the session fails over; redials back off
	// 100us -> 800us for three futile attempts before the server is
	// declared gone.
	callTimeout = 20 * sim.Millisecond
)

// killSpec is a parsed -kill flag: fail-stop node at the simulated instant.
type killSpec struct {
	node string
	at   sim.Time
}

// parseKill parses "node@duration", e.g. "server1@10ms".
func parseKill(s string) (*killSpec, error) {
	if s == "" {
		return nil, nil
	}
	node, at, ok := strings.Cut(s, "@")
	if !ok || node == "" {
		return nil, fmt.Errorf("-kill %q: want node@time (e.g. server1@10ms)", s)
	}
	d, err := time.ParseDuration(at)
	if err != nil || d <= 0 {
		return nil, fmt.Errorf("-kill %q: bad time %q (want a positive duration like 10ms)", s, at)
	}
	return &killSpec{node: node, at: sim.Time(d.Nanoseconds())}, nil
}

// point runs n clients against the DAFS servers (or the NFS server) and
// reports aggregate write bandwidth plus server-0 CPU utilization during
// the transfer. A non-nil error means the run failed (e.g. the killed
// server's stripes had no surviving replica).
func point(n, servers, replicas int, kill *killSpec, nfsStack bool) (float64, float64, error) {
	cfg := cluster.Config{Clients: n, Servers: servers, DAFS: !nfsStack, NFS: nfsStack}
	if kill != nil && !nfsStack {
		cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
			{At: kill.at, Kind: fault.ServerCrash, Node: kill.node},
		}})
	}
	c := cluster.New(cfg)
	st := layout.Striping{StripeSize: stripeSize, Width: servers, Replicas: replicas}
	ready := sim.NewWaitGroup(c.K, n)
	var start, end sim.Time
	var cpu0 sim.Time
	errs := make([]error, n)
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		var f *mpiio.File
		name := fmt.Sprintf("out-%d.dat", i)
		if nfsStack {
			client, err := c.MountNFS(p, i, nil)
			if err != nil {
				log.Fatalf("mount: %v", err)
			}
			f, err = mpiio.Open(p, nil, mpiio.NewNFSDriver(client), name, mpiio.ModeWrOnly|mpiio.ModeCreate, nil)
			if err != nil {
				log.Fatalf("open: %v", err)
			}
		} else {
			var opts *dafs.Options
			if kill != nil {
				opts = &dafs.Options{CallTimeout: callTimeout}
			}
			pool, err := c.DialDAFSAll(p, i, opts)
			if err != nil {
				log.Fatalf("dial: %v", err)
			}
			var drv mpiio.Driver
			if servers == 1 {
				drv = mpiio.NewDAFSDriver(pool[0])
			} else {
				sdrv := mpiio.NewStripedDAFSDriver(pool, st)
				if kill != nil {
					sdrv.Retry = dafs.RetryPolicy{Base: 100 * sim.Microsecond, Max: 800 * sim.Microsecond, Attempts: 3}
				}
				drv = sdrv
			}
			mode := mpiio.ModeWrOnly | mpiio.ModeCreate
			if kill != nil {
				mode = mpiio.ModeRdWr | mpiio.ModeCreate // read-back verification
			}
			f, err = mpiio.Open(p, nil, drv, name, mode, nil)
			if err != nil {
				log.Fatalf("open: %v", err)
			}
		}
		buf := make([]byte, chunk)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		f.WriteAt(p, 0, buf) // warm registration
		ready.Done()
		ready.Wait(p)
		if start == 0 {
			start = p.Now()
			cpu0 = c.ServerNode.CPU.BusyTime()
		}
		for off := int64(0); off < perClient; off += chunk {
			if _, err := f.WriteAt(p, off, buf); err != nil {
				if kill == nil {
					log.Fatalf("write: %v", err)
				}
				errs[i] = fmt.Errorf("client%d write at %d: %w", i, off, err)
				break
			}
		}
		if now := p.Now(); errs[i] == nil && now > end {
			end = now
		}
		if kill != nil && !nfsStack && errs[i] == nil {
			// The dead server's stripe objects are stale, so verify through
			// the driver: read-any must serve every byte from a replica.
			got := make([]byte, chunk)
			for off := int64(0); off < perClient; off += chunk {
				if _, err := f.ReadAt(p, off, got); err != nil {
					errs[i] = fmt.Errorf("client%d read-back at %d: %w", i, off, err)
					break
				}
				if !bytes.Equal(got, buf) {
					errs[i] = fmt.Errorf("client%d read-back at %d: data mismatch", i, off)
					break
				}
			}
		}
		f.Close(p)
	})
	if err != nil {
		log.Fatalf("simulation: %v", err)
	}
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	// Verify the data landed: each client's file must hold its pattern,
	// reassembled across the stripe objects when striped. Under -kill the
	// read-back above already verified through the surviving replicas.
	if !nfsStack && kill == nil {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("out-%d.dat", i)
			sizes := make([]int64, servers)
			for s, store := range c.Stores {
				obj, err := store.Lookup(name)
				if err != nil {
					log.Fatalf("verify: server %d lost %s: %v", s, name, err)
				}
				sizes[s] = obj.Size()
			}
			if got := st.LogicalSize(sizes); got != perClient {
				log.Fatalf("verify: %s is %d bytes, want %d", name, got, perClient)
			}
		}
	}
	elapsed := end - start
	return stats.MBps(int64(n)*perClient, elapsed),
		float64(c.ServerNode.CPU.BusyTime()-cpu0) / float64(elapsed),
		nil
}

func main() {
	servers := flag.Int("servers", 1, "number of DAFS servers (files striped across them when > 1)")
	replicas := flag.Int("replicas", 1, "copies of each stripe, write-all/read-any (requires -servers >= replicas)")
	killFlag := flag.String("kill", "", "fail-stop a node mid-run, as node@time (e.g. server1@10ms); DAFS runs only")
	flag.Parse()
	if *servers < 1 {
		log.Fatalf("-servers %d: need at least one", *servers)
	}
	if *replicas < 1 || *replicas > *servers {
		log.Fatalf("-replicas %d: need 1 <= replicas <= servers (%d)", *replicas, *servers)
	}
	if *replicas > 1 && *servers == 1 {
		log.Fatalf("-replicas %d needs -servers > 1", *replicas)
	}
	kill, err := parseKill(*killFlag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate write bandwidth, %s per client, %d DAFS server(s), %d replica(s)\n", stats.Size(perClient), *servers, *replicas)
	if kill != nil {
		fmt.Printf("fault plan: %s fail-stops at %v (DAFS runs; NFS baseline unaffected)\n", kill.node, kill.at)
	}
	fmt.Printf("\n  %-8s  %10s  %9s  %10s  %9s\n", "clients", "dafs MB/s", "srv0 cpu", "nfs MB/s", "srv cpu")
	var failed error
	for _, n := range []int{1, 2, 4, 8} {
		dbw, dcpu, derr := point(n, *servers, *replicas, kill, false)
		nbw, ncpu, _ := point(n, 1, 1, nil, true)
		dafsCell, cpuCell := fmt.Sprintf("%10.1f", dbw), stats.Pct(dcpu)
		if derr != nil {
			dafsCell, cpuCell = fmt.Sprintf("%10s", "failed"), "-"
			failed = derr
		}
		fmt.Printf("  %-8d  %s  %9s  %10.1f  %9s\n", n, dafsCell, cpuCell, nbw, stats.Pct(ncpu))
	}
	switch {
	case failed != nil:
		fmt.Printf("\nDAFS run failed: %v\n(the killed server's stripes had no surviving replica; re-run with -replicas 2)\n", failed)
	case kill != nil:
		fmt.Printf("\n%s died mid-run; writes failed over to the surviving replicas and every byte read back correctly.\n", kill.node)
	case *servers > 1:
		fmt.Printf("\nStriping across %d servers lifts the DAFS ceiling past the single NIC; NFS stays pinned to one server.\n", *servers)
	default:
		fmt.Println("\nDAFS fills the server link at a few percent CPU; NFS saturates the server CPU.")
	}
}
